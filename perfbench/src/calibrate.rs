//! A fixed reference kernel that measures how fast this machine runs right
//! now, independent of `higgs`.
//!
//! On a shared virtual machine the speed available to a process drifts by
//! tens of percent from one minute to the next: on the reference box a
//! one-thread loop moves ±15% between 5-second blocks, and whole ten-run
//! sets of this benchmark moved by 20–30% together. Every workload samples
//! this kernel before and after each of its instances; the gated end-to-end
//! times and rates are reported at [`REFERENCE_MOPS`], scaled by the ratio
//! of the reference rate to the run's median sample (see
//! `PassOut::at_reference`). The measured values are printed beside them.

use std::hint::black_box;
use std::time::Instant;

/// The kernel rate the gated metrics are scaled to, in millions of
/// operations per second (a typical sample on the reference box).
pub const REFERENCE_MOPS: f64 = 140.0;
/// Table of 2^21 `u64`s (16 MiB): larger than the caches, like a summary.
const TABLE: usize = 1 << 21;
/// Read-modify-writes per sample.
const OPS: u64 = 1 << 22;

/// One sample of the kernel on this thread: xorshift-addressed
/// read-modify-writes scattered over a table that was written once
/// beforehand (so page faults stay out of the timing), in millions of
/// operations per second.
pub fn sample_mops() -> f64 {
    let mut table: Vec<u64> = (0..TABLE as u64).collect();
    let mask = TABLE - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let start = Instant::now();
    for _ in 0..OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[(x as usize) & mask];
        *slot = slot.wrapping_add(x);
    }
    black_box(&table);
    OPS as f64 / start.elapsed().as_secs_f64() / 1e6
}
