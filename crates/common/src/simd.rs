//! Slab sweep primitives shared by the HIGGS compressed matrix and the GSS
//! baseline.
//!
//! The hot loops of every probe — edge lookups over `r × r` candidate
//! buckets, source-vertex sweeps over a candidate row — reduce to one shape:
//! *sum the weights of all slots whose packed key and tag match a pattern
//! under a mask and whose time offset lies in an inclusive range*.
//! [`sum_matching`] is that primitive, operating over three parallel columns
//! (`keys`, `tags`, `weights`) of a structure-of-arrays slab:
//!
//! * `keys[i]` holds the packed fingerprint pair of slot `i`,
//! * `tags[i]` holds the packed index pair in its high 32 bits and the time
//!   offset in its low 32 bits,
//! * `weights[i]` holds the accumulated signed weight.
//!
//! Empty slots are all-zero, so they can match a zero pattern — but their
//! weight is zero, so they contribute nothing. That invariant lets callers
//! sweep *fixed-length* slot ranges (whole buckets, whole GSS rows and
//! columns) without consulting per-bucket occupancy counts.
//!
//! # Key-first evaluation
//!
//! The predicate is conjunctive and the key test is by far the most
//! selective conjunct (fingerprints are ≈ 19 random bits), so the loop
//! evaluates **key-first**: the `keys` column is the only stream read
//! unconditionally — 8 bytes per slot instead of the full 24 — and the
//! `tags`/`weights` columns are loaded only for the rare slots whose masked
//! key matches. The hit branch is almost never taken, so the branch
//! predictor, not a vector unit, is what keeps the loop at about one key
//! check per cycle. The module name is kept for its public path; the loop
//! is plain scalar code on every target.
//!
//! [`prefetch_read_data`] is the portable software-prefetch shim used by the
//! columnar batch evaluator: `prefetcht0` on x86_64 (baseline SSE, available
//! on every x86_64 CPU), a no-op elsewhere. Prefetching never faults, so the
//! wrapper is safe; it bounds-checks the index and does nothing out of range.

/// Mask extracting the time offset from a packed tag (low 32 bits).
pub const TAG_OFFSET_MASK: u64 = 0xFFFF_FFFF;

/// Sums `weights[i]` over all `i` where
/// `keys[i] & key_mask == key_pat`, `tags[i] & tag_mask == tag_pat`, and
/// `off_lo <= tags[i] & TAG_OFFSET_MASK <= off_hi` (inclusive).
///
/// All three slices must have equal length (debug-asserted; the shorter
/// length governs in release builds). Slots are visited in ascending index
/// order and accumulation wraps on 64-bit overflow.
///
/// `tag_pat` must not set bits inside [`TAG_OFFSET_MASK`] (offsets are
/// range-checked, not pattern-matched) and `off_lo`/`off_hi` must be
/// `u32`-range values; both are debug-asserted.
// `#[inline]`: bucket-granular probes call this with `b ≈ 3`-slot slices
// tens of times per query; inlining into the probe loop removes the
// nine-argument call from the hot path.
#[inline]
#[allow(clippy::too_many_arguments)]
// LINT-ALLOW(hot-path-panic): `n = min(keys.len(), tags.len(),
// weights.len())` bounds the loop, so `keys[..n]`, `tags[i]` and
// `weights[i]` are all in range.
pub fn sum_matching(
    keys: &[u64],
    tags: &[u64],
    weights: &[i64],
    key_mask: u64,
    key_pat: u64,
    tag_mask: u64,
    tag_pat: u64,
    off_lo: u32,
    off_hi: u32,
) -> i64 {
    debug_assert_eq!(keys.len(), tags.len());
    debug_assert_eq!(keys.len(), weights.len());
    debug_assert_eq!(tag_pat & TAG_OFFSET_MASK, 0);
    let (off_lo, off_hi) = (u64::from(off_lo), u64::from(off_hi));
    let n = keys.len().min(tags.len()).min(weights.len());
    let mut acc = 0i64;
    for (i, &k) in keys[..n].iter().enumerate() {
        if k & key_mask == key_pat {
            let t = tags[i];
            let tag_eq = (t & tag_mask) == tag_pat;
            let off = t & TAG_OFFSET_MASK;
            let off_in = (off >= off_lo) & (off <= off_hi);
            // `true` → all-ones mask, `false` → zero: select without
            // branching.
            let lane = ((tag_eq & off_in) as i64).wrapping_neg();
            acc = acc.wrapping_add(weights[i] & lane);
        }
    }
    acc
}

/// Software-prefetches `data[index]` for an imminent read (`prefetcht0` on
/// x86_64, no-op elsewhere and when `index` is out of range). Purely a
/// performance hint: prefetch instructions never fault and never change
/// observable results.
#[inline(always)]
pub fn prefetch_read_data<T>(data: &[T], index: usize) {
    #[cfg(target_arch = "x86_64")]
    if index < data.len() {
        // SAFETY: the index is in bounds, so the pointer is valid; prefetch
        // has no observable side effects and cannot fault regardless.
        #[allow(unsafe_code)]
        unsafe {
            core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                data.as_ptr().add(index).cast(),
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (data, index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation with obvious branching semantics.
    #[allow(clippy::too_many_arguments)]
    fn naive(
        keys: &[u64],
        tags: &[u64],
        weights: &[i64],
        key_mask: u64,
        key_pat: u64,
        tag_mask: u64,
        tag_pat: u64,
        off_lo: u32,
        off_hi: u32,
    ) -> i64 {
        let mut acc = 0i64;
        for i in 0..keys.len() {
            let off = (tags[i] & TAG_OFFSET_MASK) as u32;
            if keys[i] & key_mask == key_pat
                && tags[i] & tag_mask == tag_pat
                && off >= off_lo
                && off <= off_hi
            {
                acc = acc.wrapping_add(weights[i]);
            }
        }
        acc
    }

    fn workload(len: usize, seed: u64) -> (Vec<u64>, Vec<u64>, Vec<i64>) {
        let mut state = seed;
        let mut next = move || {
            state = crate::hashing::splitmix64(state);
            state
        };
        let keys: Vec<u64> = (0..len).map(|_| next() % 8).collect();
        let tags: Vec<u64> = (0..len)
            .map(|_| ((next() % 4) << 32) | (next() % 100))
            .collect();
        let weights: Vec<i64> = (0..len).map(|_| (next() % 1000) as i64 - 500).collect();
        (keys, tags, weights)
    }

    #[test]
    fn matches_naive_reference_across_lengths() {
        // Empty, bucket-sized and row-sized slices, odd and even lengths.
        for len in [0usize, 1, 2, 3, 5, 7, 15, 16, 17, 31, 64, 100, 257] {
            let (keys, tags, weights) = workload(len, len as u64 + 1);
            for (lo, hi) in [(0u32, u32::MAX), (10, 60), (50, 50), (90, 10)] {
                let expect = naive(&keys, &tags, &weights, !0, 3, 0xF_0000_0000, 0, lo, hi);
                let got = sum_matching(&keys, &tags, &weights, !0, 3, 0xF_0000_0000, 0, lo, hi);
                assert_eq!(got, expect, "len {len} range [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn masked_key_and_tag_patterns() {
        let (keys, tags, weights) = workload(200, 42);
        // High-half key match (src-style), high-byte tag match.
        let cases = [
            (
                0xFFFF_FFFF_0000_0000u64,
                2u64 << 32,
                0xFF00_0000_0000u64,
                0u64,
            ),
            (0xFFFF_FFFFu64, 5, 0xFF_0000_0000u64, 2u64 << 32),
            (!0u64, 0, !TAG_OFFSET_MASK, 3u64 << 32),
        ];
        for (km, kp, tm, tp) in cases {
            assert_eq!(
                sum_matching(&keys, &tags, &weights, km, kp, tm, tp, 0, u32::MAX),
                naive(&keys, &tags, &weights, km, kp, tm, tp, 0, u32::MAX),
            );
        }
    }

    #[test]
    fn empty_all_zero_slots_contribute_nothing() {
        // The slab invariant: all-zero slots may satisfy a zero pattern but
        // never change the sum, because their weight is zero.
        let keys = vec![0u64; 64];
        let tags = vec![0u64; 64];
        let weights = vec![0i64; 64];
        assert_eq!(
            sum_matching(&keys, &tags, &weights, 0, 0, 0, 0, 0, u32::MAX),
            0
        );
    }

    #[test]
    fn wrapping_accumulation_is_consistent() {
        let keys = vec![1u64; 20];
        let tags = vec![0u64; 20];
        let weights = vec![i64::MAX; 20];
        let expect = (0..20).fold(0i64, |a, _| a.wrapping_add(i64::MAX));
        assert_eq!(
            sum_matching(&keys, &tags, &weights, !0, 1, !0, 0, 0, u32::MAX),
            expect
        );
    }

    #[test]
    fn prefetch_is_safe_in_and_out_of_bounds() {
        let data = [1u64, 2, 3];
        prefetch_read_data(&data, 0);
        prefetch_read_data(&data, 2);
        prefetch_read_data(&data, 3); // out of range: no-op
        prefetch_read_data::<u64>(&[], 0);
    }
}
