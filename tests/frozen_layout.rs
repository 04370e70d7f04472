//! The frozen matrix layout: a closed `CompressedMatrix` keeps only its
//! occupied slots plus `d² + 1` bucket offsets, and must answer exactly
//! like the dense layout it was packed from.
//!
//! * Property: for random geometry `(d, b, r)` — sides 2 to 16 and buckets
//!   of 1 to 9 slots, so a dense row holds 2 to 144 slots, often not a
//!   multiple of 4 — random leaf-mode inserts (with time offsets) and
//!   aggregated-mode inserts (tiny buckets force the spill path), a dense
//!   matrix and its frozen copy agree on every edge,
//!   source and destination probe under random offset filters, on the order
//!   of `entries()`, and on `total_weight`, `stored`, `capacity` and
//!   `utilization`. A delete — over-deletes to negative weight included —
//!   applied after freezing gives the same answers as the same delete
//!   applied before freezing.
//! * Space: a counting global allocator (per thread, so concurrently running
//!   tests cannot disturb it) checks that `space_bytes()` of a frozen matrix
//!   is exactly the heap it owns plus `size_of::<CompressedMatrix>()`, and
//!   that an aggregation leaves nothing else allocated behind it — no
//!   static or thread-local dense build buffer outlives the call.

use higgs::{CompressedMatrix, HiggsConfig, HiggsSummary};
use higgs_common::StreamEdge;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator and keeps, per thread, the net number of
/// heap bytes the thread has allocated.
struct CountingAlloc;

thread_local! {
    static NET_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    // `try_with` fails only while the thread is being torn down, when no
    // measurement is running.
    let _ = NET_BYTES.try_with(|net| net.set(net.get() + delta));
}

fn net_bytes() -> isize {
    NET_BYTES.with(Cell::get)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping touches
// only a thread-local `Cell` and never allocates.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: callers uphold the `GlobalAlloc::alloc` contract; forwarded to `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: callers uphold the `GlobalAlloc::alloc_zeroed` contract; forwarded to `System` unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: callers uphold the `GlobalAlloc::dealloc` contract; forwarded to `System` unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: callers uphold the `GlobalAlloc::realloc` contract; forwarded to `System` unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from `System`; arguments forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One random matrix operation: `(kind, addr_src, addr_dst, fp_src, fp_dst,
/// (time offset, weight))`. Kind 0–1 is a leaf-mode insert, 2 an
/// aggregated-mode insert.
type Op = (u8, u64, u64, u32, u32, (u32, i64));

fn op_strategy() -> impl Strategy<Value = Op> {
    (
        0u8..3,
        0u64..64,
        0u64..64,
        0u32..12,
        0u32..12,
        (0u32..40, 1i64..6),
    )
}

/// One random probe: `(addr_src, addr_dst, fp_src, fp_dst, filter)`.
type Probe = (u64, u64, u32, u32, (u8, u32, u32));

fn probe_strategy() -> impl Strategy<Value = Probe> {
    (
        0u64..64,
        0u64..64,
        0u32..12,
        0u32..12,
        (0u8..3, 0u32..40, 0u32..40),
    )
}

/// `None` a third of the time, otherwise an inclusive offset window.
fn filter_of(&(kind, a, b): &(u8, u32, u32)) -> Option<(u32, u32)> {
    (kind != 0).then(|| (a.min(b), a.max(b)))
}

fn build(geometry: (u32, usize, u32), ops: &[Op]) -> CompressedMatrix {
    let (log_side, bucket_entries, mapping) = geometry;
    let mut m = CompressedMatrix::new(1 << log_side, 1, bucket_entries, mapping);
    for &(kind, a_s, a_d, f_s, f_d, (off, w)) in ops {
        if kind < 2 {
            let _ = m.try_insert(a_s, a_d, f_s, f_d, Some(off), w);
        } else {
            m.insert_aggregated(a_s, a_d, f_s, f_d, w);
        }
    }
    m
}

/// Every observable answer of `m` for `probes`, in a fixed order.
fn answers(m: &CompressedMatrix, probes: &[Probe]) -> Vec<u64> {
    let mut out = Vec::with_capacity(probes.len() * 3);
    for &(a_s, a_d, f_s, f_d, filter) in probes {
        let filter = filter_of(&filter);
        out.push(m.edge_weight(a_s, a_d, f_s, f_d, filter));
        out.push(m.src_weight(a_s, f_s, filter));
        out.push(m.dst_weight(a_d, f_d, filter));
    }
    out
}

/// Asserts `frozen` is indistinguishable from `dense` on everything a
/// caller can observe.
fn assert_same(
    dense: &CompressedMatrix,
    frozen: &CompressedMatrix,
    probes: &[Probe],
) -> Result<(), TestCaseError> {
    prop_assert!(!dense.is_frozen());
    prop_assert!(frozen.is_frozen());
    prop_assert_eq!(answers(dense, probes), answers(frozen, probes));
    let dense_entries: Vec<_> = dense.entries().collect();
    let frozen_entries: Vec<_> = frozen.entries().collect();
    prop_assert_eq!(dense_entries, frozen_entries);
    prop_assert_eq!(dense.total_weight(), frozen.total_weight());
    prop_assert_eq!(dense.stored(), frozen.stored());
    prop_assert_eq!(dense.capacity(), frozen.capacity());
    prop_assert_eq!(
        dense.utilization().to_bits(),
        frozen.utilization().to_bits()
    );
    prop_assert_eq!(dense.spill_len(), frozen.spill_len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn frozen_matrix_answers_exactly_like_dense(
        geometry in (1u32..5, 1usize..10, 1u32..5),
        ops in prop::collection::vec(op_strategy(), 1..300),
        probes in prop::collection::vec(probe_strategy(), 1..60),
        deletes in prop::collection::vec((0usize..300, probe_strategy()), 1..20),
    ) {
        let dense = build(geometry, &ops);
        let mut frozen = dense.clone();
        frozen.freeze();
        assert_same(&dense, &frozen, &probes)?;

        // Deletes: the same decrement applied before freezing (then frozen)
        // and after freezing must agree, including over-deletes that drive
        // an entry's weight negative (weights up to 7 exceed any single
        // insert). About half the deletes target an inserted edge's key.
        let mut deleted_then_frozen = dense.clone();
        for (k, &(pick, probe)) in deletes.iter().enumerate() {
            let (mut a_s, mut a_d, mut f_s, mut f_d, filter) = probe;
            if pick % 2 == 0 {
                let op = ops[pick % ops.len()];
                (a_s, a_d, f_s, f_d) = (op.1, op.2, op.3, op.4);
            }
            let filter = filter_of(&filter);
            let weight = 1 + (k as i64 % 7);
            prop_assert_eq!(
                deleted_then_frozen.try_delete(a_s, a_d, f_s, f_d, filter, weight),
                frozen.try_delete(a_s, a_d, f_s, f_d, filter, weight)
            );
        }
        // Deleting must not thaw the frozen copy.
        assert_same(&deleted_then_frozen, &frozen, &probes)?;
        let deleted_dense = deleted_then_frozen.clone();
        deleted_then_frozen.freeze();
        prop_assert_eq!(
            answers(&deleted_then_frozen, &probes),
            answers(&frozen, &probes)
        );

        // A later insert thaws the frozen copy and then behaves exactly like
        // the same insert into the dense matrix.
        let (mut dense_insert, mut thawed) = (deleted_dense, frozen);
        for &(kind, a_s, a_d, f_s, f_d, (off, w)) in ops.iter().take(8) {
            let offset = (kind < 2).then_some(off);
            prop_assert_eq!(
                dense_insert.try_insert(a_s, a_d, f_s, f_d, offset, w),
                thawed.try_insert(a_s, a_d, f_s, f_d, offset, w)
            );
        }
        prop_assert!(!thawed.is_frozen());
        prop_assert_eq!(answers(&dense_insert, &probes), answers(&thawed, &probes));
        let dense_entries: Vec<_> = dense_insert.entries().collect();
        let thawed_entries: Vec<_> = thawed.entries().collect();
        prop_assert_eq!(dense_entries, thawed_entries);
    }
}

/// Expected heap bytes of a frozen matrix: 24 B per occupied slot (key, tag,
/// weight), a `u32` per bucket offset, and the spill list, all exactly
/// fitted.
fn frozen_heap_bytes(m: &CompressedMatrix) -> usize {
    let side = m.side() as usize;
    m.stored() * 24 + (side * side + 1) * 4 + m.spill_len() * 32
}

#[test]
fn frozen_space_is_exactly_the_heap_it_owns() {
    // A leaf-mode matrix with entries in most buckets, and an aggregated
    // one small enough to spill.
    let mut leaf = build(
        (3, 3, 4),
        &(0..150u32)
            .map(|k| {
                let k64 = u64::from(k);
                (
                    0,
                    k64 * 7,
                    k64 * 13,
                    k % 11,
                    k % 7,
                    (k % 30, 1 + i64::from(k % 4)),
                )
            })
            .collect::<Vec<_>>(),
    );
    let mut agg = build(
        (1, 1, 1),
        &(0..40u32)
            .map(|k| (2, 0, 0, k, k, (0, 1)))
            .collect::<Vec<_>>(),
    );
    assert!(agg.spill_len() > 0, "the aggregated matrix must spill");

    for m in [&mut leaf, &mut agg] {
        let dense_space = m.space_bytes();
        let before = net_bytes();
        m.freeze();
        let freed = before - net_bytes();
        let frozen_space = m.space_bytes();
        assert_eq!(
            frozen_space,
            frozen_heap_bytes(m) + std::mem::size_of::<CompressedMatrix>(),
            "frozen columns, offsets and spill list must be exactly fitted"
        );
        assert_eq!(
            (dense_space - frozen_space) as isize,
            freed,
            "space_bytes must move by exactly the heap the freeze released"
        );
        assert!(frozen_space < dense_space);
    }
}

#[test]
fn aggregation_leaves_nothing_allocated_but_its_frozen_result() {
    let config = HiggsConfig {
        d1: 8,
        bucket_entries: 2,
        mapping_addresses: 2,
        ..HiggsConfig::default()
    };
    let mut s = HiggsSummary::new(config);
    for i in 0..3_000u64 {
        s.insert_edge(&StreamEdge::new(i % 400, (i * 17) % 400, 1, i));
    }
    assert!(
        s.leaf_count() > config.theta(),
        "a full leaf group must close"
    );
    // Twice: a second call would reuse (and so not re-count) any buffer the
    // first one cached, so the first call is where a hidden buffer shows.
    for _ in 0..2 {
        let before = net_bytes();
        let parent = s.compute_aggregation(0, 0);
        let held = net_bytes() - before;
        assert!(parent.is_frozen());
        assert!(parent.stored() > 0);
        assert_eq!(
            held,
            (parent.space_bytes() - std::mem::size_of::<CompressedMatrix>()) as isize,
            "heap still held after aggregation must be exactly the frozen parent's"
        );
        assert_eq!(
            parent.space_bytes(),
            frozen_heap_bytes(&parent) + std::mem::size_of::<CompressedMatrix>()
        );
    }
}
