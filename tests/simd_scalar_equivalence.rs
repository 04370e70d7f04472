//! SIMD / scalar bit-identity: the explicit vector kernels behind the `simd`
//! feature must return *exactly* the answers of the scalar reference on every
//! probe path — full summaries (edge/vertex/path/subgraph queries and
//! batches) and direct `CompressedMatrix` probes — across random
//! insert/delete workloads in the paper-default regime, a collision-heavy
//! regime, and a deliberately tiny matrix whose sweep length is **not** a
//! multiple of the AVX2 lane width (tail-handling coverage).
//!
//! `higgs_common::simd::force_scalar` is a process-global toggle, so the
//! whole comparison lives in a single `#[test]` in its own integration
//! binary: no other test can race the dispatch switch. Without the `simd`
//! feature the toggle is inert and the test degenerates to
//! scalar-vs-scalar — still a valid (if tautological) run, which is why CI
//! executes this binary under both feature configurations.

use higgs::{CompressedMatrix, HiggsConfig, HiggsSummary};
use higgs_common::{Query, StreamEdge, TemporalGraphSummary, TimeRange, VertexDirection};

const MAX_T: u64 = 2_000;
const VERTICES: u64 = 48;

/// Deterministic splitmix64 stream — keeps the workload identical across
/// runs and platforms without a `rand` dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// Random insert/delete workload: `len` inserts, roughly a third of them
/// deleted again (some twice, driving net weights negative inside the slab —
/// the clamp path must agree between kernels too).
fn apply_workload(summary: &mut dyn TemporalGraphSummary, rng: &mut Rng, len: usize) {
    let mut edges = Vec::with_capacity(len);
    for _ in 0..len {
        let e = StreamEdge::new(
            rng.below(VERTICES),
            rng.below(VERTICES),
            1 + rng.below(4),
            rng.below(MAX_T),
        );
        summary.insert(&e);
        edges.push(e);
    }
    for e in &edges {
        match rng.below(6) {
            0 | 1 => summary.delete(e),
            2 => {
                summary.delete(e);
                summary.delete(e);
            }
            _ => {}
        }
    }
}

/// Every query shape the crate exposes, over a grid of vertices and time
/// windows, answered through both the one-shot and the batched (columnar,
/// prefetching) executors.
fn all_answers(summary: &HiggsSummary) -> Vec<u64> {
    let windows = [
        TimeRange::all(),
        TimeRange::new(0, MAX_T / 3),
        TimeRange::new(MAX_T / 3, MAX_T),
        TimeRange::new(MAX_T / 2, MAX_T / 2 + 100),
    ];
    let mut answers = Vec::new();
    let mut batch = Vec::new();
    for &range in &windows {
        for a in (0..VERTICES).step_by(3) {
            let b = (a * 7 + 5) % VERTICES;
            answers.push(summary.edge_query(a, b, range));
            answers.push(summary.vertex_query(a, VertexDirection::Out, range));
            answers.push(summary.vertex_query(b, VertexDirection::In, range));
            batch.push(Query::edge(a, b, range));
            batch.push(Query::vertex(b, VertexDirection::Out, range));
            batch.push(Query::path(vec![a, b, (a + b) % VERTICES], range));
            batch.push(Query::subgraph(vec![(a, b), (b, a)], range));
        }
    }
    answers.extend(summary.query_batch(&batch));
    answers
}

/// Direct slab probes on a raw `CompressedMatrix`: aggregated inserts,
/// spill-path entries (tiny bucket capacity), deletes past zero, then every
/// probe family at every address — the exact loops the SIMD kernels replace.
fn matrix_answers(side: u64, bucket_entries: usize, mapping: u32) -> Vec<u64> {
    let mut m = CompressedMatrix::new(side, 0, bucket_entries, mapping);
    let mut rng = Rng(0xC0FF_EE00 ^ side ^ bucket_entries as u64);
    let universe = side * 4;
    for _ in 0..(side * side * bucket_entries as u64) {
        let (s, d) = (rng.below(universe), rng.below(universe));
        let (fs, fd) = ((rng.next() as u32) & 0xFF, (rng.next() as u32) & 0xFF);
        if rng.below(2) == 0 {
            // Leaf-style entry with a real time offset, so offset-filtered
            // probes have live data on both sides of the bounds.
            let _ = m.try_insert(
                s,
                d,
                fs,
                fd,
                Some(rng.below(32) as u32),
                1 + rng.below(5) as i64,
            );
        } else {
            m.insert_aggregated(s, d, fs, fd, 1 + rng.below(5) as i64);
        }
        if rng.below(4) == 0 {
            // Over-delete sometimes: negative net weights exercise the
            // clamp-at-zero agreement between kernels.
            m.try_delete(s, d, fs, fd, None, 2 + rng.below(6) as i64);
        }
    }
    let mut answers = Vec::new();
    for addr in 0..universe {
        let fp = (addr as u32).wrapping_mul(37) & 0xFF;
        answers.push(m.edge_weight(addr, universe - 1 - addr, fp, fp ^ 0x55, None));
        answers.push(m.src_weight(addr, fp, None));
        answers.push(m.dst_weight(addr, fp, None));
        answers.push(m.src_weight(addr, fp, Some((10, 20))));
    }
    answers
}

#[test]
fn simd_and_scalar_probe_paths_are_bit_identical() {
    let configs: Vec<(&str, HiggsConfig)> = vec![
        ("paper-default", HiggsConfig::paper_default()),
        (
            "collision-heavy",
            HiggsConfig {
                d1: 4,
                f1_bits: 10,
                r_bits: 1,
                bucket_entries: 2,
                mapping_addresses: 2,
                overflow_blocks: true,
                shards: 1,
                plan_cache_capacity: 8,
                ingest_queue_cap: None,
                admission_tick: std::time::Duration::ZERO,
                service_queue_depth: None,
                journal_mode: higgs::JournalMode::Off,
            },
        ),
        // side 2 × 9 slots: a contiguous row sweep is 18 slots — past
        // SIMD_MIN_LEN (16) yet not a multiple of the 4-wide AVX2 lane, so
        // the kernels' tail handling is on the hook for every answer.
        (
            "non-lane-multiple",
            HiggsConfig {
                d1: 2,
                f1_bits: 8,
                r_bits: 1,
                bucket_entries: 9,
                mapping_addresses: 2,
                overflow_blocks: true,
                shards: 1,
                plan_cache_capacity: 8,
                ingest_queue_cap: None,
                admission_tick: std::time::Duration::ZERO,
                service_queue_depth: None,
                journal_mode: higgs::JournalMode::Off,
            },
        ),
    ];

    for seed in 0..4u64 {
        for (label, config) in &configs {
            let mut summary = HiggsSummary::new(*config);
            let mut rng = Rng(0xDEAD_BEEF ^ (seed << 32));
            apply_workload(&mut summary, &mut rng, 600);

            // Same immutable summary, both dispatch modes: any difference is
            // the kernels', not the workload's.
            higgs_common::simd::force_scalar(true);
            assert_eq!(higgs_common::simd::kernel_name(), "scalar");
            let scalar = all_answers(&summary);
            higgs_common::simd::force_scalar(false);
            let dispatched = all_answers(&summary);
            assert_eq!(
                scalar,
                dispatched,
                "summary answers diverged between scalar and `{}` kernels \
                 (config {label}, seed {seed})",
                higgs_common::simd::kernel_name()
            );
        }
    }

    // Raw matrix probes, including geometries whose sweeps sit below
    // SIMD_MIN_LEN (always-scalar) and just past it with a ragged tail.
    for (side, bucket_entries, mapping) in [(2, 9, 2), (4, 3, 2), (16, 3, 4), (8, 5, 2)] {
        higgs_common::simd::force_scalar(true);
        let scalar = matrix_answers(side, bucket_entries, mapping);
        higgs_common::simd::force_scalar(false);
        let dispatched = matrix_answers(side, bucket_entries, mapping);
        assert_eq!(
            scalar,
            dispatched,
            "matrix probes diverged between scalar and `{}` kernels \
             (side {side}, bucket_entries {bucket_entries})",
            higgs_common::simd::kernel_name()
        );
    }

    // Leave the process-global dispatch in its default state.
    higgs_common::simd::force_scalar(false);
}
