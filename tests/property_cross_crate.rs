//! Property-based tests spanning crates: randomised streams and query ranges
//! drive the invariants the paper proves — one-sided error for every summary
//! (Section V-D), exact additivity of disjoint ranges on the exact store,
//! insert/delete inverses, and the flat-slab `CompressedMatrix` semantics
//! (spill-path exactness, offset filters, LCG candidate attribution).

use higgs::{CompressedMatrix, HiggsConfig, HiggsSummary};
use higgs_baselines::{Horae, HoraeConfig, Pgss, PgssConfig};
use higgs_common::{
    ExactTemporalGraph, Query, StreamEdge, TemporalGraphSummary, TimeRange, VertexDirection,
};
use proptest::prelude::*;
use std::collections::HashMap;

const MAX_T: u64 = 2_000;

fn edge_strategy() -> impl Strategy<Value = StreamEdge> {
    (0u64..40, 0u64..40, 1u64..5, 0u64..MAX_T).prop_map(|(s, d, w, t)| StreamEdge::new(s, d, w, t))
}

fn stream_strategy(max_len: usize) -> impl Strategy<Value = Vec<StreamEdge>> {
    prop::collection::vec(edge_strategy(), 1..max_len).prop_map(|mut edges| {
        edges.sort_by_key(|e| e.timestamp);
        edges
    })
}

fn range_strategy() -> impl Strategy<Value = TimeRange> {
    (0u64..MAX_T, 0u64..MAX_T).prop_map(|(a, b)| TimeRange::new(a.min(b), a.max(b)))
}

/// Random typed queries of all four kinds over the 40-vertex universe.
/// Ranges are drawn from a small set of windows so batches genuinely share
/// plans (the case the plan-sharing executor optimises).
fn mixed_query_strategy() -> impl Strategy<Value = Query> {
    (0u8..4, 0u64..40, 0u64..40, 0u64..40, 0u64..8).prop_map(|(kind, a, b, c, window)| {
        let start = window * (MAX_T / 8);
        let range = TimeRange::new(start, start + MAX_T / 4);
        match kind {
            0 => Query::edge(a, b, range),
            1 => Query::vertex(
                a,
                if b % 2 == 0 {
                    VertexDirection::Out
                } else {
                    VertexDirection::In
                },
                range,
            ),
            2 => Query::path(vec![a, b, c, (a + b) % 40, (b + c) % 40], range),
            _ => Query::subgraph(vec![(a, b), (b, c), (c, a), (a, c)], range),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn higgs_never_underestimates_edge_or_vertex_queries(
        edges in stream_strategy(300),
        range in range_strategy(),
    ) {
        let mut summary = HiggsSummary::new(HiggsConfig {
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
        });
        let mut exact = ExactTemporalGraph::new();
        for e in &edges {
            summary.insert(e);
            exact.insert(e);
        }
        for v in 0u64..40 {
            for d in [VertexDirection::Out, VertexDirection::In] {
                prop_assert!(summary.vertex_query(v, d, range) >= exact.vertex_query(v, d, range));
            }
        }
        for e in edges.iter().take(40) {
            prop_assert!(summary.edge_query(e.src, e.dst, range) >= exact.edge_query(e.src, e.dst, range));
        }
    }

    #[test]
    fn baselines_never_underestimate(
        edges in stream_strategy(200),
        range in range_strategy(),
    ) {
        let mut horae = Horae::new(HoraeConfig {
            side: 32,
            fingerprint_bits: 12,
            candidates: 2,
            time_slices: MAX_T.next_power_of_two(),
            granularity_step: 1,
        });
        let mut pgss = Pgss::new(PgssConfig {
            matrices: 2,
            side: 32,
            time_slices: MAX_T.next_power_of_two(),
        });
        let mut exact = ExactTemporalGraph::new();
        for e in &edges {
            horae.insert(e);
            pgss.insert(e);
            exact.insert(e);
        }
        for e in edges.iter().take(30) {
            let truth = exact.edge_query(e.src, e.dst, range);
            prop_assert!(horae.edge_query(e.src, e.dst, range) >= truth);
            prop_assert!(pgss.edge_query(e.src, e.dst, range) >= truth);
        }
    }

    #[test]
    fn higgs_full_range_query_equals_total_weight_per_edge_when_collision_free(
        edges in stream_strategy(150),
    ) {
        // At the paper's default parameters the hash range is ~8M while the
        // vertex universe here is 40, so collisions are (essentially) absent
        // and HIGGS is exact — the Lkml observation of Section VI-B.
        let mut summary = HiggsSummary::new(HiggsConfig::paper_default());
        let mut exact = ExactTemporalGraph::new();
        for e in &edges {
            summary.insert(e);
            exact.insert(e);
        }
        for e in &edges {
            prop_assert_eq!(
                summary.edge_query(e.src, e.dst, TimeRange::all()),
                exact.edge_query(e.src, e.dst, TimeRange::all())
            );
        }
    }

    #[test]
    fn insert_then_delete_is_identity_for_higgs(
        edges in stream_strategy(120),
    ) {
        let mut summary = HiggsSummary::new(HiggsConfig::paper_default());
        for e in &edges {
            summary.insert(e);
        }
        for e in &edges {
            summary.delete(e);
        }
        for e in &edges {
            prop_assert_eq!(summary.edge_query(e.src, e.dst, TimeRange::all()), 0);
        }
    }

    #[test]
    fn random_insert_delete_query_sequences_match_exact(
        edges in stream_strategy(250),
        delete_mask in prop::collection::vec(0u8..4, 1..64),
        range in range_strategy(),
    ) {
        // Drives the full mutate/query surface against the exact store: at
        // paper-default parameters the 40-vertex universe is collision-free,
        // so HIGGS must stay *equal* to the truth through interleaved
        // deletions; an under-sized configuration must never underestimate.
        let mut summary = HiggsSummary::new(HiggsConfig::paper_default());
        let mut tiny = HiggsSummary::new(HiggsConfig {
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
        });
        let mut exact = ExactTemporalGraph::new();
        for e in &edges {
            summary.insert(e);
            tiny.insert(e);
            exact.insert(e);
        }
        // Delete a pseudo-random subset of previously inserted items.
        for (e, m) in edges.iter().zip(delete_mask.iter().cycle()) {
            if *m == 0 {
                summary.delete(e);
                tiny.delete(e);
                exact.delete(e);
            }
        }
        for e in edges.iter().take(40) {
            let truth = exact.edge_query(e.src, e.dst, range);
            prop_assert_eq!(summary.edge_query(e.src, e.dst, range), truth);
            prop_assert!(tiny.edge_query(e.src, e.dst, range) >= truth);
        }
        for v in 0u64..40 {
            for d in [VertexDirection::Out, VertexDirection::In] {
                let truth = exact.vertex_query(v, d, range);
                prop_assert_eq!(summary.vertex_query(v, d, range), truth);
                prop_assert!(tiny.vertex_query(v, d, range) >= truth);
            }
        }
    }

    #[test]
    fn matrix_spill_path_is_exact_per_key(
        ops in prop::collection::vec(
            (0u64..6, 0u64..6, 0u32..8, 0u32..8, 1i64..4),
            1..150,
        ),
    ) {
        // A deliberately tiny aggregated matrix (side 2, one entry per
        // bucket, no MMB) forces most inserts onto the spill path. Spill
        // entries are keyed exactly, and slab entries match on the exact
        // packed key, so per-key edge weights and per-address marginals must
        // equal the model precisely — aggregation loses no weight and
        // misattributes none.
        let mut m = CompressedMatrix::new(2, 2, 1, 1);
        let mut model: HashMap<(u64, u64, u32, u32), i64> = HashMap::new();
        let mut total = 0i64;
        for &(a_s, a_d, f_s, f_d, w) in &ops {
            m.insert_aggregated(a_s, a_d, f_s, f_d, w);
            *model.entry((a_s % 2, a_d % 2, f_s, f_d)).or_insert(0) += w;
            total += w;
        }
        prop_assert_eq!(m.total_weight(), total);
        for (&(a_s, a_d, f_s, f_d), &w) in &model {
            prop_assert_eq!(m.edge_weight(a_s, a_d, f_s, f_d, None) as i64, w);
        }
        // Marginals: src_weight(a, f) must equal the sum over the model of
        // entries with that source address (mod side) and fingerprint.
        for a in 0u64..2 {
            for f in 0u32..8 {
                let truth: i64 = model
                    .iter()
                    .filter(|(&(ms, _, mf, _), _)| ms == a && mf == f)
                    .map(|(_, &w)| w)
                    .sum();
                prop_assert_eq!(m.src_weight(a, f, None) as i64, truth);
                let truth: i64 = model
                    .iter()
                    .filter(|(&(_, md, _, mf), _)| md == a && mf == f)
                    .map(|(_, &w)| w)
                    .sum();
                prop_assert_eq!(m.dst_weight(a, f, None) as i64, truth);
            }
        }
    }

    #[test]
    fn matrix_offset_filters_are_exact_for_inserted_entries(
        ops in prop::collection::vec(
            (0u64..8, 0u64..8, 0u32..6, 0u32..6, 0u32..40, 1i64..4),
            1..120,
        ),
        filter in (0u32..40, 0u32..40),
    ) {
        // Leaf-mode slab semantics: LCG candidate sequences are per-index
        // bijections, so an entry only ever matches queries for its own
        // (address mod side, fingerprint) pair — estimates over the set of
        // *accepted* inserts are exact, offset filters included.
        let mut m = CompressedMatrix::new(4, 1, 2, 2);
        let mut accepted: Vec<(u64, u64, u32, u32, u32, i64)> = Vec::new();
        for &(a_s, a_d, f_s, f_d, off, w) in &ops {
            if m.try_insert(a_s, a_d, f_s, f_d, Some(off), w) {
                accepted.push((a_s % 4, a_d % 4, f_s, f_d, off, w));
            }
        }
        let (lo, hi) = (filter.0.min(filter.1), filter.0.max(filter.1));
        for &(a_s, a_d, f_s, f_d, _, _) in accepted.iter().take(40) {
            let truth: i64 = accepted
                .iter()
                .filter(|&&(s, d, fs, fd, off, _)| {
                    s == a_s && d == a_d && fs == f_s && fd == f_d && off >= lo && off <= hi
                })
                .map(|&(_, _, _, _, _, w)| w)
                .sum();
            prop_assert_eq!(
                m.edge_weight(a_s, a_d, f_s, f_d, Some((lo, hi))) as i64,
                truth
            );
        }
        // Deleting an accepted entry through the filter reverses its weight.
        if let Some(&(a_s, a_d, f_s, f_d, off, w)) = accepted.first() {
            let before = m.edge_weight(a_s, a_d, f_s, f_d, None) as i64;
            prop_assert!(m.try_delete(a_s, a_d, f_s, f_d, Some((off, off)), w));
            prop_assert_eq!(m.edge_weight(a_s, a_d, f_s, f_d, None) as i64, before - w);
        }
    }

    #[test]
    fn query_batch_is_bit_identical_to_per_query_loop(
        edges in stream_strategy(250),
        queries in prop::collection::vec(mixed_query_strategy(), 1..48),
    ) {
        // The plan-sharing batch executor (HIGGS), the default trait loop
        // (exact store), and the per-query `query` path must all agree
        // bit-for-bit on random mixed workloads — batching is a cost
        // optimisation, never a semantic change.
        let mut summary = HiggsSummary::new(HiggsConfig::paper_default());
        let mut tiny = HiggsSummary::new(HiggsConfig {
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
        });
        let mut exact = ExactTemporalGraph::new();
        for e in &edges {
            summary.insert(e);
            tiny.insert(e);
            exact.insert(e);
        }
        let batched = summary.query_batch(&queries);
        let looped: Vec<u64> = queries.iter().map(|q| summary.query(q)).collect();
        prop_assert_eq!(&batched, &looped, "HIGGS batch diverged from loop");

        // A collision-heavy HIGGS must also stay self-consistent.
        prop_assert_eq!(
            tiny.query_batch(&queries),
            queries.iter().map(|q| tiny.query(q)).collect::<Vec<u64>>()
        );

        let exact_batched = exact.query_batch(&queries);
        let exact_looped: Vec<u64> = queries.iter().map(|q| exact.query(q)).collect();
        prop_assert_eq!(&exact_batched, &exact_looped, "exact batch diverged");

        // One-sided error carries over to the batch surface, and the
        // executor plans at most once per distinct range.
        for (est, truth) in batched.iter().zip(&exact_batched) {
            prop_assert!(est >= truth);
        }
        summary.reset_plan_count();
        summary.query_batch(&queries);
        prop_assert!(summary.plans_built() <= 8, "at most one plan per window");
    }

    #[test]
    fn exact_store_is_additive_over_disjoint_ranges(
        edges in stream_strategy(200),
        split in 1u64..MAX_T,
    ) {
        let exact = ExactTemporalGraph::from_edges(&edges);
        for e in edges.iter().take(30) {
            let left = exact.edge_query(e.src, e.dst, TimeRange::new(0, split - 1));
            let right = exact.edge_query(e.src, e.dst, TimeRange::new(split, MAX_T));
            let whole = exact.edge_query(e.src, e.dst, TimeRange::new(0, MAX_T));
            prop_assert_eq!(left + right, whole);
        }
    }
}
