//! Cross-crate tests of the sharded service layer: a property test that
//! `ShardedHiggs` at 1/2/4 shards is bit-identical to a single
//! `HiggsSummary` on random insert/delete/query-batch workloads (the
//! collision-free regime — sharding must never change answers), one-sided
//! error against the exact store under a deliberately collision-heavy
//! configuration, and a multi-threaded stress test serving read-only batches
//! from four threads while an `IngestHandle` streams edges in.

use higgs::{HiggsConfig, HiggsSummary, ShardedHiggs};
use higgs_common::{
    ExactTemporalGraph, Query, StreamEdge, TemporalGraphSummary, TimeRange, VertexDirection,
};
use proptest::prelude::*;

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

/// Random typed queries of all four kinds over the 40-vertex universe,
/// drawn from a small set of windows so batches genuinely share plans.
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

fn collision_heavy_config(shards: usize) -> HiggsConfig {
    HiggsConfig {
        d1: 4,
        f1_bits: 10,
        r_bits: 1,
        bucket_entries: 2,
        mapping_addresses: 2,
        overflow_blocks: true,
        shards,
        plan_cache_capacity: 8,
        ingest_queue_cap: None,
        admission_tick: std::time::Duration::ZERO,
        service_queue_depth: None,
        journal_mode: higgs::JournalMode::Off,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_is_bit_identical_to_single_summary(
        edges in stream_strategy(250),
        delete_mask in prop::collection::vec(0u8..4, 1..64),
        queries in prop::collection::vec(mixed_query_strategy(), 1..40),
    ) {
        // Paper-default parameters over a 40-vertex universe are
        // (essentially) collision-free, so every shard layout must agree
        // bit-for-bit with the unsharded summary through interleaved inserts
        // and deletes, on the batch surface and the per-query loop alike.
        let mut single = HiggsSummary::new(HiggsConfig::paper_default());
        for e in &edges {
            single.insert(e);
        }
        for (e, m) in edges.iter().zip(delete_mask.iter().cycle()) {
            if *m == 0 {
                single.delete(e);
            }
        }
        let single_results = single.query_batch(&queries);

        for shards in [1usize, 2, 4] {
            let config = HiggsConfig::builder()
                .shards(shards)
                .build()
                .expect("valid shard count");
            let mut sharded = ShardedHiggs::new(config);
            sharded.insert_all(&edges);
            for (e, m) in edges.iter().zip(delete_mask.iter().cycle()) {
                if *m == 0 {
                    sharded.delete(e);
                }
            }
            let batched = sharded.query_batch(&queries);
            prop_assert_eq!(
                &batched, &single_results,
                "{} shards diverged from the single summary", shards
            );
            let looped: Vec<u64> = queries.iter().map(|q| sharded.query(q)).collect();
            prop_assert_eq!(&batched, &looped, "{} shards: batch != loop", shards);
            prop_assert_eq!(sharded.total_items(), single.total_items());
        }
    }

    #[test]
    fn sharded_estimates_are_one_sided_under_collisions(
        edges in stream_strategy(200),
        queries in prop::collection::vec(mixed_query_strategy(), 1..32),
    ) {
        // Under an under-sized configuration the per-shard estimates may
        // exceed the truth but must never fall below it: each shard is
        // one-sided on its share of the stream, and gathered results are
        // sums of one-sided parts.
        let mut exact = ExactTemporalGraph::new();
        for e in &edges {
            exact.insert(e);
        }
        let truths = exact.query_batch(&queries);
        for shards in [2usize, 4] {
            let mut sharded = ShardedHiggs::new(collision_heavy_config(shards));
            sharded.insert_all(&edges);
            let estimates = sharded.query_batch(&queries);
            for (qi, (est, truth)) in estimates.iter().zip(&truths).enumerate() {
                prop_assert!(
                    est >= truth,
                    "{} shards underestimated query {} ({} < {})",
                    shards, qi, est, truth
                );
            }
        }
    }
}

#[test]
fn serving_threads_observe_bounded_results_during_ingest() {
    // Four reader threads fire read-only batches while an ingest thread
    // streams the second half of the stream through an IngestHandle. Shards
    // progress independently (only per-shard prefix order is guaranteed),
    // but HIGGS counters only ever grow on insert, so every served estimate
    // must lie between the after-first-half result and the final result;
    // afterwards the service must agree with a sequentially built single
    // summary.
    let edges: Vec<StreamEdge> = (0..6_000u64)
        .map(|i| StreamEdge::new(i % 120, (i * 17) % 120, 1 + i % 3, i / 2))
        .collect();
    let (first_half, second_half) = edges.split_at(edges.len() / 2);

    let queries: Vec<Query> = (0..24u64)
        .map(|k| {
            let range = TimeRange::new(25 * k, 1_200 + 50 * k);
            match k % 4 {
                0 => Query::edge(k, (k * 17) % 120, range),
                1 => Query::vertex(k, VertexDirection::Out, range),
                2 => Query::vertex(k, VertexDirection::In, range),
                _ => Query::path(vec![k, (k * 17) % 120, (k * 289) % 120], range),
            }
        })
        .collect();

    let config = HiggsConfig::builder().shards(4).build().expect("valid");
    let mut sharded = ShardedHiggs::new(config);
    sharded.insert_all(first_half);
    let lower_bounds = sharded.query_batch(&queries);

    let handle = sharded.ingest_handle();
    let service = &sharded;
    let queries_ref = &queries;
    let served: Vec<Vec<Vec<u64>>> = std::thread::scope(|scope| {
        let producer = scope.spawn(move || {
            for chunk in second_half.chunks(64) {
                for e in chunk {
                    assert!(
                        handle.insert(e).is_ok(),
                        "service must accept mid-stream inserts"
                    );
                }
            }
        });
        let readers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(move || {
                    (0..8)
                        .map(|_| service.query_batch(queries_ref))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let served = readers
            .into_iter()
            .map(|r| r.join().expect("reader thread panicked"))
            .collect();
        producer.join().expect("producer thread panicked");
        served
    });

    sharded.flush();
    let final_results = sharded.query_batch(&queries);
    for (reader, batches) in served.iter().enumerate() {
        for results in batches {
            for (qi, value) in results.iter().enumerate() {
                assert!(
                    *value >= lower_bounds[qi] && *value <= final_results[qi],
                    "reader {reader} query {qi}: {value} outside \
                     [{}, {}] — mid-ingest estimates must be bounded",
                    lower_bounds[qi],
                    final_results[qi]
                );
            }
        }
    }

    // The final state must match a sequentially built single summary.
    let mut single = HiggsSummary::new(HiggsConfig::paper_default());
    single.insert_all(&edges);
    assert_eq!(final_results, single.query_batch(&queries));
    assert_eq!(sharded.total_items(), single.total_items());
}

#[test]
fn sharded_drives_the_query_workload_surface_unchanged() {
    // The whole bench/experiment harness talks TemporalGraphSummary +
    // QueryWorkload; the sharded service must slot in unchanged.
    use higgs_common::QueryWorkload;
    let edges: Vec<StreamEdge> = (0..3_000u64)
        .map(|i| StreamEdge::new(i % 80, (i * 7) % 80, 1, i))
        .collect();
    let mut workload = QueryWorkload::default();
    for k in 0..10u64 {
        workload.edge_queries.push(higgs_common::EdgeQuery::new(
            k,
            (k * 7) % 80,
            TimeRange::new(100 * k, 2_000),
        ));
        workload.vertex_queries.push(higgs_common::VertexQuery::new(
            k,
            if k % 2 == 0 {
                VertexDirection::Out
            } else {
                VertexDirection::In
            },
            TimeRange::new(0, 1_500 + k),
        ));
    }
    workload.path_queries.push(higgs_common::PathQuery::new(
        vec![1, 7, 49],
        TimeRange::all(),
    ));
    workload
        .subgraph_queries
        .push(higgs_common::SubgraphQuery::new(
            vec![(2, 14), (3, 21)],
            TimeRange::all(),
        ));

    let mut single = HiggsSummary::new(HiggsConfig::paper_default());
    single.insert_all(&edges);
    let mut sharded = ShardedHiggs::new(HiggsConfig::builder().shards(3).build().expect("valid"));
    sharded.insert_all(&edges);

    let batch = workload.to_batch();
    assert_eq!(
        sharded.query_batch(batch.queries()),
        single.query_batch(batch.queries())
    );
}
