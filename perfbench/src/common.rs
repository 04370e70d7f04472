//! Pieces every workload shares: configuration, inputs, the bulk loader,
//! ground truth, directory accounting and the traced layer probes.

use crate::calibrate::REFERENCE_MOPS;
use crate::stats::median;
use crate::trace::{SpanBuf, Trace};
use higgs::{
    HiggsConfig, HiggsService, HiggsSummary, JournalMode, ParallelHiggs, ServiceClient, Store,
    StoreOptions,
};
use higgs_common::generator::{generate_stream, DatasetPreset, ExperimentScale, WorkloadBuilder};
use higgs_common::{
    ExactTemporalGraph, GraphStream, PathQuery, Query, StreamEdge, SubgraphQuery,
    TemporalGraphSummary, TimeRange, VertexDirection,
};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Shards in every workload's store (one per core of the reference box).
pub const SHARDS: usize = 2;
/// Edges per `ServiceClient::insert_all` call in closed-loop bulk loads.
pub const BULK_BATCH: usize = 4096;
/// Sliding windows every dashboard-style query set draws from.
pub const WINDOWS: usize = 16;
/// A run whose sender's p99 lateness exceeds this is invalid: the schedule
/// was not kept, so the latencies do not describe the offered rate.
pub const LATENESS_LIMIT_MS: f64 = 20.0;

/// A named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What one pass over a workload produced.
#[derive(Default)]
pub struct PassOut {
    /// The gated end-to-end metrics (the same names on every workload).
    pub e2e: Vec<Metric>,
    /// End-to-end metrics that apply to this workload only (reported, not
    /// gated).
    pub extra: Vec<Metric>,
    /// Per-layer metrics (traced passes only).
    pub layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    /// How late the open-loop sender ran, in ms, per measured arrival.
    pub lateness_ms: Vec<f64>,
    /// Samples of the reference kernel, one before and one after each
    /// instance.
    pub calibration_mops: Vec<f64>,
    pub trace: Trace,
}

impl PassOut {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// p99 of how late the open-loop sender ran, in ms.
    pub fn lateness_p99_ms(&self) -> f64 {
        crate::stats::quantile(&self.lateness_ms, 0.99)
    }

    /// How much slower than the reference this pass's machine ran: the
    /// reference kernel rate over the median of the pass's samples.
    pub fn slowdown(&self) -> f64 {
        REFERENCE_MOPS / median(&self.calibration_mops)
    }

    /// `m` as it would read at the reference machine speed: rates scaled up
    /// and times scaled down by [`slowdown`](Self::slowdown); sizes and
    /// counts unchanged.
    pub fn at_reference(&self, m: &Metric) -> Metric {
        let value = match m.unit {
            "edges/s" | "queries/s" => m.value * self.slowdown(),
            "s" | "ms" => m.value / self.slowdown(),
            _ => m.value,
        };
        Metric { value, ..m.clone() }
    }

    /// An end-to-end metric, gated or workload-specific, at the reference
    /// machine speed.
    pub fn e2e_at_reference(&self, name: &str) -> f64 {
        self.e2e
            .iter()
            .chain(&self.extra)
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| self.at_reference(m).value)
    }
}

/// Settings shared by every pass of one invocation.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Scratch directory for stores and snapshots, private to this run.
    pub workdir: PathBuf,
    /// Clock origin of every span in the run.
    pub origin: Instant,
}

/// The default `HiggsConfig` at [`SHARDS`] shards with the given journal.
pub fn service_config(journal: JournalMode) -> HiggsConfig {
    HiggsConfig::builder()
        .shards(SHARDS)
        .journal_mode(journal)
        .build()
        .expect("default configuration at two shards is valid")
}

/// The seed of input instance `j` of a run with workload seed `seed`.
///
/// A run builds several independently seeded instances of its inputs and
/// averages what depends on their shape: at these sizes a seed moves a
/// stream's leaf count (hence space and ingest cost) by ±15–20%.
pub fn instance_seed(seed: u64, j: usize) -> u64 {
    SplitMix::new(seed ^ ((j as u64) << 32)).next()
}

/// The preset's stream at `scale` times its default edge and vertex counts
/// (the ratio between them, the degree skew and the burst shape are the
/// preset's), with its seed replaced by `seed`.
pub fn preset_stream(preset: DatasetPreset, scale: f64, seed: u64) -> GraphStream {
    let mut config = preset.config(ExperimentScale::Default);
    config.edges = (config.edges as f64 * scale) as usize;
    config.vertices = (config.vertices as f64 * scale) as usize;
    config.seed = seed;
    generate_stream(&config)
}

/// Time span covered by `edges` (non-empty, time-ordered).
pub fn span_of(edges: &[StreamEdge]) -> TimeRange {
    let first = edges.first().expect("non-empty stream").timestamp;
    let last = edges.last().expect("non-empty stream").timestamp;
    TimeRange::new(first, last)
}

/// [`WINDOWS`] windows of an eighth of `span` each, sliding across it in
/// equal steps: the fixed panels of a dashboard.
pub fn sliding_windows(span: TimeRange) -> Vec<TimeRange> {
    let len = (span.len() / 8).max(1);
    let room = span.len() - len;
    (0..WINDOWS as u64)
        .map(|i| {
            let start = span.start + room * i / (WINDOWS as u64 - 1);
            TimeRange::new(start, start + len - 1)
        })
        .collect()
}

/// A small deterministic generator for choices within a schedule.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Query kinds of the dashboard mix, in the proportions they are drawn:
/// half edge queries, a tenth each of vertex-out, vertex-in, 4-hop path and
/// 8-edge subgraph queries, and the last tenth vertex-in again (it fans out
/// to every shard).
const MIX: [u8; 10] = [0, 0, 0, 0, 0, 1, 2, 3, 4, 2];

/// `count` queries of the dashboard mix over targets sampled from the
/// stream by `builder`. `window(i, rng)` chooses query `i`'s range.
pub fn query_mix(
    builder: &mut WorkloadBuilder,
    count: usize,
    rng: &mut SplitMix,
    mut window: impl FnMut(usize, &mut SplitMix) -> TimeRange,
) -> Vec<Query> {
    (0..count)
        .map(|i| {
            let range = window(i, rng);
            match MIX[i % MIX.len()] {
                0 => {
                    let q = builder.edge_queries(1, 1).remove(0);
                    Query::edge(q.src, q.dst, range)
                }
                kind @ (1 | 2) => {
                    let v = builder.vertex_queries(1, 1).remove(0).vertex;
                    let dir = if kind == 1 {
                        VertexDirection::Out
                    } else {
                        VertexDirection::In
                    };
                    Query::vertex(v, dir, range)
                }
                3 => {
                    let q = builder.path_queries(1, 4, 1).remove(0);
                    Query::Path(PathQuery::new(q.vertices, range))
                }
                _ => {
                    let q = builder.subgraph_queries(1, 8, 1).remove(0);
                    Query::Subgraph(SubgraphQuery::new(q.edges, range))
                }
            }
        })
        .collect()
}

/// Loads `edges` in closed loop through `client` ([`BULK_BATCH`] edges per
/// `insert_all`, each sent when the previous returns) and flushes. Returns
/// the time from the first send until `flush()` returned, and the number of
/// edges acknowledged and batches refused.
pub fn bulk_load(
    client: &ServiceClient,
    edges: &[StreamEdge],
    spans: &mut SpanBuf,
) -> (Duration, u64, u64) {
    let root = spans.reserve();
    let start = Instant::now();
    let (mut acked, mut refused) = (0u64, 0u64);
    for (i, batch) in edges.chunks(BULK_BATCH).enumerate() {
        match spans.time("shard.insert_all", root, i as u64, || {
            client.insert_all(batch)
        }) {
            Ok(()) => acked += batch.len() as u64,
            Err(_) => refused += 1,
        }
    }
    spans.time("shard.flush", root, 0, || client.flush());
    let end = Instant::now();
    spans.record("ingest.bulk", root, 0, 0, start, end);
    (end - start, acked, refused)
}

/// Exact answers of `queries` over `edges`, from `ExactTemporalGraph`.
pub fn exact_answers(edges: &[StreamEdge], queries: &[Query]) -> Vec<u64> {
    let exact = ExactTemporalGraph::from_edges(edges);
    queries.iter().map(|q| exact.query(q)).collect()
}

/// Bytes under `dir`: (all files, journal files, history files).
pub fn dir_bytes(dir: &Path) -> (u64, u64, u64) {
    let mut total = (0, 0, 0);
    let Ok(entries) = std::fs::read_dir(dir) else {
        return total;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let (a, j, h) = dir_bytes(&path);
            total = (total.0 + a, total.1 + j, total.2 + h);
            continue;
        }
        let len = entry.metadata().map_or(0, |m| m.len());
        let name = entry.file_name().to_string_lossy().into_owned();
        total.0 += len;
        if name.starts_with("journal-") {
            total.1 += len;
        } else if name.starts_with("history-") {
            total.2 += len;
        }
    }
    total
}

/// max ÷ mean of per-shard leaf counts.
pub fn skew(counts: &[usize]) -> f64 {
    let max = counts.iter().copied().max().unwrap_or(0) as f64;
    let mean = counts.iter().sum::<usize>() as f64 / counts.len().max(1) as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

/// Median duration in `unit`s (µs divided by `per`) of spans named `name`.
pub fn span_median(trace: &Trace, name: &str, per: f64) -> f64 {
    median(&trace.durations_us(name)) / per
}

/// Queries in the refresh batch behind `refresh_ms`, and how often it is
/// repeated on each store.
pub const REFRESH_QUERIES: usize = 512;
const REFRESH_REPEATS: usize = 15;

/// The dashboard refresh: [`REFRESH_REPEATS`] round trips of one
/// `ServiceClient::query_batch` of the first [`REFRESH_QUERIES`] queries,
/// each checked against the direct `query_batch` answers. Returns the
/// median round trip in ms.
pub fn refresh_ms(
    svc: &HiggsService,
    client: &ServiceClient,
    queries: &[Query],
    out: &mut PassOut,
) -> f64 {
    let panel = &queries[..queries.len().min(REFRESH_QUERIES)];
    let expected = svc.summary().query_batch(panel);
    let mut times = Vec::with_capacity(REFRESH_REPEATS);
    for _ in 0..REFRESH_REPEATS {
        let start = Instant::now();
        let served = client.query_batch(panel);
        times.push(start.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        match served {
            Ok(w) => out.check(w == expected, || {
                "refresh answers differ from the direct path".into()
            }),
            Err(_) => out.failed += 1,
        }
    }
    median(&times)
}

/// The per-layer metrics a workload derives from its own spans and
/// counters: ingest (`shard.*`), log bytes per edge, ticket submission, plan
/// builds per answered query, and the sender's p99 lateness.
pub fn pass_layer_metrics(
    trace: &Trace,
    journal_bytes_per_edge: f64,
    history_bytes_per_edge: f64,
    plans_per_query: f64,
    lateness_p99_ms: f64,
) -> [Metric; 7] {
    [
        metric(
            "shard.insert_all_us",
            "us",
            span_median(trace, "shard.insert_all", 1.0),
        ),
        metric(
            "shard.flush_ms",
            "ms",
            span_median(trace, "shard.flush", 1e3),
        ),
        metric("journal.bytes_per_edge", "B/edge", journal_bytes_per_edge),
        metric("history.bytes_per_edge", "B/edge", history_bytes_per_edge),
        metric(
            "serving.submit_us",
            "us",
            span_median(trace, "serving.submit", 1.0),
        ),
        metric("plan_cache.plans_per_query", "ratio", plans_per_query),
        metric("gen.lateness_p99_ms", "ms", lateness_p99_ms),
    ]
}

/// The traced layer probes that time single layers outside the service:
/// the single-thread tree, the aggregation pipeline, planning, the columnar
/// sweep, snapshots, and the serving surface with no load. Spans go to
/// `spans`; the metrics are derived from them by [`probe_metrics`].
pub fn layer_probes(
    edges: &[StreamEdge],
    queries: &[Query],
    svc: &HiggsService,
    client: &ServiceClient,
    ctx: &Ctx,
    out: &mut PassOut,
) {
    let config = HiggsConfig::default();
    let mut spans = SpanBuf::new(true, ctx.origin);

    // The single-thread baseline of the same stream, kept as the reference
    // summary for the tree, aggregate, boundary and query probes.
    let mut tree = HiggsSummary::new(config);
    let start = Instant::now();
    tree.insert_all(black_box(edges));
    let tree_s = start.elapsed().as_secs_f64();
    spans.record(
        "tree.insert_all",
        0,
        0,
        0,
        start,
        start + Duration::from_secs_f64(tree_s),
    );
    out.layer.push(metric(
        "tree.insert_eps",
        "edges/s",
        edges.len() as f64 / tree_s,
    ));
    out.layer.push(metric(
        "tree.leaf_utilization",
        "ratio",
        tree.average_leaf_utilization(),
    ));
    out.layer
        .push(metric("tree.height", "levels", tree.height() as f64));

    let groups = tree.leaf_count() / config.theta();
    let step = (groups / 64).max(1);
    for g in (0..groups).step_by(step).take(64) {
        spans.time("aggregate.compute", 0, g as u64, || {
            black_box(tree.compute_aggregation(0, g))
        });
    }
    let mut ranges: Vec<TimeRange> = queries.iter().map(query_range).collect();
    ranges.sort_by_key(|r| (r.start, r.end));
    ranges.dedup();
    for (i, &range) in ranges.iter().take(256).enumerate() {
        spans.time("boundary.plan", 0, i as u64, || black_box(tree.plan(range)));
    }
    let start = Instant::now();
    black_box(tree.query_batch(black_box(queries)));
    let sweep_s = start.elapsed().as_secs_f64();
    spans.record(
        "query.batch",
        0,
        0,
        0,
        start,
        start + Duration::from_secs_f64(sweep_s),
    );
    drop(tree);

    let mut pipeline = ParallelHiggs::new(config, 1);
    pipeline.insert_all(edges);
    spans.time("parallel.flush", 0, 0, || pipeline.flush());
    drop(pipeline);

    let snap = ctx.workdir.join("snapshot-probe");
    let _ = std::fs::remove_dir_all(&snap);
    let written = spans.time("snapshot.write", 0, 0, || {
        svc.summary().snapshot_to_dir(&snap)
    });
    out.check(written.is_ok(), || {
        format!("snapshot_to_dir failed: {written:?}")
    });
    let restored = spans.time("snapshot.restore", 0, 0, || {
        Store::open(StoreOptions::restore(&snap))
    });
    match restored {
        Ok(copy) => {
            let same = copy.query_batch(queries) == svc.summary().query_batch(queries);
            out.check(same, || {
                "restored snapshot answers differ from the live store".into()
            });
        }
        Err(e) => out.check(false, || format!("snapshot restore failed: {e}")),
    }
    let _ = std::fs::remove_dir_all(&snap);

    client.flush();
    for i in 0..200 {
        spans.time("serving.empty_flush", 0, i, || client.flush());
    }
    for (i, slice) in queries.chunks(16).take(64).enumerate() {
        spans.time("serving.direct_batch", 0, i as u64, || {
            black_box(svc.summary().query_batch(slice))
        });
    }

    let mut probe = Trace::default();
    probe.absorb(spans);
    let per_query_us = probe.durations_us("query.batch")[0] / queries.len().max(1) as f64;
    out.layer.extend([
        metric(
            "aggregate.compute_us",
            "us",
            span_median(&probe, "aggregate.compute", 1.0),
        ),
        metric(
            "boundary.plan_us",
            "us",
            span_median(&probe, "boundary.plan", 1.0),
        ),
        metric("query.batch_us_per_query", "us", per_query_us),
        metric(
            "parallel.flush_ms",
            "ms",
            span_median(&probe, "parallel.flush", 1e3),
        ),
        metric(
            "snapshot.write_ms",
            "ms",
            span_median(&probe, "snapshot.write", 1e3),
        ),
        metric(
            "snapshot.restore_ms",
            "ms",
            span_median(&probe, "snapshot.restore", 1e3),
        ),
        metric(
            "serving.empty_flush_us",
            "us",
            span_median(&probe, "serving.empty_flush", 1.0),
        ),
        metric(
            "serving.direct_batch_us",
            "us",
            span_median(&probe, "serving.direct_batch", 1.0),
        ),
    ]);
    out.trace.merge(probe);
}

/// The time range a query covers.
pub fn query_range(q: &Query) -> TimeRange {
    match q {
        Query::Edge(q) => q.range,
        Query::Vertex(q) => q.range,
        Query::Path(q) => q.range,
        Query::Subgraph(q) => q.range,
    }
}

/// Fraction of `failed` over `attempted` (0 when nothing was attempted).
pub fn frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_scaling_follows_the_unit() {
        let out = PassOut {
            calibration_mops: vec![REFERENCE_MOPS / 2.0; 3],
            ..PassOut::default()
        };
        assert_eq!(out.slowdown(), 2.0);
        let at = |unit: &'static str| out.at_reference(&metric("m", unit, 10.0)).value;
        assert_eq!(at("edges/s"), 20.0);
        assert_eq!(at("ms"), 5.0);
        assert_eq!(at("s"), 5.0);
        assert_eq!(at("B/edge"), 10.0);
    }

    #[test]
    fn sliding_windows_cover_the_span_in_equal_steps() {
        let windows = sliding_windows(TimeRange::new(0, 1599));
        assert_eq!(windows.len(), WINDOWS);
        assert_eq!(windows[0], TimeRange::new(0, 199));
        assert_eq!(windows[WINDOWS - 1], TimeRange::new(1400, 1599));
    }
}
