//! `mixed_rw`: the fraud-detection shape, reads that must see the writes.
//!
//! A run walks through [`INSTANCES`] input instances in turn. Set-up
//! preloads the first half of the WikiTalk preset (30k vertices: the widest
//! working set, the least sharing) with the journal off. The timed phase
//! streams the second half open loop at one fixed rate in
//! [`BATCH_HZ`] batches per second, each followed at once by a
//! `ReadYourWrites` probe on the batch's last edge (`visibility_*`), while
//! `ReadYourWrites` queries of the dashboard mix arrive open loop at
//! [`QUERY_RATE`] on windows that trail the stream head (`query_*`). Every
//! tick flushes pending ingest and every applied batch bumps the epoch, so
//! flush-clock wait and plan-cache misses dominate.
//!
//! Every served answer must be at least the exact answer over the edges
//! acknowledged before it was submitted; after the final flush the whole
//! query set must answer exactly as the direct path does.

use crate::calibrate::sample_mops;
use crate::common::{
    bulk_load, frac, instance_seed, layer_probes, metric, pass_layer_metrics, preset_stream,
    query_mix, refresh_ms, service_config, skew, span_of, Ctx, PassOut, SplitMix, BULK_BATCH,
};
use crate::openloop::{self, Arrival, Op};
use crate::stats::{mean, median, quantile};
use crate::trace::{SpanBuf, Trace};
use higgs::{HiggsService, JournalMode};
use higgs_common::generator::{DatasetPreset, WorkloadBuilder};
use higgs_common::{ExactTemporalGraph, GraphStream, Query, TemporalGraphSummary, TimeRange};
use std::time::{Duration, Instant};

/// Input instances per run, each set up and streamed in turn (see
/// `query_dashboard`): the stream's shape and the service's placement are
/// sampled several times per run.
const INSTANCES: usize = 8;
/// WikiTalk at 1.25 times its default scale: both the preloaded half and
/// the whole stream then fill a leaf count between 4^5 and 4^6 for every
/// seed tried, so the tree height does not flip with the seed.
const WIKI_SCALE: f64 = 1.25;
/// Ingest batches per second of the streamed half.
const BATCH_HZ: f64 = 100.0;
/// Offered rate of the trailing-window queries, queries/s.
const QUERY_RATE: f64 = 2000.0;
/// Share of `--seconds` the streamed halves span, split over instances.
const STREAM_SHARE: f64 = 0.6;
/// Window lengths, as fractions of the stream span, trailing the head.
const TRAIL: [u64; 4] = [256, 64, 16, 4];

/// Inputs of one set-up: the stream, the query set (regular queries first,
/// then one probe per batch), and the merged schedule.
struct Inputs {
    stream: GraphStream,
    half: usize,
    queries: Vec<Query>,
    schedule: Vec<Arrival>,
}

fn inputs(ctx: &Ctx, seed: u64) -> Inputs {
    let stream = preset_stream(DatasetPreset::WikiTalk, WIKI_SCALE, seed);
    let edges = stream.edges();
    let half = edges.len() / 2;
    let span = span_of(edges);
    let stream_s = (ctx.seconds * STREAM_SHARE / INSTANCES as f64).max(1.0);
    let batches = (stream_s * BATCH_HZ) as usize;
    let per_batch = (edges.len() - half).div_ceil(batches);
    let bounds: Vec<(usize, usize)> = (0..batches)
        .map(|b| {
            (
                half + b * per_batch,
                (half + (b + 1) * per_batch).min(edges.len()),
            )
        })
        .filter(|(lo, hi)| lo < hi)
        .collect();
    let batch_ns = (1e9 / BATCH_HZ) as u64;
    let query_ns = (1e9 / QUERY_RATE) as u64;
    let at_batch = |b: usize| Duration::from_nanos(b as u64 * batch_ns);
    let at_query = |i: usize| Duration::from_nanos(i as u64 * query_ns);
    let regular = (stream_s * QUERY_RATE) as usize;

    // The head query `i` trails: the last edge of the last batch due at or
    // before the query's own send time (batches go first on a tie).
    let head = |i: usize| {
        let due = (i as u64 * query_ns / batch_ns + 1).min(bounds.len() as u64) as usize;
        bounds[due - 1].1
    };
    let mut builder = WorkloadBuilder::new(&stream, seed);
    let mut rng = SplitMix::new(seed);
    let mut queries = query_mix(&mut builder, regular, &mut rng, |i, rng| {
        let head_ts = edges[head(i) - 1].timestamp;
        let len = (span.len() / TRAIL[rng.below(TRAIL.len())]).max(1);
        TimeRange::new(head_ts.saturating_sub(len - 1).max(span.start), head_ts)
    });
    let mut schedule = Vec::with_capacity(regular + bounds.len());
    for (b, &(lo, hi)) in bounds.iter().enumerate() {
        let last = edges[hi - 1];
        queries.push(Query::edge(
            last.src,
            last.dst,
            TimeRange::new(span.start, last.timestamp),
        ));
        let probe = Some(regular + b);
        schedule.push(Arrival {
            at: at_batch(b),
            op: Op::Batch { lo, hi, probe },
        });
    }
    schedule.extend((0..regular).map(|i| Arrival {
        at: at_query(i),
        op: Op::Query(i),
    }));
    // Stable sort: at equal times the batch goes first.
    schedule.sort_by_key(|a| a.at);
    Inputs {
        stream,
        half,
        queries,
        schedule,
    }
}

pub fn run(ctx: &Ctx, traced: bool) -> PassOut {
    let mut out = PassOut::default();
    let mut instances = Vec::new();
    let mut trace = Trace::default();
    for j in 0..INSTANCES {
        let last = j + 1 == INSTANCES;
        instances.push(instance(
            ctx,
            j,
            traced,
            traced && last,
            &mut out,
            &mut trace,
        ));
        out.calibration_mops.push(sample_mops());
        if !out.violations.is_empty() {
            break;
        }
    }
    let col = |f: fn(&Instance) -> f64| instances.iter().map(f).collect::<Vec<_>>();
    let visibility: Vec<f64> = instances
        .iter()
        .flat_map(|i| i.visibility.iter().copied())
        .collect();
    out.e2e = vec![
        metric("setup_s", "s", median(&col(|i| i.setup_s))),
        metric("ingest_eps", "edges/s", median(&col(|i| i.ingest_eps))),
        metric(
            "summary_bytes_per_edge",
            "B/edge",
            mean(&col(|i| i.bytes_per_edge)),
        ),
    ];
    out.extra.extend([
        metric("failed_frac", "ratio", frac(out.failed, out.attempted)),
        metric("query_p50_ms", "ms", median(&col(|i| i.p50_ms))),
        metric("refresh_ms", "ms", median(&col(|i| i.refresh_ms))),
        metric("query_p99_ms", "ms", median(&col(|i| i.p99_ms))),
        metric("query_samples", "count", col(|i| i.queries).iter().sum()),
        metric("visibility_p50_ms", "ms", quantile(&visibility, 0.5)),
        metric("visibility_p99_ms", "ms", quantile(&visibility, 0.99)),
        metric("visibility_samples", "count", visibility.len() as f64),
    ]);
    if traced {
        let plans_per_query = median(&col(|i| i.plans_per_query));
        let lateness = out.lateness_p99_ms();
        out.layer.extend(pass_layer_metrics(
            &trace,
            0.0,
            0.0,
            plans_per_query,
            lateness,
        ));
        out.trace.merge(trace);
    }
    out
}

/// What one instance measured.
struct Instance {
    setup_s: f64,
    ingest_eps: f64,
    bytes_per_edge: f64,
    refresh_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
    queries: f64,
    /// Visibility latencies of the probes, in ms (pooled across instances:
    /// one instance has too few probes for a p99).
    visibility: Vec<f64>,
    plans_per_query: f64,
}

fn instance(
    ctx: &Ctx,
    j: usize,
    traced: bool,
    probes: bool,
    out: &mut PassOut,
    trace: &mut Trace,
) -> Instance {
    out.calibration_mops.push(sample_mops());
    // Set-up: inputs and schedule, the service, the preloaded first half.
    let t0 = Instant::now();
    let inp = inputs(ctx, instance_seed(ctx.seed, j));
    let edges = inp.stream.edges();
    let svc = HiggsService::new(service_config(JournalMode::Off));
    let client = svc.client();
    let mut quiet = SpanBuf::new(false, ctx.origin);
    let (load, preloaded, refused) = bulk_load(&client, &edges[..inp.half], &mut quiet);
    let setup_s = t0.elapsed().as_secs_f64();
    out.attempted += edges[..inp.half].chunks(BULK_BATCH).len() as u64;
    out.failed += refused;
    out.check(svc.total_items() == preloaded, || {
        format!(
            "preload: total_items {} != acknowledged edges {preloaded}",
            svc.total_items()
        )
    });

    // Timed: the streamed half and the queries, open loop.
    let mut send_spans = SpanBuf::new(traced, ctx.origin);
    let mut wait_spans = SpanBuf::new(traced, ctx.origin);
    let mut main_spans = SpanBuf::new(traced, ctx.origin);
    let plans0 = svc.plans_built();
    let phase = openloop::run(
        &client,
        &inp.queries,
        edges,
        inp.half,
        &inp.schedule,
        &mut send_spans,
        &mut wait_spans,
    );
    main_spans.time("shard.flush", 0, 0, || client.flush());
    let answered = phase.queries.iter().filter(|q| q.result.is_ok()).count();
    let plans_per_query = (svc.plans_built() - plans0) as f64 / answered.max(1) as f64;
    let bytes_per_edge = svc.summary().space_bytes() as f64 / edges.len() as f64;
    // Read-your-writes lower bound: replay the acknowledged prefix of each
    // query into the exact store, in submission order.
    let mut by_prefix: Vec<&openloop::QueryOutcome> = phase.queries.iter().collect();
    by_prefix.sort_by_key(|q| q.prefix);
    let mut exact = ExactTemporalGraph::new();
    let mut loaded = 0;
    for q in by_prefix {
        for e in &edges[loaded..q.prefix] {
            exact.insert(e);
        }
        loaded = loaded.max(q.prefix);
        out.attempted += 1;
        match q.result {
            Ok(w) => {
                let truth = exact.query(&inp.queries[q.idx]);
                out.check(w >= truth, || {
                    format!(
                        "query {} read {w} < {truth} over its acknowledged prefix",
                        q.idx
                    )
                });
            }
            Err(_) => out.failed += 1,
        }
    }
    let stream_acked: usize = phase
        .batches
        .iter()
        .zip(inp.schedule.iter().filter_map(|a| match a.op {
            Op::Batch { lo, hi, .. } => Some(hi - lo),
            Op::Query(_) => None,
        }))
        .filter(|(b, _)| b.result.is_ok())
        .map(|(_, len)| len)
        .sum();
    out.attempted += phase.batches.len() as u64;
    out.failed += phase.batches.iter().filter(|b| b.result.is_err()).count() as u64;
    let expected = (inp.half + stream_acked) as u64;
    out.check(svc.total_items() == expected, || {
        format!(
            "total_items {} != acknowledged edges {expected}",
            svc.total_items()
        )
    });
    match client.query_batch(&inp.queries) {
        Ok(served) => out.check(served == svc.summary().query_batch(&inp.queries), || {
            "after the final flush, served answers differ from the direct path".into()
        }),
        Err(e) => out.check(false, || format!("final query batch failed: {e}")),
    }

    let (regular, probe_qs): (Vec<_>, Vec<_>) =
        phase.queries.iter().partition(|q| q.probe_of.is_none());
    let latencies: Vec<f64> = regular.iter().map(|q| q.latency_ms()).collect();
    let visibility: Vec<f64> = probe_qs.iter().map(|q| q.latency_ms()).collect();
    out.lateness_ms.extend(&phase.lateness_ms);
    let refresh = refresh_ms(&svc, &client, &inp.queries, out);
    if probes {
        let leaf_skew = skew(&svc.summary().shard_leaf_counts());
        layer_probes(edges, &inp.queries, &svc, &client, ctx, out);
        out.layer
            .push(metric("shard.leaf_skew", "ratio", leaf_skew));
    }
    for buf in [main_spans, send_spans, wait_spans] {
        trace.absorb(buf);
    }
    Instance {
        setup_s,
        ingest_eps: preloaded as f64 / load.as_secs_f64(),
        bytes_per_edge,
        refresh_ms: refresh,
        p50_ms: quantile(&latencies, 0.5),
        p99_ms: quantile(&latencies, 0.99),
        queries: latencies.len() as f64,
        visibility,
        plans_per_query,
    }
}
