//! `query_dashboard`: the read path alone.
//!
//! A run walks through [`INSTANCES`] input instances in turn. Each is set
//! up (the Lkml preset, heaviest degree tail, preloaded into a two-shard
//! `HiggsService` with the journal off), warmed, and then offered tickets
//! open loop at [`NOMINAL_QPS`], one query each, from a fixed set drawn
//! from the dashboard mix over [`WINDOWS`](crate::common::WINDOWS) sliding
//! windows, all with the default `ReadYourWrites`. Writers and logs sit
//! idle; admission, coalescing, the plan cache and the columnar sweep do
//! the work. The last instance also climbs [`LADDER`] until a rung misses
//! [`LATENCY_LIMIT_MS`] (`query_max_qps`).
//!
//! Every served answer must be at least the exact answer and equal the
//! direct `query_batch` answer.

use crate::calibrate::sample_mops;
use crate::common::{
    bulk_load, exact_answers, frac, instance_seed, layer_probes, metric, pass_layer_metrics,
    preset_stream, query_mix, refresh_ms, service_config, skew, sliding_windows, span_of, Ctx,
    PassOut, SplitMix, BULK_BATCH, LATENESS_LIMIT_MS,
};
use crate::openloop::{self, Op, PhaseResult};
use crate::stats::{mean, median, quantile};
use crate::trace::{SpanBuf, Trace};
use higgs::{HiggsService, JournalMode};
use higgs_common::generator::{DatasetPreset, WorkloadBuilder};
use higgs_common::{ErrorStats, Query, TemporalGraphSummary};
use std::time::{Duration, Instant};

/// Input instances per run. Each is a fresh service over its own seeded
/// stream, so state that persists for a service's life (thread placement,
/// memory layout, the stream's shape) is sampled several times per run.
const INSTANCES: usize = 16;
/// Lkml at half its default scale: 60k edges fill 515–760 leaves for every
/// seed tried, so the tree has the same height (5) on every instance; at the
/// default scale the leaf count straddles 4^5 and the height flips by seed.
const LKML_SCALE: f64 = 0.5;
/// Distinct queries the tickets cycle through.
const QUERY_SET: usize = 4096;
/// The fixed offered rate of the measured phase, queries/s.
const NOMINAL_QPS: f64 = 8000.0;
/// Share of `--seconds` spent at the nominal rate, split over instances.
const NOMINAL_SHARE: f64 = 0.5;
const WARMUP_S: f64 = 0.1;
/// The rate ladder of `query_max_qps`, queries/s, [`RUNG_S`] per rung.
const LADDER: [f64; 7] = [
    4000.0, 8000.0, 16000.0, 32000.0, 64000.0, 128000.0, 256000.0,
];
const RUNG_S: f64 = 0.5;
/// A rung passes when its p99 and its drain time stay within this limit.
pub const LATENCY_LIMIT_MS: f64 = 25.0;

/// What one instance measured.
struct Instance {
    setup_s: f64,
    ingest_eps: f64,
    bytes_per_edge: f64,
    refresh_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
    plans_per_query: f64,
}

pub fn run(ctx: &Ctx, traced: bool) -> PassOut {
    let mut out = PassOut::default();
    let mut instances = Vec::new();
    let (mut edge_err, mut vertex_err) = (ErrorStats::new(), ErrorStats::new());
    let mut max_qps = 0.0;
    let mut samples = 0usize;
    let mut trace = Trace::default();
    for j in 0..INSTANCES {
        let last = j + 1 == INSTANCES;
        out.calibration_mops.push(sample_mops());
        let mut main_spans = SpanBuf::new(traced, ctx.origin);
        let mut send_spans = SpanBuf::new(traced, ctx.origin);
        let mut wait_spans = SpanBuf::new(traced, ctx.origin);
        let mut quiet_send = SpanBuf::new(false, ctx.origin);
        let mut quiet_wait = SpanBuf::new(false, ctx.origin);

        // Set-up: inputs, the service and the preload.
        let seed = instance_seed(ctx.seed, j);
        let t0 = Instant::now();
        let stream = preset_stream(DatasetPreset::Lkml, LKML_SCALE, seed);
        let edges = stream.edges();
        let mut builder = WorkloadBuilder::new(&stream, seed);
        let windows = sliding_windows(span_of(edges));
        let mut rng = SplitMix::new(seed);
        let queries = query_mix(&mut builder, QUERY_SET, &mut rng, |_, rng| {
            windows[rng.below(windows.len())]
        });
        drop(builder);
        let svc = HiggsService::new(service_config(JournalMode::Off));
        let client = svc.client();
        let (load, acked, refused) = bulk_load(&client, edges, &mut main_spans);
        let setup_s = t0.elapsed().as_secs_f64();
        out.attempted += edges.chunks(BULK_BATCH).len() as u64;
        out.failed += refused;
        out.check(svc.total_items() == acked, || {
            format!(
                "total_items {} != acknowledged edges {acked}",
                svc.total_items()
            )
        });

        // Timed: warm-up, then the nominal rate.
        let mut next = 0usize;
        let mut cycle = |count: usize| {
            let first = next;
            next += count;
            move |i: usize| Op::Query((first + i) % QUERY_SET)
        };
        let warm_n = (NOMINAL_QPS * WARMUP_S) as usize;
        let warm = openloop::fixed_rate(warm_n, NOMINAL_QPS, Duration::ZERO, cycle(warm_n));
        let mut phases = vec![openloop::run(
            &client,
            &queries,
            edges,
            edges.len(),
            &warm,
            &mut quiet_send,
            &mut quiet_wait,
        )];
        let plans0 = svc.plans_built();
        let nominal_s = (ctx.seconds * NOMINAL_SHARE / INSTANCES as f64).max(0.25);
        let nominal_n = (NOMINAL_QPS * nominal_s) as usize;
        let nominal =
            openloop::fixed_rate(nominal_n, NOMINAL_QPS, Duration::ZERO, cycle(nominal_n));
        let measured = openloop::run(
            &client,
            &queries,
            edges,
            edges.len(),
            &nominal,
            &mut send_spans,
            &mut wait_spans,
        );
        let answered = measured.queries.iter().filter(|q| q.result.is_ok()).count();
        let latencies: Vec<f64> = measured.queries.iter().map(|q| q.latency_ms()).collect();
        samples += latencies.len();
        out.lateness_ms.extend(&measured.lateness_ms);
        instances.push(Instance {
            setup_s,
            ingest_eps: acked as f64 / load.as_secs_f64(),
            bytes_per_edge: svc.summary().space_bytes() as f64 / edges.len() as f64,
            refresh_ms: f64::NAN,
            p50_ms: quantile(&latencies, 0.5),
            p99_ms: quantile(&latencies, 0.99),
            plans_per_query: (svc.plans_built() - plans0) as f64 / answered.max(1) as f64,
        });
        phases.push(measured);

        if last {
            for rate in LADDER {
                let count = (rate * RUNG_S) as usize;
                let rung = openloop::fixed_rate(count, rate, Duration::ZERO, cycle(count));
                let result = openloop::run(
                    &client,
                    &queries,
                    edges,
                    edges.len(),
                    &rung,
                    &mut quiet_send,
                    &mut quiet_wait,
                );
                let pass = rung_passes(&result);
                phases.push(result);
                if !pass {
                    break;
                }
                max_qps = rate;
            }
        }

        // Correctness: every served answer equals the direct path and
        // bounds the exact answer from above.
        let direct = svc.summary().query_batch(&queries);
        let exact = exact_answers(edges, &queries);
        for q in phases.iter().flat_map(|p| &p.queries) {
            out.attempted += 1;
            match q.result {
                Ok(w) => out.check(w == direct[q.idx] && w >= exact[q.idx], || {
                    format!(
                        "query {}: served {w}, direct {}, exact {}",
                        q.idx, direct[q.idx], exact[q.idx]
                    )
                }),
                Err(_) => out.failed += 1,
            }
        }
        for (i, q) in queries.iter().enumerate() {
            match q {
                Query::Edge(_) => edge_err.record(exact[i], direct[i]),
                Query::Vertex(_) => vertex_err.record(exact[i], direct[i]),
                _ => {}
            }
        }

        let refresh = refresh_ms(&svc, &client, &queries, &mut out);
        instances.last_mut().expect("pushed above").refresh_ms = refresh;
        if traced && last {
            let leaf_skew = skew(&svc.summary().shard_leaf_counts());
            layer_probes(edges, &queries, &svc, &client, ctx, &mut out);
            out.layer
                .push(metric("shard.leaf_skew", "ratio", leaf_skew));
        }
        for buf in [main_spans, send_spans, wait_spans] {
            trace.absorb(buf);
        }
        out.calibration_mops.push(sample_mops());
    }

    let col = |f: fn(&Instance) -> f64| instances.iter().map(f).collect::<Vec<_>>();
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
        metric("query_samples", "count", samples as f64),
        metric("query_max_qps", "queries/s", max_qps),
        metric("edge_are", "ratio", edge_err.are()),
        metric("vertex_are", "ratio", vertex_err.are()),
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

/// A rung passes when nothing failed, the sender kept its schedule, the p99
/// meets the limit, and the backlog drained within the limit after the last
/// send (it did not grow).
fn rung_passes(r: &PhaseResult) -> bool {
    let latencies: Vec<f64> = r.queries.iter().map(|q| q.latency_ms()).collect();
    let last_intended = r.queries.iter().map(|q| q.intended).fold(0.0, f64::max);
    latencies.iter().all(|l| l.is_finite())
        && quantile(&latencies, 0.99) <= LATENCY_LIMIT_MS
        && quantile(&r.lateness_ms, 0.99) <= LATENESS_LIMIT_MS
        && (r.last_done - last_intended) * 1e3 <= LATENCY_LIMIT_MS
}
