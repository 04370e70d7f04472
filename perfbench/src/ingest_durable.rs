//! `ingest_durable`: the write path alone.
//!
//! Each round generates the Stackoverflow preset, opens an elastic durable
//! store (`JournalMode::Buffered`, so no fsync sets the number) behind a
//! `HiggsService`, snapshots it and bootstraps a `Follower` from that
//! snapshot. One producer then sends fixed-size `insert_all` batches in
//! closed loop while the second thread syncs the follower every
//! [`SYNC_LAG_BATCHES`] batches; `ingest_eps` runs until the final `flush()`
//! returns. The store is then dropped and reopened from its directory
//! (snapshot + journal replay), which answers the check sample once
//! (`restart_s`) and then serves it open-loop at [`READ_RATE`] queries/s
//! (`query_p50_ms`, `query_p99_ms`: queries soon after a restart).

use crate::calibrate::sample_mops;
use crate::common::{
    dir_bytes, frac, instance_seed, layer_probes, metric, pass_layer_metrics, preset_stream,
    query_mix, refresh_ms, service_config, skew, sliding_windows, span_median, span_of, Ctx,
    PassOut, SplitMix, BULK_BATCH,
};
use crate::openloop::{self, Op};
use crate::stats::{mean, median, quantile};
use crate::trace::{SpanBuf, Trace};
use higgs::{HiggsService, JournalMode, Store, StoreOptions};
use higgs_common::generator::{DatasetPreset, WorkloadBuilder};
use higgs_common::TemporalGraphSummary;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Batches the producer sends between two follower syncs.
const SYNC_LAG_BATCHES: usize = 16;
/// Distinct queries in the check sample.
const CHECK_QUERIES: usize = 2000;
/// Offered rate, warm-up and measured length of the post-restart read
/// phase, which cycles through the check sample.
const READ_RATE: f64 = 8000.0;
const READ_WARMUP_S: f64 = 0.25;
const READ_SECONDS: f64 = 1.0;
/// Rounds per run: one per [`ROUND_SECONDS`] of `--seconds`, within
/// [`MIN_ROUNDS`, `MAX_ROUNDS`]. Each round builds its own input instance;
/// time-based metrics are medians over rounds, space is their mean.
const ROUND_SECONDS: f64 = 3.0;
const MIN_ROUNDS: usize = 3;
const MAX_ROUNDS: usize = 12;

/// What one round measured.
struct Round {
    setup_s: f64,
    ingest_eps: f64,
    summary_bytes_per_edge: f64,
    disk_bytes_per_edge: f64,
    journal_bytes_per_edge: f64,
    history_bytes_per_edge: f64,
    leaf_skew: f64,
    restart_s: f64,
    refresh_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
    plans_per_query: f64,
}

pub fn run(ctx: &Ctx, traced: bool) -> PassOut {
    let mut out = PassOut::default();
    let planned = ((ctx.seconds / ROUND_SECONDS).round() as usize).clamp(MIN_ROUNDS, MAX_ROUNDS);
    let mut rounds: Vec<Round> = Vec::new();
    for r in 0..planned {
        rounds.push(round(ctx, r, traced, traced && r + 1 == planned, &mut out));
        out.calibration_mops.push(sample_mops());
        if !out.violations.is_empty() {
            break;
        }
    }
    let med = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    out.e2e = vec![
        metric("setup_s", "s", med(|r| r.setup_s)),
        metric("ingest_eps", "edges/s", med(|r| r.ingest_eps)),
        metric(
            "summary_bytes_per_edge",
            "B/edge",
            mean(
                &rounds
                    .iter()
                    .map(|r| r.summary_bytes_per_edge)
                    .collect::<Vec<_>>(),
            ),
        ),
    ];
    out.extra.extend([
        metric("failed_frac", "ratio", frac(out.failed, out.attempted)),
        metric("query_p50_ms", "ms", med(|r| r.p50_ms)),
        metric("refresh_ms", "ms", med(|r| r.refresh_ms)),
        metric("query_p99_ms", "ms", med(|r| r.p99_ms)),
        metric(
            "disk_bytes_per_edge",
            "B/edge",
            med(|r| r.disk_bytes_per_edge),
        ),
        metric("restart_s", "s", med(|r| r.restart_s)),
        metric("rounds", "count", rounds.len() as f64),
    ]);
    if traced {
        let layer = pass_layer_metrics(
            &out.trace,
            med(|r| r.journal_bytes_per_edge),
            med(|r| r.history_bytes_per_edge),
            med(|r| r.plans_per_query),
            out.lateness_p99_ms(),
        );
        out.layer.extend(layer);
        out.layer
            .push(metric("shard.leaf_skew", "ratio", med(|r| r.leaf_skew)));
        let sync_ms = span_median(&out.trace, "replica.sync", 1e3);
        out.extra.push(metric("replica.sync_ms", "ms", sync_ms));
    }
    out
}

fn round(ctx: &Ctx, r: usize, traced: bool, probes: bool, out: &mut PassOut) -> Round {
    out.calibration_mops.push(sample_mops());
    let mut main_spans = SpanBuf::new(traced, ctx.origin);
    let mut sync_spans = SpanBuf::new(traced, ctx.origin);

    // Set-up: inputs, the durable store, its snapshot and the follower.
    let t0 = Instant::now();
    let seed = instance_seed(ctx.seed, r);
    let stream = preset_stream(DatasetPreset::Stackoverflow, 1.0, seed);
    let edges = stream.edges();
    let mut builder = WorkloadBuilder::new(&stream, seed);
    let windows = sliding_windows(span_of(edges));
    let mut rng = SplitMix::new(seed);
    let check = query_mix(&mut builder, CHECK_QUERIES, &mut rng, |_, rng| {
        windows[rng.below(windows.len())]
    });
    drop(builder);
    let dir = ctx.workdir.join(format!("durable-{r}"));
    let _ = std::fs::remove_dir_all(&dir);
    let config = service_config(JournalMode::Buffered);
    let options = || StoreOptions::durable(config, &dir).elastic(true);
    let store = Store::open(options()).expect("open the durable store");
    store
        .snapshot_to_dir(&dir)
        .expect("snapshot the empty store");
    let mut follower = Store::follow(options()).expect("bootstrap the follower");
    let svc = HiggsService::wrap(store, &config).expect("wrap the durable store");
    let client = svc.client();
    let setup_s = t0.elapsed().as_secs_f64();

    // Timed: closed-loop durable ingest, the follower synced at a fixed lag.
    let (tx, rx) = mpsc::channel::<()>();
    let (elapsed, acked, refused, sync_errors) = std::thread::scope(|scope| {
        let (follower, sync_spans) = (&mut follower, &mut sync_spans);
        let syncer = scope.spawn(move || {
            let mut errors = Vec::new();
            for (i, ()) in rx.iter().enumerate() {
                while rx.try_recv().is_ok() {}
                let res = sync_spans.time("replica.sync", 0, i as u64, || follower.sync());
                if let Err(e) = res {
                    errors.push(e.to_string());
                }
            }
            errors
        });
        let root = main_spans.reserve();
        let start = Instant::now();
        let (mut acked, mut refused) = (0u64, 0u64);
        for (i, batch) in edges.chunks(BULK_BATCH).enumerate() {
            match main_spans.time("shard.insert_all", root, i as u64, || {
                client.insert_all(batch)
            }) {
                Ok(()) => acked += batch.len() as u64,
                Err(_) => refused += 1,
            }
            if (i + 1) % SYNC_LAG_BATCHES == 0 {
                tx.send(()).expect("syncer alive");
            }
        }
        main_spans.time("shard.flush", root, 0, || client.flush());
        let end = Instant::now();
        main_spans.record("ingest.durable", root, 0, 0, start, end);
        drop(tx);
        let errors = syncer.join().expect("syncer thread panicked");
        (end - start, acked, refused, errors)
    });
    out.attempted += edges.chunks(BULK_BATCH).len() as u64;
    out.failed += refused;
    out.check(sync_errors.is_empty(), || {
        format!("follower sync failed: {sync_errors:?}")
    });
    out.check(svc.total_items() == acked, || {
        format!(
            "total_items {} != acknowledged edges {acked}",
            svc.total_items()
        )
    });
    let health = client.health();
    out.check(health.degraded.is_empty(), || {
        format!("degraded shards: {:?}", health.degraded)
    });

    let (disk, journal, history) = dir_bytes(&dir);
    let n = edges.len() as f64;
    let summary_bytes = svc.summary().space_bytes() as f64;
    let leaf_skew = skew(&svc.summary().shard_leaf_counts());
    let before = svc.summary().query_batch(&check);
    let synced = follower.sync();
    out.check(synced.is_ok(), || {
        format!("final follower sync failed: {synced:?}")
    });
    out.check(follower.query_batch(&check) == before, || {
        "follower answers differ from the leader's".into()
    });
    drop(follower);
    drop(client);
    drop(svc);

    // Restart: reopen the directory and answer the check sample.
    let t1 = Instant::now();
    let store = Store::open(options()).expect("reopen the durable store");
    let svc = HiggsService::wrap(store, &config).expect("wrap the reopened store");
    let client = svc.client();
    let answered = client.query_batch(&check);
    let restart_s = t1.elapsed().as_secs_f64();
    out.attempted += 1;
    match &answered {
        Ok(a) => out.check(*a == before, || {
            "reopened store answers differ from before the restart".into()
        }),
        Err(e) => {
            out.failed += 1;
            out.check(false, || format!("check sample after restart failed: {e}"));
        }
    }

    // Read phase: the check sample, open loop, against the reopened store;
    // a short warm-up first, so the measured second does not start cold.
    let warm_n = (READ_RATE * READ_WARMUP_S) as usize;
    let reads = (READ_RATE * READ_SECONDS) as usize;
    let schedule = |first: usize, count: usize| {
        openloop::fixed_rate(count, READ_RATE, Duration::ZERO, |i| {
            Op::Query((first + i) % check.len())
        })
    };
    let mut quiet_send = SpanBuf::new(false, ctx.origin);
    let mut quiet_wait = SpanBuf::new(false, ctx.origin);
    let warm = openloop::run(
        &client,
        &check,
        edges,
        edges.len(),
        &schedule(0, warm_n),
        &mut quiet_send,
        &mut quiet_wait,
    );
    let plans0 = svc.plans_built();
    let mut send_spans = SpanBuf::new(traced, ctx.origin);
    let mut wait_spans = SpanBuf::new(traced, ctx.origin);
    let phase = openloop::run(
        &client,
        &check,
        edges,
        edges.len(),
        &schedule(warm_n, reads),
        &mut send_spans,
        &mut wait_spans,
    );
    let answered_ok = phase.queries.iter().filter(|q| q.result.is_ok()).count();
    for q in warm.queries.iter().chain(&phase.queries) {
        out.attempted += 1;
        match q.result {
            Ok(w) => out.check(w == before[q.idx], || {
                format!(
                    "read-phase answer {} differs from before the restart",
                    q.idx
                )
            }),
            Err(_) => out.failed += 1,
        }
    }
    let plans_per_query = (svc.plans_built() - plans0) as f64 / answered_ok.max(1) as f64;
    let latencies: Vec<f64> = phase.queries.iter().map(|q| q.latency_ms()).collect();
    out.lateness_ms.extend(&phase.lateness_ms);

    let refresh = refresh_ms(&svc, &client, &check, out);
    if probes {
        layer_probes(edges, &check, &svc, &client, ctx, out);
    }
    drop(client);
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);

    let mut trace = Trace::default();
    for buf in [main_spans, sync_spans, send_spans, wait_spans] {
        trace.absorb(buf);
    }
    out.trace.merge(trace);
    Round {
        setup_s,
        ingest_eps: acked as f64 / elapsed.as_secs_f64(),
        summary_bytes_per_edge: summary_bytes / n,
        disk_bytes_per_edge: disk as f64 / n,
        journal_bytes_per_edge: journal as f64 / n,
        history_bytes_per_edge: history as f64 / n,
        leaf_skew,
        restart_s,
        refresh_ms: refresh,
        p50_ms: quantile(&latencies, 0.5),
        p99_ms: quantile(&latencies, 0.99),
        plans_per_query,
    }
}
