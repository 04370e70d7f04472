//! Open-loop end-to-end benchmark of the HIGGS service.
//!
//! ```text
//! perfbench --workload <ingest_durable|query_dashboard|mixed_rw> --seed <n>
//!           --seconds <s> --trace <0|1> --workdir <dir> [--outdir <dir>]
//! ```
//!
//! Prints a human-readable report, then as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the workload runs twice
//! on the same seed, untraced then traced, and the metrics are the
//! per-layer ones plus the tracing overhead between the two passes. Exits
//! with 1 when a correctness check fails or the run is invalid, with 2 on
//! bad arguments. See `README.md` for the metric → layer → workload map.

mod calibrate;
mod common;
mod ingest_durable;
mod mixed_rw;
mod openloop;
mod query_dashboard;
mod stats;
mod trace;

use calibrate::REFERENCE_MOPS;
use common::{metric, Ctx, Metric, PassOut, LATENESS_LIMIT_MS};
use stats::median;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics every workload reports (`--trace 0`).
const END_TO_END: [&str; 3] = ["setup_s", "ingest_eps", "summary_bytes_per_edge"];

/// Per-layer metrics every workload reports (`--trace 1`).
const PER_LAYER: [&str; 22] = [
    "shard.insert_all_us",
    "shard.flush_ms",
    "shard.leaf_skew",
    "journal.bytes_per_edge",
    "history.bytes_per_edge",
    "snapshot.write_ms",
    "snapshot.restore_ms",
    "tree.insert_eps",
    "tree.leaf_utilization",
    "tree.height",
    "parallel.flush_ms",
    "aggregate.compute_us",
    "serving.submit_us",
    "serving.empty_flush_us",
    "serving.direct_batch_us",
    "plan_cache.plans_per_query",
    "boundary.plan_us",
    "query.batch_us_per_query",
    "gen.lateness_p99_ms",
    "trace.overhead_ingest_pct",
    "trace.overhead_query_p50_pct",
    "trace.overhead_refresh_pct",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    workdir: PathBuf,
    outdir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut workdir, mut outdir) =
        (None, None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--workdir" => workdir = Some(PathBuf::from(value)),
            "--outdir" => outdir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must lie in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        workdir: workdir.ok_or("--workdir is required")?,
        outdir,
    })
}

fn print_metrics(label: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("[{label}] {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Ctx, bool) -> PassOut = match args.workload.as_str() {
        "ingest_durable" => ingest_durable::run,
        "query_dashboard" => query_dashboard::run,
        "mixed_rw" => mixed_rw::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let workdir = args
        .workdir
        .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&workdir) {
        eprintln!("perfbench: cannot create {}: {e}", workdir.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        workdir: workdir.clone(),
        origin: Instant::now(),
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} cores={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let base = run(&ctx, false);
    print_metrics("e2e-measured", &base.e2e);
    print_metrics("e2e-extra", &base.extra);
    println!(
        "[e2e] reference kernel {:.2} Mops/s (median of {}), reference {REFERENCE_MOPS}: slowdown {:.4}",
        median(&base.calibration_mops),
        base.calibration_mops.len(),
        base.slowdown()
    );
    let gated: Vec<Metric> = base.e2e.iter().map(|m| base.at_reference(m)).collect();
    print_metrics("e2e", &gated);
    let lateness = base.lateness_p99_ms();
    println!(
        "[e2e] sender lateness p99 {lateness:.3} ms, wall {:.1} s",
        ctx.origin.elapsed().as_secs_f64()
    );
    let mut violations = base.violations.clone();
    if lateness > LATENESS_LIMIT_MS {
        violations.push(format!(
            "run invalid: sender p99 lateness {lateness:.3} ms exceeds {LATENESS_LIMIT_MS} ms"
        ));
    }
    let (mut attempted, mut failed) = (base.attempted, base.failed);
    let reported: Vec<Metric> = if args.trace {
        let traced = run(&ctx, true);
        violations.extend(traced.violations.iter().cloned());
        attempted += traced.attempted;
        failed += traced.failed;
        print_metrics("traced-e2e", &traced.e2e);
        print_metrics("traced-extra", &traced.extra);
        let pct = |name: &str, worse_if_lower: bool| {
            let (b, t) = (base.e2e_at_reference(name), traced.e2e_at_reference(name));
            let delta = if worse_if_lower { b - t } else { t - b };
            100.0 * delta / b
        };
        let self_times = traced.trace.self_times();
        println!(
            "[trace] {:<28} {:>8} {:>14} {:>14}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, (count, total_us, self_us)) in &self_times {
            println!(
                "[trace] {name:<28} {count:>8} {:>14.3} {:>14.3}",
                total_us / 1e3,
                self_us / 1e3
            );
        }
        if let Some(outdir) = &args.outdir {
            let path = outdir.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
            let written =
                std::fs::create_dir_all(outdir).and_then(|()| traced.trace.write_tsv(&path));
            match written {
                Ok(()) => println!("[trace] spans written to {}", path.display()),
                Err(e) => eprintln!("perfbench: cannot write spans: {e}"),
            }
        }
        let mut layer = traced.layer.clone();
        layer.extend([
            metric("trace.overhead_ingest_pct", "%", pct("ingest_eps", true)),
            metric(
                "trace.overhead_query_p50_pct",
                "%",
                pct("query_p50_ms", false),
            ),
            metric("trace.overhead_refresh_pct", "%", pct("refresh_ms", false)),
        ]);
        print_metrics("layer", &layer);
        select(&layer, &PER_LAYER, &mut violations)
    } else {
        select(&gated, &END_TO_END, &mut violations)
    };
    let _ = std::fs::remove_dir_all(&workdir);

    for v in &violations {
        eprintln!("perfbench: VIOLATION: {v}");
    }
    let correct = violations.is_empty();
    let body: Vec<String> = reported
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The metrics named in `names`, in that order. A missing or non-finite
/// metric is a violation: the JSON must carry a number for each.
fn select(metrics: &[Metric], names: &[&str], violations: &mut Vec<String>) -> Vec<Metric> {
    names
        .iter()
        .filter_map(|name| {
            let found = metrics.iter().find(|m| m.name == *name);
            match found {
                Some(m) if m.value.is_finite() => Some(m.clone()),
                Some(m) => {
                    violations.push(format!("metric {name} is not finite ({})", m.value));
                    None
                }
                None => {
                    violations.push(format!("metric {name} was not measured"));
                    None
                }
            }
        })
        .collect()
}
