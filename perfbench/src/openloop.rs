//! The open-loop load generator: a schedule computed up front, one sender
//! thread that never blocks on replies, and one waiter thread that collects
//! them.
//!
//! Every request is timed from its *intended* send time, so a stall in the
//! service also charges the wait it imposes on the requests scheduled behind
//! it (no coordinated omission). The sender records how late it ran against
//! the schedule; the waiter takes tickets in submission order.

use crate::trace::SpanBuf;
use higgs::{IngestError, ServiceClient, ServiceError};
use higgs_common::{Query, StreamEdge, Weight};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One scheduled operation.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Submit query `idx` of the workload's query set as one ticket.
    Query(usize),
    /// `insert_all` of `edges[lo..hi]`, then (when set) submit query
    /// `probe` right after the batch returns.
    Batch {
        lo: usize,
        hi: usize,
        probe: Option<usize>,
    },
}

/// An operation and its intended send time, as an offset from the start of
/// the schedule.
#[derive(Clone, Copy, Debug)]
pub struct Arrival {
    pub at: Duration,
    pub op: Op,
}

/// `count` arrivals of `op(i)` at a fixed `rate` per second, starting at
/// `offset`.
pub fn fixed_rate(
    count: usize,
    rate: f64,
    offset: Duration,
    op: impl Fn(usize) -> Op,
) -> Vec<Arrival> {
    (0..count)
        .map(|i| Arrival {
            at: offset + Duration::from_secs_f64(i as f64 / rate),
            op: op(i),
        })
        .collect()
}

/// What happened to one submitted query. Times are seconds from the start
/// of the schedule.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    pub idx: usize,
    /// Batch number this query probes, if it was submitted right after one.
    pub probe_of: Option<usize>,
    /// Edges acknowledged by `insert_all` before the query was submitted.
    pub prefix: usize,
    pub intended: f64,
    pub done: f64,
    pub result: Result<Weight, ServiceError>,
}

impl QueryOutcome {
    /// Latency in ms from the intended send time; a failed query never
    /// meets any limit, so it reads as infinite.
    pub fn latency_ms(&self) -> f64 {
        match self.result {
            Ok(_) => (self.done - self.intended) * 1e3,
            Err(_) => f64::INFINITY,
        }
    }
}

/// What happened to one ingest batch.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    pub result: Result<(), IngestError>,
}

/// Everything one open-loop phase produced.
pub struct PhaseResult {
    pub queries: Vec<QueryOutcome>,
    pub batches: Vec<BatchOutcome>,
    /// How late the sender ran, in ms, one entry per arrival.
    pub lateness_ms: Vec<f64>,
    /// Seconds from the start of the schedule until the last reply was in
    /// hand.
    pub last_done: f64,
}

struct Pending {
    ticket: higgs::Ticket,
    idx: usize,
    probe_of: Option<usize>,
    prefix: usize,
    intended: Instant,
    sent: Instant,
    submitted: Instant,
    root: u64,
}

/// Runs `schedule` against `client` with one sender and one waiter thread.
/// `edges[..acked]` were acknowledged before the schedule starts. Spans go
/// to `sender_spans` / `waiter_spans` (which may be disabled).
pub fn run(
    client: &ServiceClient,
    queries: &[Query],
    edges: &[StreamEdge],
    acked: usize,
    schedule: &[Arrival],
    sender_spans: &mut SpanBuf,
    waiter_spans: &mut SpanBuf,
) -> PhaseResult {
    let start = Instant::now() + Duration::from_millis(5);
    let secs = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
    let (tx, rx) = mpsc::channel::<Pending>();
    let (lateness_ms, batches, queries_out) = std::thread::scope(|scope| {
        let waiter = scope.spawn(move || {
            let mut out = Vec::new();
            for p in rx {
                let result = p.ticket.wait();
                let done = Instant::now();
                waiter_spans.record("serving.wait", 0, p.root, p.idx as u64, p.submitted, done);
                waiter_spans.record("gen.late", 0, p.root, p.idx as u64, p.intended, p.sent);
                waiter_spans.record("query", p.root, 0, p.idx as u64, p.intended, done);
                out.push(QueryOutcome {
                    idx: p.idx,
                    probe_of: p.probe_of,
                    prefix: p.prefix,
                    intended: secs(p.intended),
                    done: secs(done),
                    result,
                });
            }
            out
        });
        let mut lateness = Vec::with_capacity(schedule.len());
        let mut batches = Vec::new();
        let mut prefix = acked;
        let submit = |spans: &mut SpanBuf,
                      root: u64,
                      idx: usize,
                      probe_of: Option<usize>,
                      prefix: usize,
                      intended: Instant,
                      sent: Instant| {
            let t = Instant::now();
            let ticket = client.submit(queries[idx].clone());
            let submitted = Instant::now();
            spans.record("serving.submit", 0, root, idx as u64, t, submitted);
            Pending {
                ticket,
                idx,
                probe_of,
                prefix,
                intended,
                sent,
                submitted,
                root,
            }
        };
        for a in schedule {
            let intended = start + a.at;
            wait_until(intended);
            let sent = Instant::now();
            lateness.push(sent.saturating_duration_since(intended).as_secs_f64() * 1e3);
            match a.op {
                Op::Query(idx) => {
                    let root = sender_spans.reserve();
                    let p = submit(sender_spans, root, idx, None, prefix, intended, sent);
                    tx.send(p).expect("waiter thread alive");
                }
                Op::Batch { lo, hi, probe } => {
                    // A probe's span covers the batch it probes, so the
                    // batch's insert is a child of the probe's root.
                    let root = if probe.is_some() {
                        sender_spans.reserve()
                    } else {
                        0
                    };
                    let group = batches.len() as u64;
                    let result = sender_spans.time("shard.insert_all", root, group, || {
                        client.insert_all(&edges[lo..hi])
                    });
                    if result.is_ok() {
                        prefix = hi;
                    }
                    batches.push(BatchOutcome { result });
                    if let Some(idx) = probe {
                        let batch = batches.len() - 1;
                        let p =
                            submit(sender_spans, root, idx, Some(batch), prefix, intended, sent);
                        tx.send(p).expect("waiter thread alive");
                    }
                }
            }
        }
        drop(tx);
        let queries_out = waiter.join().expect("waiter thread panicked");
        (lateness, batches, queries_out)
    });
    let last_done = queries_out.iter().map(|q| q.done).fold(0.0, f64::max);
    PhaseResult {
        queries: queries_out,
        batches,
        lateness_ms,
        last_done,
    }
}

/// Sleeps until shortly before `deadline`, then yields until it passes.
fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}
