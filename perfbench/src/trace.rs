//! In-memory spans around the benchmark's calls into each `higgs` layer.
//!
//! A span records a name, a start and an end (ns since the run's clock
//! origin), the span that caused it, and a group id shared by every span of
//! one batch or ticket. Each thread records into its own [`SpanBuf`]; the
//! buffers merge into a [`Trace`] when the run ends, which derives per-layer
//! durations and self times (a span's duration minus the part of it its
//! child spans cover) and writes the spans out as TSV.
//!
//! A disabled buffer records nothing, so untraced runs pay one branch per
//! call site.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One recorded layer call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub group: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Source of span ids, unique across every buffer of the process.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A per-thread span recorder. Id 0 means "no span" (a root's parent, or
/// any id handed out by a disabled buffer).
pub struct SpanBuf {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanBuf {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        SpanBuf {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    /// Reserves an id for a span that will be [`record`](Self::record)ed
    /// later, so its children can name it as their parent first.
    pub fn reserve(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        // ORDERING: Relaxed — the counter only hands out distinct values
        // and publishes no other data.
        NEXT_ID.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span under a reserved id (0 reserves a fresh one).
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u64,
        group: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let id = if id == 0 { self.reserve() } else { id };
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent,
            group,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Times `f` as one span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        group: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, 0, parent, group, start, Instant::now());
        out
    }
}

/// Every span of a run, merged from the per-thread buffers.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    pub fn absorb(&mut self, buf: SpanBuf) {
        self.spans.extend(buf.spans);
    }

    pub fn merge(&mut self, other: Trace) {
        self.spans.extend(other.spans);
    }

    /// Durations in µs of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Per span name: (count, total duration µs, total self time µs).
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in self.spans.iter().filter(|s| s.parent != 0) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let dur = s.end_ns - s.start_ns;
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += dur as f64 / 1e3;
            entry.2 += dur.saturating_sub(covered) as f64 / 1e3;
        }
        out
    }

    /// Writes one TSV line per span, sorted by start time.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut spans = self.spans.clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tid\tparent\tgroup\tstart_ns\tend_ns")?;
        for s in &spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.id, s.parent, s.group, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_union_of_children() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut buf = SpanBuf::new(true, t0);
        let root = buf.reserve();
        buf.record("child", 0, root, 7, at(10), at(40));
        buf.record("child", 0, root, 7, at(30), at(60));
        buf.record("root", root, 0, 7, at(0), at(100));
        let mut trace = Trace::default();
        trace.absorb(buf);
        let st = trace.self_times();
        assert_eq!(st["root"], (1, 100.0, 50.0));
        assert_eq!(st["child"], (2, 60.0, 60.0));
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let mut buf = SpanBuf::new(false, Instant::now());
        assert_eq!(buf.reserve(), 0);
        assert_eq!(buf.time("x", 0, 0, || 5), 5);
        let mut trace = Trace::default();
        trace.absorb(buf);
        assert!(trace.self_times().is_empty());
    }
}
