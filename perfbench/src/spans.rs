//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions (the program itself is not instrumented).
//!
//! A span is a name, a start and end, the span that caused it and the
//! query it belongs to. Spans stay in memory during the run and are
//! written out once it ends. A span's self time is its duration minus the
//! time its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a span in its [`SpanLog`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<SpanId>,
    query: u64,
}

/// Per-name totals over a log.
#[derive(Debug, Clone, Default)]
pub struct SpanSummary {
    /// Spans with this name.
    pub count: usize,
    /// Summed durations.
    pub total: Duration,
    /// Summed self times.
    pub self_time: Duration,
    /// Every duration, in recording order.
    pub durations: Vec<Duration>,
}

impl SpanSummary {
    /// Median span duration.
    pub fn median(&self) -> Duration {
        let mut d = self.durations.clone();
        d.sort_unstable();
        d.get(d.len() / 2).copied().unwrap_or_default()
    }

    /// Share of the spans' total duration that is their own (not their
    /// children's).
    pub fn self_frac(&self) -> f64 {
        self.self_time.as_secs_f64() / self.total.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// Spans of one thread of the benchmark, timed from a shared origin.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose times count from `origin`.
    pub fn new(origin: Instant) -> Self {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Record a finished span from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        query: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            parent,
            query,
        });
        self.spans.len() - 1
    }

    /// Open a span now; [`SpanLog::close`] sets its end.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, query: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, now, now, parent, query)
    }

    /// End span `id` now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Time `f` as a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        query: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, query);
        let out = f();
        self.close(id);
        out
    }

    /// Duration of span `id`.
    pub fn duration(&self, id: SpanId) -> Duration {
        let s = &self.spans[id];
        s.end.saturating_sub(s.start)
    }

    /// Move every span of `other` (recorded against the same origin) into
    /// this log, keeping parent links.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span: its duration minus its children's.
    fn self_times(&self) -> Vec<Duration> {
        let mut out: Vec<Duration> = (0..self.spans.len()).map(|i| self.duration(i)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                out[p] = out[p].saturating_sub(self.duration(i));
            }
        }
        out
    }

    /// Per-name totals, sorted by name.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanSummary> {
        let selfs = self.self_times();
        let mut out: BTreeMap<&'static str, SpanSummary> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            let d = self.duration(i);
            e.count += 1;
            e.total += d;
            e.self_time += selfs[i];
            e.durations.push(d);
        }
        out
    }

    /// Totals of the spans named `name` (empty if there are none).
    pub fn summary_of(&self, name: &str) -> SpanSummary {
        self.summary().remove(name).unwrap_or_default()
    }

    /// Every span as tab-separated `id name start_us end_us self_us
    /// parent query` lines under a header.
    pub fn to_tsv(&self) -> String {
        let selfs = self.self_times();
        let mut s = String::from("id\tname\tstart_us\tend_us\tself_us\tparent\tquery\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map(|p| p.to_string()).unwrap_or_default();
            let _ = writeln!(
                s,
                "{i}\t{}\t{}\t{}\t{}\t{parent}\t{}",
                sp.name,
                sp.start.as_micros(),
                sp.end.as_micros(),
                selfs[i].as_micros(),
                sp.query
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut log = SpanLog::new(t0);
        let q = log.record("query", at(0), at(10), None, 1);
        log.record("prepare", at(0), at(2), Some(q), 1);
        log.record("run", at(2), at(9), Some(q), 1);
        let sum = log.summary();
        assert_eq!(sum["query"].self_time, Duration::from_millis(1));
        assert_eq!(sum["run"].self_time, Duration::from_millis(7));
        assert_eq!(sum["query"].count, 1);
    }
}
