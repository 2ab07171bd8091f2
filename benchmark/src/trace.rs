//! Spans recorded by the benchmark around its own calls into each layer's
//! public functions. Spans live in memory and are summarised when the run
//! ends. With tracing off no clock is read and nothing is stored.
//!
//! A span that times a public function *beside* the call that really runs
//! it (the program does the work inside another call the benchmark cannot
//! open) is a replay: it is kept out of the job's span tree and its number
//! is labelled as a replay estimate.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Start and end, in nanoseconds since the tracer's origin.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job the span belongs to (all spans of one job share it).
    pub job: usize,
    pub replay: bool,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: usize,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans recorded from now on belong to job `job`.
    pub fn set_job(&mut self, job: usize) {
        self.job = job;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name`; spans opened before it is closed become
    /// its children. Returns `None` (and reads no clock) with tracing off.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.push(name, self.open.last().copied(), false);
        self.open.push(idx);
        Some(idx)
    }

    /// Closes the span `begin` returned.
    pub fn end(&mut self, span: Option<usize>) {
        if let Some(idx) = span {
            self.spans[idx].end = self.now();
            self.open.retain(|&i| i != idx);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.begin(name);
        let out = f();
        self.end(s);
        out
    }

    /// Runs `f`, a replay of work the program does inside another call,
    /// inside a replay span. Does nothing (and returns `None`) with tracing
    /// off, so replays never cost the untraced run anything.
    pub fn replay<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> Option<T> {
        if !self.enabled {
            return None;
        }
        let idx = self.push(name, None, true);
        let out = f();
        self.spans[idx].end = self.now();
        Some(out)
    }

    fn push(&mut self, name: &'static str, parent: Option<usize>, replay: bool) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            job: self.job,
            replay,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `name`, in order.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// Self time in milliseconds of every span named `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self_time(&self.spans, i) as f64 / 1e6)
            .collect()
    }

    /// Durations in milliseconds of `name` spans, grouped by job.
    pub fn ms_by_job(&self, name: &str) -> BTreeMap<usize, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.job).or_insert(0.0) += s.ns() as f64 / 1e6;
        }
        out
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover (overlapping children count once).
pub fn self_time(spans: &[Span], idx: usize) -> u64 {
    let parent = &spans[idx];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
        .filter(|(a, b)| a < b)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start;
    for (a, b) in children {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    parent.ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            job: 0,
            replay: false,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        // job [0, 100): children [10, 30) and [25, 60) overlap on [25, 30),
        // so they cover 50; a grandchild inside [40, 50) is not the job's
        // child and must not be subtracted twice.
        let spans = vec![
            span("job", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 25, 60, Some(0)),
            span("b.inner", 40, 50, Some(2)),
            span("c", 90, 120, Some(0)), // clipped to the parent: covers 10
        ];
        assert_eq!(self_time(&spans, 0), 100 - 50 - 10);
        assert_eq!(self_time(&spans, 2), 35 - 10);
        assert_eq!(self_time(&spans, 3), 10);
        assert_eq!(self_time(&spans, 1), 20);
    }

    #[test]
    fn tracer_nests_spans_and_keeps_replays_out_of_the_tree() {
        let mut t = Tracer::new(true);
        t.set_job(7);
        let job = t.begin("job");
        assert_eq!(t.span("parse", || 1 + 1), 2);
        t.replay("lint", || ());
        t.end(job);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.job == 7));
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[2].parent, spans[2].replay), (None, true));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("job", || 3), 3);
        assert!(t.replay("lint", || ()).is_none());
        let s = t.begin("job");
        t.end(s);
        assert!(t.spans().is_empty());
    }
}
