//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! Spans live in a `Vec` while the traced pass runs and are written out
//! once at the end, so recording costs two clock reads and a push. Self
//! time is a span's duration minus the part its child spans cover;
//! children of one span run one after another, so that part is the sum
//! of their durations.

use coachlm_runtime::simtime::Stopwatch;
use serde_json::{json, Value};
use std::time::Duration;

/// One closed span. Times are offsets from the tracer's creation.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Identifier shared by every span of one call (one replayed pair, or
    /// one pipeline call).
    pub call: u64,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Handle to an open span, returned by [`Tracer::open`].
#[must_use]
pub struct Open(usize);

/// Records spans when enabled; an untraced replay uses a disabled tracer,
/// whose `open`/`close` do nothing, so the two replays run the same code.
pub struct Tracer {
    clock: Stopwatch,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            clock: Stopwatch::start(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str, call: u64) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        let idx = self.spans.len();
        let now = self.clock.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            call,
        });
        self.stack.push(idx);
        Open(idx)
    }

    pub fn close(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let now = self.clock.elapsed();
        if let Some(span) = self.spans.get_mut(open.0) {
            span.end = now;
        }
        self.stack.retain(|&i| i != open.0);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, call: u64, f: impl FnOnce() -> T) -> T {
        let open = self.open(name, call);
        let out = f();
        self.close(open);
        out
    }

    /// Total duration of every span named `name`.
    pub fn busy(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Per span name, in first-seen order: (name, count, total, self time).
    pub fn self_times(&self) -> Vec<(&'static str, usize, Duration, Duration)> {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                covered[p] += span.duration();
            }
        }
        let mut rows: Vec<(&'static str, usize, Duration, Duration)> = Vec::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let own = span.duration().saturating_sub(covered);
            match rows.iter_mut().find(|r| r.0 == span.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += span.duration();
                    row.3 += own;
                }
                None => rows.push((span.name, 1, span.duration(), own)),
            }
        }
        rows
    }

    /// The spans as JSON: offsets in microseconds, parents as indices.
    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "name": s.name,
                    "start_us": s.start.as_secs_f64() * 1e6,
                    "end_us": s.end.as_secs_f64() * 1e6,
                    "parent": s.parent,
                    "call": s.call,
                })
            })
            .collect();
        Value::Array(spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.open("outer", 7);
        t.span("inner", 7, || ());
        t.span("inner", 7, || ());
        t.close(outer);
        let spans = &t.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.call == 7));
        let rows = t.self_times();
        assert_eq!(rows[0].0, "outer");
        assert_eq!(rows[1].1, 2);
        assert_eq!(rows[0].3 + rows[1].2, rows[0].2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 1, || 41 + 1), 42);
        assert!(t.spans.is_empty());
    }
}
