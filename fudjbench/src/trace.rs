//! In-memory spans recorded around the benchmark's own calls into the
//! engine's public functions.
//!
//! A span has a name, a start and end (relative to the tracer's origin),
//! the span that caused it, and the statement it belongs to. Spans stay
//! in memory while the workload runs and are written out at the end as
//! Chrome trace-event JSON (`chrome://tracing`, Perfetto) plus a
//! per-layer self-time table. A disabled tracer records nothing, so the
//! untraced measurement pays only a branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Statement id for spans that belong to no statement (set-up).
pub const NO_STMT: u64 = u64::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub stmt: u64,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last: the parent of the next span.
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Open a span; it becomes the parent of spans opened before
    /// [`Tracer::close`]. Returns its id (`None` when disabled).
    pub fn open(&mut self, name: &str, stmt: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name: name.to_owned(),
            start: now,
            end: now,
            parent: self.open.last().copied(),
            stmt,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if let Some(id) = self.open.pop() {
            self.spans[id].end = self.origin.elapsed();
        }
    }

    /// Run `f` inside a span named `name`; returns its result, its wall
    /// time (measured whether or not tracing is on) and the span id
    /// (`None` when disabled).
    pub fn time<R>(
        &mut self,
        name: &str,
        stmt: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration, Option<usize>) {
        let id = self.open(name, stmt);
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        self.close();
        (out, elapsed, id)
    }

    /// Lay `parts` out back to back from the start of span `parent`, as
    /// its children named `prefix` + part name: how the engine's
    /// sequential phase timings (which carry durations, not start times)
    /// enter the span tree. Each part is clamped to end within the parent.
    pub fn add_children(&mut self, parent: usize, prefix: &str, parts: &[(String, Duration)]) {
        let (mut at, limit, stmt) = {
            let p = &self.spans[parent];
            (p.start, p.end, p.stmt)
        };
        for (name, d) in parts {
            let end = (at + *d).min(limit);
            self.spans.push(Span {
                name: format!("{prefix}{name}"),
                start: at,
                end,
                parent: Some(parent),
                stmt,
            });
            at = end;
        }
    }

    /// Per-name totals: (count, total, self) where self time is a span's
    /// duration minus the time its direct children cover.
    pub fn self_times(&self) -> BTreeMap<String, (u64, Duration, Duration)> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_time[p] += span.duration();
            }
        }
        let mut table: BTreeMap<String, (u64, Duration, Duration)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_time) {
            let entry = table.entry(span.name.clone()).or_default();
            entry.0 += 1;
            entry.1 += span.duration();
            entry.2 += span.duration().saturating_sub(*children);
        }
        table
    }

    /// The self-time table as aligned text, largest self time first.
    pub fn self_time_table(&self) -> String {
        let table = self.self_times();
        let all_self: Duration = table.values().map(|e| e.2).sum();
        let mut rows: Vec<_> = table.into_iter().collect();
        rows.sort_by_key(|row| std::cmp::Reverse(row.1 .2));
        let mut out = format!(
            "{:<28} {:>8} {:>12} {:>12} {:>7}\n",
            "span", "count", "total_ms", "self_ms", "self%"
        );
        for (name, (count, total, own)) in rows {
            let share = if all_self.is_zero() {
                0.0
            } else {
                100.0 * own.as_secs_f64() / all_self.as_secs_f64()
            };
            let _ = writeln!(
                out,
                "{name:<28} {count:>8} {:>12.3} {:>12.3} {share:>6.1}%",
                total.as_secs_f64() * 1e3,
                own.as_secs_f64() * 1e3,
            );
        }
        out
    }

    /// Chrome trace-event JSON: one complete (`"ph": "X"`) event per
    /// span, timestamps in microseconds.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let stmt = if span.stmt == NO_STMT {
                "null".to_owned()
            } else {
                span.stmt.to_string()
            };
            let _ = write!(
                out,
                "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"stmt\":{stmt}}}}}",
                crate::report::json_str(&span.name),
                span.start.as_secs_f64() * 1e6,
                span.duration().as_secs_f64() * 1e6,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        let (_, _, parent) = t.time("outer", 0, || {
            std::thread::sleep(Duration::from_millis(4));
        });
        let parent = parent.expect("enabled tracer records");
        let half = t.spans()[parent].duration() / 2;
        t.add_children(parent, "", &[("inner".to_owned(), half)]);
        let table = t.self_times();
        let (_, outer_total, outer_self) = table["outer"];
        let (count, inner_total, _) = table["inner"];
        assert_eq!(count, 1);
        assert_eq!(outer_self, outer_total - inner_total);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, elapsed, id) = t.time("x", 1, || 7);
        assert_eq!((v, id), (7, None));
        assert!(elapsed < Duration::from_secs(1));
        assert!(t.spans().is_empty());
    }
}
