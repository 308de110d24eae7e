//! The benchmark's own spans: one per call into a simulator layer.
//!
//! Spans are recorded from *outside* the program — around the calls the
//! benchmark makes into each crate's public functions — kept in memory,
//! and written out once at exit as a `chrome://tracing` document. A
//! span is `(name, start, end, parent, job)`; times are thread-CPU
//! nanoseconds since the recorder was created, so a trace lines up with
//! the per-layer metrics, which use the same clock.

use crate::clock::thread_cpu_ns;
use std::collections::BTreeMap;
use xt_trace::lanes::LaneTrace;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary, e.g. `core.ooo_step`.
    pub name: &'static str,
    /// Thread-CPU ns at entry, relative to the recorder's origin.
    pub start: u64,
    /// Thread-CPU ns at exit (0 while the span is still open).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job (index into the workload's job list) the span belongs
    /// to; spans of one job share it.
    pub job: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Job id of spans that belong to a whole pass rather than one job.
pub const NO_JOB: u32 = u32::MAX;

/// In-memory span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Recorder {
    origin: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder whose time origin is now.
    pub fn new() -> Self {
        Recorder {
            origin: thread_cpu_ns(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span; the span's parent is whichever span is
    /// open when this is called. Returns `f`'s result and the span's
    /// duration in ns.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        job: u32,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, u64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: 0,
            end: 0,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(id);
        self.spans[id].start = thread_cpu_ns() - self.origin;
        let r = f(self);
        self.spans[id].end = thread_cpu_ns() - self.origin;
        self.open.pop();
        (r, self.spans[id].dur())
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders the spans as a `chrome://tracing` / Perfetto document:
    /// one lane per nesting depth, microsecond timestamps.
    pub fn to_chrome_json(&self, process: &str) -> String {
        let mut t = LaneTrace::new(process);
        let depths: Vec<u64> = depths(&self.spans);
        for d in 0..=depths.iter().copied().max().unwrap_or(0) {
            t.lane(d, &format!("depth {d}"));
        }
        for (s, &d) in self.spans.iter().zip(&depths) {
            let job = if s.job == NO_JOB {
                "\"-\"".to_string()
            } else {
                s.job.to_string()
            };
            // chrome timestamps are µs; keep sub-µs spans visible
            t.slice(
                d,
                s.start / 1000,
                (s.dur() / 1000).max(1),
                s.name,
                &[("job", job)],
            );
        }
        t.finish()
    }
}

fn depths(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::with_capacity(spans.len());
    for s in spans {
        // a parent is always recorded before its children
        out.push(s.parent.map_or(0, |p| out[p] + 1));
    }
    out
}

/// Self time per span name: each span's duration minus the part of it
/// its direct children cover, summed over spans of the same name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_time = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.dur();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(&child_time) {
        *out.entry(s.name).or_insert(0) += s.dur().saturating_sub(*c);
    }
    out
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
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("job", 10, 90, Some(0)),
            span("setup", 10, 30, Some(1)),
            span("run", 30, 85, Some(1)),
            span("job", 90, 98, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st["pass"], 100 - 80 - 8);
        assert_eq!(st["job"], (80 - 20 - 55) + 8);
        assert_eq!(st["setup"], 20);
        assert_eq!(st["run"], 55);
        // self times of a tree always add up to the root's duration
        assert_eq!(st.values().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_and_reports_durations() {
        let mut r = Recorder::new();
        let ((), outer) = r.span("outer", NO_JOB, |r| {
            r.span("inner", 3, |_| {
                std::hint::black_box((0..10_000u64).sum::<u64>())
            });
            r.span("inner", 4, |_| ());
        });
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!((s[1].job, s[2].job), (3, 4));
        assert_eq!(outer, s[0].dur());
        assert!(s[0].dur() >= s[1].dur() + s[2].dur());
        assert_eq!(depths(s), vec![0, 1, 1]);
        let doc = r.to_chrome_json("t");
        assert!(doc.contains("\"name\":\"inner\"") && doc.contains("\"job\":3"));
    }
}
