//! In-memory spans recorded by the benchmark around each call it makes
//! into a layer of the simulator.
//!
//! A span has a name (`<crate>.<operation>`), an optional label (the
//! program × machine, backend or tenant class it covers), start and end
//! times, its parent span, the trace id shared by every span of one
//! round or batch, and a work count (bytes parsed, instructions retired,
//! code words emitted...) so ratios are taken where the work happens.
//! Spans stay in memory and are written out once, at the end of a run.
//!
//! A disabled tracer records nothing: `begin`/`end` reduce to a branch,
//! which is how the end-to-end metrics are timed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer operation, e.g. `cheri-c.parse`.
    pub name: &'static str,
    /// What the span covered (program.machine, backend, tenant class), or
    /// empty.
    pub label: String,
    /// Index of the parent span in the tracer, if any.
    pub parent: Option<usize>,
    /// Trace id shared by the spans of one round or batch.
    pub trace: u64,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Units of work the span did (its meaning depends on `name`).
    pub work: u64,
}

impl Span {
    /// Wall-clock duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Clone, Copy, Debug)]
#[must_use]
pub struct SpanId(Option<usize>);

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    trace: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            trace: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off; spans recorded so far are kept.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Starts a new trace id: every span begun from now on, until the
    /// next call, belongs to it.
    pub fn next_trace(&mut self) {
        self.trace += 1;
    }

    /// Opens a span nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        self.begin_labelled(name, String::new)
    }

    /// Opens a span with a label, built only when recording.
    pub fn begin_labelled(&mut self, name: &'static str, label: impl FnOnce() -> String) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            label: label(),
            parent: self.open.last().copied(),
            trace: self.trace,
            start_ns: self.now(),
            end_ns: 0,
            work: 0,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes `id`, recording `work` units done inside it.
    pub fn end(&mut self, id: SpanId, work: u64) {
        if let SpanId(Some(idx)) = id {
            let now = self.now();
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(idx), "spans close innermost first");
            let span = &mut self.spans[idx];
            span.end_ns = now;
            span.work = work;
        }
    }

    /// Runs `f` inside a span whose work count is `work(&result)`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        work: impl FnOnce(&T) -> u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name);
        let out = f();
        let n = if id.0.is_some() { work(&out) } else { 0 };
        self.end(id, n);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Per-(name, label) totals: count, duration, self time and work.
    pub fn summary(&self) -> BTreeMap<(&'static str, String), Totals> {
        let self_ns = self_times(&self.spans);
        let mut out: BTreeMap<(&'static str, String), Totals> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let t = out.entry((span.name, span.label.clone())).or_default();
            t.count += 1;
            t.dur_ns += span.dur_ns();
            t.self_ns += own;
            t.work += span.work;
        }
        out
    }

    /// Sums [`Tracer::summary`] over every label of `name`.
    pub fn totals(&self, name: &str) -> Totals {
        let mut t = Totals::default();
        for ((n, _), s) in self.summary() {
            if n == name {
                t.add(&s);
            }
        }
        t
    }

    /// The spans as JSON lines, one object per span, tagged with
    /// `workload`.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        let self_ns = self_times(&self.spans);
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"workload":"{workload}","id":{i},"parent":{parent},"trace":{},"name":"{}","label":"{}","start_ns":{},"end_ns":{},"self_ns":{own},"work":{}}}"#,
                s.trace, s.name, s.label, s.start_ns, s.end_ns, s.work
            );
        }
        out
    }
}

/// Aggregated span statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans aggregated.
    pub count: u64,
    /// Sum of durations.
    pub dur_ns: u64,
    /// Sum of self times (duration minus the part child spans cover).
    pub self_ns: u64,
    /// Sum of work counts.
    pub work: u64,
}

impl Totals {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Totals) {
        self.count += other.count;
        self.dur_ns += other.dur_ns;
        self.self_ns += other.self_ns;
        self.work += other.work;
    }

    /// Duration per unit of work (0 when no work was recorded).
    pub fn ns_per_work(&self) -> f64 {
        ratio(self.dur_ns as f64, self.work as f64)
    }

    /// Mean duration per span in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        ratio(self.dur_ns as f64, self.count as f64)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals. Children of one parent never overlap (the
/// benchmark is single-threaded and spans nest), so the union is their
/// sum, clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            covered[p] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.begin("a");
        t.end(id, 5);
        assert_eq!(t.span("b", |_| 1, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_self_time() {
        let mut t = Tracer::on();
        t.next_trace();
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner, 3);
        t.end(outer, 1);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].trace, spans[1].trace);
        let own = self_times(spans);
        assert_eq!(own[0], spans[0].dur_ns() - spans[1].dur_ns());
        assert_eq!(own[1], spans[1].dur_ns());
        assert_eq!(t.totals("inner").work, 3);
        assert_eq!(t.to_jsonl("w").lines().count(), 2);
    }
}
