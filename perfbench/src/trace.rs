//! Spans recorded around the benchmark's calls into each engine layer.
//!
//! A span is (name, start, end, parent). Spans stay in memory while a
//! workload runs and are summarized when it ends: self time per span
//! name and per layer, and how much of the traced wall time no span
//! covers. The layer of a span is its name up to the first `.`
//! (`sim.build` → `sim`); `bench` spans are the benchmark's own work.

use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span; times are nanoseconds since the tracer's origin.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// `layer.call`, e.g. `sim.build`.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start: u64,
    /// End, ns since the origin.
    pub end: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }

    /// The layer: the name up to the first `.`.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A span recorder for one thread. A disabled tracer runs the traced
/// closures and records nothing, so the untraced and traced runs share
/// their code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    #[must_use]
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer with times measured from `origin`.
    #[must_use]
    pub fn on(origin: Instant) -> Self {
        Tracer {
            enabled: true,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Renames the most recently recorded span, for calls whose outcome
    /// decides their name (a pool checkout that hit or built).
    pub fn rename_last(&mut self, name: &'static str) {
        if let Some(span) = self.spans.last_mut() {
            span.name = name;
        }
    }
}

/// Self time of every span: its duration minus its children's.
fn self_nanos(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::nanos).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] = own[p].saturating_sub(span.nanos());
        }
    }
    own
}

/// Spans of every thread of one traced workload, with each thread's
/// traced wall time.
#[derive(Debug, Default)]
pub struct Trace {
    threads: Vec<(Vec<Span>, u64)>,
}

impl Trace {
    /// Adds one thread's spans and the wall time (ns) it was traced for.
    pub fn add(&mut self, tracer: Tracer, wall_nanos: u64) {
        self.threads.push((tracer.spans, wall_nanos));
    }

    fn all(&self) -> impl Iterator<Item = (&Span, u64)> + '_ {
        self.threads
            .iter()
            .flat_map(|(spans, _)| spans.iter().zip(self_nanos(spans)))
    }

    /// Writes every span as one JSON line: workload, thread, name, start
    /// and end (ns since the thread's tracer origin), parent index.
    pub fn write_jsonl(
        &self,
        workload: &str,
        out: &mut impl std::io::Write,
    ) -> std::io::Result<()> {
        for (thread, (spans, _)) in self.threads.iter().enumerate() {
            for (index, span) in spans.iter().enumerate() {
                let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
                writeln!(
                    out,
                    r#"{{"workload": "{workload}", "thread": {thread}, "index": {index}, "name": "{}", "start_ns": {}, "end_ns": {}, "parent": {parent}}}"#,
                    span.name, span.start, span.end
                )?;
            }
        }
        Ok(())
    }

    /// Durations (ms) of every span named `name`.
    #[must_use]
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.all()
            .filter(|(s, _)| s.name == name)
            .map(|(s, _)| s.nanos() as f64 / 1e6)
            .collect()
    }

    /// Median duration (ms) of the spans named `name`; 0 when there are
    /// none.
    #[must_use]
    pub fn median_ms(&self, name: &str) -> f64 {
        stats::median(&self.durations_ms(name)).unwrap_or(0.0)
    }

    /// Per-layer self time in ns, summed over the spans under roots
    /// named in `roots` (under every root when `roots` is empty).
    #[must_use]
    pub fn layer_self(&self, roots: &[&str]) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (spans, _) in &self.threads {
            let own = self_nanos(spans);
            for (i, span) in spans.iter().enumerate() {
                let mut top = i;
                while let Some(p) = spans[top].parent {
                    top = p;
                }
                if roots.is_empty() || roots.contains(&spans[top].name) {
                    *out.entry(span.layer()).or_insert(0) += own[i];
                }
            }
        }
        out
    }

    /// Percent of traced wall time that no root span covers.
    #[must_use]
    pub fn uncovered_pct(&self) -> f64 {
        let wall: u64 = self.threads.iter().map(|(_, w)| w).sum();
        let covered: u64 = self
            .threads
            .iter()
            .flat_map(|(spans, _)| spans.iter().filter(|s| s.parent.is_none()))
            .map(Span::nanos)
            .sum();
        if wall == 0 {
            return 100.0;
        }
        100.0 * wall.saturating_sub(covered) as f64 / wall as f64
    }

    /// The self-time table: per span name, calls, total and self time,
    /// then the layer shares of the spans under the roots named in
    /// `roots`.
    #[must_use]
    pub fn table(&self, workload: &str, roots: &[&str]) -> String {
        let mut by_name: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
        for (span, own) in self.all() {
            let entry = by_name.entry(span.name).or_insert((0, 0, 0));
            entry.0 += 1;
            entry.1 += span.nanos();
            entry.2 += own;
        }
        let mut out = String::new();
        let _ = writeln!(out, "# trace {workload}: self time by span");
        let _ = writeln!(
            out,
            "#   {:<24} {:>7} {:>12} {:>12}",
            "span", "calls", "total ms", "self ms"
        );
        for (name, (calls, total, own)) in &by_name {
            let _ = writeln!(
                out,
                "#   {name:<24} {calls:>7} {:>12.3} {:>12.3}",
                *total as f64 / 1e6,
                *own as f64 / 1e6
            );
        }
        let layers = self.layer_self(roots);
        let sum: u64 = layers.values().sum();
        let _ = writeln!(
            out,
            "# trace {workload}: layer self time under {} spans",
            roots.join(" + ")
        );
        for (layer, own) in &layers {
            let _ = writeln!(
                out,
                "#   {layer:<8} {:>12.3} ms {:>6.1}%",
                *own as f64 / 1e6,
                100.0 * *own as f64 / sum.max(1) as f64
            );
        }
        let _ = writeln!(
            out,
            "# trace {workload}: {:.2}% of traced wall time outside any span",
            self.uncovered_pct()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_layers_follow_names() {
        let spans = vec![
            Span {
                name: "bench.answer",
                start: 0,
                end: 100,
                parent: None,
            },
            Span {
                name: "sim.build",
                start: 10,
                end: 70,
                parent: Some(0),
            },
            Span {
                name: "kripke.eval",
                start: 70,
                end: 90,
                parent: Some(0),
            },
        ];
        assert_eq!(self_nanos(&spans), vec![20, 60, 20]);
        let mut trace = Trace::default();
        trace.threads.push((spans, 125));
        let layers = trace.layer_self(&["bench.answer"]);
        assert_eq!(layers["sim"], 60);
        assert_eq!(layers["kripke"], 20);
        assert_eq!(layers["bench"], 20);
        assert!((trace.uncovered_pct() - 20.0).abs() < 1e-9);
        assert!(trace.table("w", &["bench.answer"]).contains("sim.build"));
    }

    #[test]
    fn a_disabled_tracer_runs_the_work_and_records_nothing() {
        let mut tracer = Tracer::off();
        let v = tracer.span("sim.build", |t| t.span("sim.inner", |_| 7));
        assert_eq!(v, 7);
        assert!(tracer.spans.is_empty());
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let mut tracer = Tracer::on(Instant::now());
        tracer.span("bench.answer", |t| {
            t.span("sim.build", |_| ());
            t.span("kripke.eval", |_| ());
        });
        let spans = &tracer.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end >= spans[2].end);
    }
}
