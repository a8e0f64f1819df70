//! Spans recorded by the benchmark around its calls into the program.
//!
//! The program itself carries no instrumentation yet, so a layer is seen
//! from outside: a span brackets one call into a public function, nested
//! spans give the caller its self time, and the server side of a socket is
//! reached by driving the same request through successively shallower entry
//! points (see `probes`). Spans stay in memory until the run ends.

use crate::stats::median;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent marker of a root span.
const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The operation this span belongs to; spans of one op share it.
    pub op: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span recorder. Switched off it records nothing, so one code path
/// serves the timed rounds (always off) and the traced pass.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Start the next operation: later spans carry a fresh op id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let id = self.open.pop().expect("end without begin");
        self.spans[id as usize].end_ns = now;
    }

    /// Record a root span whose ends were read elsewhere (on another
    /// thread, say).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        self.op += 1;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: NO_PARENT,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median duration of the spans called `name`, µs.
    pub fn median_us(&self, name: &str) -> f64 {
        let mut durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        median(&mut durations)
    }

    /// Per span name, the median over all ops of the self time the op spent
    /// in spans of that name (duration minus direct children; zero for an
    /// op that has none — a step every sixteenth op takes is not on the
    /// median op's path), µs. Their sum is what the trace explains of one op.
    pub fn self_time_medians_us(&self) -> BTreeMap<&'static str, f64> {
        let mut self_ns: Vec<i64> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as i64)
            .collect();
        for span in &self.spans {
            if span.parent != NO_PARENT {
                self_ns[span.parent as usize] -= (span.end_ns - span.start_ns) as i64;
            }
        }
        let mut per_op: BTreeMap<&'static str, BTreeMap<u64, i64>> = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self_ns) {
            *per_op
                .entry(span.name)
                .or_default()
                .entry(span.op)
                .or_default() += ns;
        }
        let ops: BTreeSet<u64> = self.spans.iter().map(|s| s.op).collect();
        per_op
            .into_iter()
            .map(|(name, with_span)| {
                let mut us: Vec<f64> = with_span.values().map(|&ns| ns as f64 / 1e3).collect();
                us.resize(ops.len(), 0.0);
                (name, median(&mut us))
            })
            .collect()
    }

    /// Write every span as JSON (one object per line inside `spans`).
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"span_count\":{},\"spans\":[",
            self.spans.len()
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}{comma}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::on();
        for _ in 0..3 {
            t.next_op();
            t.begin("op");
            t.begin("child");
            t.begin("grandchild");
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.end();
            t.end();
            t.end();
        }
        assert_eq!(t.spans().len(), 9);
        assert_eq!(t.spans()[2].parent, 1);
        let selfs = t.self_time_medians_us();
        assert!(selfs["grandchild"] >= 2_000.0);
        assert!(selfs["op"] < 1_000.0 && selfs["child"] < 1_000.0);
        let total: f64 = selfs.values().sum();
        assert!((total - t.median_us("op")).abs() < 500.0);
    }

    #[test]
    fn a_step_few_ops_take_is_not_on_the_median_path() {
        let mut t = Tracer::on();
        for i in 0..5 {
            t.next_op();
            t.begin("op");
            if i == 0 {
                t.begin("rare");
                std::thread::sleep(std::time::Duration::from_millis(1));
                t.end();
            }
            t.end();
        }
        assert_eq!(t.self_time_medians_us()["rare"], 0.0);
        assert!(t.median_us("rare") >= 1_000.0);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::off();
        t.begin("x");
        t.end();
        assert!(t.spans().is_empty());
    }
}
