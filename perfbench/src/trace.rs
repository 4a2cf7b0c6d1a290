//! Spans recorded from outside the program, around each call into a
//! layer's public functions.
//!
//! Every replayed operation is a root span (the operation kind); the calls
//! it makes are its children, each named by the layer it enters and the
//! function called.  Spans stay in memory and are written out once, at
//! the end of the run.  A span's self time is its duration minus its
//! children's; a root's self time is the operation's unattributed
//! remainder, so attributed self times plus the remainder equal the
//! operation time exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub call: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` as a root span: one replayed operation of kind `op`.
    pub fn op<T>(&mut self, op: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        assert!(self.stack.is_empty(), "operations do not nest");
        self.request += 1;
        self.span(op, "", f)
    }

    /// Run `f` as a child span of the current one, for a call `call` into
    /// layer `layer`.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        call: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name: layer,
            call,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now();
        out
    }

    /// Durations (ms) of every root span of kind `op`, in order.
    pub fn op_ms(&self, op: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == op)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Durations (ms) of every child span `layer`/`call`, in order.
    pub fn call_ms(&self, layer: &str, call: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some() && s.name == layer && s.call == call)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Direct child spans `layer`/`call` per root span of kind `op`.
    pub fn calls_per_op(&self, op: &str, layer: &str, call: &str) -> f64 {
        let is_op = |i: usize| self.spans[i].parent.is_none() && self.spans[i].name == op;
        let ops = (0..self.spans.len()).filter(|&i| is_op(i)).count();
        let calls = self
            .spans
            .iter()
            .filter(|s| s.name == layer && s.call == call && s.parent.is_some_and(is_op))
            .count();
        calls as f64 / ops.max(1) as f64
    }

    /// Self time of every span, in ns.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_ns - s.start_ns;
            }
        }
        own
    }

    /// Per operation kind: operation count, total operation time, self
    /// time per layer and the unattributed remainder (all ns).
    pub fn table(&self) -> BTreeMap<&'static str, OpTable> {
        let own = self.self_ns();
        let mut root_of = vec![0usize; self.spans.len()];
        let mut out: BTreeMap<&'static str, OpTable> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            root_of[i] = match s.parent {
                None => i,
                Some(p) => root_of[p],
            };
            let op = self.spans[root_of[i]].name;
            let row = out.entry(op).or_default();
            match s.parent {
                None => {
                    row.count += 1;
                    row.total_ns += s.end_ns - s.start_ns;
                    row.unattributed_ns += own[i];
                }
                Some(_) => {
                    let layer = row.layers.entry(s.name).or_default();
                    layer.0 += own[i];
                    layer.1 += 1;
                }
            }
        }
        out
    }

    /// The per-layer table as text.
    pub fn render_table(&self, title: &str) -> String {
        let mut text = format!("# per-layer self time, {title}\n");
        let _ = writeln!(
            text,
            "{:<16} {:<24} {:>7} {:>12} {:>12} {:>7}",
            "op", "layer", "spans", "self_ms", "ms/op", "share"
        );
        for (op, row) in self.table() {
            let total = row.total_ns.max(1) as f64;
            let per = |ns: u64| ns as f64 / 1e6 / row.count.max(1) as f64;
            for (layer, (ns, n)) in &row.layers {
                let _ = writeln!(
                    text,
                    "{op:<16} {layer:<24} {n:>7} {:>12.3} {:>12.4} {:>6.1}%",
                    *ns as f64 / 1e6,
                    per(*ns),
                    100.0 * *ns as f64 / total
                );
            }
            let _ = writeln!(
                text,
                "{op:<16} {:<24} {:>7} {:>12.3} {:>12.4} {:>6.1}%",
                "(unattributed)",
                row.count,
                row.unattributed_ns as f64 / 1e6,
                per(row.unattributed_ns),
                100.0 * row.unattributed_ns as f64 / total
            );
            let attributed: u64 = row.layers.values().map(|l| l.0).sum();
            let _ = writeln!(
                text,
                "{op:<16} {:<24} {:>7} {:>12.3} {:>12.4}  (attributed {:.3} + unattributed {:.3})",
                "= operation time",
                row.count,
                row.total_ns as f64 / 1e6,
                per(row.total_ns),
                attributed as f64 / 1e6,
                row.unattributed_ns as f64 / 1e6
            );
        }
        text
    }

    /// Every span as one JSON object per line.
    pub fn dump(&self) -> String {
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{i},\"name\":\"{}\",\"call\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.call, s.start_ns, s.end_ns, s.request
            );
        }
        text
    }
}

#[derive(Default)]
pub struct OpTable {
    pub count: u64,
    pub total_ns: u64,
    pub unattributed_ns: u64,
    /// Layer → (self ns, span count).
    pub layers: BTreeMap<&'static str, (u64, u64)>,
}
