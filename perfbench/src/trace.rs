//! Benchmark-side tracing and the statistics helpers.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer's public function: name, start, end, parent and the id of the op
//! they belong to. They stay in memory and are written out once, when the
//! run ends. A layer's self time is its span's duration minus the part of
//! that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Collects spans for one thread. A disabled tracer records nothing and
/// costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Spans recorded from now on belong to op `id`.
    pub fn set_op(&mut self, id: u64) {
        self.op = id;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.open(name, None);
        let out = f(self);
        self.close(idx);
        out
    }

    /// Like [`Tracer::span`] but always a root span: used for calls timed
    /// beside an op (on the same input) rather than inside it.
    pub fn root_span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let saved = std::mem::take(&mut self.stack);
        let idx = self.open(name, Some(None));
        let out = f(self);
        self.close(idx);
        self.stack = saved;
        out
    }

    fn open(&mut self, name: &'static str, parent: Option<Option<usize>>) -> usize {
        let parent = parent.unwrap_or_else(|| self.stack.last().copied());
        let now = self.now();
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start: now,
            end: now,
        });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        idx
    }

    fn close(&mut self, idx: usize) {
        let now = self.now();
        self.spans[idx].end = now;
        self.stack.pop();
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut iv: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| (spans[c].start.max(s.start), spans[c].end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur() - covered
        })
        .collect()
}

/// Name of the root span that brackets one op.
pub const OP: &str = "op";

/// Spans with their self times and roots, for per-layer aggregation.
#[derive(Debug)]
pub struct Layers {
    spans: Vec<Span>,
    selfs: Vec<u64>,
    root: Vec<usize>,
}

impl Layers {
    pub fn new(spans: Vec<Span>) -> Layers {
        let selfs = self_times(&spans);
        let mut root: Vec<usize> = Vec::with_capacity(spans.len());
        for (i, s) in spans.iter().enumerate() {
            // Parents precede children, so the parent's root is known.
            root.push(s.parent.map_or(i, |p| root[p]));
        }
        Layers { spans, selfs, root }
    }

    /// Self time of every span named `name`, in microseconds.
    pub fn calls_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(&self.selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &t)| t as f64 / 1e3)
            .collect()
    }

    /// Per op: summed self time of spans named `name`, microseconds.
    pub fn per_op_us(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for (s, &t) in self.spans.iter().zip(&self.selfs) {
            if s.name == name {
                *out.entry(s.op).or_insert(0.0) += t as f64 / 1e3;
            }
        }
        out
    }

    /// Durations of the op spans, microseconds.
    pub fn op_us(&self) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == OP)
            .map(|s| s.dur() as f64 / 1e3)
            .collect()
    }

    /// Share of total op time spent in the self time of spans inside an
    /// op whose name satisfies `pred`. Spans timed beside an op (roots
    /// other than the op span) are not part of it and never count.
    pub fn op_share(&self, pred: impl Fn(&str) -> bool) -> f64 {
        let total: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == OP)
            .map(Span::dur)
            .sum();
        let part: u64 = self
            .spans
            .iter()
            .enumerate()
            .filter(|(i, s)| self.spans[self.root[*i]].name == OP && pred(s.name))
            .map(|(i, _)| self.selfs[i])
            .sum();
        if total == 0 {
            0.0
        } else {
            part as f64 / total as f64
        }
    }
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            f,
            "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.op, s.start, s.end
        )?;
    }
    f.flush()
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// closest ranks (the same rule as numpy's default). `None` when empty.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, op: u64, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            op,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let spans = vec![
            span("op", 1, None, 0, 100),
            span("a", 1, Some(0), 10, 30),
            span("b", 1, Some(0), 25, 50), // overlaps a: union is 10..50
            span("c", 1, Some(2), 30, 40),
            span("d", 1, Some(0), 90, 120), // sticks out: clipped to 90..100
            span("shadow", 1, None, 200, 260),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20, 15, 10, 30, 60]);
    }

    #[test]
    fn layer_shares_count_only_spans_inside_ops() {
        let spans = vec![
            span(OP, 1, None, 0, 1000),
            span("lang.parse", 1, Some(0), 0, 300),
            span("genext.specialise", 1, Some(0), 300, 400),
            span("lang.parse", 1, None, 2000, 2500), // timed beside the op
            span(OP, 2, None, 5000, 6000),
            span("lang.parse", 2, Some(4), 5000, 5100),
        ];
        let l = Layers::new(spans);
        assert_eq!(l.op_us(), vec![1.0, 1.0]);
        assert_eq!(l.calls_us("lang.parse"), vec![0.3, 0.5, 0.1]);
        assert!((l.per_op_us("lang.parse")[&1] - 0.8).abs() < 1e-12);
        assert!((l.op_share(|n| n == "lang.parse") - 0.2).abs() < 1e-12);
        assert!((l.op_share(|n| n == OP) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_roots() {
        let mut t = Tracer::new(true, Instant::now());
        t.set_op(7);
        t.span("op", |t| {
            t.span("inner", |t| t.root_span("beside", |_| ()));
        });
        let names: Vec<_> = t.spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            names,
            vec![("op", None, 7), ("inner", Some(0), 7), ("beside", None, 7)]
        );
        let mut off = Tracer::new(false, Instant::now());
        assert_eq!(off.span("op", |_| 3), 3);
        assert!(off.spans.is_empty());
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), Some(3.0));
        assert_eq!(quantile(&xs, 0.9), Some(4.6));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&[2.0, 4.0], 0.5), Some(3.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
