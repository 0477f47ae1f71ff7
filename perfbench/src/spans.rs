//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around the benchmark's own calls into the
//! program's public functions; nothing inside the program is
//! instrumented. A span's layer is its name up to the last `.`
//! (`core.machine.restore` belongs to `core.machine`), and a layer's self
//! time is the duration of its spans minus the part their child spans
//! cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept at most; later ones are counted but not stored, so a long
/// traced run stays bounded in memory.
const MAX_SPANS: usize = 1 << 20;

#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    op: u64,
}

/// Records nested spans: `begin` opens a child of the innermost open span,
/// `end` closes the innermost one and returns its duration.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<Option<u32>>,
    op: u64,
    dropped: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            dropped: 0,
        }
    }

    /// Sets the workload op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            self.stack.push(None);
            return;
        }
        let parent = self.stack.iter().rev().find_map(|s| *s);
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            op: self.op,
        });
        self.stack.push(Some(id));
    }

    /// Closes the innermost open span; returns its duration in ns (0 for
    /// a span dropped over the cap).
    pub fn end(&mut self) -> u64 {
        let now = self.now_ns();
        match self.stack.pop().expect("end() without begin()") {
            Some(id) => {
                let s = &mut self.spans[id as usize];
                s.end_ns = now;
                now - s.start_ns
            }
            None => 0,
        }
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in ns.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        self.begin(name);
        let r = f();
        let ns = self.end();
        (r, ns)
    }

    /// Open spans; pair with [`Tracer::unwind_to`] around code that may
    /// panic inside a span.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Closes every span opened above `depth` (after a caught panic).
    pub fn unwind_to(&mut self, depth: usize) {
        while self.stack.len() > depth {
            self.end();
        }
    }

    /// Number of spans recorded (dropped ones excluded).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per layer, in ns, over every closed span.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(*c);
            *out.entry(layer_of(s.name)).or_insert(0) += own;
        }
        out
    }

    /// Total duration of the root spans (those without a parent).
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .sum()
    }

    /// Writes every span as JSON lines:
    /// `{"name","layer","start_ns","end_ns","parent","op"}`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name,
                layer_of(s.name),
                s.start_ns,
                s.end_ns,
                s.op
            )?;
        }
        if self.dropped > 0 {
            writeln!(out, "{{\"dropped\":{}}}", self.dropped)?;
        }
        out.flush()
    }
}

/// The layer a span belongs to: its name up to the last `.`.
pub fn layer_of(name: &'static str) -> &'static str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// Accumulates per-call durations of one kind of call.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallCost {
    pub calls: u64,
    pub ns: u64,
}

impl CallCost {
    pub fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
    }

    /// Mean cost per call in µs (0 when never called).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64 / 1e3
        }
    }
}
