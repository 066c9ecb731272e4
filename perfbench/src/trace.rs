//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Every op (one batch job, or one serving inject) gets a root span and
//! child spans around the library calls it makes, all sharing the op's
//! id. Spans are kept in memory and written out as JSONL when the run
//! ends. A layer's self time is the part of its spans not covered by an
//! earlier sibling (children never nest further), clipped to the root;
//! what the root keeps is the op's residual — benchmark bookkeeping and
//! waiting no layer span covers.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// The layer a child span times, named by the module it calls into.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Frontend,
    Core,
    Dataflow,
    Lang,
    GammaBuild,
    GammaRun,
    /// The benchmark comparing an output with its reference.
    Check,
    /// Open-loop generator running behind an arrival's due time.
    GenLate,
    Inject,
    /// From an inject's return to the start of the wave that takes it.
    QueueWait,
    Wave,
    Drain,
    Evict,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Frontend => "frontend.compile",
            Layer::Core => "core.convert",
            Layer::Dataflow => "dataflow.run",
            Layer::Lang => "lang.parse",
            Layer::GammaBuild => "gamma.build",
            Layer::GammaRun => "gamma.run",
            Layer::Check => "bench.check",
            Layer::GenLate => "gen.late",
            Layer::Inject => "service.inject",
            Layer::QueueWait => "service.queue_wait",
            Layer::Wave => "service.wave",
            Layer::Drain => "service.drain",
            Layer::Evict => "service.evict",
        }
    }
}

/// One recorded interval, in nanoseconds since the tracer's epoch.
/// `layer == None` marks the op's root span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub op: u64,
    pub layer: Option<Layer>,
    pub start: u64,
    pub end: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Self times summed over every recorded op.
#[derive(Debug, Default)]
pub struct SelfTimes {
    pub layer_ns: BTreeMap<Layer, u64>,
    pub residual_ns: u64,
    pub wall_ns: u64,
    pub ops: u64,
}

impl Tracer {
    /// A tracer that records spans only when `on`; timing through
    /// [`Tracer::timed`] works either way.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn record(&mut self, op: u64, layer: Option<Layer>, start: u64, end: u64) {
        if self.on {
            self.spans.push(Span {
                op,
                layer,
                start,
                end,
            });
        }
    }

    /// Run `f` inside a child span of `op`; returns its result and the
    /// span's length in nanoseconds.
    pub fn timed<R>(&mut self, op: u64, layer: Layer, f: impl FnOnce() -> R) -> (R, u64) {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(op, Some(layer), start, end);
        (out, end - start)
    }

    /// Self times of the spans recorded so far whose op id satisfies
    /// `keep`.
    pub fn self_times(&self, keep: impl Fn(u64) -> bool) -> SelfTimes {
        let mut by_op: BTreeMap<u64, (Option<Span>, Vec<Span>)> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| keep(s.op)) {
            let entry = by_op.entry(s.op).or_default();
            match s.layer {
                None => entry.0 = Some(*s),
                Some(_) => entry.1.push(*s),
            }
        }
        let mut out = SelfTimes::default();
        for (_, (root, mut children)) in by_op {
            let Some(root) = root else { continue };
            children.sort_by_key(|c| c.start);
            let mut covered = root.start;
            let mut used = 0;
            for c in &children {
                let from = c.start.max(covered);
                let to = c.end.min(root.end);
                if to > from {
                    *out.layer_ns.entry(c.layer.expect("child")).or_default() += to - from;
                    used += to - from;
                    covered = to;
                }
            }
            let wall = root.end - root.start;
            out.wall_ns += wall;
            out.residual_ns += wall - used;
            out.ops += 1;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"op\":{},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op,
                s.layer.map_or("op", Layer::name),
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_clip_overlap_and_keep_residual() {
        let mut t = Tracer::new(true);
        t.record(1, None, 0, 100);
        t.record(1, Some(Layer::Lang), 10, 40);
        // Overlaps the parse span by 10 and runs past the root by 20.
        t.record(1, Some(Layer::GammaRun), 30, 120);
        t.record(2, None, 0, 50);
        let st = t.self_times(|_| true);
        assert_eq!(st.layer_ns[&Layer::Lang], 30);
        assert_eq!(st.layer_ns[&Layer::GammaRun], 60);
        assert_eq!(st.wall_ns, 150);
        assert_eq!(st.residual_ns, 150 - 90);
        assert_eq!(st.ops, 2);
        let only2 = t.self_times(|op| op == 2);
        assert_eq!((only2.ops, only2.residual_ns), (1, 50));
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let (v, ns) = t.timed(1, Layer::Core, || 7);
        assert_eq!(v, 7);
        assert!(ns < 1_000_000_000);
        assert_eq!(t.self_times(|_| true).ops, 0);
    }
}
