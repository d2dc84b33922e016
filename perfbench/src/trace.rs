//! Spans around the benchmark's calls into each layer of the stack.
//!
//! A [`Tracer`] belongs to one thread. Every span updates its layer's
//! count, total time and self time (the span's duration minus the part
//! its child spans cover); spans of sampled operations are also kept as
//! records (name, start, end, parent span, op id) and written out when
//! the run ends. A tracer built with `on == false` reads no clock, so the
//! untraced run pays one predictable branch per call site.

use std::fmt::Write as _;
use std::time::Instant;

/// The layer a span belongs to. Each is one public call site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `LoadGen::next_request`.
    LoadGen,
    /// `StripedBucket::admit`.
    Admit,
    /// `ShardRing::try_push`.
    RingPush,
    /// `ShardRing::try_pop` that returned a request.
    RingPop,
    /// `ShardRing::try_pop` that found the ring empty.
    RingPopEmpty,
    /// `OrdMap::insert`.
    MapInsert,
    /// `OrdMap::delete`.
    MapDelete,
    /// `OrdMap::get`.
    MapGet,
    /// `CellFlusher::flush`.
    Metrics,
    /// `Counter::increment`.
    Counter,
    /// One LL/VL/SC sequence on a private word.
    Prim,
    /// One call of `nbsp_check::explore` (or `check`).
    Dpor,
    /// `exec::run_execution` inside an exploration.
    Exec,
    /// `is_linearizable` inside an exploration.
    Lin,
    /// `check_conservation` / `check_lost_freeze` (no per-execution entry).
    LlxCheck,
}

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; 15] = [
        Layer::LoadGen,
        Layer::Admit,
        Layer::RingPush,
        Layer::RingPop,
        Layer::RingPopEmpty,
        Layer::MapInsert,
        Layer::MapDelete,
        Layer::MapGet,
        Layer::Metrics,
        Layer::Counter,
        Layer::Prim,
        Layer::Dpor,
        Layer::Exec,
        Layer::Lin,
        Layer::LlxCheck,
    ];

    /// Span name in the written trace.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::LoadGen => "loadgen.next_request",
            Layer::Admit => "fabric.admit",
            Layer::RingPush => "fabric.ring.try_push",
            Layer::RingPop => "fabric.ring.try_pop",
            Layer::RingPopEmpty => "fabric.ring.try_pop.empty",
            Layer::MapInsert => "ordmap.insert",
            Layer::MapDelete => "ordmap.delete",
            Layer::MapGet => "ordmap.get",
            Layer::Metrics => "metrics.flush",
            Layer::Counter => "counter.increment",
            Layer::Prim => "llsc.ll_vl_sc",
            Layer::Dpor => "check.explore",
            Layer::Exec => "check.run_execution",
            Layer::Lin => "linearize.is_linearizable",
            Layer::LlxCheck => "check.llx",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Per-layer totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of span durations minus time in child spans, ns.
    pub self_ns: u64,
}

impl Agg {
    /// Mean span duration in ns (0 with no spans).
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// One kept span.
#[derive(Clone, Copy, Debug)]
pub struct SpanRec {
    id: u64,
    parent: u64,
    layer: Layer,
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

struct Open {
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
    id: u64,
    parent: u64,
    op: u64,
}

/// Only operations whose id is a multiple of this keep span records.
const KEEP_EVERY: u64 = 256;
/// Most span records one tracer keeps.
const KEEP_MAX: usize = 100_000;

/// A per-thread span recorder.
pub struct Tracer {
    on: bool,
    t0: Instant,
    thread: u64,
    stack: Vec<Open>,
    agg: [Agg; Layer::ALL.len()],
    spans: Vec<SpanRec>,
    next_id: u64,
}

impl Tracer {
    /// A tracer for `thread`, timing from the shared epoch `t0`; with
    /// `on == false` every call is a no-op.
    #[must_use]
    pub fn new(on: bool, t0: Instant, thread: u64) -> Tracer {
        Tracer {
            on,
            t0,
            thread,
            stack: Vec::with_capacity(8),
            agg: [Agg::default(); Layer::ALL.len()],
            spans: Vec::new(),
            next_id: 0,
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span of `layer` for operation `op`, as a child of the
    /// innermost open span.
    #[inline]
    pub fn enter(&mut self, layer: Layer, op: u64) {
        if !self.on {
            return;
        }
        self.next_id += 1;
        let id = (self.thread << 48) | self.next_id;
        let parent = self.stack.last().map_or(0, |o| o.id);
        let start_ns = self.now_ns();
        self.stack.push(Open {
            layer,
            start_ns,
            child_ns: 0,
            id,
            parent,
            op,
        });
    }

    /// Closes the innermost span of a call that found no work (a poll of
    /// an empty ring), filing it under `layer` instead of the layer it was
    /// opened with. It counts in `layer`'s totals but is never kept as a
    /// record, so idle polling does not crowd out the sampled requests.
    #[inline]
    pub fn exit_idle(&mut self, layer: Layer) {
        self.close(layer, false);
    }

    #[inline]
    fn close(&mut self, layer: Layer, keep: bool) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = end_ns.saturating_sub(open.start_ns);
        let a = &mut self.agg[layer.index()];
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if keep && open.op.is_multiple_of(KEEP_EVERY) && self.spans.len() < KEEP_MAX {
            self.spans.push(SpanRec {
                id: open.id,
                parent: open.parent,
                layer,
                op: open.op,
                start_ns: open.start_ns,
                end_ns,
            });
        }
    }

    /// Closes the innermost span under the layer it was opened with.
    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let layer = self
            .stack
            .last()
            .expect("exit without a matching enter")
            .layer;
        self.close(layer, true);
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<R>(&mut self, layer: Layer, op: u64, f: impl FnOnce() -> R) -> R {
        self.enter(layer, op);
        let r = f();
        self.exit();
        r
    }

    /// Folds another thread's tracer into this one.
    pub fn merge(&mut self, other: Tracer) {
        for (a, b) in self.agg.iter_mut().zip(other.agg) {
            a.count += b.count;
            a.total_ns += b.total_ns;
            a.self_ns += b.self_ns;
        }
        let room = KEEP_MAX.saturating_sub(self.spans.len());
        self.spans.extend(other.spans.into_iter().take(room));
    }

    /// Totals of one layer.
    #[must_use]
    pub fn agg(&self, layer: Layer) -> Agg {
        self.agg[layer.index()]
    }

    /// The kept spans as JSON lines, sorted by start time.
    #[must_use]
    pub fn spans_jsonl(&self) -> String {
        let mut spans = self.spans.clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = String::new();
        for s in &spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.layer.name(),
                s.op,
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now(), 1);
        t.enter(Layer::Dpor, 0);
        t.span(Layer::Exec, 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        let outer = t.agg(Layer::Dpor);
        let inner = t.agg(Layer::Exec);
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.total_ns >= 2_000_000);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
        let lines = t.spans_jsonl();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"name\":\"check.run_execution\""));
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 1);
        t.span(Layer::Prim, 0, || ());
        assert_eq!(t.agg(Layer::Prim).count, 0);
        assert!(t.spans_jsonl().is_empty());
    }
}
