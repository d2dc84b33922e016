//! Shared telemetry plumbing for experiment harnesses: per-thread
//! flushers publishing into Figure-6 WLL sinks.
//!
//! Every telemetry number a harness reports should flow through this
//! path: each worker session owns a [`Flusher`]/[`HistFlusher`] pair and
//! publishes its per-thread deltas into a run-level
//! [`WideTotals`]/[`WideHists`] sink, and reports read those sinks with a
//! single WLL each — never `racy_totals`, whose cross-event tearing E11
//! demonstrates. Extracted from `exp_contention` so E7 and future
//! harnesses report through the same snapshot-consistent machinery.

use nbsp_core::{WideHists, WideTotals};
use nbsp_telemetry::{Flusher, HistFlusher};

/// Worker ops between telemetry flushes: frequent enough that mid-run
/// reads stay fresh, rare enough that the WLL/SC flush loop is off the
/// hot path.
pub const FLUSH_EVERY: u64 = 8192;

/// The run-level consistent sinks every thread flushes into and every
/// report line reads from (each read is one WLL).
#[derive(Debug)]
pub struct Sinks {
    /// Per-event totals, all in one Figure-6 variable.
    pub events: WideTotals,
    /// Log2 histograms, likewise snapshot-consistent.
    pub hists: WideHists,
}

impl Sinks {
    /// Creates the pair of run-level sinks.
    #[must_use]
    pub fn new() -> Self {
        Sinks {
            events: WideTotals::with_all_slots().expect("events sink"),
            hists: WideHists::with_all_slots().expect("hists sink"),
        }
    }
}

impl Default for Sinks {
    fn default() -> Self {
        Sinks::new()
    }
}

/// A thread's event + histogram flusher pair. Created on the thread that
/// records (the types are `!Send`), flushed together so cross-event and
/// cross-histogram invariants land in the sinks at the same boundaries.
#[derive(Debug)]
pub struct FlushPair {
    events: Flusher,
    hists: HistFlusher,
}

impl FlushPair {
    /// Creates the pair on the recording thread.
    #[must_use]
    pub fn new() -> Self {
        FlushPair {
            events: Flusher::new(),
            hists: HistFlusher::new(),
        }
    }

    /// Publishes this thread's deltas into the run-level sinks.
    pub fn flush(&mut self, sinks: &Sinks) {
        self.events.flush(&sinks.events);
        self.hists.flush(&sinks.hists);
    }
}

impl Default for FlushPair {
    fn default() -> Self {
        FlushPair::new()
    }
}

/// A worker-session loop body: run `iters` ops through `op`, flushing
/// telemetry every [`FLUSH_EVERY`] ops and once at exit.
pub fn session_loop(iters: u64, sinks: &Sinks, mut op: impl FnMut()) {
    let mut flush = FlushPair::new();
    for i in 1..=iters {
        op();
        if i % FLUSH_EVERY == 0 {
            flush.flush(sinks);
        }
    }
    flush.flush(sinks);
}
