//! The paper-dogfooded consistent-snapshot sink: an
//! [`AtomicTotals`] implementation whose
//! storage is a Figure-6 [`WideVar`].
//!
//! `nbsp-telemetry` sits at the bottom of the workspace layering so every
//! hot path can record into it; it therefore cannot depend on this
//! crate's constructions and only defines the sink *trait*. This module
//! closes the loop: the aggregated per-event totals live in one W-word
//! wide variable (`W` = [`EVENT_COUNT`]), every
//! [`add`](WideTotals::add) is a WLL → element-wise add → SC retry loop,
//! and every [`totals`](WideTotals::totals) is a single WLL — so a
//! reader's W-word snapshot is atomic by Theorem 4, with no locks
//! anywhere in the observability path. The subsystem that watches the
//! non-blocking primitives is itself built from them.
//!
//! Note the pleasant recursion: the flush path's own WLL/SC activity is
//! *also* recorded (as `ScSuccess`/`ScFail`/`LlRestart`/help events) —
//! telemetry observes itself. Readers who need flush-path-free invariants
//! should state them over events the flush path never records
//! (`TagAlloc`, `RscSpurious`), as the snapshot stress test does.

use std::sync::Arc;

use nbsp_memsim::ProcId;
use nbsp_telemetry::{
    AtomicHists, AtomicTotals, HistState, EVENT_COUNT, HIST_BUCKETS, HIST_COUNT, MAX_SLOTS,
};

use crate::wide::{WideDomain, WideKeep, WideVar};
use crate::{Backoff, Native, Result};

/// Tag width of the totals variable. 16 tag bits leave 48 value bits per
/// event word — at one event per nanosecond that is over three days of
/// counting before wraparound, far beyond any benchmark run.
const TAG_BITS: u32 = 16;

/// Largest per-event total the sink can represent (48 value bits).
pub const MAX_TOTAL: u64 = (1 << (64 - TAG_BITS)) - 1;

/// Aggregated per-event totals stored in a Figure-6 wide variable.
///
/// Create one per measurement run, hand it to each recording thread's
/// [`Flusher`](nbsp_telemetry::Flusher), and read consistent totals with
/// [`WideTotals::totals`] at any time — including while flushes are in
/// flight. Compare [`nbsp_telemetry::racy_totals`], which can tear across
/// events; experiment E11 measures the difference.
#[derive(Debug)]
pub struct WideTotals {
    var: WideVar<Native>,
}

impl WideTotals {
    /// Creates a zeroed sink able to serve `max_procs` concurrently
    /// flushing threads (the Figure-6 domain's `N`; also the size of its
    /// announce array, so don't oversize it gratuitously).
    ///
    /// Thread slots map to domain pids modulo `max_procs`; keep
    /// `max_procs` at or above the number of flushing threads so no two
    /// threads share an announce row. [`WideTotals::with_all_slots`]
    /// always satisfies that.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::Error::InvalidDomain`] for `max_procs == 0`.
    pub fn new(max_procs: usize) -> Result<Self> {
        let domain = WideDomain::<Native>::new(max_procs, EVENT_COUNT, TAG_BITS)?;
        let var = domain.var(&[0u64; EVENT_COUNT])?;
        Ok(WideTotals { var })
    }

    /// A sink sized for every possible telemetry slot
    /// ([`MAX_SLOTS`]): thread slots map to domain pids 1:1, so any mix
    /// of flushing threads is safe.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from [`WideTotals::new`] (none in
    /// practice for this fixed size).
    pub fn with_all_slots() -> Result<Self> {
        Self::new(MAX_SLOTS)
    }

    /// The underlying wide variable's domain (for audits and tests).
    #[must_use]
    pub fn domain(&self) -> &Arc<WideDomain<Native>> {
        self.var.domain()
    }
}

impl AtomicTotals for WideTotals {
    /// WLL → add → SC, retried until the SC lands. Lock-free: a retry
    /// implies another flusher's SC succeeded.
    fn add(&self, slot: usize, delta: &[u64; EVENT_COUNT]) {
        let mem = Native;
        let pid = ProcId::new(slot % self.var.domain().n());
        let mut keep = WideKeep::default();
        let mut buf = [0u64; EVENT_COUNT];
        let mut backoff = Backoff::new();
        loop {
            if !self.var.wll(&mem, &mut keep, &mut buf).is_success() {
                backoff.spin();
                continue;
            }
            let mut new = [0u64; EVENT_COUNT];
            for i in 0..EVENT_COUNT {
                // Saturate rather than wrap into the tag bits; at 48 bits
                // per event this is unreachable in any real run.
                new[i] = (buf[i] + delta[i]).min(MAX_TOTAL);
            }
            if self.var.sc(&mem, pid, &keep, &new) {
                return;
            }
            backoff.spin();
        }
    }

    /// One WLL (retried on interference): a W-word atomic snapshot by
    /// Theorem 4 — every total is from the same linearization point.
    fn totals(&self) -> [u64; EVENT_COUNT] {
        let v = self.var.read(&Native);
        let mut out = [0u64; EVENT_COUNT];
        out.copy_from_slice(&v);
        out
    }
}

/// Width of the [`WideHists`] variable: every bucket of every histogram
/// flattened into one Figure-6 variable, so a full histogram snapshot is
/// a single WLL.
const HIST_WORDS: usize = HIST_COUNT * HIST_BUCKETS;

/// Aggregated histogram buckets stored in one Figure-6 wide variable —
/// [`WideTotals`]' counterpart for the log2 histograms.
///
/// The `HIST_COUNT * HIST_BUCKETS` buckets are flattened row-major into a
/// `W = 32`-word [`WideVar`], so [`WideHists::totals`] returns, in one
/// WLL, a state the aggregate actually held: no bucket from one flush
/// mixed with buckets from another, and cross-histogram invariants (e.g.
/// "one backoff-depth observation per recorded retry burst") hold exactly
/// as they did at some flush boundary.
#[derive(Debug)]
pub struct WideHists {
    var: WideVar<Native>,
}

impl WideHists {
    /// Creates a zeroed sink able to serve `max_procs` concurrently
    /// flushing threads (see [`WideTotals::new`] for the slot-to-pid
    /// mapping caveat).
    ///
    /// # Errors
    ///
    /// Propagates [`crate::Error::InvalidDomain`] for `max_procs == 0`.
    pub fn new(max_procs: usize) -> Result<Self> {
        let domain = WideDomain::<Native>::new(max_procs, HIST_WORDS, TAG_BITS)?;
        let var = domain.var(&[0u64; HIST_WORDS])?;
        Ok(WideHists { var })
    }

    /// A sink sized for every possible telemetry slot ([`MAX_SLOTS`]), so
    /// any mix of flushing threads is safe.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from [`WideHists::new`] (none in
    /// practice for this fixed size).
    pub fn with_all_slots() -> Result<Self> {
        Self::new(MAX_SLOTS)
    }
}

impl AtomicHists for WideHists {
    /// WLL → add → SC, retried until the SC lands (see
    /// [`WideTotals::add`]).
    fn add(&self, slot: usize, delta: &HistState) {
        let mem = Native;
        let pid = ProcId::new(slot % self.var.domain().n());
        let mut keep = WideKeep::default();
        let mut buf = [0u64; HIST_WORDS];
        let mut backoff = Backoff::new();
        loop {
            if !self.var.wll(&mem, &mut keep, &mut buf).is_success() {
                backoff.spin();
                continue;
            }
            let mut new = [0u64; HIST_WORDS];
            for (h, row) in delta.iter().enumerate() {
                for (b, d) in row.iter().enumerate() {
                    let i = h * HIST_BUCKETS + b;
                    new[i] = (buf[i] + d).min(MAX_TOTAL);
                }
            }
            if self.var.sc(&mem, pid, &keep, &new) {
                return;
            }
            backoff.spin();
        }
    }

    /// One WLL (retried on interference): all buckets of all histograms
    /// from the same linearization point (Theorem 4).
    fn totals(&self) -> HistState {
        let v = self.var.read(&Native);
        let mut out = [[0u64; HIST_BUCKETS]; HIST_COUNT];
        for h in 0..HIST_COUNT {
            out[h].copy_from_slice(&v[h * HIST_BUCKETS..(h + 1) * HIST_BUCKETS]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbsp_telemetry::Event;

    #[test]
    fn hist_add_accumulates_and_totals_snapshot() {
        let t = WideHists::new(2).unwrap();
        let mut d = [[0u64; HIST_BUCKETS]; HIST_COUNT];
        d[0][3] = 5;
        d[1][7] = 2;
        t.add(0, &d);
        t.add(1, &d);
        let got = t.totals();
        assert_eq!(got[0][3], 10);
        assert_eq!(got[1][7], 4);
        assert_eq!(got[0][0], 0);
    }

    #[test]
    fn add_accumulates_and_totals_snapshot() {
        let t = WideTotals::new(2).unwrap();
        let mut d = [0u64; EVENT_COUNT];
        d[Event::ScSuccess.index()] = 3;
        d[Event::TagAlloc.index()] = 1;
        t.add(0, &d);
        t.add(1, &d);
        let got = t.totals();
        assert_eq!(got[Event::ScSuccess.index()], 6);
        assert_eq!(got[Event::TagAlloc.index()], 2);
        assert_eq!(got[Event::ScFail.index()], 0);
    }

    #[test]
    fn concurrent_adds_never_lose_counts() {
        let t = WideTotals::with_all_slots().unwrap();
        const PER: u64 = 500;
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = &t;
                s.spawn(move || {
                    let slot = nbsp_telemetry::thread_slot();
                    let mut d = [0u64; EVENT_COUNT];
                    d[Event::HelpGiven.index()] = 1;
                    d[Event::HelpReceived.index()] = 1;
                    for _ in 0..PER {
                        t.add(slot, &d);
                    }
                });
            }
        });
        let got = t.totals();
        assert_eq!(got[Event::HelpGiven.index()], 4 * PER);
        assert_eq!(got[Event::HelpReceived.index()], 4 * PER);
    }

    #[test]
    fn snapshots_are_never_torn_under_concurrent_flushes() {
        // Writers always add equal amounts to two events; a torn reader
        // would observe them unequal. The WLL-based totals must not.
        let t = WideTotals::with_all_slots().unwrap();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..3 {
                let t = &t;
                let stop = &stop;
                s.spawn(move || {
                    let slot = nbsp_telemetry::thread_slot();
                    let mut d = [0u64; EVENT_COUNT];
                    d[Event::TagAlloc.index()] = 7;
                    d[Event::RscSpurious.index()] = 7;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        t.add(slot, &d);
                    }
                });
            }
            let t = &t;
            let stop = &stop;
            s.spawn(move || {
                for _ in 0..2_000 {
                    let got = t.totals();
                    assert_eq!(
                        got[Event::TagAlloc.index()],
                        got[Event::RscSpurious.index()],
                        "torn snapshot from the Figure-6 reader"
                    );
                }
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
            });
        });
    }
}
