//! The one consistent-snapshot accumulator: a W-word sum stored in a
//! Figure-6 [`WideVar`], updated by a WLL → saturating element-wise add →
//! SC loop and read with a single WLL.
//!
//! Every consistent number the workspace reports goes through
//! [`WideSum`]: the telemetry sink [`WideTotals`] (one [`ROW_WORDS`]-wide
//! row of event counters and histogram buckets, implementing
//! `nbsp-telemetry`'s [`AtomicTotals`]) and serve's per-cell metrics block
//! (`nbsp_serve::CellSink`). A reader's W-word snapshot is atomic by
//! Theorem 4, with no locks anywhere in the observability path: the
//! subsystem that watches the non-blocking primitives is itself built
//! from them. `nbsp-telemetry` sits at the bottom of the workspace
//! layering, so it cannot depend on this crate's constructions and only
//! defines the sink *trait*; this module closes the loop.
//!
//! Note the pleasant recursion: the flush path's own WLL/SC activity is
//! *also* recorded (as `ScSuccess`/`ScFail`/`LlRestart`/help events and
//! `BackoffDepth` observations) — telemetry observes itself. Readers who
//! need flush-path-free invariants should state them over events and
//! histograms the flush path never records (`TagAlloc`, `RscSpurious`,
//! `Retries`), as the snapshot stress tests do.

use std::sync::Arc;

use nbsp_memsim::ProcId;
use nbsp_telemetry::{AtomicTotals, MAX_SLOTS, ROW_WORDS};

use crate::wide::{WideDomain, WideKeep, WideVar};
use crate::{Backoff, Native, Result};

/// Tag width of every accumulator. 16 tag bits leave 48 value bits per
/// word — at one event per nanosecond that is over three days of
/// counting before a word saturates, far beyond any benchmark run.
const TAG_BITS: u32 = 16;

/// A `W`-word vector of totals in one Figure-6 wide variable: many
/// threads [`add`](WideSum::add) whole deltas, any thread
/// [`read`](WideSum::read)s a state the sum actually held.
#[derive(Debug)]
pub struct WideSum<const W: usize> {
    var: WideVar<Native>,
}

impl<const W: usize> WideSum<W> {
    /// Creates a zeroed sum able to serve `max_procs` concurrently adding
    /// threads (the Figure-6 domain's `N`; also the size of its announce
    /// array, so don't oversize it gratuitously).
    ///
    /// Slots map to domain pids modulo `max_procs`; keep `max_procs` above
    /// every slot that adds concurrently so no two threads share an
    /// announce row.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::Error::InvalidDomain`] for `max_procs == 0`.
    pub fn new(max_procs: usize) -> Result<Self> {
        let domain = WideDomain::<Native>::new(max_procs, W, TAG_BITS)?;
        let var = domain.var(&[0u64; W])?;
        Ok(WideSum { var })
    }

    /// Atomically adds `delta` element-wise, as process `slot`: WLL → add
    /// → SC, retried until the SC lands. Lock-free: a retry implies
    /// another adder's SC succeeded. Each word saturates at the domain's
    /// `max_val` rather than carry into its tag bits. Allocation-free: the
    /// loop's buffers live on the stack.
    pub fn add(&self, slot: usize, delta: &[u64; W]) {
        let mem = Native;
        let pid = ProcId::new(slot % self.var.domain().n());
        let max = self.var.domain().max_val();
        let mut keep = WideKeep::default();
        let mut buf = [0u64; W];
        let mut backoff = Backoff::new();
        loop {
            if !self.var.wll(&mem, &mut keep, &mut buf).is_success() {
                backoff.spin();
                continue;
            }
            let new: [u64; W] = std::array::from_fn(|i| buf[i].saturating_add(delta[i]).min(max));
            if self.var.sc(&mem, pid, &keep, &new) {
                return;
            }
            backoff.spin();
        }
    }

    /// One WLL (retried on interference): a W-word atomic snapshot by
    /// Theorem 4 — every word is from the same linearization point.
    /// Allocation-free, like [`add`](WideSum::add): the WLL writes
    /// straight into the returned array.
    #[must_use]
    pub fn read(&self) -> [u64; W] {
        let mut keep = WideKeep::default();
        let mut buf = [0u64; W];
        // nbsp-flow: allow(keep-leak) — pure read: the successful WLL is the consumer; a WideKeep claims no slot, so dropping it is free
        while !self.var.wll(&Native, &mut keep, &mut buf).is_success() {}
        buf
    }

    /// The underlying wide variable's domain (for audits and tests).
    #[must_use]
    pub fn domain(&self) -> &Arc<WideDomain<Native>> {
        self.var.domain()
    }
}

/// The run-level telemetry sink: aggregated per-event totals and
/// histogram buckets, one [`ROW_WORDS`]-word [`WideSum`] in the
/// counter-matrix row layout.
///
/// Create one per measurement run, hand it to each recording thread's
/// [`Flusher`](nbsp_telemetry::Flusher), and read consistent totals with
/// [`AtomicTotals::totals`] at any time — including while flushes are in
/// flight. One WLL returns events and histograms together, so an
/// invariant that holds between an event and a histogram at every flush
/// holds in every snapshot. Compare [`nbsp_telemetry::racy_totals`],
/// which can tear across events; experiment E11 measures the difference.
pub type WideTotals = WideSum<ROW_WORDS>;

impl WideTotals {
    /// A sink sized for every possible telemetry slot ([`MAX_SLOTS`]):
    /// thread slots map to domain pids 1:1, so any mix of flushing
    /// threads is safe.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from [`WideSum::new`] (none in
    /// practice for this fixed size).
    pub fn with_all_slots() -> Result<Self> {
        Self::new(MAX_SLOTS)
    }
}

impl AtomicTotals for WideTotals {
    fn add(&self, slot: usize, delta: &[u64; ROW_WORDS]) {
        WideSum::add(self, slot, delta);
    }

    fn totals(&self) -> [u64; ROW_WORDS] {
        self.read()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbsp_telemetry::{hist_word, Event, Hist};

    #[test]
    fn add_accumulates_and_read_snapshots() {
        let t = WideTotals::new(2).unwrap();
        let mut d = [0u64; ROW_WORDS];
        d[Event::ScSuccess.index()] = 3;
        d[Event::TagAlloc.index()] = 1;
        d[hist_word(Hist::Retries, 3)] = 5;
        d[hist_word(Hist::BackoffDepth, 7)] = 2;
        t.add(0, &d);
        t.add(1, &d);
        let got = t.totals();
        assert_eq!(got[Event::ScSuccess.index()], 6);
        assert_eq!(got[Event::TagAlloc.index()], 2);
        assert_eq!(got[Event::ScFail.index()], 0);
        assert_eq!(got[hist_word(Hist::Retries, 3)], 10);
        assert_eq!(got[hist_word(Hist::BackoffDepth, 7)], 4);
        assert_eq!(got[hist_word(Hist::Retries, 0)], 0);
    }

    #[test]
    fn add_past_max_val_saturates_the_word_alone() {
        let t = WideSum::<3>::new(1).unwrap();
        let max = t.domain().max_val();
        t.add(0, &[max - 1, 7, 0]);
        // Past the 48 value bits: an unsaturated sum would carry into the
        // segment's tag field (or trip the SC's bound assert).
        t.add(0, &[5, 0, 0]);
        assert_eq!(
            t.read(),
            [max, 7, 0],
            "saturated at max_val, neighbour unchanged"
        );
        let tag = t.var.current_tag(&Native);
        assert_eq!(tag, 2, "two adds, two SCs");
        for (i, val) in [max, 7, 0].into_iter().enumerate() {
            assert_eq!(t.var.segment(&Native, i), (tag, val), "segment {i}");
        }
        t.add(0, &[u64::MAX, 1, 0]);
        assert_eq!(t.read(), [max, 8, 0], "a saturated word stays saturated");
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
                    let mut d = [0u64; ROW_WORDS];
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
        // Writers always add equal amounts to an event and a histogram
        // bucket; a torn reader would observe them unequal. The WLL-based
        // totals must not.
        let t = WideTotals::with_all_slots().unwrap();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let bucket = hist_word(Hist::Retries, 2);
        std::thread::scope(|s| {
            for _ in 0..3 {
                let t = &t;
                let stop = &stop;
                s.spawn(move || {
                    let slot = nbsp_telemetry::thread_slot();
                    let mut d = [0u64; ROW_WORDS];
                    d[Event::TagAlloc.index()] = 7;
                    d[Event::RscSpurious.index()] = 7;
                    d[bucket] = 7;
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
                    assert_eq!(
                        got[Event::TagAlloc.index()],
                        got[bucket],
                        "torn event/bucket pair"
                    );
                }
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
            });
        });
    }
}
