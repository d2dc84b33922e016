//! Consistent snapshots of the counter matrix.
//!
//! [`crate::racy_totals`] can return a **torn** state: the sum over rows
//! is taken while writers run, so two counters a writer always bumps
//! together can come back unequal. Fixing that is a multi-word
//! atomic-snapshot problem — exactly what the source paper's Figure 6
//! (W-word WLL/VL/SC from CAS) solves, and what Blelloch & Wei's "LL/SC
//! and Atomic Copy" (arXiv:1911.09671) later solve with single-word CAS.
//! The subsystem dogfoods Figure 6:
//!
//! * each recording thread keeps incrementing its own row with relaxed
//!   loads and stores (the hot path is untouched);
//! * at *consistency points* of its own choosing (batch boundaries,
//!   operation completion) it calls [`Flusher::flush`], which publishes
//!   the delta of its whole row — event counters and histogram buckets,
//!   [`ROW_WORDS`] words — into an [`AtomicTotals`] sink **as one atomic
//!   W-word update**;
//! * a reader obtains the aggregated row with a single WLL — every event
//!   and every bucket mutually consistent, because every state the sink
//!   ever held is a sum of whole per-thread deltas.
//!
//! This crate only defines the sink *interface* (it sits below
//! `nbsp-core` in the layering); the Figure-6-backed implementation is
//! `nbsp_core::telemetry::WideTotals`, the `ROW_WORDS`-wide instance of
//! the one WLL → add → SC accumulator the workspace has.

use std::marker::PhantomData;

use crate::registry::{record_row, slot_row, thread_slot, ROW_WORDS};

/// An atomically updatable, atomically readable row of totals (events
/// then histogram buckets, see [`ROW_WORDS`]) — the abstraction a
/// consistent snapshot reader needs.
///
/// Implementations must make `add` atomic with respect to `totals`:
/// a `totals` call observes either all of a given `add` or none of it.
pub trait AtomicTotals {
    /// Atomically adds `delta` (element-wise) to the totals, as the
    /// process/thread identified by `slot` (a [`thread_slot`] value).
    fn add(&self, slot: usize, delta: &[u64; ROW_WORDS]);

    /// An atomic (non-torn) snapshot of the totals.
    fn totals(&self) -> [u64; ROW_WORDS];
}

/// Per-thread flush state: remembers how much of the row the thread
/// records into ([`crate::record_row`]) has already been published so
/// the next [`Flusher::flush`] publishes only the new delta.
///
/// Create it on the recording thread (`new` captures the row's current
/// state, so pre-existing counts are not re-published) and call `flush`
/// from that same thread only — the type is `!Send` to enforce this,
/// because the delta computation relies on the single-writer exactness of
/// the thread's own row.
#[derive(Debug)]
pub struct Flusher {
    mirror: [u64; ROW_WORDS],
    /// Pins the flusher to its creating thread (no `Send`/`Sync`).
    _not_send: PhantomData<*const ()>,
}

impl Flusher {
    /// Captures the calling thread's current row as the published
    /// baseline.
    #[must_use]
    pub fn new() -> Self {
        Flusher {
            mirror: slot_row(record_row()),
            _not_send: PhantomData,
        }
    }

    /// Publishes everything this thread recorded since the last flush —
    /// events and histogram observations alike — into `sink` as one
    /// atomic update. Returns `true` if there was anything to publish.
    ///
    /// Call at cross-event consistency points: totals read back from the
    /// sink satisfy exactly the invariants that hold at every flush.
    pub fn flush<T: AtomicTotals>(&mut self, sink: &T) -> bool {
        let now = slot_row(record_row());
        let delta: [u64; ROW_WORDS] = std::array::from_fn(|i| now[i] - self.mirror[i]);
        let any = delta.iter().any(|&d| d != 0);
        if any {
            sink.add(thread_slot(), &delta);
            self.mirror = now;
        }
        any
    }
}

impl Default for Flusher {
    fn default() -> Self {
        Flusher::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::hist::{bucket_of, hist_word, observe_impl, Hist};
    use crate::registry::add;
    use std::sync::Mutex;

    /// Reference sink: a mutex-guarded row. The real Figure-6 sink lives
    /// in nbsp-core (layering); this one pins down the contract.
    struct LockedTotals(Mutex<[u64; ROW_WORDS]>);

    impl Default for LockedTotals {
        fn default() -> Self {
            LockedTotals(Mutex::new([0; ROW_WORDS]))
        }
    }

    impl AtomicTotals for LockedTotals {
        fn add(&self, _slot: usize, delta: &[u64; ROW_WORDS]) {
            let mut t = self.0.lock().unwrap();
            for (t, d) in t.iter_mut().zip(delta) {
                *t += d;
            }
        }

        fn totals(&self) -> [u64; ROW_WORDS] {
            *self.0.lock().unwrap()
        }
    }

    #[test]
    fn hist_flush_publishes_only_the_delta_since_creation() {
        // BackoffDepth value 40 lands in a bucket nothing else in this
        // binary observes.
        observe_impl(Hist::BackoffDepth, 40); // pre-existing: not flushed
        let mut f = Flusher::new();
        let sink = LockedTotals::default();
        assert!(!f.flush(&sink), "nothing observed yet");
        observe_impl(Hist::BackoffDepth, 40);
        observe_impl(Hist::BackoffDepth, 40);
        assert!(f.flush(&sink));
        assert_eq!(
            sink.totals()[hist_word(Hist::BackoffDepth, bucket_of(40))],
            2
        );
        assert!(!f.flush(&sink), "already published");
    }

    #[test]
    fn flush_publishes_only_the_delta_since_creation() {
        // HelpReceived is recorded by nothing else in this test binary.
        add(Event::HelpReceived, 100); // pre-existing: must NOT be flushed
        let mut f = Flusher::new();
        let sink = LockedTotals::default();
        assert!(!f.flush(&sink), "nothing recorded yet");
        add(Event::HelpReceived, 3);
        assert!(f.flush(&sink));
        assert_eq!(sink.totals()[Event::HelpReceived.index()], 3);
        assert!(!f.flush(&sink), "already published");
        add(Event::HelpReceived, 2);
        assert!(f.flush(&sink));
        assert_eq!(sink.totals()[Event::HelpReceived.index()], 5);
    }
}
