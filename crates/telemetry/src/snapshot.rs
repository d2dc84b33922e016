//! Consistent snapshots of the counter matrix.
//!
//! [`crate::racy_totals`] can return a **torn** cross-event state: the
//! sum over rows is taken while writers run, so two events a writer
//! always bumps together can come back unequal. Fixing that is a
//! multi-word atomic-snapshot problem — exactly what the source paper's
//! Figure 6 (W-word WLL/VL/SC from CAS) solves, and what Blelloch & Wei's
//! "LL/SC and Atomic Copy" (arXiv:1911.09671) later solve with
//! single-word CAS. The subsystem dogfoods Figure 6:
//!
//! * each recording thread keeps incrementing its own row with relaxed
//!   loads and stores (the hot path is untouched);
//! * at *consistency points* of its own choosing (batch boundaries,
//!   operation completion) it calls [`Flusher::flush`], which publishes
//!   the delta of its own row since the previous flush into an
//!   [`AtomicTotals`] sink **as one atomic W-word update**;
//! * a reader obtains the aggregated totals with a single WLL — all
//!   events mutually consistent, because every state the sink ever held
//!   is a sum of whole per-thread deltas.
//!
//! This crate only defines the sink *interface* (it sits below
//! `nbsp-core` in the layering); the Figure-6-backed implementation is
//! `nbsp_core::telemetry::WideTotals`, which routes every `add` through a
//! WLL/SC loop on a `WideVar` of width [`EVENT_COUNT`].

use std::marker::PhantomData;

use crate::event::EVENT_COUNT;
use crate::hist::{slot_buckets, HIST_BUCKETS, HIST_COUNT};
use crate::registry::{record_row, slot_counts, thread_slot};

/// An atomically updatable, atomically readable vector of per-event
/// totals — the abstraction a consistent snapshot reader needs.
///
/// Implementations must make `add` atomic with respect to `totals`:
/// a `totals` call observes either all of a given `add` or none of it.
pub trait AtomicTotals {
    /// Atomically adds `delta` (element-wise) to the totals, as the
    /// process/thread identified by `slot` (a [`thread_slot`] value).
    fn add(&self, slot: usize, delta: &[u64; EVENT_COUNT]);

    /// An atomic (non-torn) snapshot of the totals.
    fn totals(&self) -> [u64; EVENT_COUNT];
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
    mirror: [u64; EVENT_COUNT],
    /// Pins the flusher to its creating thread (no `Send`/`Sync`).
    _not_send: PhantomData<*const ()>,
}

impl Flusher {
    /// Captures the calling thread's current row as the published
    /// baseline.
    #[must_use]
    pub fn new() -> Self {
        Flusher {
            mirror: slot_counts(record_row()),
            _not_send: PhantomData,
        }
    }

    /// Publishes everything this thread recorded since the last flush
    /// into `sink` as one atomic update. Returns `true` if there was
    /// anything to publish.
    ///
    /// Call at cross-event consistency points: totals read back from the
    /// sink satisfy exactly the invariants that hold at every flush.
    pub fn flush<T: AtomicTotals>(&mut self, sink: &T) -> bool {
        let now = slot_counts(record_row());
        let mut delta = [0u64; EVENT_COUNT];
        let mut any = false;
        for i in 0..EVENT_COUNT {
            delta[i] = now[i] - self.mirror[i];
            any |= delta[i] != 0;
        }
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

/// Flattened histogram state: `HIST_COUNT` histograms of `HIST_BUCKETS`
/// buckets each, in [`crate::Hist::ALL`] order — the unit an
/// [`AtomicHists`] sink adds and snapshots atomically.
pub type HistState = [[u64; HIST_BUCKETS]; HIST_COUNT];

/// An atomically updatable, atomically readable set of histogram bucket
/// totals — [`AtomicTotals`]' counterpart for the log2 histograms.
///
/// Implementations must make `add` atomic with respect to `totals`, so a
/// reported histogram is a state the aggregate actually held (no bucket
/// from one flush mixed with buckets from another). The Figure-6-backed
/// implementation is `nbsp_core::telemetry::WideHists`, which flattens
/// all `HIST_COUNT * HIST_BUCKETS` buckets into one `WideVar` so the
/// whole snapshot is a single WLL.
pub trait AtomicHists {
    /// Atomically adds `delta` (element-wise) to the bucket totals, as
    /// the thread identified by `slot`.
    fn add(&self, slot: usize, delta: &HistState);

    /// An atomic (non-torn) snapshot of every histogram's buckets.
    fn totals(&self) -> HistState;
}

/// Per-thread flush state for the histogram matrix: the [`Flusher`]
/// pattern applied to [`crate::histogram`] buckets instead of event
/// counters. Same contract: create on the recording thread, `!Send`,
/// publishes only the delta since the previous flush.
#[derive(Debug)]
pub struct HistFlusher {
    mirror: HistState,
    /// Pins the flusher to its creating thread (no `Send`/`Sync`).
    _not_send: PhantomData<*const ()>,
}

impl HistFlusher {
    /// Captures the calling thread's current histogram rows as the
    /// published baseline.
    #[must_use]
    pub fn new() -> Self {
        HistFlusher {
            mirror: slot_buckets(record_row()),
            _not_send: PhantomData,
        }
    }

    /// Publishes every bucket increment this thread observed since the
    /// last flush into `sink` as one atomic update. Returns `true` if
    /// there was anything to publish.
    pub fn flush<T: AtomicHists>(&mut self, sink: &T) -> bool {
        let now = slot_buckets(record_row());
        let mut delta = [[0u64; HIST_BUCKETS]; HIST_COUNT];
        let mut any = false;
        for h in 0..HIST_COUNT {
            for b in 0..HIST_BUCKETS {
                delta[h][b] = now[h][b] - self.mirror[h][b];
                any |= delta[h][b] != 0;
            }
        }
        if any {
            sink.add(thread_slot(), &delta);
            self.mirror = now;
        }
        any
    }
}

impl Default for HistFlusher {
    fn default() -> Self {
        HistFlusher::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::registry::add;
    use std::sync::Mutex;

    /// Reference sink: a mutex-guarded vector. The real Figure-6 sink
    /// lives in nbsp-core (layering); this one pins down the contract.
    #[derive(Default)]
    struct LockedTotals(Mutex<[u64; EVENT_COUNT]>);

    impl AtomicTotals for LockedTotals {
        fn add(&self, _slot: usize, delta: &[u64; EVENT_COUNT]) {
            let mut t = self.0.lock().unwrap();
            for i in 0..EVENT_COUNT {
                t[i] += delta[i];
            }
        }

        fn totals(&self) -> [u64; EVENT_COUNT] {
            *self.0.lock().unwrap()
        }
    }

    /// Reference hist sink, mirroring [`LockedTotals`].
    #[derive(Default)]
    struct LockedHists(Mutex<HistState>);

    impl AtomicHists for LockedHists {
        fn add(&self, _slot: usize, delta: &HistState) {
            let mut t = self.0.lock().unwrap();
            for h in 0..HIST_COUNT {
                for b in 0..HIST_BUCKETS {
                    t[h][b] += delta[h][b];
                }
            }
        }

        fn totals(&self) -> HistState {
            *self.0.lock().unwrap()
        }
    }

    #[test]
    fn hist_flush_publishes_only_the_delta_since_creation() {
        use crate::hist::{bucket_of, observe_impl, Hist};
        // BackoffDepth value 40 lands in a bucket nothing else in this
        // binary observes.
        observe_impl(Hist::BackoffDepth, 40); // pre-existing: not flushed
        let mut f = HistFlusher::new();
        let sink = LockedHists::default();
        assert!(!f.flush(&sink), "nothing observed yet");
        observe_impl(Hist::BackoffDepth, 40);
        observe_impl(Hist::BackoffDepth, 40);
        assert!(f.flush(&sink));
        let b = bucket_of(40);
        assert_eq!(sink.totals()[Hist::BackoffDepth as usize][b], 2);
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
