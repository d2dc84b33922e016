//! The wait-free counter matrix: one cache-padded row of relaxed
//! `AtomicU64`s per process (thread slot). A row holds the [`Event`]
//! counters followed by every histogram's buckets ([`ROW_WORDS`] words),
//! so one row is the whole of what a thread has recorded.
//!
//! The paper's constructions give each process a private announce slot so
//! that the hot path never contends; the counter matrix copies that shape.
//! A thread leases a row of its own for as long as it lives, and a
//! `record` is a thread-local row lookup plus a relaxed load and store on
//! that row — wait-free, no locked instruction, no loop, and (rows being
//! 128-byte aligned) no false sharing between recording threads.
//!
//! Rows are *single-writer*: only the leasing thread writes its row, which
//! is what makes the plain load + store exact, lets a thread read its own
//! row exactly (the property [`crate::snapshot::Flusher`] relies on), and
//! keeps every counter monotonic for the racy cross-row readers
//! [`racy_totals`] documents. Threads that find every row leased record
//! into one shared overflow row with `fetch_add` instead.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::event::{Event, EVENT_COUNT};
use crate::hist::{HIST_BUCKETS, HIST_COUNT};

/// Words in one row: the [`EVENT_COUNT`] event counters (indexed by
/// [`Event::index`]), then `HIST_COUNT` histograms of `HIST_BUCKETS`
/// buckets each (indexed by [`crate::hist_word`]). A consistent sink
/// holds the same layout, so one snapshot covers events and histograms.
pub const ROW_WORDS: usize = EVENT_COUNT + HIST_COUNT * HIST_BUCKETS;

/// Number of leasable rows in the counter matrix, and the number of
/// Figure-6 process ids [`thread_slot`] hands out. A thread leases a row
/// no live thread holds and frees it when it exits, so up to this many
/// concurrently live recording threads each write their own row.
/// A thread that starts recording while all of them are held records
/// into the shared overflow row (index `MAX_SLOTS`, see [`record_row`])
/// for the rest of its life: totals stay exact (that row's adds are
/// atomic), but its [`crate::snapshot::Flusher`] diffs a row other
/// threads write too — keep concurrent recording threads at or below
/// this bound for consistent snapshots.
pub const MAX_SLOTS: usize = 64;

/// Index of the overflow row: never leased, written with `fetch_add` by
/// every thread that found all [`MAX_SLOTS`] rows held.
const OVERFLOW: usize = MAX_SLOTS;

/// One process's counters and buckets, padded to (a pair of) cache lines
/// so neighbouring recorders never invalidate each other.
#[repr(align(128))]
struct Row {
    words: [AtomicU64; ROW_WORDS],
}

impl Row {
    const fn new() -> Self {
        Row {
            words: [const { AtomicU64::new(0) }; ROW_WORDS],
        }
    }
}

/// The leasable rows followed by the overflow row.
static MATRIX: [Row; MAX_SLOTS + 1] = [const { Row::new() }; MAX_SLOTS + 1];

/// Cursor for slot claiming; wraps modulo [`MAX_SLOTS`]. A claim takes
/// the first free row at or after it, which spreads successive threads
/// over the matrix.
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

/// Rows held by live threads, one bit per slot.
static HELD: AtomicU64 = AtomicU64::new(0);
const _: () = assert!(MAX_SLOTS == 64, "HELD has one bit per slot");

/// A thread's hold on its row, released when the thread exits so that a
/// later thread reuses the row rather than sharing a live one.
struct Lease(Cell<usize>);

impl Drop for Lease {
    fn drop(&mut self) {
        let slot = self.0.get();
        if slot < MAX_SLOTS {
            // Later TLS destructors may still record: send them to the
            // overflow row first, so the row's next owner stays its only
            // writer.
            SLOT.set(OVERFLOW + slot);
            // Release: the row's counts happen-before its next owner's
            // first load of them, so its load + store builds on them.
            HELD.fetch_and(!(1u64 << slot), Ordering::Release);
        }
    }
}

thread_local! {
    /// The calling thread's slot word: `s < MAX_SLOTS` is a leased row
    /// `s` (and process id `s`), `OVERFLOW + p` records into the overflow
    /// row as process id `p`, and `usize::MAX` is not yet claimed.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    static LEASE: Lease = const { Lease(Cell::new(usize::MAX)) };
}

/// Claims a row for the calling thread and returns its slot word: the
/// first row at or after the cursor that no live thread holds, or the
/// overflow row when all [`MAX_SLOTS`] are held.
fn claim() -> usize {
    let start = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % MAX_SLOTS;
    let mut held = HELD.load(Ordering::Relaxed);
    while held != u64::MAX {
        let free = (!held).rotate_right(start as u32).trailing_zeros() as usize;
        let slot = (start + free) % MAX_SLOTS;
        let bit = 1u64 << slot;
        match HELD.compare_exchange_weak(held, held | bit, Ordering::Acquire, Ordering::Relaxed) {
            Ok(_) => {
                if LEASE.try_with(|l| l.0.set(slot)).is_ok() {
                    return slot;
                }
                // The thread is already exiting: nothing would free the
                // row, so leave it unheld and record into the overflow row.
                HELD.fetch_and(!bit, Ordering::Relaxed);
                return OVERFLOW + slot;
            }
            Err(now) => held = now,
        }
    }
    OVERFLOW + start
}

/// The calling thread's slot word, claimed on first use.
fn slot_word() -> usize {
    let s = SLOT.get();
    if s != usize::MAX {
        s
    } else {
        let claimed = claim();
        SLOT.set(claimed);
        claimed
    }
}

/// The calling thread's process id, below [`MAX_SLOTS`] and claimed on
/// first use: the index of its leased row, and the process id a
/// consistent-snapshot publisher hands to the Figure-6 SC.
#[must_use]
pub fn thread_slot() -> usize {
    slot_word() % MAX_SLOTS
}

/// The row of the counter matrix the calling thread records into: its
/// [`thread_slot`] while it holds a lease, or `MAX_SLOTS` (the shared
/// overflow row) if every row was held when it first recorded or its
/// lease has been released at thread exit.
#[must_use]
#[inline]
pub fn record_row() -> usize {
    // One compare on the hot path: a leased row is its own slot word.
    let s = SLOT.get();
    if s < OVERFLOW {
        s
    } else {
        slot_word().min(OVERFLOW)
    }
}

/// Adds `n` to word `word` of the calling thread's row. A leased row has
/// one writer, so a relaxed load and store is exact there and keeps the
/// counter monotonic for racy readers; only the shared overflow row needs
/// the locked `fetch_add`. Relaxed is enough — counters carry no payload
/// to publish, and every reader is specified as racy or goes through a
/// [`crate::snapshot::AtomicTotals`] publication instead.
#[inline]
#[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
pub(crate) fn bump(word: usize, n: u64) {
    let row = record_row();
    let c = &MATRIX[row].words[word];
    if row < OVERFLOW {
        c.store(c.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
    } else {
        c.fetch_add(n, Ordering::Relaxed);
    }
}

/// The wait-free hot path behind [`crate::record`].
#[inline]
#[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
pub(crate) fn add(event: Event, n: u64) {
    bump(event.index(), n);
}

/// Snapshot of one whole row (`slot <= MAX_SLOTS`; see [`record_row`]):
/// exact for the row's owner (single writer) — the baseline a
/// [`crate::Flusher`] diffs against; for other rows, and for the overflow
/// row, a racy read like [`racy_totals`].
#[must_use]
pub(crate) fn slot_row(slot: usize) -> [u64; ROW_WORDS] {
    MATRIX[slot]
        .words
        .each_ref()
        .map(|c| c.load(Ordering::Relaxed))
}

/// The event counters of one row (`slot <= MAX_SLOTS`; see
/// [`record_row`]): exact for the row's owner (single writer), a racy
/// read like [`racy_totals`] otherwise.
#[must_use]
pub fn slot_counts(slot: usize) -> [u64; EVENT_COUNT] {
    std::array::from_fn(|i| MATRIX[slot].words[i].load(Ordering::Relaxed))
}

/// Racy sums over every row of the `N` words starting at `first`.
pub(crate) fn racy_sum<const N: usize>(first: usize) -> [u64; N] {
    let mut out = [0u64; N];
    for row in &MATRIX {
        for (o, c) in out.iter_mut().zip(&row.words[first..first + N]) {
            *o += c.load(Ordering::Relaxed);
        }
    }
    out
}

/// The **racy** snapshot reader: sums every row with relaxed loads while
/// writers keep running.
///
/// Guarantees: per-event sums are monotonic across successive calls (each
/// slot is re-read no earlier than last time). NOT guaranteed: mutual
/// consistency *between* events — a reader can observe `sc_success`
/// without the `tag_alloc` recorded just before it, i.e. a **torn**
/// cross-event state. Experiment E11 counts exactly these tears against
/// the Figure-6-backed consistent reader.
#[must_use]
pub fn racy_totals() -> [u64; EVENT_COUNT] {
    racy_sum(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_slot_is_stable_within_a_thread() {
        assert_eq!(thread_slot(), thread_slot());
        assert!(thread_slot() < MAX_SLOTS);
    }

    #[test]
    fn distinct_threads_get_distinct_slots() {
        let mine = thread_slot();
        let theirs = std::thread::spawn(thread_slot).join().unwrap();
        assert_ne!(mine, theirs);
    }

    #[test]
    fn live_threads_never_share_a_row() {
        // More threads over the test's lifetime than there are rows, but
        // never more than a few alive at once: exited threads free their
        // rows, so every live one writes a row of its own.
        let mine = thread_slot();
        for _ in 0..3 * MAX_SLOTS / 4 {
            let all_claimed = std::sync::Barrier::new(4);
            let slots: Vec<usize> = std::thread::scope(|s| {
                let hs: Vec<_> = (0..4)
                    .map(|_| {
                        s.spawn(|| {
                            let slot = thread_slot();
                            all_claimed.wait();
                            slot
                        })
                    })
                    .collect();
                hs.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for (i, a) in slots.iter().enumerate() {
                assert_ne!(*a, mine);
                assert!(slots[i + 1..].iter().all(|b| b != a), "{slots:?}");
            }
        }
    }

    #[test]
    fn add_is_visible_in_own_row_and_in_totals() {
        // Uses TagAlloc: nothing else in this test binary records it, so
        // the deltas are exact even with tests running in parallel.
        let slot = thread_slot();
        let before_row = slot_counts(slot)[Event::TagAlloc.index()];
        let before_total = racy_totals()[Event::TagAlloc.index()];
        for _ in 0..5 {
            add(Event::TagAlloc, 1);
        }
        add(Event::TagAlloc, 2);
        assert_eq!(slot_counts(slot)[Event::TagAlloc.index()], before_row + 7);
        assert!(racy_totals()[Event::TagAlloc.index()] >= before_total + 7);
    }
}
