//! The single-writer invariant of the counter matrix: a leased row is
//! written by the thread that holds it and by no one else — not by
//! threads past `MAX_SLOTS` live recorders, and not by a thread that
//! records from a TLS destructor after its lease was released.
//!
//! Recording into a leased row is a plain load and store, so a foreign
//! writer would show up here as a row holding more than its owner's
//! count, or as counts lost from `racy_totals`.

#![cfg(feature = "telemetry")]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use nbsp_telemetry::{racy_totals, record, record_row, slot_counts, Event, MAX_SLOTS};

/// Both tests need to know which rows are held; run them one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Spins until `flag` is set or `limit` passes; returns whether it was set.
fn wait_for(flag: &AtomicBool, limit: Duration) -> bool {
    let deadline = Instant::now() + limit;
    while !flag.load(Ordering::Acquire) {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

#[test]
fn threads_past_max_slots_record_into_the_overflow_row() {
    let _serial = serial();
    // LlxHelp is recorded by nothing else in this binary.
    let ev = Event::LlxHelp.index();
    const THREADS: usize = MAX_SLOTS + 2;
    let before = racy_totals()[ev];
    let all_claimed = Barrier::new(THREADS);
    let all_recorded = Barrier::new(THREADS);
    // (row, own count, what the row gained while everyone recorded)
    let results: Vec<(usize, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let (all_claimed, all_recorded) = (&all_claimed, &all_recorded);
                s.spawn(move || {
                    let row = record_row();
                    let base = slot_counts(row)[ev];
                    // Every thread holds its row (or overflows) from here
                    // until it exits.
                    all_claimed.wait();
                    let mine = 2_000 + i as u64;
                    for _ in 0..mine {
                        record(Event::LlxHelp);
                    }
                    all_recorded.wait();
                    (row, mine, slot_counts(row)[ev] - base)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let overflowed = results.iter().filter(|r| r.0 == MAX_SLOTS).count();
    assert!(overflowed >= 2, "{overflowed} of {THREADS} live threads overflowed");
    let mut leased: Vec<usize> = results.iter().map(|r| r.0).filter(|&r| r < MAX_SLOTS).collect();
    leased.sort_unstable();
    leased.dedup();
    assert_eq!(leased.len(), THREADS - overflowed, "two live threads leased one row");
    for &(row, mine, gained) in &results {
        if row < MAX_SLOTS {
            assert_eq!(gained, mine, "row {row} gained counts from a foreign writer");
        }
    }
    let recorded: u64 = results.iter().map(|r| r.1).sum();
    assert_eq!(racy_totals()[ev] - before, recorded, "counts lost or duplicated");
}

// Handshake between the exiting thread's TLS destructor and the thread
// that leases its row next.
static EXITING_ROW: AtomicUsize = AtomicUsize::new(usize::MAX);
static ROW_AT_EXIT: AtomicUsize = AtomicUsize::new(usize::MAX);
static RELEASED: AtomicBool = AtomicBool::new(false);
static OWNER_READY: AtomicBool = AtomicBool::new(false);
static LATE_DONE: AtomicBool = AtomicBool::new(false);

const EARLY: u64 = 1_000;
const LATE: u64 = 200_000;
const NEXT: u64 = 200_000;

/// Records `LATE` events from a TLS destructor. Touched before the
/// thread's first record, so it is registered before the lease and
/// dropped after it.
struct RecordOnExit;

impl Drop for RecordOnExit {
    fn drop(&mut self) {
        ROW_AT_EXIT.store(record_row(), Ordering::Release);
        RELEASED.store(true, Ordering::Release);
        // Race the row's next owner, if one shows up.
        wait_for(&OWNER_READY, Duration::from_secs(20));
        for _ in 0..LATE {
            record(Event::ScxAbort);
        }
        LATE_DONE.store(true, Ordering::Release);
    }
}

thread_local! {
    static ON_EXIT: RecordOnExit = const { RecordOnExit };
}

#[test]
fn records_after_the_lease_is_released_miss_the_next_owners_row() {
    let _serial = serial();
    // ScxAbort is recorded by nothing else in this binary.
    let ev = Event::ScxAbort.index();
    let before = racy_totals()[ev];
    let exiting = std::thread::spawn(|| {
        ON_EXIT.with(|_| {});
        for _ in 0..EARLY {
            record(Event::ScxAbort);
        }
        EXITING_ROW.store(record_row(), Ordering::Release);
    });
    assert!(wait_for(&RELEASED, Duration::from_secs(20)), "exiting thread stuck");
    let row = EXITING_ROW.load(Ordering::Acquire);
    assert!(row < MAX_SLOTS, "the exiting thread leased no row");
    assert_eq!(
        ROW_AT_EXIT.load(Ordering::Acquire),
        MAX_SLOTS,
        "a TLS destructor after the lease must record into the overflow row"
    );

    // Claim rows one thread at a time until one lands on the released
    // row; successive claims start at successive cursor positions, so
    // this takes at most one lap of the matrix.
    let mut gained = None;
    for _ in 0..2 * MAX_SLOTS {
        gained = std::thread::spawn(move || {
            if record_row() != row {
                return None;
            }
            let base = slot_counts(row)[ev];
            OWNER_READY.store(true, Ordering::Release);
            for _ in 0..NEXT {
                record(Event::ScxAbort);
            }
            assert!(wait_for(&LATE_DONE, Duration::from_secs(20)), "late records stuck");
            Some(slot_counts(row)[ev] - base)
        })
        .join()
        .unwrap();
        if gained.is_some() {
            break;
        }
    }
    OWNER_READY.store(true, Ordering::Release);
    exiting.join().unwrap();

    assert_eq!(gained, Some(NEXT), "the released row's next owner lost or gained counts");
    assert_eq!(racy_totals()[ev] - before, EARLY + LATE + NEXT, "counts lost");
}
