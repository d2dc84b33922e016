//! Log2-bucket histograms, recorded with the same wait-free per-slot
//! discipline as the event counters.
//!
//! Two fixed histograms cover the stack's two interesting distributions:
//! how many attempts a lock-free operation needed before its SC landed
//! ([`Hist::Retries`]), and how far backoff escalated while it waited
//! ([`Hist::BackoffDepth`]). Log2 buckets because both distributions are
//! heavy-tailed under contention: the tail, not the mean, is the signal.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::registry::{bump, MAX_SLOTS};

/// Number of buckets per histogram. Bucket 0 holds the value 0, bucket
/// `b >= 1` holds values in `[2^(b-1), 2^b)`, and the last bucket also
/// absorbs everything larger.
pub const HIST_BUCKETS: usize = 16;

/// Number of distinct histograms.
pub const HIST_COUNT: usize = 2;

/// The fixed histogram vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Hist {
    /// Attempts per completed lock-free operation (1 = first try).
    Retries = 0,
    /// Spin-loop hints issued per backoff step (`2^step`; one observation
    /// per [`Backoff::spin`](../nbsp_core/struct.Backoff.html) call).
    BackoffDepth = 1,
}

impl Hist {
    /// Every histogram, in index order.
    pub const ALL: [Hist; HIST_COUNT] = [Hist::Retries, Hist::BackoffDepth];

    /// Stable snake_case name (report tables and JSON schema).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Hist::Retries => "retries_per_op",
            Hist::BackoffDepth => "backoff_depth",
        }
    }
}

#[repr(align(128))]
struct HistRow {
    buckets: [[AtomicU64; HIST_BUCKETS]; HIST_COUNT],
}

impl HistRow {
    const fn new() -> Self {
        HistRow {
            buckets: [const { [const { AtomicU64::new(0) }; HIST_BUCKETS] }; HIST_COUNT],
        }
    }
}

/// One row per leasable slot plus the overflow row, like the counter
/// matrix.
static HIST_MATRIX: [HistRow; MAX_SLOTS + 1] = [const { HistRow::new() }; MAX_SLOTS + 1];

/// The log2 bucket a value falls into.
#[must_use]
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Human-readable range label for bucket `b` (for report tables).
#[must_use]
pub fn bucket_label(b: usize) -> String {
    assert!(b < HIST_BUCKETS);
    if b == 0 {
        "0".to_string()
    } else if b == 1 {
        "1".to_string()
    } else if b == HIST_BUCKETS - 1 {
        format!(">={}", 1u64 << (b - 1))
    } else {
        format!("{}-{}", 1u64 << (b - 1), (1u64 << b) - 1)
    }
}

/// The wait-free path behind [`crate::observe`].
#[inline]
#[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
pub(crate) fn observe_impl(hist: Hist, value: u64) {
    bump(1, |row| &HIST_MATRIX[row].buckets[hist as usize][bucket_of(value)]);
}

/// The bucket counts of one row's histograms (`slot <= MAX_SLOTS`, see
/// [`crate::record_row`]): exact for the row's own thread — leased rows
/// are single-writer — and the baseline a [`crate::HistFlusher`] diffs
/// against.
#[must_use]
pub fn slot_buckets(slot: usize) -> [[u64; HIST_BUCKETS]; HIST_COUNT] {
    let mut out = [[0u64; HIST_BUCKETS]; HIST_COUNT];
    for (h, row) in out.iter_mut().enumerate() {
        for (b, c) in HIST_MATRIX[slot].buckets[h].iter().enumerate() {
            row[b] = c.load(Ordering::Relaxed);
        }
    }
    out
}

/// Racy bucket totals for one histogram (sums over all slots; same
/// monotonicity contract as [`crate::racy_totals`]).
#[must_use]
pub fn histogram(hist: Hist) -> [u64; HIST_BUCKETS] {
    let mut out = [0u64; HIST_BUCKETS];
    for row in &HIST_MATRIX {
        for (i, c) in row.buckets[hist as usize].iter().enumerate() {
            out[i] += c.load(Ordering::Relaxed);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(1 << 14), 15);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn labels_cover_the_ranges() {
        assert_eq!(bucket_label(0), "0");
        assert_eq!(bucket_label(1), "1");
        assert_eq!(bucket_label(2), "2-3");
        assert_eq!(bucket_label(3), "4-7");
        assert_eq!(bucket_label(HIST_BUCKETS - 1), format!(">={}", 1u64 << (HIST_BUCKETS - 2)));
    }

    #[test]
    fn observe_lands_in_the_right_bucket() {
        // BackoffDepth is not observed by anything else in this binary.
        let before = histogram(Hist::BackoffDepth);
        observe_impl(Hist::BackoffDepth, 3);
        observe_impl(Hist::BackoffDepth, 3);
        observe_impl(Hist::BackoffDepth, 100);
        let after = histogram(Hist::BackoffDepth);
        assert_eq!(after[bucket_of(3)] - before[bucket_of(3)], 2);
        assert_eq!(after[bucket_of(100)] - before[bucket_of(100)], 1);
    }
}
