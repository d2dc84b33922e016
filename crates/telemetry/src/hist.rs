//! Log2-bucket histograms, recorded with the same wait-free per-slot
//! discipline as the event counters — in the same rows, after them.
//!
//! Two fixed histograms cover the stack's two interesting distributions:
//! how many attempts a lock-free operation needed before its SC landed
//! ([`Hist::Retries`]), and how far backoff escalated while it waited
//! ([`Hist::BackoffDepth`]). Log2 buckets because both distributions are
//! heavy-tailed under contention: the tail, not the mean, is the signal.

use crate::event::EVENT_COUNT;
use crate::registry::{bump, racy_sum};

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

/// Index of bucket `bucket` of `hist` in a counter-matrix row (and in a
/// consistent sink's snapshot, which has the same layout): histograms
/// follow the [`EVENT_COUNT`] event counters, `HIST_BUCKETS` words each.
#[must_use]
pub const fn hist_word(hist: Hist, bucket: usize) -> usize {
    EVENT_COUNT + hist as usize * HIST_BUCKETS + bucket
}

/// The buckets of `hist` out of a row-layout snapshot (see
/// [`crate::ROW_WORDS`]).
#[must_use]
pub fn hist_of(row: &[u64; crate::ROW_WORDS], hist: Hist) -> [u64; HIST_BUCKETS] {
    std::array::from_fn(|b| row[hist_word(hist, b)])
}

/// The wait-free path behind [`crate::observe`].
#[inline]
#[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
pub(crate) fn observe_impl(hist: Hist, value: u64) {
    bump(hist_word(hist, bucket_of(value)), 1);
}

/// Racy bucket totals for one histogram (sums over all slots; same
/// monotonicity contract as [`crate::racy_totals`]).
#[must_use]
pub fn histogram(hist: Hist) -> [u64; HIST_BUCKETS] {
    racy_sum(hist_word(hist, 0))
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
