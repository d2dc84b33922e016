//! `nbsp-telemetry`: wait-free observability for the `nbsp` stack.
//!
//! The non-blocking primitives this workspace builds (Figures 3–7 of the
//! source paper) live or die by contention behaviour that is invisible
//! from outside: SC failure rates, help traffic, tag recycling, backoff
//! escalation. This crate counts those occurrences with the same
//! discipline the primitives themselves use — **per-process state, no
//! shared hot path**:
//!
//! * [`record`]/[`record_n`] bump one `AtomicU64` in the calling thread's
//!   own cache-padded row with a relaxed load and store — the row has one
//!   writer, so no locked instruction, no CAS, no loop;
//! * [`observe`] does the same into log2-bucket histograms
//!   ([`Hist::Retries`], [`Hist::BackoffDepth`]);
//! * [`racy_totals`]/[`histogram`] are the cheap racy readers;
//! * [`Flusher`] + [`AtomicTotals`] give *consistent* (non-torn)
//!   snapshots by publishing each thread's whole-row delta (events and
//!   histogram buckets together) atomically — the Figure-6-backed sink
//!   implementation is `nbsp_core::telemetry::WideTotals`.
//!
//! With the `telemetry` cargo feature disabled, [`record`], [`record_n`]
//! and [`observe`] are empty `#[inline]` functions and the subsystem
//! vanishes from the hot paths (verified by experiment E11's overhead
//! gate). The counter matrix and readers stay compiled either way so
//! reporting code builds under both configurations — with the feature
//! off they simply always read zero.

#![forbid(unsafe_code)]
#![warn(missing_docs, rust_2018_idioms)]

pub mod event;
pub mod hist;
pub mod registry;
pub mod snapshot;

pub use event::{Event, EVENT_COUNT};
pub use hist::{
    bucket_label, bucket_of, hist_of, hist_word, histogram, Hist, HIST_BUCKETS, HIST_COUNT,
};
pub use registry::{racy_totals, record_row, slot_counts, thread_slot, MAX_SLOTS, ROW_WORDS};
pub use snapshot::{AtomicTotals, Flusher};

/// Whether telemetry recording is compiled in.
///
/// `const` so callers can gate more expensive bookkeeping (attempt
/// counters, per-cell delta capture) behind a branch the compiler deletes
/// when the feature is off.
#[must_use]
pub const fn enabled() -> bool {
    cfg!(feature = "telemetry")
}

/// Counts one occurrence of `event` for the calling thread. Wait-free:
/// one thread-local read plus a relaxed load and store on the thread's
/// own cache-padded row (a `fetch_add` on the shared overflow row past
/// [`MAX_SLOTS`] live threads). With the `telemetry` feature off this is
/// an empty inline stub.
#[inline]
pub fn record(event: Event) {
    #[cfg(feature = "telemetry")]
    registry::add(event, 1);
    #[cfg(not(feature = "telemetry"))]
    let _ = event;
}

/// Counts `n` occurrences of `event` at once (same cost as [`record`]).
#[inline]
pub fn record_n(event: Event, n: u64) {
    #[cfg(feature = "telemetry")]
    registry::add(event, n);
    #[cfg(not(feature = "telemetry"))]
    let _ = (event, n);
}

/// Adds one observation of `value` to histogram `hist` (log2-bucketed).
/// Wait-free like [`record`]; empty stub with the feature off.
#[inline]
pub fn observe(hist: Hist, value: u64) {
    #[cfg(feature = "telemetry")]
    hist::observe_impl(hist, value);
    #[cfg(not(feature = "telemetry"))]
    let _ = (hist, value);
}

#[cfg(all(test, feature = "telemetry"))]
mod tests {
    use super::*;

    #[test]
    fn record_reaches_the_matrix() {
        // RscSpurious is recorded by nothing else in this test binary.
        let slot = thread_slot();
        let before = slot_counts(slot)[Event::RscSpurious.index()];
        record(Event::RscSpurious);
        record_n(Event::RscSpurious, 4);
        assert_eq!(slot_counts(slot)[Event::RscSpurious.index()], before + 5);
    }

    #[test]
    fn enabled_reflects_the_feature() {
        assert!(enabled());
    }
}
