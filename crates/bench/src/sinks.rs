//! Shared telemetry plumbing for experiment harnesses: per-thread
//! flushers publishing into one Figure-6 WLL sink, and the artifacts'
//! telemetry block read back from it.
//!
//! Every telemetry number a harness reports should flow through this
//! path: each worker session owns a [`Flusher`] and publishes its
//! per-thread row delta (events and histogram buckets together) into a
//! run-level [`WideTotals`] sink, and reports read that sink with a
//! single WLL — never `racy_totals`, whose cross-event tearing E11
//! demonstrates.

use nbsp_core::WideTotals;
use nbsp_telemetry::{hist_of, AtomicTotals, Event, Flusher, Hist};

/// Worker ops between telemetry flushes: frequent enough that mid-run
/// reads stay fresh, rare enough that the WLL/SC flush loop is off the
/// hot path.
pub const FLUSH_EVERY: u64 = 8192;

/// A worker-session loop body: run `iters` ops through `op`, flushing
/// telemetry into `sink` every [`FLUSH_EVERY`] ops and once at exit.
pub fn session_loop(iters: u64, sink: &WideTotals, mut op: impl FnMut()) {
    let mut flusher = Flusher::new();
    for i in 1..=iters {
        op();
        if i % FLUSH_EVERY == 0 {
            flusher.flush(sink);
        }
    }
    flusher.flush(sink);
}

/// End-of-run telemetry block for a JSON artifact: per-event totals and
/// the log2 histograms, all from one WLL of the run-level sink — never
/// from racy cross-row sums. The counts are racy by nature (real
/// threads), unlike a serving cell's fields. When the `telemetry` feature
/// is compiled out the block records only `"enabled": false`, so schema
/// consumers can distinguish "no events" from "not instrumented".
#[must_use]
pub fn telemetry_json(indent: &str, sink: &WideTotals) -> String {
    if !nbsp_telemetry::enabled() {
        return format!("{indent}\"telemetry\": {{\"enabled\": false}}");
    }
    let totals = sink.totals();
    let events = Event::ALL
        .iter()
        .map(|e| format!("\"{}\": {}", e.name(), totals[e.index()]))
        .collect::<Vec<_>>()
        .join(", ");
    let hists = Hist::ALL
        .iter()
        .map(|&h| {
            let buckets = hist_of(&totals, h)
                .iter()
                .map(|b| b.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            format!("{indent}    \"{}\": [{buckets}]", h.name())
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{indent}\"telemetry\": {{\n\
         {indent}  \"enabled\": true,\n\
         {indent}  \"events\": {{{events}}},\n\
         {indent}  \"histograms\": {{\n{hists}\n{indent}  }}\n\
         {indent}}}"
    )
}
