//! **E11 — telemetry overhead and the racy-vs-atomic snapshot ablation.**
//!
//! The `nbsp-telemetry` subsystem makes two claims that need numbers:
//!
//! 1. **Zero cost when disabled.** With the `telemetry` cargo feature off,
//!    `record`/`observe` are empty `#[inline]` stubs, so an instrumented
//!    hot path must compile to the same code as a hand-written
//!    uninstrumented replica. The overhead gate times paired microloops —
//!    the instrumented [`CasLlSc`] small ops against a stub-free replica
//!    of the same Figure-4 algorithm — in alternating repetitions, and
//!    requires the median over the repetitions of the geomean ratio to
//!    stay within 1% when the feature is off. With the feature on, the
//!    same pairing *measures* the cost of recording (reported, not gated).
//!
//! 2. **The Figure-6 snapshot reader never tears; the racy reader does.**
//!    Writer threads maintain a cross-event invariant (equal counts of
//!    `TagAlloc` and `RscSpurious`, flushed together), while a reader
//!    samples both the racy matrix-sum and the `WideTotals` WLL snapshot.
//!    Every racy sample that breaks the invariant is a torn observation;
//!    the atomic reader is gated to zero tears.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use nbsp_core::{CasLlSc, Keep, Native, TagLayout, WideTotals};
use nbsp_memsim::sched::{self, AccessKind};
use nbsp_structures::Counter;
use nbsp_telemetry::{
    bucket_label, histogram, racy_totals, record_n, record_row, slot_counts, AtomicTotals, Event,
    Flusher, Hist, EVENT_COUNT, HIST_BUCKETS,
};

use crate::measure::{ns_per_op, throughput};
use crate::report::{event_table, Report, Table};

// ---------------------------------------------------------------------------
// Overhead microloops.
// ---------------------------------------------------------------------------

/// A stub-free replica of `CasLlSc<Native>`'s LL/VL/SC: same packing, same
/// orderings, no telemetry calls anywhere. This is what a "stubs removed
/// at the source level" build of Figure 4 looks like; comparing against it
/// isolates exactly the cost of the telemetry instrumentation.
///
/// It keeps the schedule point `Native` passes before every access (one
/// relaxed load and a branch when no model checker is attached): that
/// hook is not telemetry, and without it the replica saves two loads of
/// a ~2 ns LL+VL, which the gate would charge to telemetry.
struct PlainLlSc {
    cell: AtomicU64,
    layout: TagLayout,
}

impl PlainLlSc {
    fn new(initial: u64) -> Self {
        let layout = TagLayout::half();
        PlainLlSc {
            cell: AtomicU64::new(layout.pack(0, initial).unwrap()),
            layout,
        }
    }

    #[inline]
    fn hook(&self, kind: AccessKind) {
        let _ = sched::yield_point(std::ptr::from_ref(&self.cell) as usize, kind);
    }

    #[inline]
    fn ll(&self, keep: &mut Option<u64>) -> u64 {
        self.hook(AccessKind::Read);
        let word = self.cell.load(Ordering::Acquire);
        *keep = Some(word);
        self.layout.val(word)
    }

    #[inline]
    fn vl(&self, keep: Option<u64>) -> bool {
        keep.is_some_and(|word| {
            self.hook(AccessKind::Read);
            word == self.cell.load(Ordering::Acquire)
        })
    }

    #[inline]
    fn sc(&self, keep: Option<u64>, new: u64) -> bool {
        // Mirrors `CasLlSc::sc` exactly: same bound assert, same unfilled
        // keep check, same shift+or packing, same orderings — minus the
        // telemetry record call.
        assert!(new <= self.layout.max_val(), "value exceeds layout maximum");
        let Some(keep) = keep else {
            return false;
        };
        let newword = (self.layout.tag_succ(self.layout.tag(keep)) << self.layout.val_bits()) | new;
        self.hook(AccessKind::Cas);
        self.cell
            .compare_exchange(keep, newword, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

/// Repetitions of the overhead measurement. Odd, so a median is one
/// repetition's figure.
pub const OVERHEAD_REPS: usize = 15;

/// One small op's paired measurement: medians over the repetitions.
#[derive(Clone, Copy, Debug)]
pub struct OverheadPair {
    /// Workload label.
    pub name: &'static str,
    /// Median ns/op through the instrumented `CasLlSc`.
    pub instrumented_ns: f64,
    /// Median ns/op through the stub-free replica.
    pub plain_ns: f64,
    /// Median of the repetitions' instrumented/plain ratios (1.0 = free).
    pub ratio: f64,
}

/// The overhead measurement: per-op medians and the gated figure.
#[derive(Clone, Debug)]
pub struct Overhead {
    /// One entry per small op.
    pub pairs: Vec<OverheadPair>,
    /// Median over the repetitions of each repetition's geomean
    /// instrumented/plain ratio across the small ops.
    pub ratio: f64,
}

/// One repetition of one small op: `[instrumented, plain]` ns/op, timed
/// back to back in the given order, each after its own warmup.
fn time_both(
    iters: u64,
    plain_first: bool,
    inst: &mut impl FnMut(),
    plain: &mut impl FnMut(),
) -> [f64; 2] {
    if plain_first {
        let p = ns_per_op(iters, 1, plain);
        [ns_per_op(iters, 1, inst), p]
    } else {
        let i = ns_per_op(iters, 1, inst);
        [i, ns_per_op(iters, 1, plain)]
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Times the paired small-op microloops, uncontended LL+SC increment and
/// LL+VL validate, instrumented vs. replica, over `reps` repetitions of
/// `iters` calls each. Each repetition times every op's two sides back to
/// back, the replica first in every other one, so a drift of the host's
/// speed over the run reaches both sides alike instead of whichever ran
/// later.
#[must_use]
pub fn overhead_pairs(iters: u64, reps: usize) -> Overhead {
    assert!(iters > 0 && reps > 0);

    // LL + SC increment (the canonical small-op; hits the ScSuccess record
    // when instrumentation is on). Both sides run the *same* loop shape —
    // a bare LL/SC retry loop with a mask increment — so the only source
    // difference is the record call inside `CasLlSc::sc`.
    let inc = CasLlSc::new_native(TagLayout::half(), 0).unwrap();
    let inc_mask = inc.layout().max_val();
    let mut inc_inst = || {
        let mut keep = Keep::default();
        loop {
            let old = inc.ll(&Native, &mut keep);
            if inc.sc(&Native, &keep, old.wrapping_add(1) & inc_mask) {
                black_box(old);
                break;
            }
        }
    };
    let inc_replica = PlainLlSc::new(0);
    let replica_mask = inc_replica.layout.max_val();
    let mut inc_plain = || {
        let mut keep = None;
        loop {
            let old = inc_replica.ll(&mut keep);
            if inc_replica.sc(keep, old.wrapping_add(1) & replica_mask) {
                black_box(old);
                break;
            }
        }
    };

    // LL + VL (read-validate; no SC, so only the LL-side costs differ —
    // both should be identical even with telemetry on, since LL and VL
    // record nothing).
    let val = CasLlSc::new_native(TagLayout::half(), 7).unwrap();
    let mut val_inst = || {
        let mut keep = Keep::default();
        let v = val.ll(&Native, &mut keep);
        black_box((v, val.vl(&Native, &keep)));
    };
    let val_replica = PlainLlSc::new(7);
    let mut val_plain = || {
        let mut keep = None;
        let v = val_replica.ll(&mut keep);
        black_box((v, val_replica.vl(keep)));
    };

    let samples: Vec<[[f64; 2]; 2]> = (0..reps)
        .map(|rep| {
            let plain_first = rep % 2 == 1;
            [
                time_both(iters, plain_first, &mut inc_inst, &mut inc_plain),
                time_both(iters, plain_first, &mut val_inst, &mut val_plain),
            ]
        })
        .collect();

    let pairs = ["ll+sc increment", "ll+vl validate"]
        .into_iter()
        .enumerate()
        .map(|(op, name)| OverheadPair {
            name,
            instrumented_ns: median(samples.iter().map(|r| r[op][0]).collect()),
            plain_ns: median(samples.iter().map(|r| r[op][1]).collect()),
            ratio: median(samples.iter().map(|r| r[op][0] / r[op][1]).collect()),
        })
        .collect();
    let ratio = median(
        samples
            .iter()
            .map(|r| geomean(r.iter().map(|[i, p]| i / p)))
            .collect(),
    );
    Overhead { pairs, ratio }
}

fn geomean(ratios: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = ratios.len() as f64;
    (ratios.map(f64::ln).sum::<f64>() / n).exp()
}

// ---------------------------------------------------------------------------
// Snapshot ablation.
// ---------------------------------------------------------------------------

/// Outcome of the racy-vs-atomic snapshot ablation.
#[derive(Clone, Copy, Debug, Default)]
pub struct AblationResult {
    /// Racy matrix-sum samples taken.
    pub racy_samples: u64,
    /// Racy samples that broke the cross-event invariant (torn).
    pub racy_torn: u64,
    /// Atomic (WLL) samples taken.
    pub atomic_samples: u64,
    /// Atomic samples that broke the invariant — gated to zero.
    pub atomic_torn: u64,
    /// Expected per-event pair count at quiescence.
    pub expected: u64,
    /// Whether the quiesced atomic totals, and the writers' own counter
    /// rows, both matched `expected` exactly.
    pub exact_at_quiescence: bool,
}

/// Runs writers that record equal `TagAlloc`/`RscSpurious` counts (flushed
/// together per batch) against a reader sampling both snapshot flavours.
///
/// The invariant pair is chosen because the flush path's own WLL/SC
/// activity records `ScSuccess`/`ScFail`/`LlRestart`/help events but never
/// these two, so observing the sink does not perturb the invariant.
///
/// Exactness is judged on counts only this ablation touches — the sink and
/// the writer threads' own rows, which no other live thread shares — so it
/// holds while other threads in the process record the same events. The
/// racy reader sums every row, theirs included; its tears are reported,
/// not gated.
///
/// # Panics
///
/// Panics if the telemetry feature is disabled (callers should check
/// [`nbsp_telemetry::enabled`]) or if the sink cannot be constructed.
#[must_use]
pub fn snapshot_ablation(writers: usize, batches: u64, per_batch: u64) -> AblationResult {
    assert!(
        nbsp_telemetry::enabled(),
        "snapshot ablation requires the telemetry feature"
    );
    let sink = WideTotals::with_all_slots().expect("sink construction");
    let stop = AtomicBool::new(false);
    let ta = Event::TagAlloc.index();
    let rs = Event::RscSpurious.index();
    let base = racy_totals();

    let (own, racy_samples, racy_torn, atomic_samples, atomic_torn) = std::thread::scope(|s| {
        let writer_threads: Vec<_> = (0..writers)
            .map(|_| {
                s.spawn(|| {
                    let mut flusher = Flusher::new();
                    let row = || slot_counts(record_row());
                    let start = row();
                    for _ in 0..batches {
                        record_n(Event::TagAlloc, per_batch);
                        record_n(Event::RscSpurious, per_batch);
                        flusher.flush(&sink);
                    }
                    stop.store(true, Ordering::Relaxed);
                    let end = row();
                    [end[ta] - start[ta], end[rs] - start[rs]]
                })
            })
            .collect();
        let reader = s.spawn(|| {
            let (mut rn, mut rt, mut an, mut at) = (0u64, 0u64, 0u64, 0u64);
            // Do-while: the writers may already be done by the time this
            // thread gets scheduled; at least one sample of each reader
            // must still be taken.
            loop {
                let racy = racy_totals();
                rn += 1;
                if racy[ta] - base[ta] != racy[rs] - base[rs] {
                    rt += 1;
                }
                let atomic = sink.totals();
                an += 1;
                if atomic[ta] != atomic[rs] {
                    at += 1;
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            (rn, rt, an, at)
        });
        let own = writer_threads
            .into_iter()
            .map(|w| w.join().unwrap())
            .fold([0u64; 2], |acc, d| [acc[0] + d[0], acc[1] + d[1]]);
        let (rn, rt, an, at) = reader.join().unwrap();
        (own, rn, rt, an, at)
    });

    let expected = writers as u64 * batches * per_batch;
    let fin = sink.totals();
    let exact_at_quiescence =
        fin[ta] == expected && fin[rs] == expected && own == [expected, expected];

    AblationResult {
        racy_samples,
        racy_torn,
        atomic_samples,
        atomic_torn,
        expected,
        exact_at_quiescence,
    }
}

// ---------------------------------------------------------------------------
// Enabled-path cost per structure (report only).
// ---------------------------------------------------------------------------

/// Contended counter throughput plus the telemetry events it generated,
/// from racy-total deltas (report only — no gate).
fn contended_counter_profile(threads: usize, per_thread: u64) -> (f64, [u64; EVENT_COUNT]) {
    let before = racy_totals();
    let counter = Counter::new(CasLlSc::new_native(TagLayout::half(), 0).unwrap());
    let tput = throughput(threads, per_thread, |_| {
        let counter = &counter;
        let mut ctx = Native;
        move || {
            counter.increment(&mut ctx);
        }
    });
    let after = racy_totals();
    let mut delta = [0u64; EVENT_COUNT];
    for i in 0..delta.len() {
        delta[i] = after[i] - before[i];
    }
    (tput, delta)
}

// ---------------------------------------------------------------------------
// The experiment.
// ---------------------------------------------------------------------------

/// Runs E11. When `gate` is set, panics (failing the experiment) if a
/// disabled-build overhead exceeds 1% or the atomic reader ever tears.
#[must_use]
pub fn run(iters: u64, gate: bool) -> Report {
    let mut report = Report::new();
    report.heading("E11 — telemetry overhead & snapshot ablation");
    report.para(&format!(
        "Telemetry feature: **{}**. Claim 1: with the feature off, \
         instrumented hot paths compile to the same code as stub-free \
         replicas (gate: geomean ratio within 1%). Claim 2: the \
         Figure-6-backed snapshot reader never returns a torn cross-event \
         state, while the racy matrix-sum reader can.",
        if nbsp_telemetry::enabled() { "enabled" } else { "disabled" },
    ));

    // --- Overhead. Alternating repetitions and a median, not retries: a
    // 1% bar on a ns-scale microloop is only as steady as the statistic.
    let overhead = overhead_pairs(iters, OVERHEAD_REPS);
    let g = overhead.ratio;
    let mut t = Table::new(["small op", "instrumented", "stub-free replica", "ratio"]);
    for p in &overhead.pairs {
        t.row([
            p.name.to_string(),
            format!("{:.2} ns", p.instrumented_ns),
            format!("{:.2} ns", p.plain_ns),
            format!("{:.3}x", p.ratio),
        ]);
    }
    report.table(&t);
    report.para(&format!(
        "Median over {OVERHEAD_REPS} alternating repetitions of the geomean \
         instrumented/replica ratio: **{g:.3}x** ({}). Per-op columns are \
         medians over the same repetitions.",
        if nbsp_telemetry::enabled() {
            "recording cost with the feature on — reported, not gated"
        } else {
            "feature off — gated at 1.01"
        },
    ));
    if gate && !nbsp_telemetry::enabled() {
        assert!(
            g <= 1.01,
            "overhead gate: disabled-telemetry median geomean ratio {g:.4} exceeds 1.01 ({})",
            overhead
                .pairs
                .iter()
                .map(|p| format!(
                    "{} {:.2} vs {:.2} ns, {:.3}x",
                    p.name, p.instrumented_ns, p.plain_ns, p.ratio
                ))
                .collect::<Vec<_>>()
                .join("; ")
        );
    }

    if nbsp_telemetry::enabled() {
        // --- Snapshot ablation (only meaningful with recording on).
        let writers = 4;
        let batches = (iters * 2).max(20_000);
        let ab = snapshot_ablation(writers, batches, 3);
        let mut t = Table::new(["reader", "samples", "torn observations"]);
        t.row([
            "racy matrix sum".to_string(),
            ab.racy_samples.to_string(),
            ab.racy_torn.to_string(),
        ]);
        t.row([
            "WideVar WLL (Figure 6)".to_string(),
            ab.atomic_samples.to_string(),
            ab.atomic_torn.to_string(),
        ]);
        report.table(&t);
        report.para(&format!(
            "{} writers x {} batches; quiesced totals exact: {}. The atomic \
             reader is gated to zero tears; the racy reader's tears are the \
             measured price of skipping the paper's construction.",
            writers, batches, ab.exact_at_quiescence,
        ));
        if gate {
            assert_eq!(
                ab.atomic_torn, 0,
                "the Figure-6 snapshot reader returned a torn state"
            );
            assert!(ab.exact_at_quiescence, "quiesced totals were not exact");
        }

        // --- Enabled-path profile: what recording costs where it runs,
        // and what the counters say about a contended workload.
        let (tput, delta) = contended_counter_profile(4, iters.max(10_000));
        let ops = 4 * iters.max(10_000);
        let t = event_table(&delta, Some(ops));
        report.para(&format!(
            "Contended counter, 4 threads: {:.2} Mops/s with recording on; \
             events per operation below.",
            tput / 1e6,
        ));
        report.table(&t);

        let retries = histogram(Hist::Retries);
        let mut t = Table::new(["retries/op bucket", "ops"]);
        for (b, &n) in retries.iter().enumerate().take(HIST_BUCKETS) {
            if n > 0 {
                t.row([bucket_label(b), n.to_string()]);
            }
        }
        report.para("Retries-per-op distribution (all instrumented ops this process):");
        report.table(&t);
    } else {
        report.para(
            "Snapshot ablation and enabled-path profile skipped: recording \
             is compiled out in this build. Re-run with `--features \
             telemetry` (the default) for the ablation half.",
        );
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_replica_matches_llsc_semantics() {
        let v = PlainLlSc::new(3);
        let mut keep = None;
        assert!(!v.sc(keep, 4), "an SC no LL preceded must fail");
        assert_eq!(v.ll(&mut keep), 3);
        assert!(v.vl(keep));
        assert!(v.sc(keep, 4));
        assert!(!v.vl(keep));
        assert!(!v.sc(keep, 5), "stale keep must fail");
        let mut k2 = None;
        assert_eq!(v.ll(&mut k2), 4);
    }

    #[test]
    fn overhead_pairs_produce_finite_ratios() {
        let o = overhead_pairs(5_000, 3);
        assert_eq!(o.pairs.len(), 2);
        for p in &o.pairs {
            assert!(p.ratio.is_finite() && p.ratio > 0.0, "{p:?}");
        }
        assert!(o.ratio.is_finite() && o.ratio > 0.0, "{o:?}");
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn ablation_atomic_reader_never_tears() {
        let ab = snapshot_ablation(3, 3_000, 2);
        assert_eq!(ab.atomic_torn, 0);
        assert!(ab.exact_at_quiescence);
        assert!(ab.atomic_samples > 0 && ab.racy_samples > 0);
    }

    #[test]
    fn report_smoke() {
        let md = run(2_000, false).to_markdown();
        assert!(md.contains("E11"));
        assert!(md.contains("geomean"));
    }
}
