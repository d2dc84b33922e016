//! # nbsp-dynamic — crash–recovery harness for the dynamic-joining provider
//!
//! `nbsp-core` contributes the construction (the pointer-word LL/SC of
//! Jayanti, Jayanti & Jayanti, arXiv:2302.00135, over
//! [`PWord`](nbsp_memsim::PWord)/[`VWord`](nbsp_memsim::VWord)); this crate
//! contributes the *experiment* that earns the word "durable": a harness
//! that kills a running multi-threaded execution at an arbitrary
//! schedule point, runs recovery, and checks durable linearizability of
//! what survived.
//!
//! ## How a trial works
//!
//! [`crash_run`] spawns `threads` workers over one [`DurableDynamicVar`]
//! used as a counter. Every worker installs a shared
//! [`CrashPlan`], so the plan counts the
//! instrumented shared accesses of the whole execution and tears every
//! thread down — a simulated power failure — once the `kill_after`-th
//! access has run, wherever in whosever operation that lands. The harness
//! then rolls all persistent words back to their persisted images
//! ([`DynamicVar::recover`]), and applies the counter's
//! durable-linearizability verdict ([`durable_counter_verdict`]):
//!
//! > `initial + returned  ≤  recovered  ≤  initial + returned + threads`
//!
//! Every SC whose success was *reported* (the caller saw `true`) must
//! survive the crash, and the only extra survivors allowed are the at
//! most one *unreported* in-flight SC per thread whose install persisted
//! before the power went out. Finally the harness re-joins the variable
//! through a fresh membership domain — a real power failure also wipes
//! the volatile membership book-keeping — and performs one more
//! increment, proving the recovered state is operable, not just
//! readable.
//!
//! [`sweep`] repeats the trial over a seeded random range of kill
//! points, so crashes land inside LL windows, between a cell flush and
//! its install, between an install and its `X` flush, and after
//! completion (a no-crash control), without any cooperation from the
//! code under test. `exp_elastic` (experiment E14) runs the sweep
//! CI-gated; the unit tests here gate it at a smaller scale.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use nbsp_core::{DurableDynamicVar, DynamicDomain, DynamicVar, LlScVar};
use nbsp_memsim::rng::SplitMix64;
use nbsp_memsim::sched::{self, CrashPlan};
use nbsp_memsim::MemWord;

/// How one kill-at-schedule-point trial ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashOutcome {
    /// The plan tripped: the execution was killed mid-flight.
    Crashed,
    /// The kill point lay beyond the execution: every worker completed.
    /// These trials are the control group — recovery must then find
    /// exactly the final value.
    Completed,
}

/// The verified record of one [`crash_run`] trial.
#[derive(Clone, Copy, Debug)]
pub struct CrashReport {
    /// The instrumented access at which the power failed.
    pub kill_after: usize,
    /// Whether the execution was actually cut short.
    pub outcome: CrashOutcome,
    /// Number of SC successes reported to a caller before the crash.
    pub returned: u64,
    /// The value recovered from the persisted image.
    pub recovered: u64,
    /// The value after the post-recovery continuation increment —
    /// always `recovered + 1` (asserted), kept for the experiment's
    /// records.
    pub resumed: u64,
}

/// The durable-linearizability verdict for the crash counter: with
/// `returned` reported SC successes over `threads` workers, a recovered
/// value is consistent iff it keeps every reported success and adds at
/// most one unreported in-flight success per thread.
#[must_use]
pub fn durable_counter_verdict(initial: u64, returned: u64, threads: usize, recovered: u64) -> bool {
    recovered >= initial + returned && recovered <= initial + returned + threads as u64
}

fn increment_once<W: MemWord>(var: &DynamicVar<W>, me: &mut nbsp_core::DynProc) {
    let mut keep = None;
    loop {
        let v = var.ll(me, &mut keep);
        if var.sc(me, &mut keep, v + 1) {
            break;
        }
    }
}

/// Runs one crash trial: `threads` workers each attempt `ops_per_thread`
/// increments of a durable counter starting at `initial`, the power
/// fails at the `kill_after`-th instrumented access, recovery runs, and
/// the durable-linearizability verdict is asserted.
///
/// # Panics
///
/// Panics if recovery violates durable linearizability, if a crash-free
/// trial does not recover the exact final value, if the recovered state
/// rejects further operations — or if a worker dies with a *real* panic
/// (anything but the plan's crash token), which is resumed verbatim.
pub fn crash_run(threads: usize, ops_per_thread: u64, kill_after: usize, initial: u64) -> CrashReport {
    assert!(threads >= 1, "a crash trial needs at least one worker");
    let domain = DynamicDomain::with_preadmitted(threads).expect("trial domain");
    let var = DurableDynamicVar::new(domain.capacity(), initial).expect("trial variable");
    let plan = CrashPlan::new(kill_after);
    let returned = AtomicU64::new(0);

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|p| {
                let plan = plan.clone();
                let (domain, var, returned) = (&domain, &var, &returned);
                s.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        let _g = sched::install(plan);
                        let mut me = domain.claim(p).expect("preadmitted slot");
                        for _ in 0..ops_per_thread {
                            increment_once(var, &mut me);
                            // Uninstrumented, so it cannot be cut short:
                            // this counts exactly the SCs whose success
                            // was reported before the power failed.
                            returned.fetch_add(1, Ordering::Relaxed);
                        }
                    }))
                })
            })
            .collect();
        for h in handles {
            if let Err(payload) = h.join().expect("worker killed outside catch_unwind") {
                // The simulated power failure is expected; anything else
                // is a genuine bug in the code under test.
                if !sched::is_crash_panic(payload.as_ref()) {
                    resume_unwind(payload);
                }
            }
        }
    });

    let outcome = if plan.tripped() {
        CrashOutcome::Crashed
    } else {
        CrashOutcome::Completed
    };
    let returned = returned.into_inner();
    let recovered = var.recover();
    assert!(
        durable_counter_verdict(initial, returned, threads, recovered),
        "durable linearizability violated: initial={initial} returned={returned} \
         threads={threads} recovered={recovered}"
    );
    if outcome == CrashOutcome::Completed {
        assert_eq!(
            recovered,
            initial + threads as u64 * ops_per_thread,
            "a crash-free execution must recover its exact final value"
        );
    }

    // A real power failure also loses the volatile membership
    // book-keeping; survivors re-join through a fresh domain against the
    // same persistent variable. One more increment proves the recovered
    // state accepts operations.
    let rejoined = DynamicDomain::new(domain.capacity()).expect("recovery domain");
    let mut me = rejoined
        .claim(rejoined.join().expect("empty domain admits"))
        .expect("fresh admission claims");
    increment_once(&var, &mut me);
    let resumed = var.read(&mut me);
    assert_eq!(resumed, recovered + 1, "recovered state must be operable");

    CrashReport {
        kill_after,
        outcome,
        returned,
        recovered,
        resumed,
    }
}

/// Aggregate of a seeded [`sweep`] of crash trials.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepReport {
    /// Trials run (every one passed its verdict, or the sweep panicked).
    pub trials: usize,
    /// Trials the plan cut short.
    pub crashed: usize,
    /// Crash-free control trials.
    pub completed: usize,
    /// Smallest value any trial recovered.
    pub min_recovered: u64,
    /// Largest value any trial recovered.
    pub max_recovered: u64,
}

/// Sweeps `trials` kill points drawn from `SplitMix64::new(seed)` over
/// the access horizon of a `threads × ops_per_thread` execution (with a
/// deliberate over-shoot tail so some trials complete crash-free) and
/// asserts every trial's durable-linearizability verdict.
///
/// Deterministic: the same arguments replay the same kill points.
#[must_use]
pub fn sweep(seed: u64, trials: usize, threads: usize, ops_per_thread: u64) -> SweepReport {
    let mut rng = SplitMix64::new(seed);
    // One increment costs ~8 instrumented accesses (4 in LL, 4 in SC)
    // plus retries; 12 per op over-estimates so the +25% tail reliably
    // yields crash-free controls.
    let horizon = (threads as u64 * ops_per_thread).saturating_mul(12).max(4);
    let mut report = SweepReport {
        trials,
        crashed: 0,
        completed: 0,
        min_recovered: u64::MAX,
        max_recovered: 0,
    };
    for _ in 0..trials {
        let kill_after = rng.next_below(horizon + horizon / 4) as usize;
        let r = crash_run(threads, ops_per_thread, kill_after, 0);
        match r.outcome {
            CrashOutcome::Crashed => report.crashed += 1,
            CrashOutcome::Completed => report.completed += 1,
        }
        report.min_recovered = report.min_recovered.min(r.recovered);
        report.max_recovered = report.max_recovered.max(r.recovered);
    }
    report
}

/// Drives `rounds` of membership churn against a shared domain/variable
/// pair: each round joins a slot, claims it, performs `ops_per_round`
/// increments, and retires the slot again. Returns the number of
/// increments performed (`rounds * ops_per_round`); the caller checks
/// the counter advanced by exactly that much.
///
/// Generic over the word type so the same churn exercises the volatile
/// and the durable provider. Usable concurrently from several threads
/// as long as the domain has a free slot per churner.
///
/// # Panics
///
/// Panics if the domain refuses a join or claim mid-churn (callers
/// guarantee a free slot per concurrent churner).
pub fn churn<W: MemWord>(
    domain: &DynamicDomain,
    var: &DynamicVar<W>,
    rounds: usize,
    ops_per_round: u64,
) -> u64 {
    for _ in 0..rounds {
        let p = domain.join().expect("churn needs a free slot");
        let mut me = domain.claim(p).expect("fresh admission claims");
        for _ in 0..ops_per_round {
            increment_once(var, &mut me);
        }
        domain.retire(p);
    }
    rounds as u64 * ops_per_round
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbsp_memsim::{PWord, VWord};

    #[test]
    fn the_verdict_brackets_the_recovered_value() {
        assert!(durable_counter_verdict(5, 10, 2, 15));
        assert!(durable_counter_verdict(5, 10, 2, 17));
        assert!(!durable_counter_verdict(5, 10, 2, 14), "a reported SC was lost");
        assert!(!durable_counter_verdict(5, 10, 2, 18), "more survivors than threads");
    }

    #[test]
    fn a_huge_kill_point_is_a_crash_free_control() {
        let r = crash_run(2, 10, usize::MAX, 3);
        assert_eq!(r.outcome, CrashOutcome::Completed);
        assert_eq!(r.returned, 20);
        assert_eq!(r.recovered, 23);
        assert_eq!(r.resumed, 24);
    }

    #[test]
    fn killing_the_first_access_recovers_the_initial_value() {
        let r = crash_run(2, 10, 0, 7);
        assert_eq!(r.outcome, CrashOutcome::Crashed);
        assert_eq!(r.returned, 0);
        assert_eq!(r.recovered, 7, "nothing ran, nothing may have persisted");
    }

    #[test]
    fn mid_execution_kills_pass_the_verdict_everywhere() {
        // Every kill point of a small single-threaded execution: crashes
        // land on each individual instrumented access of LL and SC.
        for k in 0..60 {
            let r = crash_run(1, 4, k, 0);
            assert!(r.recovered <= 4, "cannot recover more than was attempted");
        }
    }

    #[test]
    fn the_seeded_sweep_is_deterministic_and_covers_both_outcomes() {
        let a = sweep(0xd15ea5e, 24, 3, 16);
        let b = sweep(0xd15ea5e, 24, 3, 16);
        assert_eq!(a.crashed, b.crashed);
        assert_eq!(a.min_recovered, b.min_recovered);
        assert_eq!(a.max_recovered, b.max_recovered);
        assert!(a.crashed > 0, "the sweep must exercise real crashes");
        assert!(a.completed > 0, "the sweep must include crash-free controls");
        assert_eq!(a.trials, a.crashed + a.completed);
    }

    #[test]
    fn churn_advances_the_counter_exactly() {
        fn run<W: MemWord>() {
            let d = DynamicDomain::new(4).unwrap();
            let var = DynamicVar::<W>::new(d.capacity(), 0).unwrap();
            let done = churn(&d, &var, 5, 7);
            assert_eq!(done, 35);
            let mut me = d.claim(d.join().unwrap()).unwrap();
            assert_eq!(var.read(&mut me), 35);
            assert_eq!(d.members(), 1, "churn retires every slot it joins");
        }
        run::<VWord>();
        run::<PWord>();
    }

    #[test]
    fn concurrent_churners_interleave_safely() {
        let d = DynamicDomain::new(6).unwrap();
        let var = DynamicVar::<VWord>::new(d.capacity(), 0).unwrap();
        std::thread::scope(|s| {
            for _ in 0..3 {
                let (d, var) = (&d, &var);
                s.spawn(move || churn(d, var, 8, 25));
            }
        });
        let mut me = d.claim(d.join().unwrap()).unwrap();
        assert_eq!(var.read(&mut me), 3 * 8 * 25);
    }
}
