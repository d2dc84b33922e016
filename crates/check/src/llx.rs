//! DPOR model checking of multi-word LLX/SCX commits, end to end.
//!
//! [`crate::exec`]'s plans speak the Figure-2 vocabulary — one shared
//! variable, one LL/VL/SC/read per step. An `nbsp-llx` SCX is a different
//! beast: one *logical* operation that touches many provider words (every
//! linked record's `info`, the written field, the owner's state word),
//! with helping in between. Because every one of those words is a
//! registry [`LlScVar`](nbsp_core::LlScVar) and the providers are
//! schedule-point instrumented, the cooperative scheduler intercepts the
//! whole commit protocol with **no extra hooks**: this module just runs
//! real [`LlxDomain`] operations as [`run_controlled`] bodies and lets
//! the DPOR driver enumerate the interleavings.
//!
//! The property checked is **conservation**, the multi-word analogue of
//! the Figure-2 history check: every process runs one
//! SCX-increment-by-one ([`IncrVia`]) and at the end of the execution the
//! sum of all record fields must equal the number of SCXs that reported
//! success — no lost updates, no double-applied commits, across *every*
//! interleaving of the protocol's internal accesses. A state-based
//! verdict (not a Wing–Gong history check): the interesting failure
//! modes — a helper's stale CAS landing twice, a freeze skipped so two
//! SCXs commit against the same snapshot — are exactly lost/duplicated
//! increments.
//!
//! Non-vacuity comes from [`Flaw::LostFreeze`], a planted protocol bug
//! (the freeze phase skips every linked record after the first): the
//! checker must find a concrete violating schedule for it, and must find
//! the **same** schedule every time — the counterexample is replayable.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use nbsp_core::provider::Provider;
use nbsp_llx::{Flaw, LlxDomain, LlxOutcome};
use nbsp_memsim::sched::Decision;

use crate::dpor::{explore, Judgment, Mode, Outcome};
use crate::exec::{run_controlled, ExecOutcome, SleepEntry, WorkerCtl};

/// One process's whole plan: LLX every record in `link` (in index order —
/// the consistent freeze order SCX requires), then one SCX that links all
/// of them and increments field 0 of record `fld` by one. The increment
/// satisfies the freshness requirement (a counter never revisits a
/// value), so a committed SCX is exactly one `+1`.
#[derive(Clone, Debug)]
pub struct IncrVia {
    /// Records to LLX-link, in ascending order.
    pub link: Vec<usize>,
    /// The record whose field 0 the SCX increments (must be in `link`).
    pub fld: usize,
}

/// A closed multi-record program: `records` zero-initialized one-field
/// records and one [`IncrVia`] per process.
#[derive(Clone, Debug)]
pub struct LlxProgram {
    /// Number of records in the arena (all fields start at 0).
    pub records: usize,
    /// One plan per process; `plans.len()` is the process count.
    pub plans: Vec<IncrVia>,
}

impl LlxProgram {
    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.plans.len()
    }
}

/// The canonical two-record overlap: process 0 links `{r0, r1}` and
/// writes into `r1`; process 1 links `{r1}` alone and also writes `r1`.
/// The faithful protocol serializes them through `r1`'s freeze; the
/// [`Flaw::LostFreeze`] domain skips freezing `r1` (it is process 0's
/// *second* linked record), so both SCXs can commit `0 → 1` against the
/// same snapshot and conservation breaks (field sum 1, successes 2).
#[must_use]
pub fn overlap_program() -> LlxProgram {
    LlxProgram {
        records: 2,
        plans: vec![
            IncrVia {
                link: vec![0, 1],
                fld: 1,
            },
            IncrVia {
                link: vec![1],
                fld: 1,
            },
        ],
    }
}

/// Runs one schedule-controlled execution of `program` on a fresh
/// [`LlxDomain`] over `P`'s variables, returning the execution plus
/// whether conservation held (field sum == successful SCXs).
fn run_one<P: Provider>(
    program: &LlxProgram,
    flaw: Flaw,
    prefix: &[(usize, Decision)],
    frontier_sleep: &[SleepEntry],
) -> Result<(ExecOutcome, bool), nbsp_core::Error> {
    let n = program.n();
    assert!(n > 0, "program needs at least one process");
    // One spare slot: the construction context must not collide with the
    // worker threads' claims.
    let env = P::env(n + 1)?;
    let mut tc0 = P::thread_ctx(&env, n);
    let mut ctx0 = P::ctx(&mut tc0);
    // Construction runs on the controller thread, where no yield-point
    // hook is installed, so none of these accesses become schedule steps.
    // One mutable field (the counter) and no meta words per record.
    let d = LlxDomain::<_, 1, 0>::new_flawed(
        n,
        program.records,
        || P::var(&env, 0).expect("provider var"),
        &mut ctx0,
        flaw,
    );
    // All as process 0, so the records are indices `0..records` in order.
    for _ in 0..program.records {
        d.alloc(&mut ctx0, 0, &[], &[0])
            .expect("within record budget");
    }
    let successes: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let bodies: Vec<_> = (0..n)
        .map(|p| {
            let mut tc = P::thread_ctx(&env, p);
            let plan = program.plans[p].clone();
            let d = &d;
            let successes = &successes;
            move |_ctl: &WorkerCtl| {
                let mut ctx = P::ctx(&mut tc);
                let mut handles = Vec::with_capacity(plan.link.len());
                for &r in &plan.link {
                    match d.llx(&mut ctx, r) {
                        LlxOutcome::Linked(h) => handles.push(h),
                        // Unreachable here (fin_mask is always 0), kept
                        // for shape: a finalized record aborts the op.
                        LlxOutcome::Finalized => {
                            for h in handles {
                                d.unlink(&mut ctx, h);
                            }
                            return;
                        }
                    }
                }
                let old = handles
                    .iter()
                    .find(|h| h.rec == plan.fld)
                    .expect("fld must be linked")
                    .field(0);
                if d.scx(&mut ctx, p, handles, 0, plan.fld, 0, old + 1) {
                    successes[p].fetch_add(1, Ordering::Relaxed);
                }
            }
        })
        .collect();
    let exec = run_controlled(prefix, frontier_sleep, bodies);
    let total: u64 = (0..program.records)
        .map(|r| d.read_field(&mut ctx0, r, 0))
        .sum();
    let ok: u64 = successes.iter().map(|s| s.load(Ordering::Relaxed)).sum();
    Ok((exec, total == ok))
}

fn check_with<P: Provider>(
    program: &LlxProgram,
    flaw: Flaw,
    mode: Mode,
    max_executions: u64,
) -> Result<Outcome, nbsp_core::Error> {
    let conserved = Cell::new(true);
    explore(
        program.n(),
        0, // spurious branching would square an already-deep schedule space
        mode,
        max_executions,
        |prefix, frontier| {
            let (exec, ok) = run_one::<P>(program, flaw, prefix, frontier)?;
            conserved.set(ok);
            Ok(exec)
        },
        // Every completed execution is judged (no history dedup: the
        // verdict is final-state, computed per run, and cheap).
        |_exec| {
            if conserved.get() {
                Judgment::Pass
            } else {
                Judgment::Fail(Vec::new())
            }
        },
    )
}

/// Explores every schedule of `program`'s LLX/SCX increments on provider
/// `P`, checking conservation after each completed execution. Stops at
/// the first violating schedule.
///
/// # Errors
///
/// Propagates the provider's environment/variable construction errors.
pub fn check_conservation<P: Provider>(
    program: &LlxProgram,
    mode: Mode,
    max_executions: u64,
) -> Result<Outcome, nbsp_core::Error> {
    check_with::<P>(program, Flaw::None, mode, max_executions)
}

/// [`check_conservation`] against the planted [`Flaw::LostFreeze`]
/// domain — the checker must find a violating schedule (and, being
/// deterministic, the same one on every call).
///
/// # Errors
///
/// Propagates the provider's environment/variable construction errors.
pub fn check_lost_freeze<P: Provider>(
    program: &LlxProgram,
    mode: Mode,
    max_executions: u64,
) -> Result<Outcome, nbsp_core::Error> {
    check_with::<P>(program, Flaw::LostFreeze, mode, max_executions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbsp_core::provider::Fig4Native;

    const CAP: u64 = 400_000;

    #[test]
    fn faithful_overlap_conserves_exhaustively() {
        let out = check_conservation::<Fig4Native>(&overlap_program(), Mode::Dpor, CAP).unwrap();
        assert!(out.violation.is_none(), "faithful LLX/SCX lost an update");
        assert!(!out.capped, "exploration must finish");
        assert!(
            out.executions >= 2,
            "overlapping SCXs must have more than one schedule"
        );
    }

    #[test]
    fn lost_freeze_is_caught_deterministically() {
        let a = check_lost_freeze::<Fig4Native>(&overlap_program(), Mode::Dpor, CAP).unwrap();
        let b = check_lost_freeze::<Fig4Native>(&overlap_program(), Mode::Dpor, CAP).unwrap();
        let va = a.violation.expect("the planted lost-freeze bug must be caught");
        let vb = b.violation.expect("the planted lost-freeze bug must be caught");
        assert_eq!(va.schedule, vb.schedule, "the counterexample is replayable");
        assert_eq!(a.executions, b.executions);
    }

    // Note on provider choice: the lock baseline funnels every variable
    // through one mutex, so every access aliases to a single address and
    // DPOR degenerates to the full factorial DFS — fine for 2-access
    // Figure-2 plans, hopeless for ~30-access SCX protocols. The llx
    // checks stay on disjoint-address providers.
    #[test]
    fn single_record_contention_conserves() {
        let prog = LlxProgram {
            records: 1,
            plans: vec![
                IncrVia {
                    link: vec![0],
                    fld: 0,
                },
                IncrVia {
                    link: vec![0],
                    fld: 0,
                },
            ],
        };
        let out = check_conservation::<Fig4Native>(&prog, Mode::Dpor, CAP).unwrap();
        assert!(out.violation.is_none());
        assert!(!out.capped);
    }

    #[test]
    fn violating_schedule_replays_to_the_same_verdict() {
        let out = check_lost_freeze::<Fig4Native>(&overlap_program(), Mode::Dpor, CAP).unwrap();
        let v = out.violation.expect("caught");
        let (exec, conserved) =
            run_one::<Fig4Native>(&overlap_program(), Flaw::LostFreeze, &v.schedule, &[]).unwrap();
        assert!(!exec.blocked);
        assert!(!conserved, "replaying the counterexample must re-violate");
    }
}
