//! Depth-first schedule enumeration with dynamic partial-order reduction.
//!
//! The driver explores the tree of scheduling decisions over
//! [`run_execution`](crate::exec::run_execution), one *complete* execution
//! per leaf, in the stateless style of Flanagan–Godefroid DPOR:
//!
//! * **Backtrack sets** — after every completed execution, a race analysis
//!   with vector clocks finds, for each step `j`, the last earlier step `i`
//!   by a different process that accesses the same [`SimWord`-level
//!   address](nbsp_memsim::sched) dependently (not both read-only) and is
//!   not already ordered before `j`'s process; the alternative "run `j`'s
//!   process at `i` instead" is queued at node `i`.
//! * **Sleep sets** — a choice fully explored at a node is put to sleep in
//!   the subtrees of its siblings until a dependent access wakes it;
//!   executions whose every runnable process is asleep are abandoned
//!   without a linearizability check.
//! * **Spurious branches** — whenever a chosen step is an RSC and the
//!   schedule still has spurious budget, the alternative decision
//!   [`Decision::SpuriousFail`] is queued, so the paper's spurious-failure
//!   adversary is enumerated, not sampled.
//!
//! In [`Mode::Naive`] the same driver enumerates *every* interleaving
//! (backtrack = all enabled choices, no sleep sets, no race analysis);
//! the ratio naive/DPOR is the pruning factor reported by experiment E13.
//!
//! Every completed execution's history is checked against the Figure-2
//! sequential LL/SC specification with the Wing–Gong checker, deduplicating
//! by a canonical history fingerprint (operations, return values and the
//! real-time precedence matrix) so equivalent histories are checked once.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use nbsp_core::provider::Provider;
use nbsp_linearize::{is_linearizable, Completed, LlScSpec, Op, Ret, SeqSpec};
use nbsp_memsim::sched::{AccessKind, Decision};

use crate::exec::{run_execution, ExecOutcome, Program, SleepEntry, StepRec};

/// Search strategy: reduced or exhaustive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Dynamic partial-order reduction with sleep sets.
    Dpor,
    /// Full DFS over every interleaving (the pruning-ratio baseline).
    Naive,
}

/// A concrete counterexample: the schedule that produced a
/// non-linearizable history, and the history itself.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The scheduling decisions, replayable via
    /// [`run_execution`](crate::exec::run_execution).
    pub schedule: Vec<(usize, Decision)>,
    /// The recorded non-linearizable history.
    pub history: Vec<Completed>,
}

/// Aggregate result of one exploration.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Completed executions (leaves actually run to the end).
    pub executions: u64,
    /// Scheduling decisions taken across completed executions.
    pub steps: u64,
    /// Executions abandoned because every runnable process was asleep.
    pub sleep_blocked: u64,
    /// Distinct history fingerprints observed.
    pub unique_histories: u64,
    /// Wing–Gong checks actually performed (= unique histories).
    pub lin_checks: u64,
    /// First violation found, if any (the search stops at the first).
    pub violation: Option<Violation>,
    /// True iff the search hit `max_executions` before finishing.
    pub capped: bool,
}

struct Node {
    chosen: (usize, Decision),
    access: (usize, AccessKind),
    enabled: Vec<usize>,
    pending: Vec<Option<(usize, AccessKind)>>,
    /// Sleep set inherited from the parent (fixed at node creation).
    sleep: Vec<SleepEntry>,
    /// Alternatives queued by race analysis / naive enumeration.
    backtrack: Vec<(usize, Decision)>,
    /// Alternatives whose subtrees are fully explored.
    done: Vec<(usize, Decision)>,
}

impl Node {
    fn from_step(st: &StepRec, sleep: Vec<SleepEntry>) -> Node {
        Node {
            chosen: (st.proc, st.decision),
            access: (st.addr, st.kind),
            enabled: st.enabled.clone(),
            pending: st.pending.clone(),
            sleep,
            backtrack: Vec::new(),
            done: Vec::new(),
        }
    }

    fn entry_for(&self, choice: (usize, Decision)) -> SleepEntry {
        let (addr, kind) = self.pending[choice.0].expect("explored choices were runnable");
        SleepEntry {
            proc: choice.0,
            decision: choice.1,
            addr,
            kind,
        }
    }

    /// The sleep set for children of the currently chosen step: everything
    /// asleep or already explored here, minus what the chosen step wakes.
    fn child_sleep(&self) -> Vec<SleepEntry> {
        self.sleep
            .iter()
            .copied()
            .chain(self.done.iter().map(|&c| self.entry_for(c)))
            .filter(|e| e.independent_of(self.chosen.0, self.access.0, self.access.1))
            .collect()
    }

    fn queue(&mut self, choice: (usize, Decision)) {
        if self.chosen != choice && !self.done.contains(&choice) && !self.backtrack.contains(&choice)
        {
            self.backtrack.push(choice);
        }
    }
}

fn dependent(a: &StepRec, b: &StepRec) -> bool {
    a.addr == b.addr && !(a.kind.is_read_only() && b.kind.is_read_only())
}

fn decision_rank(d: Decision) -> u8 {
    match d {
        Decision::Proceed => 0,
        Decision::SpuriousFail => 1,
    }
}

fn spurious_used(stack: &[Node]) -> u32 {
    stack
        .iter()
        .filter(|nd| nd.chosen.1 == Decision::SpuriousFail)
        .count() as u32
}

/// Queues the spurious-failure alternative at the top node if its chosen
/// step is an RSC executed normally and the schedule has budget left.
fn queue_spurious_alternative(stack: &mut [Node], budget: u32) {
    let used = spurious_used(stack);
    if let Some(nd) = stack.last_mut() {
        if nd.chosen.1 == Decision::Proceed
            && nd.access.1 == AccessKind::Rsc
            && used < budget
        {
            nd.queue((nd.chosen.0, Decision::SpuriousFail));
        }
    }
}

/// Flanagan–Godefroid race analysis over a completed trace: for each step,
/// the latest dependent step by another process that is not already
/// happens-before-ordered gets a backtrack point.
fn race_analysis(stack: &mut [Node], steps: &[StepRec], n: usize) {
    let m = steps.len();
    let mut proc_vc: Vec<Vec<u64>> = vec![vec![0; n]; n];
    let mut step_clock: Vec<Vec<u64>> = Vec::with_capacity(m);
    for j in 0..m {
        let sj = &steps[j];
        let p = sj.proc;
        for i in (0..j).rev() {
            let si = &steps[i];
            if !dependent(si, sj) {
                continue;
            }
            if si.proc != p && proc_vc[p][si.proc] < i as u64 + 1 {
                // Race: j's process could have run at i. Prefer adding it
                // directly; if it was not yet enabled there, fall back to
                // everything that was (it transitively leads to p).
                let add: Vec<usize> = if stack[i].enabled.contains(&p) {
                    vec![p]
                } else {
                    stack[i].enabled.clone()
                };
                for q in add {
                    stack[i].queue((q, Decision::Proceed));
                }
            }
            break; // only the last dependent step matters
        }
        let mut c = proc_vc[p].clone();
        for i in 0..j {
            if dependent(&steps[i], sj) {
                for (cr, sr) in c.iter_mut().zip(&step_clock[i]) {
                    *cr = (*cr).max(*sr);
                }
            }
        }
        c[p] = j as u64 + 1;
        step_clock.push(c.clone());
        proc_vc[p] = c;
    }
}

/// Canonical fingerprint of a history for deduplication: the operations,
/// return values and the full really-precedes matrix (raw clock values are
/// schedule noise and are excluded).
fn history_fingerprint(history: &[Completed]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for c in history {
        (c.proc.index(), c.op, c.ret).hash(&mut h);
    }
    for a in history {
        for b in history {
            a.really_precedes(b).hash(&mut h);
        }
    }
    h.finish()
}

/// The verdict a judge callback passes on one completed execution.
#[derive(Clone, Debug)]
pub enum Judgment {
    /// Equivalent to an already-judged execution — counted but not
    /// re-checked (fingerprint deduplication lives in the judge).
    Duplicate,
    /// The execution satisfies the property.
    Pass,
    /// The execution violates the property; the payload is whatever
    /// history the judge wants preserved in the [`Violation`] (may be
    /// empty for state-based verdicts like conservation).
    Fail(Vec<Completed>),
}

/// The generic exploration driver under [`check`] and the LLX/SCX
/// conservation checks of [`crate::llx`]: enumerates schedules of an
/// `n`-process execution (DPOR + sleep sets, or naive DFS), calling
/// `run` once per schedule and `judge` once per completed (non-blocked)
/// execution. Stops at the first [`Judgment::Fail`].
///
/// Deterministic: the same `run` behaviour always explores the same
/// schedules in the same order.
///
/// # Errors
///
/// Propagates errors from `run` (provider environment/variable
/// construction).
pub fn explore<R, J>(
    n: usize,
    spurious_budget: u32,
    mode: Mode,
    max_executions: u64,
    mut run: R,
    mut judge: J,
) -> Result<Outcome, nbsp_core::Error>
where
    R: FnMut(&[(usize, Decision)], &[SleepEntry]) -> Result<ExecOutcome, nbsp_core::Error>,
    J: FnMut(&ExecOutcome) -> Judgment,
{
    let mut stack: Vec<Node> = Vec::new();
    let mut out = Outcome::default();

    loop {
        let prefix: Vec<(usize, Decision)> = stack.iter().map(|nd| nd.chosen).collect();
        let frontier = match (mode, stack.last()) {
            (Mode::Naive, _) | (_, None) => Vec::new(),
            (Mode::Dpor, Some(nd)) => nd.child_sleep(),
        };
        let exec = run(&prefix, &frontier)?;

        if exec.blocked {
            out.sleep_blocked += 1;
        } else {
            out.executions += 1;
            out.steps += exec.steps.len() as u64;
            match judge(&exec) {
                Judgment::Duplicate => {}
                Judgment::Pass => {
                    out.unique_histories += 1;
                    out.lin_checks += 1;
                }
                Judgment::Fail(history) => {
                    out.unique_histories += 1;
                    out.lin_checks += 1;
                    out.violation = Some(Violation {
                        schedule: exec.steps.iter().map(|s| (s.proc, s.decision)).collect(),
                        history,
                    });
                    return Ok(out);
                }
            }

            // Extend the stack with this run's fresh decisions.
            let mut sleep = frontier;
            for st in &exec.steps[stack.len()..] {
                let node_sleep = sleep.clone();
                sleep.retain(|e| e.independent_of(st.proc, st.addr, st.kind));
                stack.push(Node::from_step(st, node_sleep));
                match mode {
                    Mode::Dpor => {}
                    Mode::Naive => {
                        let nd = stack.last_mut().expect("just pushed");
                        for &q in &nd.enabled.clone() {
                            nd.queue((q, Decision::Proceed));
                        }
                    }
                }
                queue_spurious_alternative(&mut stack, spurious_budget);
            }
            if mode == Mode::Dpor {
                race_analysis(&mut stack, &exec.steps, n);
            }
        }

        if out.executions + out.sleep_blocked >= max_executions {
            out.capped = true;
            return Ok(out);
        }

        // Backtrack: retire the top node's chosen branch, pick the next
        // queued alternative (skipping sleeping ones), pop when exhausted.
        loop {
            let Some(last) = stack.len().checked_sub(1) else {
                return Ok(out); // exploration complete
            };
            let budget_left = spurious_used(&stack[..last]) < spurious_budget;
            let nd = &mut stack[last];
            if !nd.done.contains(&nd.chosen) {
                nd.done.push(nd.chosen);
            }
            let mut candidates: Vec<(usize, Decision)> = nd
                .backtrack
                .iter()
                .copied()
                .filter(|c| {
                    !nd.done.contains(c)
                        && !nd
                            .sleep
                            .iter()
                            .any(|e| e.proc == c.0 && e.decision == c.1)
                })
                .collect();
            candidates.sort_by_key(|&(p, d)| (p, decision_rank(d)));
            match candidates.first() {
                Some(&c) => {
                    nd.backtrack.retain(|&x| x != c);
                    nd.chosen = c;
                    nd.access = nd.pending[c.0].expect("queued choices were runnable");
                    if c.1 == Decision::Proceed && nd.access.1 == AccessKind::Rsc && budget_left {
                        nd.queue((c.0, Decision::SpuriousFail));
                    }
                    break;
                }
                None => {
                    stack.pop();
                }
            }
        }
    }
}

/// The judge every history-checking exploration uses: an execution whose
/// history fingerprint was already judged is a [`Judgment::Duplicate`];
/// any other is decided by the Wing–Gong checker against `spec`.
pub(crate) fn linearizability_judge<S>(spec: S) -> impl FnMut(&ExecOutcome) -> Judgment
where
    S: SeqSpec<Op = Op, Ret = Ret>,
{
    let mut seen: HashSet<u64> = HashSet::new();
    move |exec| {
        if !seen.insert(history_fingerprint(&exec.history)) {
            Judgment::Duplicate
        } else if is_linearizable(spec.clone(), &exec.history) {
            Judgment::Pass
        } else {
            Judgment::Fail(exec.history.clone())
        }
    }
}

/// Explores every schedule of `program` on provider `P` (up to
/// `max_executions` completed-or-blocked runs), checking each distinct
/// history for linearizability against the Figure-2 LL/SC specification.
///
/// Stops at the first violation. Deterministic: same provider, program and
/// mode always explore the same schedules in the same order.
///
/// # Errors
///
/// Propagates the provider's environment/variable construction errors.
pub fn check<P: Provider>(
    program: &Program,
    mode: Mode,
    max_executions: u64,
) -> Result<Outcome, nbsp_core::Error> {
    explore(
        program.n(),
        program.spurious_budget,
        mode,
        max_executions,
        |prefix, frontier| run_execution::<P>(program, prefix, frontier),
        linearizability_judge(LlScSpec::new(program.n(), program.initial)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::PlanOp;
    use nbsp_core::provider::{Fig4Native, Fig4Sim, Fig5Rll, LockBaseline};

    fn program(plans: Vec<Vec<PlanOp>>, spurious_budget: u32) -> Program {
        Program {
            initial: 0,
            plans,
            spurious_budget,
        }
    }

    fn racing_incr() -> Program {
        program(
            vec![
                vec![PlanOp::Ll, PlanOp::Sc(1)],
                vec![PlanOp::Ll, PlanOp::Sc(2)],
            ],
            0,
        )
    }

    #[test]
    fn fig4_native_is_exhaustively_linearizable() {
        let out = check::<Fig4Native>(&racing_incr(), Mode::Dpor, 1 << 20).unwrap();
        assert!(out.violation.is_none());
        assert!(!out.capped);
        assert!(out.executions >= 2, "both SC orders must be explored");
    }

    #[test]
    fn dpor_and_naive_agree_and_dpor_is_no_larger() {
        let prog = program(
            vec![
                vec![PlanOp::Ll, PlanOp::Vl, PlanOp::Sc(1)],
                vec![PlanOp::Ll, PlanOp::Vl, PlanOp::Sc(2)],
            ],
            0,
        );
        let naive = check::<Fig4Native>(&prog, Mode::Naive, 1 << 20).unwrap();
        let dpor = check::<Fig4Native>(&prog, Mode::Dpor, 1 << 20).unwrap();
        assert!(naive.violation.is_none());
        assert!(dpor.violation.is_none());
        assert!(!naive.capped && !dpor.capped);
        assert!(
            dpor.executions + dpor.sleep_blocked <= naive.executions,
            "reduction must not explore more than the full DFS"
        );
        assert!(
            naive.unique_histories >= dpor.unique_histories,
            "the full DFS sees every history the reduced search sees"
        );
    }

    #[test]
    fn lock_baseline_three_processes() {
        let prog = program(
            vec![
                vec![PlanOp::Ll, PlanOp::Sc(1)],
                vec![PlanOp::Ll, PlanOp::Sc(2)],
                vec![PlanOp::Ll, PlanOp::Sc(3)],
            ],
            0,
        );
        let out = check::<LockBaseline>(&prog, Mode::Dpor, 1 << 20).unwrap();
        assert!(out.violation.is_none());
        assert!(!out.capped);
        assert!(out.executions >= 6, "at least every SC order (3!) is distinct");
    }

    #[test]
    fn simulated_provider_is_checkable() {
        let out = check::<Fig4Sim>(&racing_incr(), Mode::Dpor, 1 << 20).unwrap();
        assert!(out.violation.is_none());
        assert!(!out.capped);
    }

    #[test]
    fn spurious_budget_branches_rsc_schedules() {
        // Fig5Rll's SC is a real RSC: with budget, the checker must explore
        // strictly more schedules (the forced-failure branches).
        let without = check::<Fig5Rll>(&racing_incr(), Mode::Dpor, 1 << 20).unwrap();
        let with = check::<Fig5Rll>(
            &program(
                vec![
                    vec![PlanOp::Ll, PlanOp::Sc(1)],
                    vec![PlanOp::Ll, PlanOp::Sc(2)],
                ],
                1,
            ),
            Mode::Dpor,
            1 << 20,
        )
        .unwrap();
        assert!(without.violation.is_none());
        assert!(with.violation.is_none());
        assert!(
            with.executions > without.executions,
            "spurious branches must add schedules ({} vs {})",
            with.executions,
            without.executions
        );
    }
}
