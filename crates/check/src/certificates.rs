//! The figure certificates: DPOR over the shipped Figure 3, 5, 6 and 7
//! types and the two keep-search ablations.
//!
//! The paper defers its linearizability proofs to a full version. These
//! certificates stand in for them on small configurations: each one runs
//! a closed program against the type the crates actually ship, built
//! through its public constructor, enumerates every interleaving of its
//! shared accesses with [`explore`] (spurious RSC failures included as
//! scheduler branches), and judges every distinct history with the same
//! Wing–Gong judge as [`check`](crate::check).
//!
//! | Figure | Type under test | Specification |
//! |---|---|---|
//! | 3 | [`EmuCasWord`] on an RLL/RSC-only machine | [`CasSpec`] |
//! | 5 | [`RllLlSc`] on an RLL/RSC-only machine | [`LlScSpec`] |
//! | 6 | [`WideVar<Native>`](nbsp_core::wide::WideVar), W = 2 | [`LlScSpec`] over encoded values |
//! | 7 | [`BoundedVar<Native>`](nbsp_core::bounded::BoundedVar), N = k = 2 | [`LlScSpec`], one process per (process, slot) |
//! | E8 | [`PerVarKeepVar`] | [`LlScSpec`] |
//! | E8 | [`RegistryKeepVar`] over a fresh [`KeepRegistry`] | [`LlScSpec`] |
//!
//! The keep-search ablations keep one link per (process, variable), which
//! is exactly the specification's per-process `valid[p]`, so they run
//! through their inherent `ll(p)`/`vl(p)`/`sc(p, v)` API. They are not
//! [`LlScVar`](nbsp_core::LlScVar)s, so the provider sweep cannot reach
//! them; their certificates run the sweep's three programs.
//!
//! Two encodings make the non-scalar figures fit the Figure-2 vocabulary:
//!
//! * **Figure 6** — a W-word value is one specification value
//!   ([`encode`]), so a WLL that returns a mixture of two committed values
//!   (a torn read) is a specification violation. A WLL that reports
//!   interference saved no value and records no LL; the SC after it is
//!   certain to fail, which the specification also demands because the
//!   process's previous SC (if any) already consumed its link.
//! * **Figure 7** — each of a process's `k` concurrent LL–SC sequences is
//!   its own specification process, so a parked sequence's SC is judged
//!   against every SC that completed while it was parked, including the
//!   same thread's.
//!
//! Negative controls come from small public configurations, not from
//! flawed copies: Figure 5 with a 1-bit tag must be caught, and its
//! counterexample schedule replays to the same history. Figure 3 with the
//! same 1-bit tag stays linearizable — CAS semantics are value-only, so
//! the tag buys Figure 3 termination, not safety. (Figure 7's undersized
//! tag universe is unreachable through the public constructor, which
//! sizes it as `2Nk + 1`; its negative control is a unit test inside
//! `nbsp_core::bounded`.)

use nbsp_core::bounded::{BoundedDomain, BoundedKeep};
use nbsp_core::keep_search::{KeepRegistry, PerVarKeepVar, RegistryKeepVar};
use nbsp_core::wide::{WideDomain, WideKeep};
use nbsp_core::{EmuCasWord, Keep, Native, RllLlSc, TagLayout};
use nbsp_linearize::{CasSpec, Completed, LlScSpec, Op, Ret, SeqSpec};
use nbsp_memsim::sched::Decision;
use nbsp_memsim::{InstructionSet, Machine, ProcId};

use crate::dpor::{explore, linearizability_judge, Mode, Outcome};
use crate::exec::{run_controlled, ExecOutcome, PlanOp, SleepEntry, WorkerCtl};

/// Words per Figure-6 variable in the certificates.
pub const WIDTH: usize = 2;

/// Processes (N) and concurrent sequences per process (k) of the
/// Figure-7 domain in the certificates.
pub const FIG7_N: usize = 2;
/// See [`FIG7_N`].
pub const FIG7_K: usize = 2;

/// One operation of a Figure-6 plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WideOp {
    /// Weak load-linked of the whole value.
    Wll,
    /// Store-conditional of a whole value.
    Sc([u64; WIDTH]),
}

/// One operation of a Figure-7 plan. The slot names one of the process's
/// `k` concurrent LL–SC sequences.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotOp {
    /// Start the slot's sequence.
    Ll(usize),
    /// Finish the slot's sequence with an SC of the value (fails without a
    /// preceding LL in that slot).
    Sc(usize, u64),
}

/// Which keep-search ablation a [`Subject::KeepSearch`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeepSearch {
    /// [`PerVarKeepVar`]: a keep array in each variable.
    PerVar,
    /// [`RegistryKeepVar`]: a shared (process, variable) registry.
    Registry,
}

/// The shipped type a certificate runs, with its initial value and one
/// plan per process.
#[derive(Clone, Debug)]
pub enum Subject {
    /// Figure 3's [`EmuCasWord`]; each operation is `CAS(old, new)`.
    Fig3 {
        /// Tag/value split of the word.
        layout: TagLayout,
        /// Initial value.
        initial: u64,
        /// `(old, new)` pairs per process.
        plans: Vec<Vec<(u64, u64)>>,
    },
    /// Figure 5's [`RllLlSc`].
    Fig5 {
        /// Tag/value split of the word.
        layout: TagLayout,
        /// Initial value.
        initial: u64,
        /// Figure-2 operations per process.
        plans: Vec<Vec<PlanOp>>,
    },
    /// Figure 6's `WideVar<Native>` with [`WIDTH`] words.
    Fig6 {
        /// Initial value, one entry per word.
        initial: [u64; WIDTH],
        /// Operations per process.
        plans: Vec<Vec<WideOp>>,
    },
    /// Figure 7's `BoundedVar<Native>` in a [`FIG7_N`] × [`FIG7_K`] domain.
    Fig7 {
        /// Initial value.
        initial: u64,
        /// Operations per process (at most [`FIG7_N`] plans).
        plans: Vec<Vec<SlotOp>>,
    },
    /// A keep-search ablation with a half/half tag layout. Every plan
    /// opens with an LL: neither ablation defines VL or SC before one.
    KeepSearch {
        /// The ablation.
        via: KeepSearch,
        /// Initial value.
        initial: u64,
        /// Figure-2 operations per process.
        plans: Vec<Vec<PlanOp>>,
    },
}

/// The per-process interface both keep-search ablations expose.
trait Linked: Sync {
    fn ll(&self, p: ProcId) -> u64;
    fn vl(&self, p: ProcId) -> bool;
    fn sc(&self, p: ProcId, new: u64) -> bool;
    fn read(&self) -> u64;
}

impl Linked for PerVarKeepVar {
    fn ll(&self, p: ProcId) -> u64 {
        PerVarKeepVar::ll(self, p)
    }
    fn vl(&self, p: ProcId) -> bool {
        PerVarKeepVar::vl(self, p)
    }
    fn sc(&self, p: ProcId, new: u64) -> bool {
        PerVarKeepVar::sc(self, p, new)
    }
    fn read(&self) -> u64 {
        PerVarKeepVar::read(self)
    }
}

impl Linked for RegistryKeepVar {
    fn ll(&self, p: ProcId) -> u64 {
        RegistryKeepVar::ll(self, p)
    }
    fn vl(&self, p: ProcId) -> bool {
        RegistryKeepVar::vl(self, p)
    }
    fn sc(&self, p: ProcId, new: u64) -> bool {
        RegistryKeepVar::sc(self, p, new)
    }
    fn read(&self) -> u64 {
        RegistryKeepVar::read(self)
    }
}

/// The specification operation a plan step performs.
fn spec_op(op: PlanOp) -> Op {
    match op {
        PlanOp::Ll => Op::Ll,
        PlanOp::Vl => Op::Vl,
        PlanOp::Sc(x) => Op::Sc(x),
        PlanOp::Read => Op::Read,
    }
}

/// A named program over one shipped type, with the verdict it must get.
#[derive(Clone, Debug)]
pub struct Certificate {
    /// Stable name used in the report and JSON.
    pub name: String,
    /// The type under test and its program.
    pub subject: Subject,
    /// Scheduler-forced spurious RSC failures allowed per schedule.
    pub spurious_budget: u32,
    /// True for a negative control: the search must find a violation.
    pub expect_violation: bool,
}

/// Encodes a Figure-6 value as one specification value (16 bits per word).
#[must_use]
pub fn encode(words: &[u64]) -> u64 {
    words.iter().fold(0, |acc, &w| {
        debug_assert!(w < 1 << 16, "certificate values fit 16 bits per word");
        acc << 16 | w
    })
}

/// Runs `f` as one operation of specification process `proc`, stamping
/// its interval; records it unless `f` returns `None`.
fn timed(ctl: &WorkerCtl, proc: usize, op: Op, f: impl FnOnce() -> Option<Ret>) {
    let invoked = ctl.tick();
    let ret = f();
    let returned = ctl.tick();
    if let Some(ret) = ret {
        ctl.record(Completed {
            proc: ProcId::new(proc),
            op,
            ret,
            invoked,
            returned,
        });
    }
}

/// Runs one worker per plan, built by `body(process, plan)`, under
/// [`run_controlled`].
fn run_plans<'a, T, B>(
    prefix: &[(usize, Decision)],
    frontier: &[SleepEntry],
    plans: &'a [Vec<T>],
    mut body: impl FnMut(usize, &'a [T]) -> B,
) -> ExecOutcome
where
    B: FnOnce(&WorkerCtl) + Send,
{
    let bodies = plans
        .iter()
        .enumerate()
        .map(|(p, plan)| body(p, plan))
        .collect();
    run_controlled(prefix, frontier, bodies)
}

/// Runs one worker per plan over a keep-search ablation, process `p`
/// issuing its plan as `p`.
fn run_linked<V: Linked>(
    prefix: &[(usize, Decision)],
    frontier: &[SleepEntry],
    plans: &[Vec<PlanOp>],
    var: &V,
) -> ExecOutcome {
    run_plans(prefix, frontier, plans, |p, plan| {
        move |ctl: &WorkerCtl| {
            let proc = ProcId::new(p);
            for &op in plan {
                timed(ctl, p, spec_op(op), || {
                    Some(match op {
                        PlanOp::Ll => Ret::Value(var.ll(proc)),
                        PlanOp::Vl => Ret::Bool(var.vl(proc)),
                        PlanOp::Sc(x) => Ret::Bool(var.sc(proc, x)),
                        PlanOp::Read => Ret::Value(var.read()),
                    })
                });
            }
        }
    })
}

fn rll_machine(n: usize) -> Machine {
    Machine::builder(n)
        .instruction_set(InstructionSet::RllRscOnly)
        .build()
}

impl Certificate {
    fn new(name: impl Into<String>, subject: Subject, spurious_budget: u32) -> Self {
        Certificate {
            name: name.into(),
            subject,
            spurious_budget,
            expect_violation: false,
        }
    }

    fn violation_expected(mut self) -> Self {
        self.expect_violation = true;
        self
    }

    fn threads(&self) -> usize {
        match &self.subject {
            Subject::Fig3 { plans, .. } => plans.len(),
            Subject::Fig5 { plans, .. } => plans.len(),
            Subject::Fig6 { plans, .. } => plans.len(),
            Subject::Fig7 { plans, .. } => plans.len(),
            Subject::KeepSearch { plans, .. } => plans.len(),
        }
    }

    /// Runs one schedule-controlled execution on a freshly built instance
    /// of the type (see [`run_controlled`] for the prefix/sleep semantics).
    /// Replaying a violation's schedule with an empty sleep set reproduces
    /// its history.
    ///
    /// # Panics
    ///
    /// Panics if the subject's initial value does not fit its type, or if
    /// a Figure-7 plan has more than [`FIG7_N`] processes or names a slot
    /// outside `0..FIG7_K`.
    #[must_use]
    pub fn run(&self, prefix: &[(usize, Decision)], frontier: &[SleepEntry]) -> ExecOutcome {
        match &self.subject {
            Subject::Fig3 {
                layout,
                initial,
                plans,
            } => {
                let machine = rll_machine(plans.len());
                let word = &EmuCasWord::new(*layout, *initial).expect("initial fits the layout");
                run_plans(prefix, frontier, plans, |p, plan| {
                    let proc = machine.processor(p);
                    move |ctl: &WorkerCtl| {
                        for &(old, new) in plan {
                            timed(ctl, p, Op::Cas { old, new }, || {
                                Some(Ret::Bool(word.cas(&proc, old, new)))
                            });
                        }
                    }
                })
            }
            Subject::Fig5 {
                layout,
                initial,
                plans,
            } => {
                let machine = rll_machine(plans.len());
                let var = &RllLlSc::new(*layout, *initial).expect("initial fits the layout");
                run_plans(prefix, frontier, plans, |p, plan| {
                    let proc = machine.processor(p);
                    move |ctl: &WorkerCtl| {
                        let mut keep = Keep::default();
                        for &op in plan {
                            timed(ctl, p, spec_op(op), || {
                                Some(match op {
                                    PlanOp::Ll => Ret::Value(var.ll(&proc, &mut keep)),
                                    PlanOp::Vl => Ret::Bool(var.vl(&proc, &keep)),
                                    PlanOp::Sc(x) => Ret::Bool(var.sc(&proc, &keep, x)),
                                    PlanOp::Read => Ret::Value(var.read(&proc)),
                                })
                            });
                        }
                    }
                })
            }
            Subject::Fig6 { initial, plans } => {
                let domain = WideDomain::<Native>::new(plans.len(), WIDTH, 32)
                    .expect("a W = 2 domain with 32-bit tags fits a native word");
                let var = &domain.var(initial).expect("initial fits the layout");
                run_plans(prefix, frontier, plans, |p, plan| {
                    move |ctl: &WorkerCtl| {
                        let (mut keep, mut buf) = (WideKeep::default(), [0; WIDTH]);
                        for &op in plan {
                            match op {
                                WideOp::Wll => timed(ctl, p, Op::Ll, || {
                                    let ok = var.wll(&Native, &mut keep, &mut buf).is_success();
                                    ok.then(|| Ret::Value(encode(&buf)))
                                }),
                                WideOp::Sc(new) => timed(ctl, p, Op::Sc(encode(&new)), || {
                                    let ok = var.sc(&Native, ProcId::new(p), &keep, &new);
                                    Some(Ret::Bool(ok))
                                }),
                            }
                        }
                    }
                })
            }
            Subject::Fig7 { initial, plans } => {
                assert!(plans.len() <= FIG7_N, "the domain has {FIG7_N} processes");
                let domain = BoundedDomain::<Native>::new(FIG7_N, FIG7_K)
                    .expect("an N = k = 2 domain fits a native word");
                let var = &domain.var(*initial).expect("initial fits the layout");
                run_plans(prefix, frontier, plans, |p, plan| {
                    let mut me = domain.proc(p);
                    move |ctl: &WorkerCtl| {
                        let mut keeps: [Option<BoundedKeep>; FIG7_K] = [None, None];
                        for &op in plan {
                            match op {
                                SlotOp::Ll(s) => timed(ctl, p * FIG7_K + s, Op::Ll, || {
                                    let (v, keep) = var.ll(&Native, &mut me);
                                    assert!(keeps[s].replace(keep).is_none(), "slot {s} busy");
                                    Some(Ret::Value(v))
                                }),
                                SlotOp::Sc(s, v) => timed(ctl, p * FIG7_K + s, Op::Sc(v), || {
                                    let keep = keeps[s].take();
                                    let ok = keep.is_some_and(|k| var.sc(&Native, &mut me, k, v));
                                    Some(Ret::Bool(ok))
                                }),
                            }
                        }
                    }
                })
            }
            Subject::KeepSearch {
                via,
                initial,
                plans,
            } => {
                let (n, layout) = (plans.len(), TagLayout::half());
                match via {
                    KeepSearch::PerVar => {
                        let var = PerVarKeepVar::new(n, layout, *initial);
                        run_linked(prefix, frontier, plans, &var.expect("initial fits"))
                    }
                    KeepSearch::Registry => {
                        let var = RegistryKeepVar::new(&KeepRegistry::new(), n, layout, *initial);
                        run_linked(prefix, frontier, plans, &var.expect("initial fits"))
                    }
                }
            }
        }
    }

    fn explore_against<S: SeqSpec<Op = Op, Ret = Ret>>(
        &self,
        spec: S,
        max_executions: u64,
    ) -> Outcome {
        explore(
            self.threads(),
            self.spurious_budget,
            Mode::Dpor,
            max_executions,
            |prefix, frontier| Ok(self.run(prefix, frontier)),
            linearizability_judge(spec),
        )
        .expect("certificate runs build their own instances and cannot fail")
    }

    /// Explores every schedule (up to `max_executions`) and judges every
    /// distinct history against the figure's specification. Stops at the
    /// first violation.
    #[must_use]
    pub fn check(&self, max_executions: u64) -> Outcome {
        match &self.subject {
            Subject::Fig3 { initial, .. } => {
                self.explore_against(CasSpec::new(*initial), max_executions)
            }
            Subject::Fig5 { initial, plans, .. } => {
                self.explore_against(LlScSpec::new(plans.len(), *initial), max_executions)
            }
            Subject::Fig6 { initial, plans } => {
                self.explore_against(LlScSpec::new(plans.len(), encode(initial)), max_executions)
            }
            Subject::Fig7 { initial, .. } => {
                self.explore_against(LlScSpec::new(FIG7_N * FIG7_K, *initial), max_executions)
            }
            Subject::KeepSearch { initial, plans, .. } => {
                self.explore_against(LlScSpec::new(plans.len(), *initial), max_executions)
            }
        }
    }
}

/// Figure 7's park-and-churn program: process 0 parks a sequence in slot
/// 0, runs `churn` full LL;SC pairs through slot 1 (values alternating
/// 7, 0, so the value field recurs), then fires the parked SC, which must
/// fail. Process 1 is idle, so the run is deterministic: a direct probe of
/// the tag-reuse arithmetic.
fn park_and_churn(churn: usize) -> Vec<Vec<SlotOp>> {
    let mut p0 = vec![SlotOp::Ll(0)];
    for round in 0..churn {
        p0.push(SlotOp::Ll(1));
        p0.push(SlotOp::Sc(1, if round % 2 == 0 { 7 } else { 0 }));
    }
    p0.push(SlotOp::Sc(0, 5));
    vec![p0, vec![]]
}

/// The certificate list `exp_modelcheck` runs, in report order.
#[must_use]
pub fn certificates() -> Vec<Certificate> {
    let cas_aba = vec![vec![(0, 5)], vec![(0, 7), (7, 0)]];
    let llsc_aba = vec![
        vec![PlanOp::Ll, PlanOp::Sc(5)],
        vec![PlanOp::Ll, PlanOp::Sc(7), PlanOp::Ll, PlanOp::Sc(0)],
    ];
    let one_bit = TagLayout::new(1, 32).expect("1 tag bit + 32 value bits");
    let mut certs = vec![
        Certificate::new(
            "fig3-cas-aba-spurious1",
            Subject::Fig3 {
                layout: TagLayout::new(16, 32).expect("16 tag bits + 32 value bits"),
                initial: 0,
                plans: cas_aba.clone(),
            },
            1,
        ),
        Certificate::new(
            "fig3-cas-aba-1bit-tag",
            Subject::Fig3 {
                layout: one_bit,
                initial: 0,
                plans: cas_aba,
            },
            0,
        ),
        Certificate::new(
            "fig5-llsc-aba-spurious1",
            Subject::Fig5 {
                layout: TagLayout::half(),
                initial: 0,
                plans: llsc_aba.clone(),
            },
            1,
        ),
        Certificate::new(
            "fig5-llsc-aba-1bit-tag",
            Subject::Fig5 {
                layout: one_bit,
                initial: 0,
                plans: llsc_aba,
            },
            0,
        )
        .violation_expected(),
        Certificate::new(
            "fig6-wll.sc-vs-wll.sc",
            Subject::Fig6 {
                initial: [1, 2],
                plans: vec![
                    vec![WideOp::Wll, WideOp::Sc([7, 8])],
                    vec![WideOp::Wll, WideOp::Sc([9, 10])],
                ],
            },
            0,
        ),
        Certificate::new(
            "fig6-wll.sc-vs-wll.wll",
            Subject::Fig6 {
                initial: [1, 2],
                plans: vec![
                    vec![WideOp::Wll, WideOp::Sc([7, 8])],
                    vec![WideOp::Wll, WideOp::Wll],
                ],
            },
            0,
        ),
        // Two SCs by one process: the helper's copy can observe the
        // owner's announce row already overwritten by its *next* SC.
        Certificate::new(
            "fig6-two-scs-vs-wll",
            Subject::Fig6 {
                initial: [1, 1],
                plans: vec![
                    vec![
                        WideOp::Wll,
                        WideOp::Sc([7, 7]),
                        WideOp::Wll,
                        WideOp::Sc([8, 8]),
                    ],
                    vec![WideOp::Wll],
                ],
            },
            0,
        ),
    ];
    certs.extend((1..=12).map(|churn| {
        Certificate::new(
            format!("fig7-park-and-churn-{churn}"),
            Subject::Fig7 {
                initial: 0,
                plans: park_and_churn(churn),
            },
            0,
        )
    }));
    certs.push(Certificate::new(
        "fig7-concurrent-slots-vs-rival",
        Subject::Fig7 {
            initial: 0,
            plans: vec![
                vec![
                    SlotOp::Ll(0),
                    SlotOp::Ll(1),
                    SlotOp::Sc(1, 3),
                    SlotOp::Sc(0, 4),
                ],
                vec![SlotOp::Ll(0), SlotOp::Sc(0, 2)],
            ],
        },
        0,
    ));
    // The provider sweep's three programs (E13's c1–c3), with the same
    // spurious budgets; neither ablation issues an RSC.
    let ll_sc = |v| vec![PlanOp::Ll, PlanOp::Sc(v)];
    let programs = [
        ("c1-2p-ll.sc-spurious1", vec![ll_sc(1), ll_sc(2)], 1),
        (
            "c2-2p-mixed",
            vec![
                vec![PlanOp::Ll, PlanOp::Vl, PlanOp::Sc(1)],
                vec![PlanOp::Ll, PlanOp::Sc(2), PlanOp::Read],
            ],
            0,
        ),
        ("c3-3p-ll.sc", vec![ll_sc(1), ll_sc(2), ll_sc(3)], 0),
    ];
    for (via, label) in [
        (KeepSearch::PerVar, "keep-pervar"),
        (KeepSearch::Registry, "keep-registry"),
    ] {
        certs.extend(programs.iter().map(|(name, plans, spurious)| {
            Certificate::new(
                format!("{label}-{name}"),
                Subject::KeepSearch {
                    via,
                    initial: 0,
                    plans: plans.clone(),
                },
                *spurious,
            )
        }));
    }
    certs
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbsp_linearize::is_linearizable;

    const CAP: u64 = 400_000;

    fn passes(cert: &Certificate) -> Outcome {
        let out = cert.check(CAP);
        assert!(
            out.violation.is_none(),
            "{}: violation {:#?}",
            cert.name,
            out.violation
        );
        assert!(!out.capped, "{}: exploration capped", cert.name);
        out
    }

    #[test]
    fn every_positive_certificate_passes_uncapped() {
        for cert in certificates().iter().filter(|c| !c.expect_violation) {
            let out = passes(cert);
            assert!(out.executions >= 1, "{}", cert.name);
        }
    }

    #[test]
    fn every_negative_is_found_and_replays_to_the_same_history() {
        let negatives: Vec<_> = certificates()
            .into_iter()
            .filter(|c| c.expect_violation)
            .collect();
        assert!(!negatives.is_empty());
        for cert in &negatives {
            let out = cert.check(CAP);
            let v = out
                .violation
                .unwrap_or_else(|| panic!("{}: negative control not caught", cert.name));
            assert!(!v.schedule.is_empty(), "{}", cert.name);
            let replay = cert.run(&v.schedule, &[]);
            assert!(!replay.blocked);
            assert_eq!(replay.history, v.history, "{}: replay diverged", cert.name);
        }
    }

    #[test]
    fn figure5_vl_agrees_with_the_spec() {
        passes(&Certificate::new(
            "fig5-vl",
            Subject::Fig5 {
                layout: TagLayout::half(),
                initial: 0,
                plans: vec![
                    vec![PlanOp::Ll, PlanOp::Vl, PlanOp::Sc(1), PlanOp::Vl],
                    vec![PlanOp::Ll, PlanOp::Sc(2)],
                ],
            },
            0,
        ));
    }

    #[test]
    fn figure5_three_processes_exhaust_cleanly() {
        let out = passes(&Certificate::new(
            "fig5-3p",
            Subject::Fig5 {
                layout: TagLayout::half(),
                initial: 0,
                plans: (1..=3).map(|v| vec![PlanOp::Ll, PlanOp::Sc(v)]).collect(),
            },
            0,
        ));
        assert!(out.unique_histories >= 6, "every SC order (3!) is distinct");
    }

    #[test]
    fn figure7_sc_without_ll_fails() {
        passes(&Certificate::new(
            "fig7-sc-without-ll",
            Subject::Fig7 {
                initial: 0,
                plans: vec![
                    vec![SlotOp::Sc(0, 9)],
                    vec![SlotOp::Ll(0), SlotOp::Sc(0, 1)],
                ],
            },
            0,
        ));
    }

    #[test]
    fn a_torn_figure6_snapshot_is_a_spec_violation() {
        // [7, 2] mixes the initial [1, 2] with the SC'd [7, 8].
        let history = vec![Completed {
            proc: ProcId::new(0),
            op: Op::Ll,
            ret: Ret::Value(encode(&[7, 2])),
            invoked: 1,
            returned: 2,
        }];
        assert!(!is_linearizable(
            LlScSpec::new(1, encode(&[1, 2])),
            &history
        ));
    }
}
