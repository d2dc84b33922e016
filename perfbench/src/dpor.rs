//! `verify_dpor`: a fixed suite of model checks whose verdicts and
//! execution counts are known, run in a seeded order pass after pass. The
//! work is CPU-serial: the executor's threads run one at a time, and the
//! time goes to per-execution thread hand-off and the Wing–Gong checks.
//!
//! Its wall time is not steady enough on a shared host to bound: the
//! executor's thread spawns and condition-variable hand-offs run at the
//! speed of the guest kernel's paths, which the host slows by up to half
//! for tens of seconds at a time. So this workload runs by hand and in
//! `run.py --workload all`, and its suite also runs, traced, inside
//! `llsc_mix`'s traced run, which reports the executor, DPOR and
//! linearizability layers.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use nbsp_check::planted::{aba_program, PlantedTagDrop};
use nbsp_check::{
    check, check_conservation, check_lost_freeze, explore, llx::overlap_program, Judgment, Mode,
    Outcome, PlanOp, Program,
};
use nbsp_core::provider::Fig4Native;
use nbsp_core::{with_provider, Provider, ProviderId};
use nbsp_linearize::{is_linearizable, Completed, LlScSpec};
use nbsp_memsim::rng::SplitMix64;

use crate::common;
use crate::report::{Out, MIX_PROVIDERS};
use crate::stall::{self, Timed};
use crate::stats::{self, median_of};
use crate::trace::{Layer, Tracer};

/// Executions after which a check counts as capped (a failed verdict).
const CAP: u64 = 100_000;
/// Latency limit of one check: a fixed part plus a part per execution.
const LIMIT_BASE_NS: u64 = 5_000_000;
const LIMIT_PER_EXEC_NS: u64 = 2_000_000;

/// Completed executions of the E13 ladder (c1, c2, c3) per provider, as
/// `check` reports them; the verdict is "linearizable" for all.
const LADDER_EXECUTIONS: [(&str, [u64; 3]); 6] = [
    ("fig4-native", [3, 4, 21]),
    ("fig4-emu", [26, 6, 70]),
    ("fig5-rll", [20, 5, 50]),
    ("fig7-bounded", [7, 11, 66]),
    ("constant", [8, 10, 97]),
    ("dynamic", [4, 6, 45]),
];
/// The two-process program with four LL/SC pairs per process.
const PAIRS4_EXECUTIONS: u64 = 1071;
/// `check_conservation` on the overlap program.
const OVERLAP_EXECUTIONS: u64 = 955;
/// Executions until the planted tag drop's violation is found.
const PLANTED_EXECUTIONS: u64 = 5;
/// Executions until the planted lost freeze's violation is found.
const LOST_FREEZE_EXECUTIONS: u64 = 944;

enum Kind {
    /// `check` of an LL/SC program on a registry provider.
    LlSc(ProviderId, Program),
    /// `check` of the ABA program on the tag-dropping canary provider.
    Planted,
    /// `check_conservation` of the LLX/SCX overlap program.
    Conservation,
    /// `check_lost_freeze` of the overlap program (canary).
    LostFreeze,
}

struct Check {
    name: String,
    kind: Kind,
    violation: bool,
    executions: u64,
}

fn program(plans: Vec<Vec<PlanOp>>, spurious_budget: u32) -> Program {
    Program {
        initial: 0,
        plans,
        spurious_budget,
    }
}

/// The suite: E13's c1–c3 ladder on every `llsc_mix` provider, the
/// four-pair program, the LLX/SCX conservation check, and two canaries
/// that must report a violation.
fn suite() -> Vec<Check> {
    debug_assert_eq!(LADDER_EXECUTIONS.map(|(p, _)| p), MIX_PROVIDERS);
    let ladder = [
        program(
            vec![
                vec![PlanOp::Ll, PlanOp::Sc(1)],
                vec![PlanOp::Ll, PlanOp::Sc(2)],
            ],
            1,
        ),
        program(
            vec![
                vec![PlanOp::Ll, PlanOp::Vl, PlanOp::Sc(1)],
                vec![PlanOp::Ll, PlanOp::Sc(2), PlanOp::Read],
            ],
            0,
        ),
        program(
            vec![
                vec![PlanOp::Ll, PlanOp::Sc(1)],
                vec![PlanOp::Ll, PlanOp::Sc(2)],
                vec![PlanOp::Ll, PlanOp::Sc(3)],
            ],
            0,
        ),
    ];
    let mut checks = Vec::new();
    for (provider, execs) in LADDER_EXECUTIONS {
        let id = ProviderId::parse(provider).expect("registry name");
        for (c, (prog, executions)) in ladder.iter().zip(execs).enumerate() {
            checks.push(Check {
                name: format!("c{}/{provider}", c + 1),
                kind: Kind::LlSc(id, prog.clone()),
                violation: false,
                executions,
            });
        }
    }
    let pairs = |base: u64| {
        (0..4)
            .flat_map(|i| [PlanOp::Ll, PlanOp::Sc(base + i)])
            .collect()
    };
    checks.push(Check {
        name: "pairs4/fig4-native".into(),
        kind: Kind::LlSc(
            ProviderId::Fig4Native,
            program(vec![pairs(1), pairs(11)], 0),
        ),
        violation: false,
        executions: PAIRS4_EXECUTIONS,
    });
    checks.push(Check {
        name: "llx-conservation/fig4-native".into(),
        kind: Kind::Conservation,
        violation: false,
        executions: OVERLAP_EXECUTIONS,
    });
    checks.push(Check {
        name: "planted-tag-drop".into(),
        kind: Kind::Planted,
        violation: true,
        executions: PLANTED_EXECUTIONS,
    });
    checks.push(Check {
        name: "llx-lost-freeze".into(),
        kind: Kind::LostFreeze,
        violation: true,
        executions: LOST_FREEZE_EXECUTIONS,
    });
    checks
}

/// The history fingerprint `check` deduplicates by: operations, return
/// values and the real-time precedence matrix.
fn fingerprint(history: &[Completed]) -> u64 {
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

/// Per-execution samples a traced exploration collects.
#[derive(Default)]
struct ExecSamples {
    run_ns: Vec<u64>,
    lin_ns: Vec<u64>,
}

/// `check` rebuilt on the public `explore`, with spans around each
/// `run_execution` and each `is_linearizable`.
fn traced_check<P: Provider>(
    program: &Program,
    tr: &mut Tracer,
    op: u64,
    samples: &mut ExecSamples,
) -> Outcome {
    let n = program.n();
    let mut seen: HashSet<u64> = HashSet::new();
    let tr = std::cell::RefCell::new(tr);
    let samples = std::cell::RefCell::new(samples);
    tr.borrow_mut().enter(Layer::Dpor, op);
    let out = explore(
        n,
        program.spurious_budget,
        Mode::Dpor,
        CAP,
        |prefix, frontier| {
            let t = Instant::now();
            let r = tr.borrow_mut().span(Layer::Exec, op, || {
                nbsp_check::exec::run_execution::<P>(program, prefix, frontier)
            });
            samples.borrow_mut().run_ns.push(common::ns_since(t));
            r
        },
        |exec| {
            if !seen.insert(fingerprint(&exec.history)) {
                return Judgment::Duplicate;
            }
            let t = Instant::now();
            let ok = tr.borrow_mut().span(Layer::Lin, op, || {
                is_linearizable(LlScSpec::new(n, program.initial), &exec.history)
            });
            samples.borrow_mut().lin_ns.push(common::ns_since(t));
            if ok {
                Judgment::Pass
            } else {
                Judgment::Fail(exec.history.clone())
            }
        },
    )
    .expect("provider construction is infallible for the suite's providers");
    tr.borrow_mut().exit();
    out
}

/// Runs one check, traced or not.
fn run_check(c: &Check, tr: &mut Tracer, op: u64, samples: &mut ExecSamples) -> Outcome {
    let traced = tr.is_on();
    let res = match &c.kind {
        Kind::LlSc(id, prog) => {
            macro_rules! go {
                ($p:ty) => {
                    if traced {
                        Ok(traced_check::<$p>(prog, tr, op, samples))
                    } else {
                        check::<$p>(prog, Mode::Dpor, CAP)
                    }
                };
            }
            with_provider!(*id, go)
        }
        Kind::Planted => {
            let prog = aba_program();
            if traced {
                Ok(traced_check::<PlantedTagDrop>(&prog, tr, op, samples))
            } else {
                check::<PlantedTagDrop>(&prog, Mode::Dpor, CAP)
            }
        }
        Kind::Conservation => tr.span(Layer::LlxCheck, op, || {
            check_conservation::<Fig4Native>(&overlap_program(), Mode::Dpor, CAP)
        }),
        Kind::LostFreeze => tr.span(Layer::LlxCheck, op, || {
            check_lost_freeze::<Fig4Native>(&overlap_program(), Mode::Dpor, CAP)
        }),
    };
    res.expect("provider construction is infallible for the suite's providers")
}

struct Pass {
    setup_ns: u64,
    verdicts: u64,
    /// Time to verdict of each check, by suite index.
    check_ns: Vec<u64>,
    within: u64,
    executions: u64,
    sleep_blocked: u64,
    steps: u64,
    lin_checks: u64,
    traced: bool,
}

impl Timed for Pass {
    fn traced(&self) -> bool {
        self.traced
    }
    /// The executor runs one thread at a time and hands over on a
    /// condition variable, so a clock gap is no sign of a host stall:
    /// no pass is set aside.
    fn stalled(&self) -> bool {
        false
    }
}

/// Runs the suite once, in an order drawn from `rng`, and checks every
/// verdict and execution count; a wrong one is booked in `out`.
fn pass(
    index: u64,
    rng: &mut SplitMix64,
    tr: &mut Tracer,
    samples: &mut ExecSamples,
    out: &mut Out,
) -> Pass {
    let t_setup = Instant::now();
    let checks = suite();
    let setup_ns = common::ns_since(t_setup);
    let mut order: Vec<usize> = (0..checks.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.next_index(i + 1));
    }
    let mut pass = Pass {
        setup_ns,
        verdicts: 0,
        check_ns: vec![0; checks.len()],
        within: 0,
        executions: 0,
        sleep_blocked: 0,
        steps: 0,
        lin_checks: 0,
        traced: tr.is_on(),
    };
    for i in order {
        let c = &checks[i];
        let t = Instant::now();
        let o = run_check(c, tr, (index << 32) | i as u64, samples);
        let ns = common::ns_since(t);
        pass.verdicts += 1;
        pass.check_ns[i] = ns;
        pass.executions += o.executions;
        pass.sleep_blocked += o.sleep_blocked;
        pass.steps += o.steps;
        pass.lin_checks += o.lin_checks;
        let right =
            o.violation.is_some() == c.violation && !o.capped && o.executions == c.executions;
        if right {
            pass.within += u64::from(ns <= LIMIT_BASE_NS + LIMIT_PER_EXEC_NS * c.executions);
        } else {
            out.failed += 1;
            out.errors.push(format!(
                "{}: {} executions (expected {}), violation {} (expected {}), capped {}",
                c.name,
                o.executions,
                c.executions,
                o.violation.is_some(),
                c.violation,
                o.capped
            ));
        }
    }
    pass
}

/// Runs the workload for `seconds` and fills `out`.
pub fn run(seed: u64, seconds: f64, traced: bool, out: &mut Out) {
    let epoch = Instant::now();
    let mut rng = SplitMix64::new(seed);
    let mut tracer = Tracer::new(true, epoch, 0);
    let mut samples = ExecSamples::default();
    let mut passes: Vec<Pass> = Vec::with_capacity(common::MAX_WINDOWS);
    common::window_loop(seconds, traced, |index, on| {
        let mut tr = Tracer::new(on, epoch, 1);
        passes.push(pass(index, &mut rng, &mut tr, &mut samples, out));
        tracer.merge(tr);
    });
    out.attempted = passes.iter().map(|p| p.verdicts).sum();
    let plain = stall::plain(&passes, false);
    // Verdicts per second of a pass made of each check's median time to
    // verdict, so a stall that hits one check in one pass does not count.
    let per_s = |ps: &[&Pass]| {
        let n = ps.first().map_or(0, |p| p.check_ns.len());
        let suite_ns: f64 = (0..n)
            .map(|i| median_of(ps, |p| p.check_ns[i] as f64))
            .sum();
        n as f64 / (suite_ns / 1e9)
    };
    out.e2e(
        "setup_s",
        "s",
        median_of(&plain, |p| p.setup_ns as f64 / 1e9),
    );
    out.e2e("ops_per_s", "1/s", per_s(&plain));
    // One check's time to verdict: the median over every plain verdict.
    let mut all: Vec<u64> = plain
        .iter()
        .flat_map(|p| p.check_ns.iter().copied())
        .collect();
    let p50 = stats::percentile(&mut all, 0.5).map_or(f64::NAN, |p| p.value as f64 / 1e3);
    out.e2e("lat_p50_us", "us", p50);
    out.e2e(
        "slo_attain",
        "ratio",
        median_of(&plain, |p| stats::slo_attain(p.within, p.verdicts)),
    );
    out.e2e_fail_frac();
    out.e2e("peak_rss_mb", "MB", common::peak_rss_mb());

    if traced {
        let traced_ps = stall::plain(&passes, true);
        layer_metrics(&tracer, &mut samples, &traced_ps, out);
        if let Some(p) = stats::percentile(&mut all, 0.99) {
            out.layer("lat_us_p99", "us", p.value as f64 / 1e3);
            out.layer("lat_p99_samples", "count", p.samples as f64);
        }
        out.layer(
            "trace.overhead_frac",
            "ratio",
            stats::overhead_frac(per_s(&traced_ps), per_s(&plain)),
        );
        out.self_times(&tracer);
        out.spans(&tracer);
    }
}

/// The model-checking layers for another workload's traced run: one
/// traced pass of the suite, checked like every pass, its spans folded
/// into `tracer`.
pub fn traced_layers(seed: u64, epoch: Instant, tracer: &mut Tracer, out: &mut Out) {
    let mut samples = ExecSamples::default();
    let mut tr = Tracer::new(true, epoch, 3);
    let p = pass(1, &mut SplitMix64::new(seed), &mut tr, &mut samples, out);
    layer_metrics(&tr, &mut samples, &[&p], out);
    tracer.merge(tr);
}

/// The executor, DPOR and linearizability metrics of traced passes whose
/// spans are in `t`.
fn layer_metrics(t: &Tracer, samples: &mut ExecSamples, traced: &[&Pass], out: &mut Out) {
    let n = traced.len().max(1) as f64;
    let sum = |f: &dyn Fn(&Pass) -> u64| traced.iter().map(|p| f(p)).sum::<u64>() as f64;
    if let Some(p) = stats::percentile(&mut samples.run_ns, 0.5) {
        out.layer("exec.run_us_p50", "us", p.value as f64 / 1e3);
    }
    out.layer(
        "exec.steps_per_exec",
        "ratio",
        sum(&|p| p.steps) / sum(&|p| p.executions).max(1.0),
    );
    out.layer(
        "dpor.self_ms",
        "ms",
        t.agg(Layer::Dpor).self_ns as f64 / 1e6 / n,
    );
    out.layer("dpor.executions", "count", sum(&|p| p.executions) / n);
    out.layer("dpor.sleep_blocked", "count", sum(&|p| p.sleep_blocked) / n);
    if let Some(p) = stats::percentile(&mut samples.lin_ns, 0.5) {
        out.layer("lin.check_us_p50", "us", p.value as f64 / 1e3);
    }
    out.layer("lin.checks", "count", sum(&|p| p.lin_checks) / n);
}
