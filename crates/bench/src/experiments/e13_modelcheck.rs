//! E13: DPOR model checking of the shipped code. See `EXPERIMENTS.md`.
//!
//! Two sections, one engine. The **figure certificates**
//! (`nbsp_check::certificates`) run small programs against the shipped
//! Figure 3/5/6/7 types themselves, including negative controls. The
//! **provider sweep** schedule-controls every
//! [`ProviderId`](nbsp_core::ProviderId) registry entry: each runs on real
//! OS threads under `nbsp-check`'s cooperative scheduler, every
//! interleaving of its shared accesses is enumerated with dynamic
//! partial-order reduction (spurious RSC failures included as explicit
//! scheduler branches), and every distinct history is checked against the
//! Figure-2 sequential specification.
//!
//! Five deterministic gates:
//! * every figure certificate reaches its expected verdict without
//!   hitting the cap;
//! * every provider × configuration completes exhaustively (no cap) with
//!   no violation;
//! * DPOR prunes at least [`MIN_PRUNING_RATIO`]× versus the naive full
//!   DFS on the designated ratio configuration;
//! * the planted tag-drop provider (`nbsp_check::planted`) is caught with
//!   a concrete violating schedule — the checker is not vacuous;
//! * multi-word LLX/SCX commits (`nbsp_check::llx`) conserve exhaustively
//!   on the overlap program, and the planted lost-freeze domain is caught
//!   with the same counterexample schedule on two independent
//!   explorations.
//!
//! Configurations scale per provider by measured cost, not by name: every
//! provider runs the base configuration; providers whose base run costs
//! more than [`HEAVY_THRESHOLD`] executions skip the larger
//! configurations (recorded as skipped, deterministically — cost depends
//! only on the provider's access pattern). Weak-primitive-tier providers
//! also stop at the base configuration: their base counts are tiny
//! (await-parking collapses the blocking waits), but every emulated
//! CAS/LL/SC expands into many schedule points, so the 3-process
//! configuration's interleaving space is intractable rather than merely
//! heavy. Their base-configuration DPOR verdict is (re-)gated in E16.

use nbsp_check::certificates::{certificates, Certificate};
use nbsp_check::planted::{aba_program, PlantedTagDrop};
use nbsp_check::{
    check, check_conservation, check_lost_freeze, llx::overlap_program, Mode, Outcome, PlanOp,
    Program,
};
use nbsp_core::Provider;

use crate::report::{Report, Table};

/// Executions+blocked of the base configuration above which a provider is
/// considered heavy and skips the larger configurations.
pub const HEAVY_THRESHOLD: u64 = 20_000;

/// Hard cap per (provider, configuration) exploration; hitting it fails
/// the exhaustiveness gate.
pub const MAX_EXECUTIONS: u64 = 400_000;

/// The pruning-ratio gate: naive/DPOR executions on the ratio
/// configuration must be at least this.
pub const MIN_PRUNING_RATIO: f64 = 2.0;

/// A named small configuration.
#[derive(Clone, Debug)]
pub struct ConfigSpec {
    /// Stable name used in the report and JSON.
    pub name: &'static str,
    /// The program to explore.
    pub program: Program,
}

/// The configuration ladder. The base (first) configuration runs for
/// every provider and includes a spurious-failure budget so RSC-based
/// providers get their adversary enumerated; the rest widen the program
/// and the process count.
#[must_use]
pub fn configs() -> Vec<ConfigSpec> {
    vec![
        ConfigSpec {
            name: "c1-2p-ll.sc-spurious1",
            program: Program {
                initial: 0,
                plans: vec![
                    vec![PlanOp::Ll, PlanOp::Sc(1)],
                    vec![PlanOp::Ll, PlanOp::Sc(2)],
                ],
                spurious_budget: 1,
            },
        },
        ConfigSpec {
            name: "c2-2p-mixed",
            program: Program {
                initial: 0,
                plans: vec![
                    vec![PlanOp::Ll, PlanOp::Vl, PlanOp::Sc(1)],
                    vec![PlanOp::Ll, PlanOp::Sc(2), PlanOp::Read],
                ],
                spurious_budget: 0,
            },
        },
        ConfigSpec {
            name: "c3-3p-ll.sc",
            program: Program {
                initial: 0,
                plans: vec![
                    vec![PlanOp::Ll, PlanOp::Sc(1)],
                    vec![PlanOp::Ll, PlanOp::Sc(2)],
                    vec![PlanOp::Ll, PlanOp::Sc(3)],
                ],
                spurious_budget: 0,
            },
        },
    ]
}

/// The configuration on which the pruning ratio is measured and gated:
/// LL and VL are loads, so the read-heavy prefixes commute and the
/// reduction has real races to prune.
#[must_use]
pub fn ratio_config() -> ConfigSpec {
    ConfigSpec {
        name: "ratio-2p-ll.vl.vl.sc",
        program: Program {
            initial: 0,
            plans: vec![
                vec![PlanOp::Ll, PlanOp::Vl, PlanOp::Vl, PlanOp::Sc(1)],
                vec![PlanOp::Ll, PlanOp::Vl, PlanOp::Vl, PlanOp::Sc(2)],
            ],
            spurious_budget: 0,
        },
    }
}

/// One provider × configuration result.
#[derive(Clone, Debug)]
pub struct ConfigResult {
    /// Configuration name.
    pub config: &'static str,
    /// `None` iff skipped (heavy provider or `--quick`).
    pub outcome: Option<Outcome>,
}

/// One provider's sweep row.
#[derive(Clone, Debug)]
pub struct ProviderRow {
    /// Registry name.
    pub provider: &'static str,
    /// One entry per ladder configuration.
    pub results: Vec<ConfigResult>,
}

/// The measured pruning ratio.
#[derive(Clone, Debug)]
pub struct RatioResult {
    /// Provider measured (the default Figure-4 entry).
    pub provider: &'static str,
    /// Configuration name.
    pub config: &'static str,
    /// Naive full-DFS executions.
    pub naive_executions: u64,
    /// DPOR completed executions.
    pub dpor_executions: u64,
    /// DPOR sleep-blocked (abandoned) executions.
    pub dpor_sleep_blocked: u64,
}

impl RatioResult {
    /// naive / (DPOR completed + abandoned).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        let denom = self.dpor_executions + self.dpor_sleep_blocked;
        if denom == 0 {
            return 0.0;
        }
        self.naive_executions as f64 / denom as f64
    }
}

/// The planted-bug (non-vacuity) result.
#[derive(Clone, Debug)]
pub struct PlantedResult {
    /// Whether a violating schedule was found (it must be).
    pub found: bool,
    /// Completed executions until the violation surfaced.
    pub executions: u64,
    /// Length of the counterexample schedule.
    pub schedule_len: usize,
}

/// The multi-word LLX/SCX gate data: the overlap program (two SCXs whose
/// linked sets intersect on the written record) explored exhaustively on
/// the default Figure-4 provider, judged by conservation, plus the
/// planted lost-freeze domain — which must be caught with the *same*
/// counterexample schedule on two independent explorations.
#[derive(Clone, Debug)]
pub struct LlxResult {
    /// Exhaustive conservation exploration of the faithful protocol.
    pub conserve: Outcome,
    /// Completed executions until the lost-freeze violation surfaced.
    pub flawed_executions: u64,
    /// Whether the lost-freeze canary was caught (it must be).
    pub flawed_found: bool,
    /// Length of the lost-freeze counterexample schedule.
    pub flawed_schedule_len: usize,
    /// Whether two independent explorations produced identical
    /// counterexample schedules.
    pub deterministic: bool,
}

/// One figure certificate (`nbsp_check::certificates`): a DPOR run over
/// a shipped Figure 3/5/6/7 type, with the verdict it must reach.
#[derive(Clone, Debug)]
pub struct CertificateResult {
    /// Certificate name.
    pub name: String,
    /// True for a negative control (a violation must be found).
    pub expect_violation: bool,
    /// The exploration.
    pub outcome: Outcome,
}

impl CertificateResult {
    /// True iff the exploration reached the expected verdict without
    /// hitting the cap (negatives stop at their violation, uncapped).
    #[must_use]
    pub fn holds(&self) -> bool {
        !self.outcome.capped && self.outcome.violation.is_some() == self.expect_violation
    }

    /// Length of the counterexample schedule (0 without a violation).
    #[must_use]
    pub fn schedule_len(&self) -> usize {
        self.outcome.violation.as_ref().map_or(0, |v| v.schedule.len())
    }
}

fn verdict(violation: bool) -> &'static str {
    if violation {
        "violation"
    } else {
        "linearizable"
    }
}

/// Everything E13 measures.
#[derive(Clone, Debug)]
pub struct E13Results {
    /// The figure certificates, in [`certificates`] order.
    pub certificates: Vec<CertificateResult>,
    /// Per-provider sweep.
    pub rows: Vec<ProviderRow>,
    /// Pruning-ratio gate data.
    pub ratio: RatioResult,
    /// Non-vacuity gate data.
    pub planted: PlantedResult,
    /// Multi-word LLX/SCX gate data.
    pub llx: LlxResult,
    /// Whether the sweep ran in quick mode (base configuration only).
    pub quick: bool,
}

fn check_provider<P: Provider>(quick: bool) -> ProviderRow {
    let provider = <P as Provider>::ID.name();
    let ladder = configs();
    let mut results = Vec::with_capacity(ladder.len());
    // Weak-primitive emulations expand every op into many schedule
    // points; their base run is cheap but the 3-process configuration is
    // intractable, so they stop at the base rung (module doc).
    let weak = matches!(
        <P as Provider>::ID.meta().tier,
        nbsp_core::provider::Tier::WeakPrimitive
    );
    let mut heavy = false;
    for (i, cfg) in ladder.iter().enumerate() {
        let skip = ((quick || weak) && i > 0) || heavy;
        if skip {
            results.push(ConfigResult {
                config: cfg.name,
                outcome: None,
            });
            continue;
        }
        let out = check::<P>(&cfg.program, Mode::Dpor, MAX_EXECUTIONS)
            .unwrap_or_else(|e| panic!("{provider}: building the environment failed: {e}"));
        if i == 0 && out.executions + out.sleep_blocked > HEAVY_THRESHOLD {
            heavy = true;
        }
        results.push(ConfigResult {
            config: cfg.name,
            outcome: Some(out),
        });
    }
    ProviderRow { provider, results }
}

/// Runs the figure certificates, the full sweep, the ratio measurement
/// and the planted-bug check.
#[must_use]
pub fn collect(quick: bool) -> E13Results {
    let certificates = certificates()
        .into_iter()
        .map(|c: Certificate| CertificateResult {
            outcome: c.check(MAX_EXECUTIONS),
            name: c.name,
            expect_violation: c.expect_violation,
        })
        .collect();

    let mut rows: Vec<ProviderRow> = Vec::new();
    macro_rules! sweep {
        ($name:ident, $ty:ty) => {
            rows.push(check_provider::<$ty>(quick));
        };
    }
    nbsp_core::for_each_provider!(sweep);

    let rc = ratio_config();
    let naive = check::<nbsp_core::provider::Fig4Native>(&rc.program, Mode::Naive, MAX_EXECUTIONS)
        .expect("native env is infallible");
    let dpor = check::<nbsp_core::provider::Fig4Native>(&rc.program, Mode::Dpor, MAX_EXECUTIONS)
        .expect("native env is infallible");
    assert!(
        naive.violation.is_none() && dpor.violation.is_none(),
        "the ratio configuration must be violation-free"
    );
    let ratio = RatioResult {
        provider: <nbsp_core::provider::Fig4Native as Provider>::ID.name(),
        config: rc.name,
        naive_executions: naive.executions,
        dpor_executions: dpor.executions,
        dpor_sleep_blocked: dpor.sleep_blocked,
    };

    let planted_out = check::<PlantedTagDrop>(&aba_program(), Mode::Dpor, MAX_EXECUTIONS)
        .expect("planted env is infallible");
    let planted = PlantedResult {
        found: planted_out.violation.is_some(),
        executions: planted_out.executions,
        schedule_len: planted_out
            .violation
            .as_ref()
            .map_or(0, |v| v.schedule.len()),
    };

    let lp = overlap_program();
    let conserve =
        check_conservation::<nbsp_core::provider::Fig4Native>(&lp, Mode::Dpor, MAX_EXECUTIONS)
            .expect("native env is infallible");
    let f1 = check_lost_freeze::<nbsp_core::provider::Fig4Native>(&lp, Mode::Dpor, MAX_EXECUTIONS)
        .expect("native env is infallible");
    let f2 = check_lost_freeze::<nbsp_core::provider::Fig4Native>(&lp, Mode::Dpor, MAX_EXECUTIONS)
        .expect("native env is infallible");
    let llx = LlxResult {
        flawed_executions: f1.executions,
        flawed_found: f1.violation.is_some(),
        flawed_schedule_len: f1.violation.as_ref().map_or(0, |v| v.schedule.len()),
        deterministic: match (&f1.violation, &f2.violation) {
            (Some(a), Some(b)) => a.schedule == b.schedule,
            _ => false,
        },
        conserve,
    };

    E13Results {
        certificates,
        rows,
        ratio,
        planted,
        llx,
        quick,
    }
}

/// Renders the markdown report.
#[must_use]
pub fn render(r: &E13Results) -> Report {
    let mut report = Report::new();
    report.heading("Figure certificates: DPOR over the shipped Figure 3/5/6/7 types");
    report.para(
        "Each program runs against the type the crates ship (EmuCasWord, RllLlSc, \
         WideVar, BoundedVar), every interleaving enumerated (spurious RSC failures \
         included), every distinct history checked against the figure's \
         specification. Negative controls must be caught with a replayable schedule.",
    );
    let mut t = Table::new(["certificate", "executions", "expected", "found", "schedule"]);
    for c in &r.certificates {
        let found = if c.outcome.capped {
            "capped"
        } else {
            verdict(c.outcome.violation.is_some())
        };
        t.row([
            c.name.clone(),
            c.outcome.executions.to_string(),
            verdict(c.expect_violation).to_string(),
            found.to_string(),
            match c.schedule_len() {
                0 => "-".to_string(),
                n => n.to_string(),
            },
        ]);
    }
    report.table(&t);
    report.heading("E13: DPOR model checking of the real providers");
    report.para(&format!(
        "Every registry provider, exhaustively explored under the cooperative \
         scheduler (DPOR + sleep sets; spurious RSC failures enumerated); every \
         distinct history checked against the Figure-2 specification. \
         quick = {}.",
        r.quick
    ));
    let mut t = Table::new([
        "provider",
        "config",
        "executions",
        "blocked",
        "unique histories",
        "verdict",
    ]);
    for row in &r.rows {
        for cr in &row.results {
            match &cr.outcome {
                None => {
                    t.row([row.provider, cr.config, "-", "-", "-", "skipped"]);
                }
                Some(out) => {
                    let verdict = if out.violation.is_some() {
                        "VIOLATION"
                    } else if out.capped {
                        "capped"
                    } else {
                        "linearizable"
                    };
                    t.row([
                        row.provider.to_string(),
                        cr.config.to_string(),
                        out.executions.to_string(),
                        out.sleep_blocked.to_string(),
                        out.unique_histories.to_string(),
                        verdict.to_string(),
                    ]);
                }
            }
        }
    }
    report.table(&t);
    report.para(&format!(
        "Pruning: naive DFS explores {} executions on {} where DPOR explores {} \
         (+{} abandoned) — a {:.2}x reduction (gate: >= {MIN_PRUNING_RATIO}x).",
        r.ratio.naive_executions,
        r.ratio.config,
        r.ratio.dpor_executions,
        r.ratio.dpor_sleep_blocked,
        r.ratio.ratio(),
    ));
    report.para(&format!(
        "Non-vacuity: the planted tag-drop provider was {} after {} executions \
         (counterexample schedule of {} decisions).",
        if r.planted.found { "caught" } else { "MISSED" },
        r.planted.executions,
        r.planted.schedule_len,
    ));
    report.para(&format!(
        "Multi-word LLX/SCX: the two-SCX overlap program conserved across {} \
         executions ({} blocked) on fig4-native — every interleaving of the \
         freeze/write/settle/release protocol — and the planted lost-freeze \
         domain was {} after {} executions (schedule of {} decisions, \
         deterministic across two explorations: {}).",
        r.llx.conserve.executions,
        r.llx.conserve.sleep_blocked,
        if r.llx.flawed_found { "caught" } else { "MISSED" },
        r.llx.flawed_executions,
        r.llx.flawed_schedule_len,
        r.llx.deterministic,
    ));
    report
}

/// JSON artifact for CI (`BENCH_modelcheck.json` is written by the
/// `exp_modelcheck` binary).
#[must_use]
pub fn to_json(r: &E13Results) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema_version\": 1,\n");
    s.push_str("  \"experiment\": \"modelcheck\",\n");
    s.push_str(&format!("  \"quick\": {},\n", r.quick));
    s.push_str("  \"certificates\": [\n");
    for (i, c) in r.certificates.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"executions\": {}, \"capped\": {}, \
             \"expected\": \"{}\", \"found\": \"{}\", \"schedule_len\": {}}}{}\n",
            c.name,
            c.outcome.executions,
            c.outcome.capped,
            verdict(c.expect_violation),
            verdict(c.outcome.violation.is_some()),
            c.schedule_len(),
            if i + 1 == r.certificates.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"providers\": [\n");
    for (i, row) in r.rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"provider\": \"{}\", \"configs\": [\n",
            row.provider
        ));
        for (j, cr) in row.results.iter().enumerate() {
            let comma = if j + 1 == row.results.len() { "" } else { "," };
            match &cr.outcome {
                None => s.push_str(&format!(
                    "      {{\"config\": \"{}\", \"skipped\": true}}{comma}\n",
                    cr.config
                )),
                Some(out) => s.push_str(&format!(
                    "      {{\"config\": \"{}\", \"skipped\": false, \"executions\": {}, \
                     \"sleep_blocked\": {}, \"unique_histories\": {}, \"lin_checks\": {}, \
                     \"steps\": {}, \"capped\": {}, \"violation\": {}}}{comma}\n",
                    cr.config,
                    out.executions,
                    out.sleep_blocked,
                    out.unique_histories,
                    out.lin_checks,
                    out.steps,
                    out.capped,
                    out.violation.is_some(),
                )),
            }
        }
        s.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 == r.rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"pruning\": {{\"provider\": \"{}\", \"config\": \"{}\", \
         \"naive_executions\": {}, \"dpor_executions\": {}, \"dpor_sleep_blocked\": {}, \
         \"ratio\": {:.4}, \"min_ratio\": {MIN_PRUNING_RATIO}}},\n",
        r.ratio.provider,
        r.ratio.config,
        r.ratio.naive_executions,
        r.ratio.dpor_executions,
        r.ratio.dpor_sleep_blocked,
        r.ratio.ratio(),
    ));
    s.push_str(&format!(
        "  \"planted\": {{\"found\": {}, \"executions\": {}, \"schedule_len\": {}}},\n",
        r.planted.found, r.planted.executions, r.planted.schedule_len,
    ));
    s.push_str(&format!(
        "  \"llx\": {{\"conserve_executions\": {}, \"conserve_blocked\": {}, \
         \"conserve_violation\": {}, \"conserve_capped\": {}, \"flawed_found\": {}, \
         \"flawed_executions\": {}, \"flawed_schedule_len\": {}, \"deterministic\": {}}}\n",
        r.llx.conserve.executions,
        r.llx.conserve.sleep_blocked,
        r.llx.conserve.violation.is_some(),
        r.llx.conserve.capped,
        r.llx.flawed_found,
        r.llx.flawed_executions,
        r.llx.flawed_schedule_len,
        r.llx.deterministic,
    ));
    s.push_str("}\n");
    s
}

/// Enforces the gates; panics (→ nonzero exit) on any failure.
pub fn enforce(r: &E13Results) {
    for c in &r.certificates {
        assert!(
            c.holds(),
            "certificate {} expected {} but found {} (capped: {}) — schedule: {:?}",
            c.name,
            verdict(c.expect_violation),
            verdict(c.outcome.violation.is_some()),
            c.outcome.capped,
            c.outcome.violation.as_ref().map(|v| &v.schedule),
        );
    }
    for row in &r.rows {
        for cr in &row.results {
            if let Some(out) = &cr.outcome {
                assert!(
                    out.violation.is_none(),
                    "{} violated linearizability on {} — schedule: {:?}",
                    row.provider,
                    cr.config,
                    out.violation.as_ref().map(|v| &v.schedule),
                );
                assert!(
                    !out.capped,
                    "{} did not finish {} within {MAX_EXECUTIONS} executions",
                    row.provider,
                    cr.config,
                );
            }
        }
        assert!(
            row.results.first().is_some_and(|cr| cr.outcome.is_some()),
            "{} must run the base configuration",
            row.provider,
        );
    }
    assert!(
        r.ratio.ratio() >= MIN_PRUNING_RATIO,
        "pruning ratio {:.2} below the {MIN_PRUNING_RATIO} gate ({} naive vs {}+{} DPOR)",
        r.ratio.ratio(),
        r.ratio.naive_executions,
        r.ratio.dpor_executions,
        r.ratio.dpor_sleep_blocked,
    );
    assert!(
        r.planted.found,
        "the planted tag-drop bug was not caught — the checker is vacuous"
    );
    assert!(
        r.llx.conserve.violation.is_none(),
        "the faithful LLX/SCX overlap program lost an update"
    );
    assert!(
        !r.llx.conserve.capped,
        "the LLX/SCX conservation exploration did not finish within {MAX_EXECUTIONS} executions"
    );
    assert!(
        r.llx.flawed_found,
        "the planted lost-freeze bug was not caught — multi-word commits are unchecked"
    );
    assert!(
        r.llx.deterministic,
        "the lost-freeze counterexample differed between explorations"
    );
}

/// Collect + render + enforce, for `exp_all`.
#[must_use]
pub fn run(quick: bool) -> Report {
    let r = collect(quick);
    let report = render(&r);
    enforce(&r);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_passes_all_gates() {
        let r = collect(true);
        assert_eq!(r.rows.len(), 11, "every registry entry is swept");
        enforce(&r);
        let json = to_json(&r);
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"planted\""));
        assert!(json.contains("\"llx\""));
        assert!(json.contains("\"flawed_found\": true"));
        assert!(json.contains("\"certificates\""));
        assert!(r.certificates.iter().any(|c| c.expect_violation));
    }
}
