//! **E16 — the consensus-hierarchy portability matrix.**
//!
//! The paper closes the CAS ↔ RLL/RSC gap; the weak-primitive tier goes
//! two rungs further down the hierarchy — LL/SC from swap + fetch-add
//! (Khanchandani–Wattenhofer, arXiv:1802.03844) and from NB-FEB
//! (Ha–Tsigas–Anshus, arXiv:0811.1304). This experiment is the matrix's
//! certificate, in three sections:
//!
//! * **registry listing** — every provider with its capability bitset and
//!   tier, so the artifact records exactly which instruction set each
//!   construction needs (the portability matrix itself);
//! * **weak-provider stamps** — for each weak-primitive entry, an
//!   in-process conformance pass (LL/VL/SC sequencing, tag wraparound,
//!   two-writer linearization), a seeded differential check against the
//!   sequential LL/SC specification, and an exhaustive DPOR exploration
//!   of the E13 base configuration;
//! * **hierarchy ordering** — the E7-style throughput column over
//!   native CAS / cas-from-swap / feb-llsc, gated on the documented
//!   monotone cost of weakening the hardware (native ≥ swap+faa ≥ FEB,
//!   within `ORDER_SLACK`).
//!
//! The JSON artifact (`BENCH_hierarchy.json`) never records raw
//! throughput (that appears only in the markdown report). Its
//! schedule-deterministic fields — registry metadata, DPOR execution
//! counts and the `gates` verdicts — are byte-identical across same-seed
//! runs; the wall-clock ordering verdicts sit apart, under `ordering`.

use nbsp_check::{check, Mode};
use nbsp_core::{with_provider, LlScVar, Provider, ProviderId};

use crate::experiments::e13_modelcheck::{configs, MAX_EXECUTIONS};
use crate::measure::throughput;
use crate::report::{fmt_ops, Report, Table};

/// The weak-primitive tier, in registry order.
const WEAK: [ProviderId; 2] = [ProviderId::CasFromSwap, ProviderId::FebLlSc];

/// The hierarchy-ordering triple, strongest first: the native-CAS
/// Figure-4 construction, then each rung down the consensus hierarchy.
const ORDERING: [ProviderId; 3] = [
    ProviderId::Fig4Native,
    ProviderId::CasFromSwap,
    ProviderId::FebLlSc,
];

/// Thread counts for the ordering column (E7's sweep).
const THREADS: [usize; 3] = [1, 2, 4];

/// Ordering-gate slack: a higher rung passes if its aggregate throughput
/// is at least this fraction of the rung below it. The native-vs-weak gap
/// is ~2x and the swap-vs-FEB gap ~40% at best-of-[`REPS`], but a noisy
/// shared runner can still dent single cells; the slack absorbs that
/// without ever letting a genuine inversion (a *faster* lower rung)
/// through.
const ORDER_SLACK: f64 = 0.75;

/// Repetitions per throughput cell; the best run is kept. The ordering
/// gate is about intrinsic cost, so each rung deserves its
/// least-disturbed measurement (this also serves as warmup — cold first
/// cells were visibly depressed without it).
const REPS: usize = 3;

/// One registry entry of the portability matrix.
#[derive(Clone, Debug)]
pub struct Listing {
    /// Registry name.
    pub provider: &'static str,
    /// Process-model tier name.
    pub tier: &'static str,
    /// Required instruction set, rendered (`"cas+rll_rsc"` style).
    pub capability: String,
}

/// The deterministic verdicts for one weak-primitive provider.
#[derive(Clone, Debug)]
pub struct WeakStamp {
    /// Registry name.
    pub provider: &'static str,
    /// In-process conformance pass (sequencing, wraparound,
    /// two-writer linearization).
    pub conformance: bool,
    /// Seeded differential check against the sequential LL/SC spec.
    pub differential: bool,
    /// DPOR exploration of the E13 base configuration finished
    /// uncapped with no linearizability violation.
    pub modelcheck: bool,
    /// Completed DPOR executions (deterministic: exploration order
    /// depends only on the provider's access pattern).
    pub modelcheck_executions: u64,
}

/// One rung of the throughput column (markdown only, never JSON).
#[derive(Clone, Debug)]
pub struct TputRow {
    /// Registry name.
    pub provider: &'static str,
    /// (threads, ops/sec) cells, `THREADS` order.
    pub cells: Vec<(usize, f64)>,
    /// Sum of the cells — the ordering-gate metric.
    pub aggregate: f64,
}

/// Everything E16 measures.
#[derive(Clone, Debug)]
pub struct E16Results {
    /// The full registry, with capability and tier.
    pub listing: Vec<Listing>,
    /// Per-weak-provider verdicts.
    pub stamps: Vec<WeakStamp>,
    /// The ordering column, `ORDERING` order.
    pub tput: Vec<TputRow>,
    /// Whether this was a `--quick` run.
    pub quick: bool,
}

/// Non-panicking conformance pass: LL/VL/SC sequencing, tag wraparound,
/// and a two-writer linearization audit — the suite's core properties,
/// condensed to a verdict boolean so the artifact can carry it.
fn conformance_stamp<P: Provider>() -> bool {
    // Sequencing: an undisturbed sequence commits; a disturbed one fails
    // both VL and SC without writing; CL abandons cleanly.
    let env = match P::env(3) {
        Ok(env) => env,
        Err(_) => return false,
    };
    let var = match P::var(&env, 7) {
        Ok(var) => var,
        Err(_) => return false,
    };
    let mut tc0 = P::thread_ctx(&env, 0);
    let mut tc1 = P::thread_ctx(&env, 1);
    {
        let mut ctx0 = P::ctx(&mut tc0);
        let mut keep = <P::Var as LlScVar>::Keep::default();
        if var.ll(&mut ctx0, &mut keep) != 7 || !var.vl(&mut ctx0, &keep) {
            return false;
        }
        if !var.sc(&mut ctx0, &mut keep, 8) || var.read(&mut ctx0) != 8 {
            return false;
        }
    }
    {
        let mut ctx0 = P::ctx(&mut tc0);
        let mut ctx1 = P::ctx(&mut tc1);
        let mut keep0 = <P::Var as LlScVar>::Keep::default();
        let mut keep1 = <P::Var as LlScVar>::Keep::default();
        let _ = var.ll(&mut ctx0, &mut keep0);
        let _ = var.ll(&mut ctx1, &mut keep1);
        if !var.sc(&mut ctx1, &mut keep1, 9) {
            return false;
        }
        if var.vl(&mut ctx0, &keep0) || var.sc(&mut ctx0, &mut keep0, 10) {
            return false;
        }
        if var.read(&mut ctx0) != 9 {
            return false;
        }
        let mut keep = <P::Var as LlScVar>::Keep::default();
        let _ = var.ll(&mut ctx0, &mut keep);
        var.cl(&mut ctx0, &mut keep);
        let mut keep = <P::Var as LlScVar>::Keep::default();
        let v = var.ll(&mut ctx0, &mut keep);
        if !var.sc(&mut ctx0, &mut keep, v + 1) || var.read(&mut ctx0) != 10 {
            return false;
        }
    }

    // Wraparound: enough sequential commits to cycle the provider's tag
    // universe several times over.
    {
        let mut ctx0 = P::ctx(&mut tc0);
        let mask = var.max_val().min(0xFFFF);
        let base = var.read(&mut ctx0);
        for i in 0..3_000u64 {
            let mut keep = <P::Var as LlScVar>::Keep::default();
            let v = var.ll(&mut ctx0, &mut keep);
            if v != (base + i) & mask || !var.sc(&mut ctx0, &mut keep, (base + i + 1) & mask) {
                return false;
            }
        }
    }

    // Linearization: two racing writers; the final count must be exact
    // (a lost update would mean a falsely-successful SC).
    const WRITERS: usize = 2;
    const PER_WRITER: u64 = 2_000;
    let env = match P::env(WRITERS + 1) {
        Ok(env) => env,
        Err(_) => return false,
    };
    let var = match P::var(&env, 0) {
        Ok(var) => var,
        Err(_) => return false,
    };
    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let var = &var;
            let mut tc = P::thread_ctx(&env, t);
            s.spawn(move || {
                let mut ctx = P::ctx(&mut tc);
                let mut keep = <P::Var as LlScVar>::Keep::default();
                for _ in 0..PER_WRITER {
                    loop {
                        let v = var.ll(&mut ctx, &mut keep);
                        if var.sc(&mut ctx, &mut keep, v + 1) {
                            break;
                        }
                    }
                }
            });
        }
    });
    let mut tc = P::thread_ctx(&env, WRITERS);
    let mut ctx = P::ctx(&mut tc);
    var.read(&mut ctx) == WRITERS as u64 * PER_WRITER
}

/// Seeded differential check against the sequential LL/SC specification:
/// an LCG drives interleaved sequences on two contexts and every read,
/// VL verdict, and SC verdict must match the model (value plus a
/// version counter bumped per committed SC). Entirely single-threaded,
/// so the expected verdicts are exact — the contract's spurious-failure
/// allowance is never exercised by this schedule.
fn differential_stamp<P: Provider>() -> bool {
    let env = match P::env(2) {
        Ok(env) => env,
        Err(_) => return false,
    };
    let var = match P::var(&env, 0) {
        Ok(var) => var,
        Err(_) => return false,
    };
    let mut tc0 = P::thread_ctx(&env, 0);
    let mut tc1 = P::thread_ctx(&env, 1);
    let mut ctx0 = P::ctx(&mut tc0);
    let mut ctx1 = P::ctx(&mut tc1);

    let mut model: u64 = 0;
    let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..600 {
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        match (lcg >> 60) % 4 {
            0 => {
                // Undisturbed sequence on context 0: must commit.
                let mut keep = <P::Var as LlScVar>::Keep::default();
                if var.ll(&mut ctx0, &mut keep) != model {
                    return false;
                }
                model = (model + 1) & 0xFFFF;
                if !var.sc(&mut ctx0, &mut keep, model) {
                    return false;
                }
            }
            1 => {
                // Interference: 0 links, 1 commits, 0's VL and SC must
                // both fail and the failed SC must not write.
                let mut keep0 = <P::Var as LlScVar>::Keep::default();
                let mut keep1 = <P::Var as LlScVar>::Keep::default();
                if var.ll(&mut ctx0, &mut keep0) != model {
                    return false;
                }
                let _ = var.ll(&mut ctx1, &mut keep1);
                model = (model + 1) & 0xFFFF;
                if !var.sc(&mut ctx1, &mut keep1, model) {
                    return false;
                }
                if var.vl(&mut ctx0, &keep0) || var.sc(&mut ctx0, &mut keep0, 0xDEAD) {
                    return false;
                }
            }
            2 => {
                // Reads on both contexts agree with the model.
                if var.read(&mut ctx0) != model || var.read(&mut ctx1) != model {
                    return false;
                }
            }
            _ => {
                // CL abandons without poisoning the next sequence.
                let mut keep = <P::Var as LlScVar>::Keep::default();
                let _ = var.ll(&mut ctx1, &mut keep);
                var.cl(&mut ctx1, &mut keep);
                let mut keep = <P::Var as LlScVar>::Keep::default();
                if var.ll(&mut ctx1, &mut keep) != model {
                    return false;
                }
                model = (model + 1) & 0xFFFF;
                if !var.sc(&mut ctx1, &mut keep, model) {
                    return false;
                }
            }
        }
    }
    var.read(&mut ctx0) == model
}

/// DPOR stamp: exhaustively explore the E13 base configuration (the
/// 2-process LL/SC race with a spurious-failure budget) and report
/// (passed, completed executions).
fn modelcheck_stamp<P: Provider>() -> (bool, u64) {
    let cfg = &configs()[0];
    match check::<P>(&cfg.program, Mode::Dpor, MAX_EXECUTIONS) {
        Ok(out) => (out.violation.is_none() && !out.capped, out.executions),
        Err(_) => (false, 0),
    }
}

/// Contended LL/SC increments — the E7 counter workload, without the
/// telemetry sessions (E16 gates on ordering, not absolute numbers).
/// Best of [`REPS`] runs.
fn counter_tput<P: Provider>(threads: usize, per_thread: u64) -> f64 {
    let mut best = 0.0f64;
    // Fresh env per repetition: a provider's per-process slots are
    // claimed once per environment, so reps cannot share one.
    for _ in 0..REPS {
        let env = P::env(threads).expect("provider env");
        let var = P::var(&env, 0).expect("provider var");
        let t = throughput(threads, per_thread, |tid| {
            let var = &var;
            let mut tc = P::thread_ctx(&env, tid);
            move || {
                let mut ctx = P::ctx(&mut tc);
                let mut keep = <P::Var as LlScVar>::Keep::default();
                loop {
                    let v = var.ll(&mut ctx, &mut keep);
                    if var.sc(&mut ctx, &mut keep, (v + 1) & 0xFFFF) {
                        break;
                    }
                }
            }
        });
        best = best.max(t);
    }
    best
}

/// Runs every E16 measurement.
#[must_use]
pub fn collect(iters: u64, quick: bool) -> E16Results {
    let listing = ProviderId::ALL
        .iter()
        .map(|id| {
            let meta = id.meta();
            Listing {
                provider: meta.name,
                tier: meta.tier.name(),
                capability: meta.capability.to_string(),
            }
        })
        .collect();

    let mut stamps = Vec::new();
    for id in WEAK {
        macro_rules! stamp_one {
            ($p:ty) => {{
                let (modelcheck, modelcheck_executions) = modelcheck_stamp::<$p>();
                stamps.push(WeakStamp {
                    provider: id.meta().name,
                    conformance: conformance_stamp::<$p>(),
                    differential: differential_stamp::<$p>(),
                    modelcheck,
                    modelcheck_executions,
                });
            }};
        }
        with_provider!(id, stamp_one);
    }

    let mut tput = Vec::new();
    for id in ORDERING {
        macro_rules! tput_one {
            ($p:ty) => {{
                let cells: Vec<(usize, f64)> = THREADS
                    .iter()
                    .map(|&n| (n, counter_tput::<$p>(n, iters / n as u64)))
                    .collect();
                let aggregate = cells.iter().map(|&(_, t)| t).sum();
                tput.push(TputRow {
                    provider: id.meta().name,
                    cells,
                    aggregate,
                });
            }};
        }
        with_provider!(id, tput_one);
    }

    E16Results {
        listing,
        stamps,
        tput,
        quick,
    }
}

/// The schedule-deterministic gate verdicts: the registry count and
/// every weak-provider stamp.
#[must_use]
pub fn gates(r: &E16Results) -> Vec<(String, bool)> {
    let mut gates = vec![(
        "registry_fully_listed".to_string(),
        r.listing.len() == ProviderId::ALL.len(),
    )];
    for s in &r.stamps {
        gates.push((format!("{}_conformance", s.provider), s.conformance));
        gates.push((format!("{}_differential", s.provider), s.differential));
        gates.push((format!("{}_modelcheck", s.provider), s.modelcheck));
    }
    gates
}

/// The wall-clock gate verdicts: the monotone hierarchy ordering (each
/// rung at least `ORDER_SLACK` of the rung below it on aggregate
/// throughput). Gated like the others, but a measurement, so two runs
/// may disagree.
#[must_use]
pub fn ordering(r: &E16Results) -> Vec<(String, bool)> {
    r.tput
        .windows(2)
        .map(|pair| {
            (
                format!("{}_ge_{}", pair[0].provider, pair[1].provider),
                pair[0].aggregate >= ORDER_SLACK * pair[1].aggregate,
            )
        })
        .collect()
}

/// Panics (naming the gate) on any failed verdict, ordering included.
pub fn enforce(r: &E16Results) {
    for (name, ok) in gates(r).into_iter().chain(ordering(r)) {
        assert!(ok, "E16 gate '{name}' failed (quick = {})", r.quick);
    }
}

/// Renders the E16 report (including the raw throughput cells the JSON
/// deliberately omits).
#[must_use]
pub fn render(r: &E16Results) -> Report {
    let mut report = Report::new();
    report.heading("E16 — consensus-hierarchy portability matrix");
    report.para(
        "Every registry provider with the instruction set it requires and \
         its process-model tier. The weak-primitive tier runs on machines \
         with no CAS and no LL/SC at all — swap + fetch-add \
         (arXiv:1802.03844) and NB-FEB (arXiv:0811.1304):",
    );
    let mut t = Table::new(["provider", "tier", "instruction set"]);
    for l in &r.listing {
        t.row([l.provider, l.tier, l.capability.as_str()]);
    }
    report.table(&t);

    report.para(
        "Weak-provider stamps: in-process conformance (sequencing, \
         wraparound, two-writer linearization), a seeded differential \
         check against the sequential LL/SC specification, and exhaustive \
         DPOR of the E13 base configuration:",
    );
    let mut t = Table::new(["provider", "conformance", "differential", "DPOR", "executions"]);
    for s in &r.stamps {
        t.row([
            s.provider.to_string(),
            s.conformance.to_string(),
            s.differential.to_string(),
            s.modelcheck.to_string(),
            s.modelcheck_executions.to_string(),
        ]);
    }
    report.table(&t);

    report.para(
        "The cost of weakening the hardware: contended LL/SC increments \
         (the E7 counter workload) down the hierarchy. The gate is the \
         documented monotone ordering — native CAS at least as fast as \
         cas-from-swap, which is at least as fast as feb-llsc (the \
         emulations serialise every write through a ticket handoff or a \
         full/empty claim ring):",
    );
    let mut t = Table::new(["provider", "throughput 1/2/4 threads", "aggregate"]);
    for row in &r.tput {
        t.row([
            row.provider.to_string(),
            row.cells
                .iter()
                .map(|&(_, tp)| fmt_ops(tp))
                .collect::<Vec<_>>()
                .join(" / "),
            fmt_ops(row.aggregate),
        ]);
    }
    report.table(&t);

    let gate_line = gates(r)
        .iter()
        .chain(&ordering(r))
        .map(|(name, ok)| format!("{name}={}", if *ok { "ok" } else { "FAILED" }))
        .collect::<Vec<_>>()
        .join(", ");
    report.para(&format!("Gates: {gate_line}."));
    report
}

/// JSON artifact for CI. Never raw throughput: registry metadata, DPOR
/// execution counts and the deterministic verdicts (`gates`), which
/// same-seed runs reproduce byte for byte, plus the wall-clock ordering
/// verdicts on their own line (`ordering`), which they need not.
#[must_use]
pub fn to_json(r: &E16Results) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema_version\": 1,\n");
    s.push_str("  \"experiment\": \"hierarchy\",\n");
    s.push_str(&format!("  \"quick\": {},\n", r.quick));
    s.push_str(&format!("  \"provider_count\": {},\n", r.listing.len()));
    s.push_str("  \"providers\": [\n");
    for (i, l) in r.listing.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"tier\": \"{}\", \"capability\": \"{}\"}}{}\n",
            l.provider,
            l.tier,
            l.capability,
            if i + 1 == r.listing.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"weak_stamps\": [\n");
    for (i, st) in r.stamps.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"provider\": \"{}\", \"conformance\": {}, \"differential\": {}, \
             \"modelcheck\": {}, \"modelcheck_executions\": {}}}{}\n",
            st.provider,
            st.conformance,
            st.differential,
            st.modelcheck,
            st.modelcheck_executions,
            if i + 1 == r.stamps.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    let verdicts = |v: Vec<(String, bool)>| {
        v.iter()
            .map(|(name, ok)| format!("\"{name}\": {ok}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    s.push_str(&format!("  \"gates\": {{{}}},\n", verdicts(gates(r))));
    s.push_str(&format!("  \"ordering\": {{{}}}\n", verdicts(ordering(r))));
    s.push_str("}\n");
    s
}

/// Collect + render + enforce, for `exp_all`.
#[must_use]
pub fn run(iters: u64, quick: bool) -> Report {
    let r = collect(iters, quick);
    let report = render(&r);
    enforce(&r);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_passes_all_gates() {
        let r = collect(4_000, true);
        assert_eq!(r.listing.len(), 11, "every registry entry is listed");
        assert_eq!(r.stamps.len(), WEAK.len());
        // The deterministic verdicts only: the wall-clock `ordering` ones
        // flip when other tests share the host, and stay enforced by
        // `exp_hierarchy` and CI's artifact check.
        for (name, ok) in gates(&r) {
            assert!(ok, "E16 gate '{name}' failed");
        }
        let json = to_json(&r);
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"provider_count\": 11"));
        assert!(json.contains("\"cas-from-swap\""));
        assert!(json.contains("\"feb-llsc\""));
    }

    #[test]
    fn json_is_deterministic_across_runs() {
        // The artifact's byte-identity contract: two collections (whose
        // raw throughput necessarily differs) must serialise identically
        // outside the wall-clock `ordering` verdicts.
        let deterministic = |r: &E16Results| {
            to_json(r)
                .lines()
                .filter(|l| !l.trim_start().starts_with("\"ordering\""))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let a = collect(2_000, true);
        let b = collect(2_000, true);
        assert_eq!(deterministic(&a), deterministic(&b));
        assert!(to_json(&a).contains("\"ordering\": {\"fig4-native_ge_cas-from-swap\""));
    }

    #[test]
    fn weak_tier_capabilities_exclude_cas() {
        for id in WEAK {
            let cap = id.meta().capability.to_string();
            assert!(
                !cap.contains("cas") && !cap.contains("rll"),
                "{} claims a strong primitive: {cap}",
                id.meta().name
            );
        }
    }

    #[test]
    fn report_smoke() {
        let r = collect(2_000, true);
        let md = render(&r).to_markdown();
        assert!(md.contains("E16"));
        assert!(md.contains("cas-from-swap"));
        assert!(md.contains("feb-llsc"));
        assert!(md.contains("instruction set"));
    }
}
