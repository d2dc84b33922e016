//! **E9 — bounded-tag safety audit and the constant-time ablation**
//! (Theorem 5's mechanism vs. arXiv:1911.09671).
//!
//! Theorem 5's safety property is that the feedback mechanism never lets a
//! CAS "succeed when it should fail" — i.e. a (tag, cnt, pid) stamp is
//! never reused while some in-flight sequence could still match it. Two
//! audits:
//!
//! * **exactness under the tiniest universe**: N = 2, k = 1 gives only
//!   `2Nk + 1 = 5` tags. Millions of contended increments with zero lost
//!   or duplicated updates means no premature reuse ever happened (a
//!   single false-success CAS would break the count).
//! * **reuse-distance audit**: single-process stamp traces — the same
//!   (tag, cnt) pair must not recur within `Nk + 1` successive SCs to one
//!   variable (the paper's line-13/14 counter argument).
//!
//! Plus the **constant-time ablation**: the registry's `fig7-bounded`
//! (O(1) indexed tag queue), the same provider over the scan queue
//! (`Fig7Bounded<ScanQueue>`, rows labelled `fig7-bounded-scan`: Figure 7
//! line 10 as written — an O(Nk) scan per successful SC), and `constant`
//! (Blelloch–Wei, O(1) worst-case by construction) run the same
//! contended-exactness audit and a single-threaded worst-case SC latency
//! profile across domain sizes N. The deterministic gate: the scan
//! provider's tail latency must grow with N while the constant provider's
//! stays flat — the asymptotic gap the constant-time construction exists
//! to close, measured rather than asserted.
//!
//! The weak-primitive tier (`cas-from-swap`, `feb-llsc`) joins the
//! contended-exactness audit as a "cost of weakening the hardware"
//! column: the emulated LL/SC must be exactly as lossless as the
//! native-CAS disciplines.

use std::collections::HashMap;
use std::time::Instant;

use nbsp_core::bounded::BoundedDomain;
use nbsp_core::provider::{ConstantTime, Fig7Bounded};
use nbsp_core::{with_provider, LlScVar, Native, Provider, ProviderId, ScanQueue};

use crate::report::{Report, Table};
use crate::runner::ProviderFilter;

/// Result of the contended exactness audit.
#[derive(Clone, Copy, Debug)]
pub struct ExactnessAudit {
    /// Increments attempted (and, if sound, applied).
    pub expected: u64,
    /// Final counter value.
    pub observed: u64,
    /// Tag universe size (2Nk + 1).
    pub universe: usize,
}

/// Runs `per_thread` increments on each of 2 threads with N = 2, k = 1.
/// (Direct `BoundedDomain` use, not a registry entry: the registry's `k`
/// is sized for nested structure operations, and this audit wants the
/// tightest universe the construction admits.)
#[must_use]
pub fn exactness_audit(per_thread: u64) -> ExactnessAudit {
    let d = BoundedDomain::<Native>::new(2, 1).unwrap();
    let var = d.var(0).unwrap();
    std::thread::scope(|s| {
        for t in 0..2 {
            let var = &var;
            let mut me = d.proc(t);
            s.spawn(move || {
                for _ in 0..per_thread {
                    loop {
                        let (v, keep) = var.ll(&Native, &mut me);
                        if var.sc(&Native, &mut me, keep, v + 1) {
                            break;
                        }
                    }
                }
            });
        }
    });
    ExactnessAudit {
        expected: 2 * per_thread,
        observed: var.peek(&Native),
        universe: (2 * 2) + 1,
    }
}

/// Single-process stamp trace: returns the minimum distance (in successful
/// SCs) between two uses of the same (tag, cnt) pair on one variable.
#[must_use]
pub fn min_stamp_reuse_distance(n: usize, k: usize, ops: u64) -> u64 {
    let d = BoundedDomain::<Native>::new(n, k).unwrap();
    let var = d.var(0).unwrap();
    let mut me = d.proc(0);
    let mut last_seen: HashMap<(u64, u64), u64> = HashMap::new();
    let mut min_dist = u64::MAX;
    for i in 0..ops {
        let (v, keep) = var.ll(&Native, &mut me);
        assert!(var.sc(&Native, &mut me, keep, (v + 1) & 0xFF));
        let (tag, cnt, _pid) = var.current_stamp(&Native);
        if let Some(prev) = last_seen.insert((tag, cnt), i) {
            min_dist = min_dist.min(i - prev);
        }
    }
    min_dist
}

// ---------------------------------------------------------------------------
// Constant-time ablation over registry providers.
// ---------------------------------------------------------------------------

/// The weak-primitive tier rides along through the contended-exactness
/// audit only — the "cost of weakening the hardware" column. The
/// emulations must be exactly as lossless as the native-CAS disciplines;
/// they are excluded from the latency profile and its growth gates, which
/// measure tag-queue maintenance these constructions don't have.
const WEAK: [ProviderId; 2] = [ProviderId::CasFromSwap, ProviderId::FebLlSc];

/// Contended exactness for one registry provider.
#[derive(Clone, Copy, Debug)]
pub struct ProviderExactness {
    /// Registry name of the provider audited.
    pub provider: &'static str,
    /// Increments attempted across both writers.
    pub expected: u64,
    /// Final value read back.
    pub observed: u64,
}

/// One point of the worst-case SC latency profile.
#[derive(Clone, Copy, Debug)]
pub struct LatencyRow {
    /// Registry name of the provider measured.
    pub provider: &'static str,
    /// Domain size (number of processes the domain is built for).
    pub n: usize,
    /// Median single-op `sc` latency in nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile single-op `sc` latency in nanoseconds.
    pub p99_ns: u64,
    /// Worst single-op `sc` latency in nanoseconds.
    pub max_ns: u64,
}

/// Everything E9 measures, for rendering and the JSON artifact.
#[derive(Clone, Debug)]
pub struct E9Results {
    /// The N = 2, k = 1 tiny-universe audit.
    pub audit: ExactnessAudit,
    /// (n, k, measured min stamp-reuse distance) rows.
    pub reuse: Vec<(usize, usize, u64)>,
    /// Per-provider contended exactness.
    pub exactness: Vec<ProviderExactness>,
    /// The latency profile, provider-major then N-ascending.
    pub latency: Vec<LatencyRow>,
    /// Per-provider p99 growth ratio: p99 at the largest N over p99 at
    /// the smallest N. Flat providers sit near 1; the scan provider's
    /// grows with the tag universe.
    pub growth: Vec<(&'static str, f64)>,
    /// Whether this was a `--quick` run (smaller N sweep, looser gates).
    pub quick: bool,
}

/// Two writers race `per_thread` increments each; a third context reads
/// the final value. Exactness means no SC ever falsely succeeded.
fn provider_exactness<P: Provider>(provider: &'static str, per_thread: u64) -> ProviderExactness {
    let env = P::env(3).expect("provider env");
    let var = P::var(&env, 0).expect("provider var");
    std::thread::scope(|s| {
        for t in 0..2 {
            let var = &var;
            let mut tc = P::thread_ctx(&env, t);
            s.spawn(move || {
                let mut ctx = P::ctx(&mut tc);
                let mut keep = <P::Var as LlScVar>::Keep::default();
                for _ in 0..per_thread {
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
    let mut tc = P::thread_ctx(&env, 2);
    let mut ctx = P::ctx(&mut tc);
    ProviderExactness {
        provider,
        expected: 2 * per_thread,
        observed: var.read(&mut ctx),
    }
}

/// Single-threaded worst-case SC latency at domain size `n`: the LL sits
/// outside the timer, so the sample is exactly one `sc` call — which is
/// where Figure 7 pays its per-success tag-queue maintenance (O(1)
/// indexed, O(Nk) for the paper-literal scan) and where the constant-time
/// construction pays its fixed announce-scan + filter step.
fn sc_latency_profile<P: Provider>(n: usize, ops: u64) -> (u64, u64, u64) {
    let env = P::env(n).expect("provider env");
    let var = P::var(&env, 0).expect("provider var");
    let mut tc = P::thread_ctx(&env, 0);
    let mut ctx = P::ctx(&mut tc);
    let mut keep = <P::Var as LlScVar>::Keep::default();
    let mut samples: Vec<u64> = Vec::with_capacity(ops as usize);
    for _ in 0..ops {
        let v = var.ll(&mut ctx, &mut keep);
        let start = Instant::now();
        let ok = var.sc(&mut ctx, &mut keep, (v + 1) & 0xFF);
        samples.push(start.elapsed().as_nanos() as u64);
        assert!(ok, "uncontended sc failed");
    }
    samples.sort_unstable();
    let len = samples.len();
    let p99 = samples[((len * 99) / 100).min(len - 1)];
    (samples[len / 2], p99, samples[len - 1])
}

/// Exactness and the latency profile for one ablation provider, in rows
/// labelled `provider`.
fn ablate<P: Provider>(
    provider: &'static str,
    per_thread: u64,
    sizes: &[usize],
    ops: u64,
    exactness: &mut Vec<ProviderExactness>,
    latency: &mut Vec<LatencyRow>,
) {
    exactness.push(provider_exactness::<P>(provider, per_thread));
    for &n in sizes {
        let (p50_ns, p99_ns, max_ns) = sc_latency_profile::<P>(n, ops);
        latency.push(LatencyRow {
            provider,
            n,
            p50_ns,
            p99_ns,
            max_ns,
        });
    }
}

/// Runs every E9 measurement. `filter` restricts which ablation providers
/// run (`--provider` on `exp_bounded_audit`; `fig7-bounded` selects both
/// of its tag queues); the growth gates are only meaningful on an
/// unrestricted run.
#[must_use]
pub fn collect(per_thread: u64, quick: bool, filter: &ProviderFilter) -> E9Results {
    let audit = exactness_audit(per_thread);
    let reuse_ops = if quick { 10_000 } else { 20_000 };
    let reuse = [(2usize, 1usize), (2, 2), (4, 2), (8, 4)]
        .into_iter()
        .map(|(n, k)| (n, k, min_stamp_reuse_distance(n, k, reuse_ops)))
        .collect();

    let sizes: &[usize] = if quick { &[2, 128] } else { &[2, 16, 128, 512] };
    let (exact_per_thread, latency_ops) = if quick { (20_000, 8_000) } else { (100_000, 40_000) };
    let mut exactness = Vec::new();
    let mut latency = Vec::new();
    // Figure 7 with the O(1) indexed tag queue, Figure 7 with the
    // paper-literal O(Nk) scan, and the Blelloch–Wei construction.
    let (e, l) = (&mut exactness, &mut latency);
    let (per, ops) = (exact_per_thread, latency_ops);
    let (fig7, constant) = (ProviderId::Fig7Bounded, ProviderId::ConstantTime);
    if filter.allows(fig7) {
        ablate::<Fig7Bounded>(fig7.name(), per, sizes, ops, e, l);
        ablate::<Fig7Bounded<ScanQueue>>("fig7-bounded-scan", per, sizes, ops, e, l);
    }
    if filter.allows(constant) {
        ablate::<ConstantTime>(constant.name(), per, sizes, ops, e, l);
    }
    for id in WEAK {
        if !filter.allows(id) {
            continue;
        }
        macro_rules! weak_one {
            ($p:ty) => {
                exactness.push(provider_exactness::<$p>(id.name(), exact_per_thread))
            };
        }
        with_provider!(id, weak_one);
    }

    // Rows are provider-major, N-ascending: each provider's first and last
    // rows are its smallest and largest N.
    let growth = latency
        .chunk_by(|a, b| a.provider == b.provider)
        .map(|rows| {
            let (first, last) = (&rows[0], &rows[rows.len() - 1]);
            (first.provider, last.p99_ns as f64 / first.p99_ns as f64)
        })
        .collect();

    E9Results {
        audit,
        reuse,
        exactness,
        latency,
        growth,
        quick,
    }
}

fn growth_of(r: &E9Results, provider: &str) -> Option<f64> {
    r.growth.iter().find(|(p, _)| *p == provider).map(|&(_, g)| g)
}

/// The deterministic ablation gates, named. Quick runs use looser
/// thresholds (the quick N sweep tops out at 128, so the scan's growth is
/// real but smaller). Empty if the `--provider` filter removed a needed
/// provider.
#[must_use]
pub fn gates(r: &E9Results) -> Vec<(&'static str, bool)> {
    let (Some(scan), Some(constant)) = (
        growth_of(r, "fig7-bounded-scan"),
        growth_of(r, "constant"),
    ) else {
        return Vec::new();
    };
    let (scan_min, flat_max, sep) = if r.quick { (1.5, 3.0, 1.5) } else { (3.0, 3.0, 2.0) };
    vec![
        ("scan_grows", scan > scan_min),
        ("constant_flat", constant < flat_max),
        ("separation", scan > sep * constant),
    ]
}

/// Panics (with the measured ratios) if any ablation gate fails — the
/// harness's `catch_unwind` turns that into a failing exit code.
pub fn enforce(r: &E9Results) {
    for (name, ok) in gates(r) {
        assert!(
            ok,
            "E9 gate '{name}' failed: growth ratios {:?} (quick = {})",
            r.growth, r.quick
        );
    }
    for e in &r.exactness {
        assert_eq!(
            e.expected, e.observed,
            "provider {} lost updates under contention",
            e.provider
        );
    }
}

/// Renders the E9 report.
#[must_use]
pub fn render(r: &E9Results) -> Report {
    let mut report = Report::new();
    report.heading("E9 — bounded-tag safety audit (Theorem 5) and constant-time ablation");
    report.para(&format!(
        "Contended exactness, N = 2, k = 1 (tag universe of {} — the \
         hardest configuration): {} increments applied, {} observed, {} \
         lost. A single premature tag reuse would have produced a \
         false-success CAS and corrupted the count.",
        r.audit.universe,
        r.audit.expected,
        r.audit.observed,
        r.audit.expected - r.audit.observed,
    ));

    report.para(
        "Single-process stamp reuse distance — the paper's counter \
         mechanism guarantees a (tag, cnt) pair cannot recur within Nk + 1 \
         successful SCs to one variable:",
    );
    let mut t = Table::new([
        "N",
        "k",
        "guaranteed min distance (Nk+1)",
        "measured min distance",
    ]);
    for &(n, k, measured) in &r.reuse {
        t.row([
            n.to_string(),
            k.to_string(),
            (n * k + 1).to_string(),
            if measured == u64::MAX {
                "no reuse observed".to_string()
            } else {
                measured.to_string()
            },
        ]);
    }
    report.table(&t);

    report.para(
        "Constant-time ablation: the same contended-exactness audit over \
         the three tag-recycling disciplines (2 writers, 1 reader). The \
         cas-from-swap and feb-llsc rows are the weak-primitive tier \
         riding the same audit — weakening the hardware may cost \
         throughput, never exactness:",
    );
    let mut t = Table::new(["provider", "expected", "observed"]);
    for e in &r.exactness {
        t.row([
            e.provider.to_string(),
            e.expected.to_string(),
            e.observed.to_string(),
        ]);
    }
    report.table(&t);

    report.para(
        "Worst-case single-op SC latency vs domain size N, single-threaded \
         so per-success queue maintenance is the only thing that varies: \
         Figure 7 with the indexed tag queue is O(1); Figure 7 with the \
         paper-literal scan (line 10 as written) pays O(Nk) per success; \
         the Blelloch–Wei construction is O(1) worst-case by design \
         (arXiv:1911.09671) — its per-SC work is one announce-cell read \
         plus a bounded filter step, independent of N:",
    );
    let mut t = Table::new(["provider", "N", "sc p50", "sc p99", "sc max"]);
    for row in &r.latency {
        t.row([
            row.provider.to_string(),
            row.n.to_string(),
            format!("{} ns", row.p50_ns),
            format!("{} ns", row.p99_ns),
            format!("{} ns", row.max_ns),
        ]);
    }
    report.table(&t);

    let growth = r
        .growth
        .iter()
        .map(|(p, g)| format!("{p} {g:.2}x"))
        .collect::<Vec<_>>()
        .join(", ");
    let gate_line = gates(r)
        .iter()
        .map(|(name, ok)| format!("{name}={}", if *ok { "ok" } else { "FAILED" }))
        .collect::<Vec<_>>()
        .join(", ");
    report.para(&format!(
        "p99 growth from N = {} to N = {}: {growth}. Gates: {}.",
        r.latency.first().map_or(0, |row| row.n),
        r.latency.last().map_or(0, |row| row.n),
        if gate_line.is_empty() { "skipped (--provider restricted)".to_string() } else { gate_line },
    ));
    report
}

/// JSON artifact for CI: the measured numbers plus the named gate
/// verdicts, so a workflow step can assert the gates held without
/// re-parsing the markdown.
#[must_use]
pub fn to_json(r: &E9Results) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema_version\": 1,\n");
    s.push_str("  \"experiment\": \"bounded_audit\",\n");
    s.push_str(&format!("  \"quick\": {},\n", r.quick));
    s.push_str(&format!(
        "  \"tiny_universe\": {{\"expected\": {}, \"observed\": {}, \"universe\": {}}},\n",
        r.audit.expected, r.audit.observed, r.audit.universe
    ));
    s.push_str("  \"exactness\": [\n");
    for (i, e) in r.exactness.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"provider\": \"{}\", \"expected\": {}, \"observed\": {}}}{}\n",
            e.provider,
            e.expected,
            e.observed,
            if i + 1 == r.exactness.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"sc_latency\": [\n");
    for (i, row) in r.latency.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"provider\": \"{}\", \"n\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}{}\n",
            row.provider,
            row.n,
            row.p50_ns,
            row.p99_ns,
            row.max_ns,
            if i + 1 == r.latency.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"growth\": {{{}}},\n",
        r.growth
            .iter()
            .map(|(p, g)| format!("\"{p}\": {g:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    s.push_str(&format!(
        "  \"gates\": {{{}}}\n",
        gates(r)
            .iter()
            .map(|(name, ok)| format!("\"{name}\": {ok}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    s.push_str("}\n");
    s
}

/// Runs E9: collect, render, and enforce the gates (panicking on
/// failure, after the report is built so the harness can still show it).
#[must_use]
pub fn run(per_thread: u64, quick: bool) -> Report {
    let r = collect(per_thread, quick, &ProviderFilter::default());
    let report = render(&r);
    enforce(&r);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactness_holds_at_minimum_universe() {
        let a = exactness_audit(30_000);
        assert_eq!(a.expected, a.observed, "lost updates under tiny universe");
        assert_eq!(a.universe, 5);
    }

    #[test]
    fn stamp_reuse_respects_the_counter_bound() {
        for (n, k) in [(2usize, 1usize), (4, 2)] {
            let d = min_stamp_reuse_distance(n, k, 10_000);
            assert!(
                d > (n * k) as u64,
                "stamp reused within Nk={} ops (distance {d})",
                n * k
            );
        }
    }

    #[test]
    fn every_ablation_provider_is_exact() {
        let r = collect(2_000, true, &ProviderFilter::default());
        for e in &r.exactness {
            assert_eq!(e.expected, e.observed, "provider {} lost updates", e.provider);
        }
        assert_eq!(r.exactness.len(), 3 + WEAK.len(), "three ablation rows + WEAK");
        for id in WEAK {
            assert!(
                r.exactness.iter().any(|e| e.provider == id.meta().name),
                "weak provider {id:?} missing from the exactness audit"
            );
        }
    }

    #[test]
    fn json_has_gates_and_latency() {
        let r = collect(1_000, true, &ProviderFilter::default());
        let json = to_json(&r);
        assert!(json.contains("\"gates\""));
        assert!(json.contains("\"constant\""));
        assert!(json.contains("fig7-bounded-scan"));
    }

    #[test]
    fn report_smoke() {
        let r = collect(2_000, true, &ProviderFilter::default());
        let md = render(&r).to_markdown();
        assert!(md.contains("E9"));
        assert!(md.contains("0 lost") || md.contains(" lost"));
        assert!(md.contains("constant"));
    }
}
