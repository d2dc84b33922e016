//! **E12 — open-loop serving: latency percentiles and wait-free admission
//! control.**
//!
//! Every other experiment drives the structures in a *closed loop*, which
//! can only measure throughput. This one serves seeded open-loop traffic
//! through `nbsp-serve` and reports what the paper's primitives look like
//! from the outside of a system built on them: sojourn-time percentiles
//! measured against **intended** arrival stamps (no coordinated
//! omission), with and without the single-LL/SC-word token-bucket
//! admission controller.
//!
//! The sweep is arrival rate × structure × admission on/off at a fixed
//! virtual capacity (`WORKERS` virtual servers × 1/`SERVICE_MEAN_NS`
//! each). The headline claims the gate enforces:
//!
//! * **Open-loop accounting works** — at an offered load above capacity
//!   with admission off, the backlog must appear as latency (p99 ≫ the
//!   in-capacity p99), not as silently dropped arrival pressure.
//! * **Admission caps the tail** — at the highest offered rate, turning
//!   the token bucket on must yield a *lower* p99 than the same cell with
//!   admission off, for every structure. Sojourns are computed on a
//!   virtual clock from the seed, so this comparison is deterministic and
//!   is enforced in quick runs too.
//!
//! A supplementary ON/OFF-burst section shows the admission controller
//! absorbing a flash crowd whose *mean* rate is at capacity.
//!
//! ## The scaling curve: single ring vs sharded fabric
//!
//! A second sweep scales the pool, `workers ∈ {1, 2, 4, 8, 16}` ×
//! `{single-ring baseline, fabric}` × offered load `{0.6, 1.2}` × pool
//! capacity, admission on. Both architectures are the one serving
//! pipeline with a fixed pool: `Dispatch::Shared` and
//! `Dispatch::Sharded`. The virtual model charges every claim on the
//! shared dispatch cursor `workers ×` [`CLAIM_NS_PER_CONTENDER`], so the
//! single ring's dispatch capacity *falls* as `1/workers` while the pool
//! grows as `workers` — past ~6 workers dispatch, not service, is the
//! baseline's bottleneck. The fabric's per-shard cursors pay the
//! single-contender cost, and its steal rule moves work off a lagging
//! home shard for [`STEAL_NS`](nbsp_serve::fabric::STEAL_NS). Gates:
//!
//! * **(a) fabric wins at scale** — at 8 and 16 workers and 1.2× pool
//!   capacity (≥ 1.2× the baseline's capacity, since the baseline's
//!   capacity is capped by its saturated dispatch cursor), the fabric's
//!   p99 must beat the single ring's.
//! * **(b) flash crowd does not collapse** — the at-scale ON/OFF cells
//!   shed (> 0) and conserve (`generated == admitted + shed`,
//!   `completed == admitted`) for both architectures.
//! * **(c) stealing is exercised** — the fabric's (deterministic, model)
//!   steal count is nonzero under the bursty process at 8 and 16
//!   workers, and its striped admission records batch refills.
//!
//! All per-cell counters come from single-WLL
//! [`CellSnapshot`](nbsp_serve::CellSnapshot)s and the
//! run-level telemetry block from the Figure-6 [`WideTotals`] sink — no
//! racy sums anywhere on the reporting path. The run writes
//! `BENCH_serve.json` for trend tracking.

use nbsp_core::WideTotals;
use nbsp_serve::service::CLAIM_NS_PER_CONTENDER;
use nbsp_serve::{run_cell, AdmissionConfig, ArrivalProcess, CellResult, Dispatch, Pool, Workload};

use super::serving::{cell_config, cell_json, pool_capacity, RING_CAPACITY, SERVICE_MEAN_NS};
use crate::report::{fmt_ns, fmt_ops, Report, Table};
use crate::sinks::telemetry_json;

/// Seed for every cell (the cell configs differ, so streams do too).
const SEED: u64 = 0x5e12_5e12;

/// Real worker threads per cell; also the virtual server count.
const WORKERS: usize = 4;

/// Offered-load points as a fraction of virtual capacity: comfortably
/// under, near saturation, and 20% over.
const RHO: [f64; 3] = [0.5, 0.9, 1.2];

/// Token-bucket sustained rate as a fraction of capacity: sheds the
/// overload while leaving headroom for the burst to drain.
const ADMIT_RHO: f64 = 0.85;

/// Token-bucket depth: the burst absorbed without shedding.
const ADMIT_BURST: u64 = 256;

/// Virtual capacity in requests per second (4M req/s).
fn capacity_per_sec() -> f64 {
    pool_capacity(WORKERS)
}

fn admission() -> AdmissionConfig {
    AdmissionConfig {
        rate_per_sec: ADMIT_RHO * capacity_per_sec(),
        burst: ADMIT_BURST,
    }
}

/// Worker counts of the scaling sweep.
const SCALE_WORKERS: [usize; 5] = [1, 2, 4, 8, 16];

/// Offered load of the scaling sweep, as a fraction of *pool* capacity:
/// comfortably under, and 20% over (which is ≥ 1.2× the single ring's
/// own capacity — dispatch contention only lowers that).
const SCALE_RHO: [f64; 2] = [0.6, 1.2];

/// Batch size `B` of a striped global → shard token refill.
const REFILL_BATCH: u64 = 64;

/// The two dispatch architectures of the scaling sweep. Both get
/// [`RING_CAPACITY`] per ring: the single ring has one, the fabric one
/// per worker. Ring capacity does not enter the virtual model.
const SINGLE_RING: Dispatch = Dispatch::Shared;
const FABRIC: Dispatch = Dispatch::Sharded {
    refill_batch: REFILL_BATCH,
};

/// Scaling-sweep admission: the same 85%-of-capacity rule as the fixed
/// sweep, scaled to the cell's pool.
fn admission_for(workers: usize) -> AdmissionConfig {
    AdmissionConfig {
        rate_per_sec: ADMIT_RHO * pool_capacity(workers),
        burst: ADMIT_BURST,
    }
}

fn arch_name(arch: Dispatch) -> &'static str {
    match arch {
        Dispatch::Shared => "single_ring",
        Dispatch::Sharded { .. } => "fabric",
    }
}

/// One scaling cell's identity + outcome.
struct ScaleRow {
    arch: Dispatch,
    process: &'static str,
    workers: usize,
    rate_per_sec: f64,
    result: CellResult,
}

fn run_scale_one(
    arch: Dispatch,
    workers: usize,
    process: ArrivalProcess,
    requests: u64,
    sink: &WideTotals,
) -> ScaleRow {
    let cfg = cell_config(
        SEED,
        process,
        Workload::Counter,
        Pool::Fixed(workers),
        arch,
        requests,
        Some(admission_for(workers)),
    );
    let result = run_cell(&cfg, Some(sink));
    eprintln!(
        "[e12_serve] scale {} w={} {} rate={}: p99={} shed={} steals={} refills={}",
        arch_name(arch),
        workers,
        process.name(),
        fmt_ops(process.mean_rate_per_sec()),
        fmt_ns(result.p99_ns as f64),
        result.snapshot.shed,
        result.snapshot.steals,
        result.snapshot.refills,
    );
    ScaleRow {
        arch,
        process: process.name(),
        workers,
        rate_per_sec: process.mean_rate_per_sec(),
        result,
    }
}

/// The at-scale flash crowd: 2× pool-capacity ON bursts, 50/50 duty.
fn scale_onoff(workers: usize) -> ArrivalProcess {
    ArrivalProcess::OnOff {
        on_rate_per_sec: 2.0 * pool_capacity(workers),
        on_mean_ns: 50_000.0,
        off_mean_ns: 50_000.0,
    }
}

fn scale_find<'a>(
    rows: &'a [ScaleRow],
    arch: Dispatch,
    workers: usize,
    rate: f64,
    process: &str,
) -> &'a ScaleRow {
    rows.iter()
        .find(|r| {
            r.arch == arch
                && r.workers == workers
                && r.process == process
                && (r.rate_per_sec - rate).abs() < 1.0
        })
        .expect("scaling cell missing")
}

/// One sweep cell's identity + outcome, as serialized into the JSON.
struct CellRow {
    process: &'static str,
    rate_per_sec: f64,
    structure: &'static str,
    admission: bool,
    result: CellResult,
}

fn run_one(
    process: ArrivalProcess,
    workload: Workload,
    requests: u64,
    admit: bool,
    sink: &WideTotals,
) -> CellRow {
    let cfg = cell_config(
        SEED,
        process,
        workload,
        Pool::Fixed(WORKERS),
        Dispatch::Shared,
        requests,
        admit.then(admission),
    );
    let result = run_cell(&cfg, Some(sink));
    eprintln!(
        "[e12_serve] {} rate={} {} admission={}: p50={} p99={} shed={}/{}",
        process.name(),
        fmt_ops(process.mean_rate_per_sec()),
        workload.name(),
        if admit { "on" } else { "off" },
        fmt_ns(result.p50_ns as f64),
        fmt_ns(result.p99_ns as f64),
        result.snapshot.shed,
        result.snapshot.generated(),
    );
    CellRow {
        process: process.name(),
        rate_per_sec: process.mean_rate_per_sec(),
        structure: workload.name(),
        admission: admit,
        result,
    }
}

fn to_json(rows: &[CellRow], scale: &[ScaleRow], requests: u64, sink: &WideTotals) -> String {
    let adm = admission();
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema_version\": 2,\n");
    s.push_str("  \"experiment\": \"serve\",\n");
    s.push_str(&format!("  \"seed\": {SEED},\n"));
    s.push_str(&format!("  \"workers\": {WORKERS},\n"));
    s.push_str(&format!("  \"requests_per_cell\": {requests},\n"));
    s.push_str(&format!("  \"service_mean_ns\": {SERVICE_MEAN_NS},\n"));
    s.push_str(&format!(
        "  \"admission\": {{\"rate_per_sec\": {:.1}, \"burst\": {}}},\n",
        adm.rate_per_sec, adm.burst
    ));
    s.push_str(&format!(
        "  \"fabric\": {{\"claim_ns_per_contender\": {CLAIM_NS_PER_CONTENDER}, \
         \"steal_ns\": {}, \"ring_capacity\": {RING_CAPACITY}, \
         \"refill_batch\": {REFILL_BATCH}}},\n",
        nbsp_serve::fabric::STEAL_NS
    ));
    s.push_str("  \"latency_reference\": \"intended_arrival\",\n");
    s.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let snap = &r.result.snapshot;
        s.push_str(&format!(
            "    {{\"process\": \"{}\", \"rate_per_sec\": {:.1}, \"structure\": \"{}\", \
             \"admission\": {}, \"generated\": {}, \"admitted\": {}, \"shed\": {}, \
             \"completed\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \
             \"p999_ns\": {}}}{}\n",
            r.process,
            r.rate_per_sec,
            r.structure,
            r.admission,
            snap.generated(),
            snap.admitted,
            snap.shed,
            snap.completed,
            r.result.p50_ns,
            r.result.p95_ns,
            r.result.p99_ns,
            r.result.p999_ns,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"scaling\": [\n");
    for (i, r) in scale.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"arch\": \"{}\", \"process\": \"{}\", \"workers\": {}, \
             \"rate_per_sec\": {:.1}, {}}}{}\n",
            arch_name(r.arch),
            r.process,
            r.workers,
            r.rate_per_sec,
            cell_json(&r.result),
            if i + 1 == scale.len() { "" } else { "," },
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&telemetry_json("  ", sink));
    s.push_str("\n}\n");
    s
}

fn find<'a>(rows: &'a [CellRow], structure: &str, rate: f64, admission: bool) -> &'a CellRow {
    rows.iter()
        .find(|r| {
            r.structure == structure
                && r.admission == admission
                && (r.rate_per_sec - rate).abs() < 1.0
                && r.process == "poisson"
        })
        .expect("sweep cell missing")
}

/// Runs the E12 sweep with `requests` generated per cell, writes
/// `BENCH_serve.json`, and returns the report.
///
/// # Panics
///
/// Panics (failing the experiment) if the open-loop overload signature or
/// the admission p99 gate does not hold, or if the JSON cannot be
/// written.
pub fn run(requests: u64) -> Report {
    let sink = WideTotals::with_all_slots().expect("telemetry sink");
    let mut rows: Vec<CellRow> = Vec::new();
    for workload in Workload::ALL {
        for rho in RHO {
            let process = ArrivalProcess::Poisson {
                rate_per_sec: rho * capacity_per_sec(),
            };
            for admit in [false, true] {
                rows.push(run_one(process, workload, requests, admit, &sink));
            }
        }
    }
    // Flash crowd: 2x-capacity ON bursts, 50/50 duty cycle, so the mean
    // offered rate sits exactly at capacity but arrivals come in slabs.
    let onoff = ArrivalProcess::OnOff {
        on_rate_per_sec: 2.0 * capacity_per_sec(),
        on_mean_ns: 50_000.0,
        off_mean_ns: 50_000.0,
    };
    for admit in [false, true] {
        rows.push(run_one(onoff, Workload::Counter, requests, admit, &sink));
    }

    // The scaling sweep: pool size × architecture × offered load,
    // admission always on (the scaled 85%-of-pool rule).
    let mut scale: Vec<ScaleRow> = Vec::new();
    for w in SCALE_WORKERS {
        for rho in SCALE_RHO {
            let process = ArrivalProcess::Poisson {
                rate_per_sec: rho * pool_capacity(w),
            };
            for arch in [SINGLE_RING, FABRIC] {
                scale.push(run_scale_one(arch, w, process, requests, &sink));
            }
        }
    }
    // Flash crowd at scale: both architectures at 8 workers (collapse
    // gate), fabric again at 16 (steal gate at the top of the curve).
    scale.push(run_scale_one(SINGLE_RING, 8, scale_onoff(8), requests, &sink));
    scale.push(run_scale_one(FABRIC, 8, scale_onoff(8), requests, &sink));
    scale.push(run_scale_one(FABRIC, 16, scale_onoff(16), requests, &sink));

    let json = to_json(&rows, &scale, requests, &sink);
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    eprintln!("[e12_serve] wrote BENCH_serve.json ({} cells)", rows.len());

    let cap = capacity_per_sec();
    let top_rate = RHO[2] * cap;
    let mut report = Report::new();
    report.heading("E12 — open-loop serving with wait-free admission control");
    report.para(&format!(
        "{requests} requests/cell against {WORKERS} virtual servers of mean {SERVICE_MEAN_NS:.0} ns \
         (capacity {}); sojourn percentiles vs **intended** arrival stamps on the seeded virtual \
         clock (seed `{SEED:#x}`, byte-identical across runs). Admission: single-word token bucket \
         at {:.0}% of capacity, burst {ADMIT_BURST}.",
        fmt_ops(cap),
        ADMIT_RHO * 100.0,
    ));
    report.para(
        "Latency columns repeat across structures *by construction*: sojourns come from the \
         deterministic virtual queue model, which depends only on the seed. The structures \
         differ in what the real worker threads execute against — each cell drives genuine \
         multi-thread contention on its structure, which is what the telemetry block records.",
    );

    for workload in Workload::ALL {
        let structure = workload.name();
        let mut table = Table::new([
            "offered/capacity",
            "adm off p50",
            "adm off p99",
            "adm on p50",
            "adm on p99",
            "shed",
        ]);
        for rho in RHO {
            let rate = rho * cap;
            let off = find(&rows, structure, rate, false);
            let on = find(&rows, structure, rate, true);
            let shed_pct =
                100.0 * on.result.snapshot.shed as f64 / on.result.snapshot.generated() as f64;
            table.row([
                format!("{rho:.1}"),
                fmt_ns(off.result.p50_ns as f64),
                fmt_ns(off.result.p99_ns as f64),
                fmt_ns(on.result.p50_ns as f64),
                fmt_ns(on.result.p99_ns as f64),
                format!("{shed_pct:.1}%"),
            ]);
        }
        report.heading(structure);
        report.table(&table);
    }

    let mut table = Table::new(["admission", "p50", "p99", "p99.9", "shed"]);
    for admit in [false, true] {
        let r = rows
            .iter()
            .find(|r| r.process == "onoff" && r.admission == admit)
            .unwrap();
        table.row([
            if admit { "on" } else { "off" }.to_string(),
            fmt_ns(r.result.p50_ns as f64),
            fmt_ns(r.result.p99_ns as f64),
            fmt_ns(r.result.p999_ns as f64),
            format!(
                "{:.1}%",
                100.0 * r.result.snapshot.shed as f64 / r.result.snapshot.generated() as f64
            ),
        ]);
    }
    report.heading("flash crowd (ON/OFF at mean = capacity, counter)");
    report.table(&table);

    // Scaling tables: one per offered-load point, workers down the rows.
    for rho in SCALE_RHO {
        let mut table = Table::new([
            "workers",
            "single-ring p99",
            "fabric p99",
            "fabric steals",
            "fabric refills",
            "fabric shed",
        ]);
        for w in SCALE_WORKERS {
            let rate = rho * pool_capacity(w);
            let base = scale_find(&scale, SINGLE_RING, w, rate, "poisson");
            let fab = scale_find(&scale, FABRIC, w, rate, "poisson");
            let fsnap = &fab.result.snapshot;
            table.row([
                format!("{w}"),
                fmt_ns(base.result.p99_ns as f64),
                fmt_ns(fab.result.p99_ns as f64),
                format!("{}", fsnap.steals),
                format!("{}", fsnap.refills),
                format!("{:.1}%", 100.0 * fsnap.shed as f64 / fsnap.generated() as f64),
            ]);
        }
        report.heading(&format!(
            "scaling at {rho:.1}x pool capacity (counter, admission on)"
        ));
        report.table(&table);
    }
    report.para(&format!(
        "The single ring pays {CLAIM_NS_PER_CONTENDER} ns x workers per dispatch claim \
         (serialized on one cursor), so its dispatch capacity falls as 1/workers; the fabric's \
         per-shard cursors pay the single-contender cost and a steal costs {} ns. Steal and \
         refill counts are the deterministic model's; the real thieves' committed steals are \
         racy and appear only in the telemetry block (`serve_steal`).",
        nbsp_serve::fabric::STEAL_NS,
    ));

    let mut table = Table::new(["arch", "workers", "p99", "shed", "steals"]);
    for r in scale.iter().filter(|r| r.process == "onoff") {
        table.row([
            arch_name(r.arch).to_string(),
            format!("{}", r.workers),
            fmt_ns(r.result.p99_ns as f64),
            format!(
                "{:.1}%",
                100.0 * r.result.snapshot.shed as f64 / r.result.snapshot.generated() as f64
            ),
            format!("{}", r.result.snapshot.steals),
        ]);
    }
    report.heading("flash crowd at scale (ON/OFF at mean = pool capacity)");
    report.table(&table);

    // Gates. Both comparisons are functions of the seed alone (virtual
    // time), so they are enforced in quick runs too.
    for workload in Workload::ALL {
        let structure = workload.name();
        let under = find(&rows, structure, RHO[0] * cap, false);
        let over_off = find(&rows, structure, top_rate, false);
        let over_on = find(&rows, structure, top_rate, true);
        assert!(
            over_off.result.p99_ns > under.result.p99_ns,
            "{structure}: overload p99 {} must exceed underload p99 {} — open-loop accounting \
             failed to charge the backlog as latency",
            over_off.result.p99_ns,
            under.result.p99_ns,
        );
        assert!(
            over_on.result.p99_ns < over_off.result.p99_ns,
            "{structure}: admission-on p99 {} must beat admission-off p99 {} at {:.1}x capacity",
            over_on.result.p99_ns,
            over_off.result.p99_ns,
            RHO[2],
        );
        assert!(
            over_on.result.snapshot.shed > 0,
            "{structure}: admission at {:.1}x capacity must shed",
            RHO[2],
        );
    }
    report.para(&format!(
        "Gate: at {:.1}x capacity every structure's admission-on p99 beats admission-off, and \
         overload p99 exceeds underload p99 (the backlog is charged as latency, not dropped \
         from the arrival record). All enforced; see `BENCH_serve.json`.",
        RHO[2],
    ));

    // Scaling gates (a)–(c); deterministic for the same reason.
    for w in [8usize, 16] {
        let rate = SCALE_RHO[1] * pool_capacity(w);
        let base = scale_find(&scale, SINGLE_RING, w, rate, "poisson");
        let fab = scale_find(&scale, FABRIC, w, rate, "poisson");
        assert!(
            fab.result.p99_ns < base.result.p99_ns,
            "gate (a): fabric p99 {} must beat single-ring p99 {} at {w} workers, \
             {:.1}x pool capacity",
            fab.result.p99_ns,
            base.result.p99_ns,
            SCALE_RHO[1],
        );
    }
    for r in scale.iter().filter(|r| r.process == "onoff") {
        let snap = &r.result.snapshot;
        assert!(
            snap.shed > 0,
            "gate (b): the {} flash crowd at {} workers must shed",
            arch_name(r.arch),
            r.workers,
        );
        assert_eq!(
            snap.generated(),
            snap.admitted + snap.shed,
            "gate (b): the {} flash crowd at {} workers must conserve requests",
            arch_name(r.arch),
            r.workers,
        );
        if r.arch == FABRIC {
            assert!(
                snap.steals > 0,
                "gate (c): the fabric flash crowd at {} workers must steal",
                r.workers,
            );
            assert!(
                snap.refills > 0,
                "gate (c): the fabric flash crowd at {} workers must batch-refill",
                r.workers,
            );
        }
    }
    report.para(&format!(
        "Scaling gates: at 8 and 16 workers and {:.1}x pool capacity the fabric's p99 beats \
         the single ring's; the at-scale flash crowds shed without collapsing (requests \
         conserved); and the fabric's bursty cells record nonzero steals and batch refills. \
         All enforced.",
        SCALE_RHO[1],
    ));
    report
}
