//! **E14 — the elastic pool: dynamic joining pays off under a flash
//! crowd, and the durable variant survives crashes.**
//!
//! PR 6 ended with the fabric's worker count pinned for the run and the
//! `Directory` generation word documented as the elastic-resize hook,
//! blocked on dynamic joining. This experiment closes the loop on both
//! halves of the new `dynamic` subsystem:
//!
//! 1. **The elastic sweep** — one flash-crowd trace (ON/OFF bursts whose
//!    *mean* offered rate is 1.2× the full pool's capacity) is served by
//!    fixed pools of 2, 4, and 8 workers and by the elastic pool (min 2,
//!    max 8) — one sharded pipeline, `Pool::Fixed` against
//!    `Pool::Elastic` — all under the *same* admission configuration. The
//!    headline gate: **the elastic pool beats every fixed size on p99
//!    sojourn**. The two loss modes it splits are real and distinct:
//!    * a *small* fixed pool admits at the shared bucket rate but serves
//!      at 2–4 servers, so the backlog compounds across bursts;
//!    * the *full-size* fixed pool keeps `W × B` tokens of standing
//!      slack parked in its admission stripes, so it admits a deeper
//!      slab of every ON burst — and the slab tail is its p99. The
//!      elastic pool meets each burst with a small pool's stripe slack
//!      (deactivated stripes hand their tokens back to the global
//!      bucket via `redistribute`), sheds the slab front, and scales
//!      workers up to absorb what it did admit.
//!
//!    The cell conserves (`generated == admitted + shed`,
//!    `completed == admitted` across resizes) and the whole result —
//!    percentiles, counters, resize history — is byte-identical across
//!    same-seed runs (gated by running it twice). It is also
//!    provider-independent: the run repeats on `dynamic-durable` and on
//!    the fixed-N native baseline and must produce the identical result
//!    block (the virtual clock depends only on the seed; the providers
//!    differ in what the real threads execute, including genuine
//!    join/retire churn on the dynamic pair).
//! 2. **The crash sweep** — the durable provider's whole point. A
//!    seeded sweep of kill-at-random-schedule-point runs: each trial
//!    installs a `CrashPlan`, lets 3 threads hammer a durable counter
//!    until the plan cuts the power at an instrumented access, then
//!    recovers the variable and checks the durable-linearizability
//!    verdict `initial + returned ≤ recovered ≤ initial + returned +
//!    threads`, rejoins through a fresh domain, and resumes. Gates: the
//!    sweep must include both crashed and crash-free trials, every
//!    verdict must hold (asserted inside the harness), and the sweep is
//!    seed-deterministic.
//!
//! The run writes `BENCH_elastic.json` for trend tracking.

use nbsp_core::{ProviderId, WideTotals};
use nbsp_dynamic::{sweep, SweepReport};
use nbsp_serve::service::CLAIM_NS_PER_CONTENDER;
use nbsp_serve::{
    run_cell, run_cell_as, AdmissionConfig, ArrivalProcess, CellConfig, CellResult, Dispatch,
    Pool, ScalerConfig, Workload,
};

use super::serving::{
    cell_config, cell_json, pool_capacity, pool_json, RING_CAPACITY, SERVICE_MEAN_NS,
};
use crate::report::{fmt_ns, fmt_ops, Report, Table};
use crate::sinks::telemetry_json;

/// Seed for every cell and for the crash sweep.
const SEED: u64 = 0x5e14_5e14;

/// The elastic pool's floor (and the smallest fixed pool).
const MIN_WORKERS: usize = 2;

/// The elastic pool's ceiling (and the largest fixed pool).
const MAX_WORKERS: usize = 8;

/// The fixed pool sizes the elastic pool must beat.
const FIXED_WORKERS: [usize; 3] = [2, 4, 8];

/// Offered flash-crowd mean as a fraction of the *full* pool's capacity
/// (the ISSUE's "1.2x capacity" point: overload even for max workers).
const OFFERED_RHO: f64 = 1.2;

/// Shared token-bucket sustained rate as a fraction of full-pool
/// capacity — identical for every cell, fixed or elastic.
const ADMIT_RHO: f64 = 0.85;

/// Shared token-bucket depth.
const ADMIT_BURST: u64 = 256;

/// Batch size `B` of a global → stripe token refill. Deliberately large
/// relative to a burst: `W × B` of standing stripe slack is the
/// full-size fixed pool's loss mode.
const REFILL_BATCH: u64 = 128;

/// Crash-sweep shape: threads × ops per thread per trial.
const CRASH_THREADS: usize = 3;
const CRASH_OPS: u64 = 16;

/// Full-pool capacity in requests per second.
fn full_capacity_per_sec() -> f64 {
    pool_capacity(MAX_WORKERS)
}

/// The one flash-crowd trace every cell serves: ON bursts at 2.4× the
/// full pool's capacity, 50/50 duty, so the mean is 1.2×.
fn flash_crowd() -> ArrivalProcess {
    ArrivalProcess::OnOff {
        on_rate_per_sec: 2.0 * OFFERED_RHO * full_capacity_per_sec(),
        on_mean_ns: 50_000.0,
        off_mean_ns: 50_000.0,
    }
}

/// The shared admission configuration (identical across cells — the
/// sweep compares pool shapes, not admission policies).
fn admission() -> AdmissionConfig {
    AdmissionConfig {
        rate_per_sec: ADMIT_RHO * full_capacity_per_sec(),
        burst: ADMIT_BURST,
    }
}

fn scaler() -> ScalerConfig {
    ScalerConfig {
        check_every: 16,
        up_backlog_ns: 3_000,
        down_backlog_ns: 1_000,
        idle_gap_ns: 10_000,
    }
}

/// One cell of the sweep: a pool shape on the shared trace + admission.
fn config(pool: Pool, requests: u64) -> CellConfig {
    cell_config(
        SEED,
        flash_crowd(),
        Workload::Counter,
        pool,
        Dispatch::Sharded {
            refill_batch: REFILL_BATCH,
        },
        requests,
        Some(admission()),
    )
}

/// One fixed-size pool on the native entry.
fn run_fixed(workers: usize, requests: u64, sink: &WideTotals) -> CellResult {
    let result = run_cell(&config(Pool::Fixed(workers), requests), Some(sink));
    eprintln!(
        "[e14_elastic] fixed w={workers}: p99={} shed={}/{} steals={}",
        fmt_ns(result.p99_ns as f64),
        result.snapshot.shed,
        result.snapshot.generated(),
        result.snapshot.steals,
    );
    result
}

/// The elastic pool on `provider`.
fn run_elastic_on(provider: ProviderId, requests: u64, sink: &WideTotals) -> CellResult {
    let pool = Pool::Elastic {
        min: MIN_WORKERS,
        max: MAX_WORKERS,
        scaler: scaler(),
    };
    let r = run_cell_as(provider, &config(pool, requests), Some(sink));
    eprintln!(
        "[e14_elastic] elastic[{}]: p99={} shed={}/{} resizes={} peak={} low={}",
        provider.name(),
        fmt_ns(r.p99_ns as f64),
        r.snapshot.shed,
        r.snapshot.generated(),
        r.pool.resizes,
        r.pool.peak_workers,
        r.pool.low_workers,
    );
    r
}

fn to_json(
    fixed: &[(usize, CellResult)],
    elastic: &[(ProviderId, CellResult)],
    crash: &SweepReport,
    requests: u64,
    sink: &WideTotals,
) -> String {
    let adm = admission();
    let sc = scaler();
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema_version\": 1,\n");
    s.push_str("  \"experiment\": \"elastic\",\n");
    s.push_str(&format!("  \"seed\": {SEED},\n"));
    s.push_str(&format!("  \"requests_per_cell\": {requests},\n"));
    s.push_str(&format!("  \"service_mean_ns\": {SERVICE_MEAN_NS},\n"));
    s.push_str(&format!(
        "  \"offered\": {{\"rho_of_full_pool\": {OFFERED_RHO}, \"process\": \"onoff\"}},\n"
    ));
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
    s.push_str(&format!(
        "  \"scaler\": {{\"check_every\": {}, \"up_backlog_ns\": {}, \
         \"down_backlog_ns\": {}, \"min_workers\": {MIN_WORKERS}, \
         \"max_workers\": {MAX_WORKERS}}},\n",
        sc.check_every, sc.up_backlog_ns, sc.down_backlog_ns
    ));
    s.push_str("  \"fixed\": [\n");
    for (i, (w, r)) in fixed.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workers\": {w}, {}}}{}\n",
            cell_json(r),
            if i + 1 == fixed.len() { "" } else { "," },
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"elastic\": [\n");
    for (i, (p, r)) in elastic.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"provider\": \"{}\", {}, \"pool\": {}}}{}\n",
            p.name(),
            cell_json(r),
            pool_json(&r.pool),
            if i + 1 == elastic.len() { "" } else { "," },
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"crash\": {{\"threads\": {CRASH_THREADS}, \"ops_per_thread\": {CRASH_OPS}, \
         \"trials\": {}, \"crashed\": {}, \"completed\": {}, \"min_recovered\": {}, \
         \"max_recovered\": {}}},\n",
        crash.trials, crash.crashed, crash.completed, crash.min_recovered, crash.max_recovered
    ));
    s.push_str(&telemetry_json("  ", sink));
    s.push_str("\n}\n");
    s
}

/// Runs the E14 sweep with `requests` generated per cell and
/// `crash_trials` kill-point trials, writes `BENCH_elastic.json`, and
/// returns the report.
///
/// # Panics
///
/// Panics (failing the experiment) if the elastic pool does not beat
/// every fixed pool on p99, a cell fails conservation, the double run is
/// not byte-identical, the providers disagree, the crash sweep misses an
/// outcome class, or the JSON cannot be written.
pub fn run(requests: u64, crash_trials: usize) -> Report {
    let sink = WideTotals::with_all_slots().expect("telemetry sink");

    let fixed: Vec<(usize, CellResult)> = FIXED_WORKERS
        .iter()
        .map(|&w| (w, run_fixed(w, requests, &sink)))
        .collect();

    let elastic = run_elastic_on(ProviderId::Dynamic, requests, &sink);
    let elastic_again = run_elastic_on(ProviderId::Dynamic, requests, &sink);
    let elastic_durable = run_elastic_on(ProviderId::DynamicDurable, requests, &sink);
    let elastic_native = run_elastic_on(ProviderId::Fig4Native, requests, &sink);

    // The sweep's recover/rejoin events land in this thread's telemetry
    // buffer; baseline a flusher here (not earlier — the cells above
    // flushed their own main-thread deltas) and fold the sweep's events
    // into the run-level sink so the JSON's `crash_recover` count
    // reflects the trials.
    let mut flusher = nbsp_telemetry::Flusher::new();
    let crash = sweep(SEED, crash_trials, CRASH_THREADS, CRASH_OPS);
    let crash_again = sweep(SEED, crash_trials, CRASH_THREADS, CRASH_OPS);
    flusher.flush(&sink);
    eprintln!(
        "[e14_elastic] crash sweep: {} trials, {} crashed, {} crash-free, recovered in [{}, {}]",
        crash.trials, crash.crashed, crash.completed, crash.min_recovered, crash.max_recovered
    );

    let elastic_rows = [
        (ProviderId::Dynamic, elastic),
        (ProviderId::DynamicDurable, elastic_durable),
        (ProviderId::Fig4Native, elastic_native),
    ];
    let json = to_json(&fixed, &elastic_rows, &crash, requests, &sink);
    std::fs::write("BENCH_elastic.json", &json).expect("write BENCH_elastic.json");
    eprintln!("[e14_elastic] wrote BENCH_elastic.json");

    let cap = full_capacity_per_sec();
    let mut report = Report::new();
    report.heading("E14 — elastic serving pool on dynamic joining");
    report.para(&format!(
        "One flash-crowd trace (ON/OFF, mean {OFFERED_RHO:.1}x the {MAX_WORKERS}-worker pool's \
         capacity of {}) served by fixed fabric pools of {FIXED_WORKERS:?} workers and by the \
         elastic pool (min {MIN_WORKERS}, max {MAX_WORKERS}), all under the same admission \
         configuration ({:.0}% of full-pool capacity, burst {ADMIT_BURST}). {requests} requests \
         per cell, seed `{SEED:#x}`; every number below is byte-identical across runs.",
        fmt_ops(cap),
        ADMIT_RHO * 100.0,
    ));

    let mut table = Table::new(["pool", "p50", "p99", "p99.9", "shed", "admitted"]);
    for (w, r) in &fixed {
        table.row([
            format!("fixed {w}"),
            fmt_ns(r.p50_ns as f64),
            fmt_ns(r.p99_ns as f64),
            fmt_ns(r.p999_ns as f64),
            format!("{:.1}%", 100.0 * r.snapshot.shed as f64 / r.snapshot.generated() as f64),
            format!("{}", r.snapshot.admitted),
        ]);
    }
    let er = &elastic_rows[0].1;
    table.row([
        format!("elastic {MIN_WORKERS}..{MAX_WORKERS}"),
        fmt_ns(er.p50_ns as f64),
        fmt_ns(er.p99_ns as f64),
        fmt_ns(er.p999_ns as f64),
        format!(
            "{:.1}%",
            100.0 * er.snapshot.shed as f64 / er.snapshot.generated() as f64
        ),
        format!("{}", er.snapshot.admitted),
    ]);
    report.heading("flash crowd: fixed pools vs the elastic pool");
    report.table(&table);

    let pool = &elastic_rows[0].1.pool;
    report.para(&format!(
        "The elastic pool resized {} times ({} up, {} down), between {} and {} workers, \
         finishing at {}. Small fixed pools lose on backlog (admission outpaces 2-4 servers); \
         the full-size fixed pool loses on its standing stripe slack ({MAX_WORKERS} x \
         {REFILL_BATCH} parked tokens admit a deeper slab of every burst). The elastic pool \
         meets each burst with a small pool's slack — deactivated stripes return their tokens \
         to the global bucket — and scales workers up to absorb what it admits.",
        pool.resizes, pool.scale_ups, pool.scale_downs, pool.low_workers, pool.peak_workers,
        pool.final_workers,
    ));

    let mut table = Table::new(["sweep", "trials", "crashed", "crash-free", "recovered range"]);
    table.row([
        "kill-at-schedule-point".to_string(),
        format!("{}", crash.trials),
        format!("{}", crash.crashed),
        format!("{}", crash.completed),
        format!("[{}, {}]", crash.min_recovered, crash.max_recovered),
    ]);
    report.heading("durable crash-recovery sweep (dynamic-durable)");
    report.table(&table);
    report.para(&format!(
        "{CRASH_THREADS} threads x {CRASH_OPS} increments on a durable counter per trial; each \
         trial cuts the power at a seeded schedule point, recovers, checks `initial + returned \
         <= recovered <= initial + returned + threads` (asserted inside the harness), rejoins \
         through a fresh domain, and resumes. Crash-free trials double as exact-count controls.",
    ));

    // Gates. All deterministic functions of the seed.
    for (w, r) in &fixed {
        assert_eq!(
            r.snapshot.generated(),
            r.snapshot.admitted + r.snapshot.shed,
            "fixed {w}: conservation"
        );
        assert!(
            er.p99_ns < r.p99_ns,
            "gate: elastic p99 {} must beat fixed-{w} p99 {} at {OFFERED_RHO:.1}x capacity",
            er.p99_ns,
            r.p99_ns,
        );
    }
    assert_eq!(
        er.snapshot.generated(),
        er.snapshot.admitted + er.snapshot.shed,
        "elastic: conservation"
    );
    assert_eq!(
        elastic_rows[0].1, elastic_again,
        "gate: same-seed elastic runs must be byte-identical"
    );
    assert_eq!(
        elastic_rows[0].1, elastic_rows[1].1,
        "gate: dynamic and dynamic-durable must report identical cells"
    );
    assert_eq!(
        elastic_rows[0].1, elastic_rows[2].1,
        "gate: the fixed-N fallback must report an identical cell"
    );
    assert!(pool.scale_ups > 0 && pool.scale_downs > 0, "gate: the pool must move both ways");
    assert!(
        crash.crashed > 0 && crash.completed > 0,
        "gate: the crash sweep must include both crashed and crash-free trials"
    );
    assert_eq!(crash, crash_again, "gate: the crash sweep must be seed-deterministic");
    report.para(&format!(
        "Gates: the elastic pool's p99 beats every fixed size at {OFFERED_RHO:.1}x capacity; \
         every cell conserves requests; the elastic result (counters, percentiles, resize \
         history) is byte-identical across same-seed runs and across the dynamic, \
         dynamic-durable, and fixed-N providers; the pool scales both ways; and the seeded \
         crash sweep hits both outcome classes with every durable-linearizability verdict \
         holding. All enforced; see `BENCH_elastic.json`.",
    ));
    report
}
