//! Cell construction and JSON fields shared by the serving experiments
//! (E12, E14, E15): every cell serves at one mean service demand through
//! rings of one capacity, and every artifact writes a cell's counters,
//! percentiles and run-level telemetry the same way.

use nbsp_serve::{
    AdmissionConfig, ArrivalProcess, CellConfig, CellResult, Dispatch, Pool, PoolTrace, Workload,
};

/// Mean virtual service demand per request.
pub(crate) const SERVICE_MEAN_NS: f64 = 1_000.0;

/// Capacity of every dispatch ring, shared or sharded.
pub(crate) const RING_CAPACITY: usize = 1024;

/// Virtual capacity, in requests per second, of `workers` servers.
pub(crate) fn pool_capacity(workers: usize) -> f64 {
    workers as f64 * 1e9 / SERVICE_MEAN_NS
}

/// One cell at the shared service demand and ring capacity.
pub(crate) fn cell_config(
    seed: u64,
    process: ArrivalProcess,
    workload: Workload,
    pool: Pool,
    dispatch: Dispatch,
    requests: u64,
    admission: Option<AdmissionConfig>,
) -> CellConfig {
    CellConfig {
        seed,
        process,
        workload,
        pool,
        dispatch,
        requests,
        service_mean_ns: SERVICE_MEAN_NS,
        admission,
        ring_capacity: RING_CAPACITY,
    }
}

/// A cell's deterministic counters and sojourn percentiles, as JSON
/// object fields (no braces).
pub(crate) fn cell_json(r: &CellResult) -> String {
    let snap = &r.snapshot;
    format!(
        "\"generated\": {}, \"admitted\": {}, \"shed\": {}, \"completed\": {}, \
         \"steals\": {}, \"refills\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \
         \"p99_ns\": {}, \"p999_ns\": {}",
        snap.generated(),
        snap.admitted,
        snap.shed,
        snap.completed,
        snap.steals,
        snap.refills,
        r.p50_ns,
        r.p95_ns,
        r.p99_ns,
        r.p999_ns,
    )
}

/// A pool's resize history as a JSON object.
pub(crate) fn pool_json(p: &PoolTrace) -> String {
    format!(
        "{{\"resizes\": {}, \"scale_ups\": {}, \"scale_downs\": {}, \"peak_workers\": {}, \
         \"low_workers\": {}, \"final_workers\": {}}}",
        p.resizes, p.scale_ups, p.scale_downs, p.peak_workers, p.low_workers, p.final_workers,
    )
}
