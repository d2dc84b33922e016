//! Pinned virtual-time results: exact seeded values for one cell of each
//! serving experiment (E12's single-ring scaling sweep, E14's elastic
//! flash crowd, E15's keyed ordered map), at the experiments' own quick
//! sizes. Determinism tests compare two runs of one build; these compare
//! a run against numbers recorded in `BENCH_serve.json`,
//! `BENCH_elastic.json` and `BENCH_structures.json`, so a change to the
//! virtual queue model, the router, the admission buckets or the
//! autoscaler fails here even when it is self-consistent.

use nbsp::core::provider::Dynamic;
use nbsp::core::Provider;
use nbsp::serve::{
    run_cell, run_cell_as, AdmissionConfig, ArrivalProcess, CellConfig, CellResult, Dispatch, Pool,
    PoolTrace, ScalerConfig, Workload,
};

/// The fields every pinned cell is checked on.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    admitted: u64,
    shed: u64,
    steals: u64,
    refills: u64,
    p50_ns: u64,
    p99_ns: u64,
}

fn pinned(r: &CellResult) -> Pinned {
    Pinned {
        admitted: r.snapshot.admitted,
        shed: r.snapshot.shed,
        steals: r.snapshot.steals,
        refills: r.snapshot.refills,
        p50_ns: r.p50_ns,
        p99_ns: r.p99_ns,
    }
}

/// E12 scaling row `single_ring`, 8 workers, Poisson at 1.2x pool
/// capacity, admission at 85% of it: the dispatch cursor is saturated.
fn e12_single_ring_8() -> CellResult {
    let workers = 8;
    let capacity = workers as f64 * 1e6;
    run_cell(
        &CellConfig {
            seed: 0x5e12_5e12,
            process: ArrivalProcess::Poisson {
                rate_per_sec: 1.2 * capacity,
            },
            workload: Workload::Counter,
            pool: Pool::Fixed(workers),
            dispatch: Dispatch::Shared,
            requests: 20_000,
            service_mean_ns: 1_000.0,
            admission: Some(AdmissionConfig {
                rate_per_sec: 0.85 * capacity,
                burst: 256,
            }),
            ring_capacity: 1024,
        },
        None,
    )
}

/// E14 elastic row `dynamic`: pool 2..8 under the 2.4x ON/OFF crowd.
fn e14_elastic_dynamic() -> (CellResult, PoolTrace) {
    let full = 8e6;
    let r = run_cell_as(
        Dynamic::ID,
        &CellConfig {
            seed: 0x5e14_5e14,
            process: ArrivalProcess::OnOff {
                on_rate_per_sec: 2.0 * 1.2 * full,
                on_mean_ns: 50_000.0,
                off_mean_ns: 50_000.0,
            },
            workload: Workload::Counter,
            pool: Pool::Elastic {
                min: 2,
                max: 8,
                scaler: ScalerConfig {
                    check_every: 16,
                    up_backlog_ns: 3_000,
                    down_backlog_ns: 1_000,
                    idle_gap_ns: 10_000,
                },
            },
            dispatch: Dispatch::Sharded { refill_batch: 128 },
            requests: 20_000,
            service_mean_ns: 1_000.0,
            admission: Some(AdmissionConfig {
                rate_per_sec: 0.85 * full,
                burst: 256,
            }),
            ring_capacity: 1024,
        },
        None,
    );
    (r, r.pool)
}

/// E15 keyed row: 4 workers, Zipf(1) keys over 64, 80% of capacity.
fn e15_keyed_zipf_4() -> CellResult {
    let workers = 4;
    run_cell(
        &CellConfig {
            seed: 0x5e15_5e15,
            process: ArrivalProcess::Poisson {
                rate_per_sec: 0.8 * workers as f64 * 1e6,
            },
            workload: Workload::OrdMap {
                key_space: 64,
                zipf: true,
            },
            pool: Pool::Fixed(workers),
            dispatch: Dispatch::Sharded { refill_batch: 64 },
            requests: 20_000,
            service_mean_ns: 1_000.0,
            admission: None,
            ring_capacity: 1024,
        },
        None,
    )
}

#[test]
fn e12_single_ring_scaling_cell_is_pinned() {
    assert_eq!(
        pinned(&e12_single_ring_8()),
        Pinned {
            admitted: 14_369,
            shed: 5_631,
            steals: 0,
            refills: 0,
            p50_ns: 1_310_719,
            p99_ns: 2_621_439,
        }
    );
}

#[test]
fn e14_elastic_flash_crowd_cell_is_pinned() {
    let (cell, pool) = e14_elastic_dynamic();
    assert_eq!(
        pinned(&cell),
        Pinned {
            admitted: 10_257,
            shed: 9_743,
            steals: 7_512,
            refills: 6_136,
            p50_ns: 34_815,
            p99_ns: 61_439,
        }
    );
    assert_eq!(
        pool,
        PoolTrace {
            resizes: 47,
            scale_ups: 32,
            scale_downs: 15,
            peak_workers: 8,
            low_workers: 2,
            final_workers: 8,
        }
    );
}

#[test]
fn e15_keyed_ordmap_cell_is_pinned() {
    assert_eq!(
        pinned(&e15_keyed_zipf_4()),
        Pinned {
            admitted: 20_000,
            shed: 0,
            steals: 12_016,
            refills: 0,
            p50_ns: 1_855,
            p99_ns: 8_703,
        }
    );
}
