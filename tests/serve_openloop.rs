//! Integration tests for the `nbsp-serve` open-loop harness: seeded
//! determinism (the property `BENCH_serve.json` trend-tracking rests on),
//! conservation of requests, and the admission controller's effect on the
//! latency tail — all through the public `run_cell` entry point with real
//! worker threads.

use nbsp::serve::{
    run_cell, AdmissionConfig, ArrivalProcess, CellConfig, CellResult, Dispatch, Pool, ServeSinks,
    TokenBucket, Workload,
};

/// 2 workers on one shared ring x 1 µs mean service = 2M req/s
/// virtual capacity.
fn cfg(rate_per_sec: f64, workload: Workload, admission: Option<AdmissionConfig>) -> CellConfig {
    CellConfig {
        seed: 0xfeed_beef,
        process: ArrivalProcess::Poisson { rate_per_sec },
        workload,
        pool: Pool::Fixed(2),
        dispatch: Dispatch::Shared,
        requests: 30_000,
        service_mean_ns: 1_000.0,
        admission,
        ring_capacity: 512,
    }
}

fn overload_admission() -> Option<AdmissionConfig> {
    Some(AdmissionConfig {
        rate_per_sec: 1.7e6, // 85% of the 2M/s capacity
        burst: 128,
    })
}

#[test]
fn same_seed_yields_byte_identical_results() {
    // The full CellResult — every sojourn bucket, every counter, every
    // percentile — must be identical across runs. Real threads race on
    // the real structures in both runs; none of that may leak into the
    // reported numbers.
    for workload in [Workload::Counter, Workload::Stm] {
        let c = cfg(2.4e6, workload, overload_admission());
        let a: CellResult = run_cell(&c, None);
        let b: CellResult = run_cell(&c, None);
        assert_eq!(a, b, "{}: seeded runs must be byte-identical", workload.name());
        assert_eq!(a.snapshot.sojourn_ns, b.snapshot.sojourn_ns);
    }
}

#[test]
fn different_seeds_yield_different_streams() {
    let c1 = cfg(2.4e6, Workload::Counter, overload_admission());
    let mut c2 = c1.clone();
    c2.seed ^= 1;
    let a = run_cell(&c1, None);
    let b = run_cell(&c2, None);
    assert_ne!(
        a.snapshot.sojourn_ns, b.snapshot.sojourn_ns,
        "different seeds should not collide on the whole histogram"
    );
}

#[test]
fn admitted_plus_shed_equals_generated_and_all_admitted_complete() {
    for (rate, admission) in [
        (1.0e6, None),
        (2.4e6, None),
        (1.0e6, overload_admission()),
        (2.4e6, overload_admission()),
    ] {
        let c = cfg(rate, Workload::Queue, admission);
        let r = run_cell(&c, None);
        let snap = r.snapshot;
        assert_eq!(
            snap.admitted + snap.shed,
            c.requests,
            "every generated request is decided exactly once"
        );
        assert_eq!(snap.generated(), c.requests);
        assert_eq!(
            snap.completed, snap.admitted,
            "every admitted request is executed exactly once"
        );
        assert_eq!(
            snap.sojourns(),
            snap.admitted,
            "every admitted request gets exactly one sojourn observation"
        );
        if admission.is_none() {
            assert_eq!(snap.shed, 0, "no admission control, nothing shed");
        }
    }
}

#[test]
fn admission_on_beats_admission_off_at_overload() {
    // 1.2x capacity: without admission the open-loop backlog grows
    // without bound and p99 blows up; the token bucket sheds the excess
    // and caps the tail. Virtual-time determinism makes this a hard
    // inequality, not a statistical one.
    let off = run_cell(&cfg(2.4e6, Workload::Stack, None), None);
    let on = run_cell(&cfg(2.4e6, Workload::Stack, overload_admission()), None);
    assert!(on.snapshot.shed > 0, "overload must shed");
    assert!(
        on.p99_ns < off.p99_ns,
        "admission on p99 {} must beat admission off p99 {}",
        on.p99_ns,
        off.p99_ns
    );
    assert!(
        on.p999_ns <= off.p999_ns,
        "the extreme tail must not get worse with admission on"
    );
}

#[test]
fn telemetry_sinks_see_every_admission_decision_exactly_once() {
    // With the feature on, serve_admit + serve_shed flushed into the
    // run-level sinks must equal the generated count exactly (every
    // recording thread leases a telemetry row of its own, so each row is
    // published by one flusher); with the feature off the sink stays
    // all-zero.
    let sinks = ServeSinks::new().unwrap();
    let c = cfg(2.4e6, Workload::Counter, overload_admission());
    let r = run_cell(&c, Some(&sinks));
    use nbsp::telemetry::{AtomicTotals, Event};
    let totals = sinks.events.totals();
    let decided = totals[Event::ServeAdmit.index()] + totals[Event::ServeShed.index()];
    if nbsp::telemetry::enabled() {
        assert_eq!(decided, c.requests);
        assert_eq!(totals[Event::ServeAdmit.index()], r.snapshot.admitted);
        assert_eq!(totals[Event::ServeShed.index()], r.snapshot.shed);
    } else {
        assert_eq!(decided, 0);
    }
}

#[test]
fn token_bucket_survives_a_real_thread_stress() {
    // Integration-level variant of the crate's no-double-spend unit test:
    // many threads, a moving clock, and the invariant that the total
    // admitted never exceeds the tokens that ever existed (initial burst
    // + refills), checked against a generous upper bound.
    const THREADS: usize = 8;
    const PER: u64 = 20_000;
    let bucket = TokenBucket::new(1e6, 64); // 1 token/µs, depth 64
    let admitted = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let bucket = &bucket;
            let admitted = &admitted;
            s.spawn(move || {
                let mut mine = 0;
                for i in 0..PER {
                    // Each thread walks its own (deterministic) clock:
                    // interleavings vary, token conservation must not.
                    let now = i * 200 + t as u64;
                    if bucket.admit(now) {
                        mine += 1;
                    }
                }
                admitted.fetch_add(mine, std::sync::atomic::Ordering::Relaxed);
            });
        }
    });
    // Clock span ~4 ms => at most 64 (burst) + 4000 (refill) + 1 (stamp
    // rounding) tokens ever exist.
    let got = admitted.load(std::sync::atomic::Ordering::Relaxed);
    assert!(got <= 64 + 4_000 + 1, "over-admitted: {got}");
    assert!(got >= 64, "the initial burst alone admits 64");
}
