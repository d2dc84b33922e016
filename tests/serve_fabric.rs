//! Integration tests for the serving pipeline's dispatch: request
//! conservation and seeded determinism through `run_cell_as` for
//! **every registry provider** and both dispatch kinds (the rings'
//! cursors, the directory and the admission stripes all run on the
//! provider under test), plus real-thread stresses on `ShardRing`
//! proving that neither concurrent pops nor the steal-half SC commit
//! ever duplicate, lose or tear a request, and two schedule-hook tests
//! that park the producer inside a push.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use nbsp::core::{for_each_provider, CasLlSc, LlScVar, Native, Provider, TagLayout};
use nbsp::memsim::sched::{self, AccessKind, Decision, SchedulePoint};
use nbsp::serve::fabric::{ShardRing, STEAL_MAX};
use nbsp::serve::{
    run_cell_as, AdmissionConfig, ArrivalProcess, CellConfig, Dispatch, Pool, Request, Workload,
};

#[macro_use]
mod corners;

/// Small enough that every cursor stays far below the Fig4Emu provider's
/// 16-bit value range, big enough to force refills and (with the bursty
/// process) steals.
fn small_cfg(dispatch: Dispatch) -> CellConfig {
    CellConfig {
        seed: 0xfab_feed,
        process: ArrivalProcess::OnOff {
            on_rate_per_sec: 4.0e6, // 2x the 2-worker pool capacity
            on_mean_ns: 20_000.0,
            off_mean_ns: 20_000.0,
        },
        workload: Workload::Counter,
        pool: Pool::Fixed(2),
        dispatch,
        requests: 1_500,
        service_mean_ns: 1_000.0,
        admission: Some(AdmissionConfig {
            rate_per_sec: 1.7e6, // 85% of pool capacity
            burst: 64,
        }),
        ring_capacity: 128,
    }
}

fn conserves_and_is_deterministic<P: Provider>(dispatch: Dispatch) {
    let cfg = small_cfg(dispatch);
    let a = run_cell_as(P::ID, &cfg, None);
    let b = run_cell_as(P::ID, &cfg, None);
    assert_eq!(a, b, "same-seed cells must be byte-identical");
    let snap = &a.snapshot;
    assert_eq!(snap.generated(), cfg.requests, "every request accounted");
    assert_eq!(
        snap.generated(),
        snap.admitted + snap.shed,
        "admission must conserve: generated == admitted + shed"
    );
    assert_eq!(
        snap.completed, snap.admitted,
        "every admitted request executed exactly once"
    );
    assert!(snap.shed > 0, "the bursty overload cell must shed");
    match dispatch {
        Dispatch::Sharded { .. } => {
            assert!(snap.refills > 0, "striped admission must batch-refill");
            assert!(
                snap.steals > 0,
                "the bursty 2-worker cell must exercise the steal path"
            );
        }
        Dispatch::Shared => assert_eq!(
            (snap.steals, snap.refills),
            (0, 0),
            "one shared ring and one bucket word neither steal nor refill"
        ),
    }
}

// Two `#[test]`s per registry provider, in a module named by the
// provider's slug: one per dispatch kind.
macro_rules! fabric_test {
    ($name:ident, $provider:ty) => {
        mod $name {
            use nbsp::serve::Dispatch;

            #[test]
            fn fabric_conserves_and_is_deterministic() {
                super::conserves_and_is_deterministic::<$provider>(Dispatch::Sharded {
                    refill_batch: 16,
                });
            }

            #[test]
            fn shared_ring_conserves_and_is_deterministic() {
                super::conserves_and_is_deterministic::<$provider>(Dispatch::Shared);
            }
        }
    };
}

for_each_provider!(fabric_test);
for_each_corner!(fabric_test);

/// Forced starvation: one producer feeds ring 0 only, its owner pops,
/// and three permanently-starved thieves hammer `steal_into` on it.
/// Every consumed request contributes its arrival stamp to a checksum;
/// if a steal's SC commit could duplicate a request the sum would
/// overshoot, if it could lose one the count would undershoot (the
/// consumers only exit once the producer is done and the ring drained).
/// Every field is derived from the sequence number, and each consumed
/// request must be self-consistent: a slot read whose fields came from
/// two different requests fails that check even when the sum balances.
#[test]
fn steal_commit_never_duplicates_or_loses_under_starvation() {
    const REQUESTS: u64 = 12_000;
    const THIEVES: usize = 3;
    let ring = ShardRing::new(
        64,
        CasLlSc::new_native(TagLayout::half(), 0).unwrap(),
        CasLlSc::new_native(TagLayout::half(), 0).unwrap(),
    );
    let done = AtomicBool::new(false);
    let consumed = AtomicU64::new(0);
    let checksum = AtomicU64::new(0);

    std::thread::scope(|s| {
        let ring = &ring;
        let done = &done;
        let consumed = &consumed;
        let checksum = &checksum;
        // The starved thieves: never own a request, only steal.
        for _ in 0..THIEVES {
            s.spawn(move || {
                let ctx = &mut Native;
                let mut stash = [Request {
                    arrival_ns: 0,
                    service_ns: 0,
                    key: 0,
                }; STEAL_MAX];
                loop {
                    let k = ring.steal_into(ctx, &mut stash);
                    if k > 0 {
                        stash[..k].iter().for_each(assert_self_consistent);
                        let sum: u64 = stash[..k].iter().map(|r| r.arrival_ns).sum();
                        checksum.fetch_add(sum, Ordering::Relaxed);
                        consumed.fetch_add(k as u64, Ordering::Relaxed);
                    } else if done.load(Ordering::Acquire) && ring.is_empty(ctx) {
                        break;
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
        }
        // The owner: plain pops, racing the thieves on the same head.
        s.spawn(move || {
            let ctx = &mut Native;
            loop {
                if let Some(r) = ring.try_pop(ctx) {
                    assert_self_consistent(&r);
                    checksum.fetch_add(r.arrival_ns, Ordering::Relaxed);
                    consumed.fetch_add(1, Ordering::Relaxed);
                } else if done.load(Ordering::Acquire) && ring.is_empty(ctx) {
                    break;
                } else {
                    std::thread::yield_now();
                }
            }
        });
        // The producer: single writer on ring 0's tail, spins when full
        // (the 64-slot ring against 12k requests forces constant
        // wraparound, so every slot is reused ~190 times).
        let ctx = &mut Native;
        for i in 1..=REQUESTS {
            let r = seq_request(i);
            while !ring.try_push(ctx, r) {
                std::thread::yield_now();
            }
        }
        done.store(true, Ordering::Release);
    });

    assert_eq!(
        consumed.load(Ordering::Relaxed),
        REQUESTS,
        "a steal or pop lost (undershoot) or duplicated (overshoot) a claim"
    );
    assert_eq!(
        checksum.load(Ordering::Relaxed),
        REQUESTS * (REQUESTS + 1) / 2,
        "consumed set is not exactly the produced set"
    );
}

/// Concurrent pops: one producer, several consumers racing LL–SC claims
/// on one head cursor. On the two-slot ring every slot is rewritten about
/// every other push, so a torn or stale slot read that slipped past the
/// head SC would pair one request's fields with another's.
#[test]
fn every_request_consumed_exactly_once() {
    const N: u64 = 20_000;
    for (capacity, consumers) in [(64, 4), (2, 3)] {
        let ring = ShardRing::new(
            capacity,
            CasLlSc::new_native(TagLayout::half(), 0).unwrap(),
            CasLlSc::new_native(TagLayout::half(), 0).unwrap(),
        );
        let popped = AtomicU64::new(0);
        let sum = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..consumers {
                s.spawn(|| {
                    let ctx = &mut Native;
                    while popped.load(Ordering::Relaxed) < N {
                        if let Some(r) = ring.try_pop(ctx) {
                            assert_self_consistent(&r);
                            sum.fetch_add(r.arrival_ns, Ordering::Relaxed);
                            popped.fetch_add(1, Ordering::Relaxed);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let ctx = &mut Native;
            for n in 1..=N {
                while !ring.try_push(ctx, seq_request(n)) {
                    std::thread::yield_now();
                }
            }
        });
        assert_eq!(popped.load(Ordering::Relaxed), N, "capacity {capacity}");
        // Each value claimed exactly once <=> the sum is exact.
        assert_eq!(
            sum.load(Ordering::Relaxed),
            N * (N + 1) / 2,
            "capacity {capacity}"
        );
    }
}

/// A schedule hook that parks its thread at the first access of one kind
/// until the test releases it, then answers that access with `answer`.
struct ParkFirst {
    kind: AccessKind,
    answer: Decision,
    parked: AtomicBool,
    released: AtomicBool,
}

impl ParkFirst {
    fn new(kind: AccessKind, answer: Decision) -> Arc<Self> {
        Arc::new(ParkFirst {
            kind,
            answer,
            parked: AtomicBool::new(false),
            released: AtomicBool::new(false),
        })
    }
}

/// Releases a parked producer when dropped, so a failed assertion while
/// it is parked fails the test instead of hanging it.
struct ReleaseOnDrop<'a>(&'a ParkFirst);

impl Drop for ReleaseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.released.store(true, Ordering::Release);
    }
}

impl SchedulePoint for ParkFirst {
    fn yield_point(&self, _addr: usize, kind: AccessKind) -> Decision {
        if kind != self.kind || self.parked.swap(true, Ordering::AcqRel) {
            return Decision::Proceed;
        }
        while !self.released.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        self.answer
    }
}

/// Runs `push` on a thread whose first access of `hook.kind` parks, runs
/// `while_parked` on this thread meanwhile, then releases the producer
/// and returns what its push returned.
fn push_parked(
    hook: &Arc<ParkFirst>,
    push: impl FnOnce() -> bool + Send,
    while_parked: impl FnOnce(),
) -> bool {
    std::thread::scope(|s| {
        let producer = s.spawn(|| {
            let _guard = sched::install(hook.clone());
            push()
        });
        let release = ReleaseOnDrop(hook);
        while !hook.parked.load(Ordering::Acquire) && !producer.is_finished() {
            std::thread::yield_now();
        }
        assert!(
            hook.parked.load(Ordering::Acquire),
            "the push never reached the parked access"
        );
        while_parked();
        drop(release);
        producer.join().expect("producer panicked")
    })
}

/// A pop claims a stamped request before its tail SC lands, which leaves
/// the head one past the tail: the producer's first CAS on a Figure-4
/// native push is that SC, parked here. A thief or `len` that read the
/// wrapped gap as a queue would steal 32 stale slots.
#[test]
fn a_pop_that_passes_a_pending_tail_sc_leaves_nothing_to_steal() {
    let native = || CasLlSc::new_native(TagLayout::half(), 0).unwrap();
    let ring = ShardRing::new(4, native(), native());
    let hook = ParkFirst::new(AccessKind::Cas, Decision::Proceed);
    let mut stash = [seq_request(0); STEAL_MAX];
    let ctx = &mut Native;
    let push = || ring.try_push(&mut Native, seq_request(1));
    let pushed = push_parked(&hook, push, || {
        let ctx = &mut Native;
        assert_eq!(
            ring.try_pop(ctx),
            Some(seq_request(1)),
            "stamped, so claimable"
        );
        assert_eq!(
            ring.steal_into(ctx, &mut stash),
            0,
            "head ahead of tail is empty"
        );
        assert_eq!(ring.len(ctx), 0);
        assert!(ring.try_pop(ctx).is_none());
    });
    assert!(pushed, "the parked push lands");
    assert!(ring.try_pop(ctx).is_none(), "consumed exactly once");
    assert_eq!(ring.steal_into(ctx, &mut stash), 0);
    assert_eq!(ring.len(ctx), 0);
    assert!(ring.try_push(ctx, seq_request(2)));
    assert_eq!(ring.len(ctx), 1);
    assert_eq!(ring.try_pop(ctx), Some(seq_request(2)));
}

/// Figure 4 over native CAS whose SC first yields as an RSC, so a
/// schedule hook can fail it spuriously. (The registry's RLL/RSC entries
/// absorb spurious failures inside their own SC.)
#[derive(Debug)]
struct SpuriousSc(CasLlSc<Native>);

impl LlScVar for SpuriousSc {
    type Keep = <CasLlSc<Native> as LlScVar>::Keep;
    type Ctx<'a> = Native;

    fn ll(&self, ctx: &mut Native, keep: &mut Self::Keep) -> u64 {
        LlScVar::ll(&self.0, ctx, keep)
    }

    fn vl(&self, ctx: &mut Native, keep: &Self::Keep) -> bool {
        LlScVar::vl(&self.0, ctx, keep)
    }

    fn sc(&self, ctx: &mut Native, keep: &mut Self::Keep, new: u64) -> bool {
        let addr = std::ptr::from_ref(self) as usize;
        if sched::yield_point(addr, AccessKind::Rsc) == Decision::SpuriousFail {
            LlScVar::cl(&self.0, ctx, keep);
            return false;
        }
        LlScVar::sc(&self.0, ctx, keep, new)
    }

    fn cl(&self, ctx: &mut Native, keep: &mut Self::Keep) {
        LlScVar::cl(&self.0, ctx, keep);
    }

    fn read(&self, ctx: &mut Native) -> u64 {
        LlScVar::read(&self.0, ctx)
    }

    fn max_val(&self) -> u64 {
        LlScVar::max_val(&self.0)
    }
}

/// The producer's tail SC fails spuriously after its request was
/// stamped and claimed. The retry must repeat LL → SC alone: a room
/// check against the real head would see it one past the tail, report
/// "full", and the caller would push the request a second time.
#[test]
fn a_spurious_tail_sc_failure_after_the_claim_still_pushes_once() {
    let var = || SpuriousSc(CasLlSc::new_native(TagLayout::half(), 0).unwrap());
    let ring = ShardRing::new(4, var(), var());
    let hook = ParkFirst::new(AccessKind::Rsc, Decision::SpuriousFail);
    let ctx = &mut Native;
    let push = || ring.try_push(&mut Native, seq_request(1));
    let pushed = push_parked(&hook, push, || {
        assert_eq!(ring.try_pop(&mut Native), Some(seq_request(1)));
    });
    assert!(pushed, "a claimed request was pushed, not refused as full");
    assert!(ring.try_pop(ctx).is_none(), "consumed exactly once");
    assert_eq!(ring.len(ctx), 0);
    assert!(ring.try_push(ctx, seq_request(2)));
    assert_eq!(ring.try_pop(ctx), Some(seq_request(2)));
}

/// The request with sequence number `n`: every field is a distinct
/// function of `n`.
fn seq_request(n: u64) -> Request {
    Request {
        arrival_ns: n,
        service_ns: n.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        key: !n,
    }
}

fn assert_self_consistent(r: &Request) {
    assert_eq!(*r, seq_request(r.arrival_ns), "torn or stale slot read");
}
