//! The elastic fabric: a serving pool that grows into a flash crowd and
//! shrinks out of it, built on dynamic joining.
//!
//! PR 6's sharded fabric fixed its worker count for the run and left the
//! [`Directory`] generation word as the designated elastic-resize hook,
//! blocked on dynamic joining. This module is that payoff. An elastic
//! cell pre-spawns `max_workers` threads but *activates* only
//! `min_workers` of them; a producer-driven autoscaler then resizes the
//! active set as load moves:
//!
//! * **Resize protocol** — the producer republishes the [`Directory`]
//!   word (`generation` bumps, `workers` becomes the new active count).
//!   Active workers poll the directory between requests: a worker that
//!   reads `workers <= me` drains its own ring, **retires** its provider
//!   slot, and parks. Parked workers hold *no* provider context, so they
//!   cannot read an LL/SC word at all — they wake on a plain-atomic
//!   `active` mirror the producer stores right after each publish, and
//!   **join** the provider domain afresh on activation. On the `dynamic`
//!   providers this is real process churn through
//!   [`Provider::join`]/[`Provider::retire`] — a new slot id per
//!   activation epoch, exercising the construction's membership path at
//!   every resize. Fixed-N providers (whose `join` reports
//!   `PoolExhausted`) fall back to holding slot `me` for the whole run,
//!   so the elastic cell still runs — without churn — on every registry
//!   entry.
//! * **Admission follows the pool** — the [`StripedBucket`] holds
//!   `max_workers` stripes but only the active ones are dispatched to,
//!   so the standing burst slack is `active × B`, not `max × B`. On
//!   scale-down the producer calls
//!   [`StripedBucket::redistribute`] for each deactivated stripe,
//!   draining its parked tokens back to the global bucket — tokens
//!   follow the pool instead of stranding in retired shards. This is
//!   the mechanism behind E14's headline: a big *fixed* pool keeps
//!   `W × B` slack parked in stripes and therefore admits a deeper slab
//!   of every ON burst; the elastic pool meets the burst with the slack
//!   of a small pool, sheds the slab front, and scales workers up to
//!   absorb what it did admit.
//! * **Leftover work is conserved** — requests queued on a deactivated
//!   ring are drained by the owner before it parks, and thieves scan
//!   *all* `max_workers` rings (not just active ones), so a request is
//!   executed exactly once no matter how the pool moved under it. The
//!   cell asserts `completed == admitted` at the end of every run.
//!
//! ## The autoscaler is deterministic
//!
//! Scaling decisions read only the *virtual* queue model: every
//! [`ScalerConfig::check_every`] generated requests the producer
//! computes the mean per-active-server backlog (`free[w] − now` on the
//! virtual clock) and doubles the pool (up to `max`) when it exceeds
//! [`ScalerConfig::up_backlog_ns`], or parks one worker (down to `min`)
//! when it falls below [`ScalerConfig::down_backlog_ns`]. Like every
//! number in the results block, the resize history is a pure function
//! of the seed — same seed, byte-identical [`ElasticResult`] — while
//! the *real* threads genuinely join, steal, drain, and retire under
//! the resizes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use nbsp_core::provider::Fig4Native;
use nbsp_core::{with_provider, Backoff, Provider, ProviderId};
use nbsp_memsim::rng::SplitMix64;
use nbsp_memsim::ProcId;
use nbsp_structures::stm_orec::OrecStm;
use nbsp_structures::{Counter, Queue, Stack};

use crate::admission::AdmissionConfig;
use crate::fabric::{
    flush_telemetry, shard_for_key, AdmitOutcome, Directory, ShardRing, StripedBucket, STEAL_MAX,
    STEAL_NS,
};
use crate::loadgen::{ArrivalProcess, LoadGen, Request};
use crate::metrics::{CellFlusher, CellSink};
use crate::service::{CellResult, MapCell, ServeSinks, Workload, CLAIM_NS_PER_CONTENDER, FLUSH_EVERY};

/// The registry provider an elastic cell runs on when the caller does
/// not pick one: the dynamic-joining construction, whose
/// `join`/`retire` the resize protocol exercises. (The durable variant
/// and every fixed-N provider work too, via [`run_elastic_cell_as`].)
pub const DEFAULT_ELASTIC_PROVIDER: ProviderId = ProviderId::Dynamic;

/// The producer-driven autoscaler's policy knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScalerConfig {
    /// Generated requests between scaling decisions.
    pub check_every: u64,
    /// Scale up (double, capped at `max_workers`) when the mean
    /// per-active-server virtual backlog exceeds this.
    pub up_backlog_ns: u64,
    /// Scale down (one worker, floored at `min_workers`) when the mean
    /// backlog falls below this.
    pub down_backlog_ns: u64,
    /// Park straight down to `min_workers` when an inter-arrival gap
    /// reaches this (the end of a burst), redistributing every
    /// deactivated stripe. With the global bucket refilled to its cap
    /// by the same idle time, most of the parked stripe slack is
    /// clipped away — which is exactly why the elastic pool admits a
    /// shallower slab of the *next* burst than a fixed full-size pool.
    /// `0` disables the rule.
    pub idle_gap_ns: u64,
}

/// Configuration of one elastic cell. Shared fields mean the same as in
/// [`crate::fabric::FabricConfig`]; rings, stripes, and threads are
/// provisioned at `max_workers` and activated elastically.
#[derive(Clone, Debug)]
pub struct ElasticConfig {
    /// Seed for the whole cell (arrivals and service demands).
    pub seed: u64,
    /// Arrival process (also fixes the offered rate).
    pub process: ArrivalProcess,
    /// Structure under service.
    pub workload: Workload,
    /// Active workers the pool starts at and never shrinks below.
    pub min_workers: usize,
    /// Pre-spawned workers the pool can grow to.
    pub max_workers: usize,
    /// Requests to generate (admitted + shed).
    pub requests: u64,
    /// Mean virtual service demand per request, in nanoseconds.
    pub service_mean_ns: f64,
    /// Striped token-bucket admission, or `None` to admit everything.
    pub admission: Option<AdmissionConfig>,
    /// Capacity of each shard's ring (a power of two).
    pub ring_capacity: usize,
    /// Batch size `B` of a global → shard token refill.
    pub refill_batch: u64,
    /// The autoscaler's policy.
    pub scaler: ScalerConfig,
}

/// The deterministic resize history of one elastic run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolTrace {
    /// Directory republishes (scale-ups + scale-downs).
    pub resizes: u64,
    /// Resizes that grew the pool.
    pub scale_ups: u64,
    /// Resizes that shrank the pool.
    pub scale_downs: u64,
    /// Largest active count the run reached.
    pub peak_workers: usize,
    /// Smallest active count the run reached.
    pub low_workers: usize,
    /// Active count when the producer finished.
    pub final_workers: usize,
}

/// One elastic cell's outcome: the standard cell block plus the resize
/// history. Byte-identical across same-seed runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ElasticResult {
    /// Counters, histogram percentiles — as reported by every cell.
    pub cell: CellResult,
    /// The autoscaler's history.
    pub pool: PoolTrace,
}

/// Runs one elastic cell on the [`DEFAULT_ELASTIC_PROVIDER`].
///
/// # Panics
///
/// As [`run_elastic_cell_as`].
#[must_use]
pub fn run_elastic_cell(cfg: &ElasticConfig, sinks: Option<&ServeSinks>) -> ElasticResult {
    run_elastic_cell_as(DEFAULT_ELASTIC_PROVIDER, cfg, sinks)
}

/// Runs one elastic cell with its coordination words (ring cursors,
/// directory, admission stripes) on the given registry provider. As in
/// the fixed fabric, the workload structures stay on the native
/// Figure-4 entry; the provider under test supplies the fabric's words
/// and — when it supports it — the join/retire membership path.
///
/// # Panics
///
/// Panics on `min_workers < 1`, `min_workers > max_workers`, a
/// `max_workers` that does not fit the directory's 8-bit count or the
/// telemetry slot space, a zero `requests`, a non-power-of-two
/// `ring_capacity`, and if the final snapshot violates
/// `completed == admitted`.
#[must_use]
pub fn run_elastic_cell_as(
    provider: ProviderId,
    cfg: &ElasticConfig,
    sinks: Option<&ServeSinks>,
) -> ElasticResult {
    macro_rules! run_as {
        ($p:ty) => {
            run_elastic_cell_for::<$p>(cfg, sinks)
        };
    }
    with_provider!(provider, run_as)
}

/// The monomorphized cell body behind [`run_elastic_cell_as`].
fn run_elastic_cell_for<P: Provider>(
    cfg: &ElasticConfig,
    sinks: Option<&ServeSinks>,
) -> ElasticResult {
    assert!(cfg.min_workers >= 1, "need at least one active worker");
    assert!(
        cfg.min_workers <= cfg.max_workers,
        "min_workers must not exceed max_workers"
    );
    assert!(cfg.max_workers < 256, "directory holds 8-bit counts");
    assert!(
        cfg.max_workers < nbsp_telemetry::MAX_SLOTS,
        "more workers than telemetry slots: two workers would share a slot"
    );
    assert!(cfg.requests > 0, "need at least one request");
    let sink = CellSink::new(cfg.max_workers + 1).unwrap();

    let pool = match cfg.workload {
        Workload::Counter => {
            let env = Fig4Native::env(cfg.max_workers + 1).unwrap();
            let c = Counter::new(Fig4Native::var(&env, 0).unwrap());
            drive_elastic::<P, _>(cfg, &sink, sinks, |slot| {
                let c = &c;
                let mut tc = Fig4Native::thread_ctx(&env, slot);
                move |_key| {
                    c.increment(&mut Fig4Native::ctx(&mut tc));
                }
            })
        }
        Workload::Stack => {
            let env = Fig4Native::env(cfg.max_workers + 1).unwrap();
            let mut setup_tc = Fig4Native::thread_ctx(&env, cfg.max_workers);
            let mut setup = Fig4Native::ctx(&mut setup_tc);
            let st = Stack::new(
                2 * cfg.max_workers + 8,
                Fig4Native::var(&env, 0).unwrap(),
                Fig4Native::var(&env, 0).unwrap(),
                &mut setup,
            );
            drive_elastic::<P, _>(cfg, &sink, sinks, |slot| {
                let st = &st;
                let mut tc = Fig4Native::thread_ctx(&env, slot);
                let v = slot as u64;
                move |_key| {
                    let mut ctx = Fig4Native::ctx(&mut tc);
                    let _ = st.push(&mut ctx, v);
                    let _ = st.pop(&mut ctx);
                }
            })
        }
        Workload::Queue => {
            let env = Fig4Native::env(cfg.max_workers + 1).unwrap();
            let mut setup_tc = Fig4Native::thread_ctx(&env, cfg.max_workers);
            let mut setup = Fig4Native::ctx(&mut setup_tc);
            let q = Queue::new(
                2 * cfg.max_workers + 8,
                || Fig4Native::var(&env, 0).unwrap(),
                &mut setup,
            );
            drive_elastic::<P, _>(cfg, &sink, sinks, |slot| {
                let q = &q;
                let mut tc = Fig4Native::thread_ctx(&env, slot);
                let v = slot as u64;
                move |_key| {
                    let mut ctx = Fig4Native::ctx(&mut tc);
                    let _ = q.enqueue(&mut ctx, v);
                    let _ = q.dequeue(&mut ctx);
                }
            })
        }
        Workload::Stm => {
            let stm = OrecStm::new(&[0; 4]);
            drive_elastic::<P, _>(cfg, &sink, sinks, |slot| {
                let stm = &stm;
                let p = ProcId::new(slot);
                move |_key| {
                    stm.transact(p, &[0, 1], |vals| {
                        vals[0] += 1;
                        vals[1] += 1;
                    });
                }
            })
        }
        Workload::OrdMap { .. } => {
            let mc = MapCell::new(cfg.max_workers, cfg.requests, cfg.seed);
            let pool = drive_elastic::<P, _>(cfg, &sink, sinks, |slot| mc.op(slot));
            mc.assert_conserved();
            pool
        }
    };

    let snapshot = sink.snapshot();
    assert_eq!(
        snapshot.completed, snapshot.admitted,
        "every admitted request must be executed exactly once across resizes"
    );
    ElasticResult {
        cell: CellResult {
            snapshot,
            p50_ns: snapshot.percentile_ns(0.50),
            p95_ns: snapshot.percentile_ns(0.95),
            p99_ns: snapshot.percentile_ns(0.99),
            p999_ns: snapshot.percentile_ns(0.999),
        },
        pool,
    }
}

/// Everything an elastic worker thread shares with its peers.
struct ElasticShared<'a, P: Provider> {
    env: &'a P::Env,
    rings: &'a [ShardRing<P::Var>],
    directory: &'a Directory<P::Var>,
    /// Plain-atomic mirror of the directory's worker count, for parked
    /// workers (which hold no provider context and therefore cannot
    /// read an LL/SC word).
    active: &'a AtomicU64,
    done: &'a AtomicBool,
    sink: &'a CellSink,
    sinks: Option<&'a ServeSinks>,
    producer_slot: usize,
    seed: u64,
    max_workers: usize,
}

/// Builds the fabric's words at `max_workers` provisioning, spawns every
/// worker (parked), runs the producer/autoscaler inline, joins.
fn drive_elastic<P: Provider, F>(
    cfg: &ElasticConfig,
    sink: &CellSink,
    sinks: Option<&ServeSinks>,
    mut make_op: impl FnMut(usize) -> F,
) -> PoolTrace
where
    F: FnMut(u64) + Send,
{
    let env = P::env(cfg.max_workers + 1).expect("elastic provider env");
    let rings: Vec<ShardRing<P::Var>> = (0..cfg.max_workers)
        .map(|_| {
            ShardRing::new(
                cfg.ring_capacity,
                P::var(&env, 0).unwrap(),
                P::var(&env, 0).unwrap(),
            )
        })
        .collect();
    let directory = Directory::new(P::var(&env, 0).unwrap());
    let bucket = cfg.admission.map(|a| {
        let locals = (0..cfg.max_workers)
            .map(|_| P::var(&env, 0).unwrap())
            .collect();
        StripedBucket::new(a, cfg.refill_batch, locals)
    });
    // 0 until the first publish: no worker activates before the
    // directory exists.
    let active = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let ops: Vec<F> = (0..cfg.max_workers).map(&mut make_op).collect();
    let shared = ElasticShared::<P> {
        env: &env,
        rings: &rings,
        directory: &directory,
        active: &active,
        done: &done,
        sink,
        sinks,
        producer_slot: nbsp_telemetry::thread_slot(),
        seed: cfg.seed,
        max_workers: cfg.max_workers,
    };
    std::thread::scope(|s| {
        for (me, op) in ops.into_iter().enumerate() {
            let shared = &shared;
            s.spawn(move || elastic_worker::<P, F>(shared, me, op));
        }
        let trace = elastic_produce::<P>(cfg, &shared, bucket.as_ref());
        done.store(true, Ordering::Release);
        trace
    })
}

/// The open-loop client and autoscaler: striped admission over the
/// active stripes, the sharded virtual queue model over the active
/// servers, resize decisions on the virtual clock, per-shard dispatch.
fn elastic_produce<P: Provider>(
    cfg: &ElasticConfig,
    shared: &ElasticShared<'_, P>,
    bucket: Option<&StripedBucket<P::Var>>,
) -> PoolTrace {
    let max = cfg.max_workers;
    let mut tc = P::thread_ctx(shared.env, max);
    let mut ctx = P::ctx(&mut tc);
    let mut active = cfg.min_workers;
    shared.directory.publish(&mut ctx, active);
    shared.active.store(active as u64, Ordering::Release);

    let keyed = cfg.workload.key_dist().is_some();
    let mut gen = match cfg.workload.key_dist() {
        Some(dist) => LoadGen::new_keyed(cfg.seed, cfg.process, cfg.service_mean_ns, dist),
        None => LoadGen::new(cfg.seed, cfg.process, cfg.service_mean_ns),
    };
    let mut cell = CellFlusher::new(max);
    let mut tele = shared.sinks.map(|_| {
        (
            nbsp_telemetry::Flusher::new(),
            nbsp_telemetry::HistFlusher::new(),
        )
    });
    // The fabric's virtual model, elastically: only servers below
    // `active` receive work or count toward the steal rule. A server's
    // `free` clock survives deactivation — a re-activated server may
    // still be finishing what it had (realistically, the pool pays for
    // scaling into servers that are not instantly idle).
    let mut dispatch_free = vec![0u64; max];
    let mut free = vec![0u64; max];
    let mut trace = PoolTrace {
        resizes: 0,
        scale_ups: 0,
        scale_downs: 0,
        peak_workers: active,
        low_workers: active,
        final_workers: active,
    };
    let mut unflushed = 0u32;
    let mut prev_arrival_ns = 0u64;
    for i in 0..cfg.requests {
        let r = gen.next_request();
        // A burst ended: park to the floor. The deactivated stripes
        // redistribute into a global bucket the same idle time has
        // refilled to its cap, so most of their parked slack is clipped
        // away — the next burst meets a small pool's admission slack.
        if cfg.scaler.idle_gap_ns > 0
            && active > cfg.min_workers
            && r.arrival_ns.saturating_sub(prev_arrival_ns) >= cfg.scaler.idle_gap_ns
        {
            if let Some(b) = bucket {
                for shard in cfg.min_workers..active {
                    b.redistribute(&mut ctx, shard);
                }
            }
            active = cfg.min_workers;
            shared.directory.publish(&mut ctx, active);
            shared.active.store(active as u64, Ordering::Release);
            trace.scale_downs += 1;
            trace.resizes += 1;
            trace.low_workers = trace.low_workers.min(active);
        }
        prev_arrival_ns = r.arrival_ns;
        // The autoscaler: a pure function of the virtual model, so the
        // whole resize history replays from the seed.
        if cfg.scaler.check_every > 0 && i > 0 && i % cfg.scaler.check_every == 0 {
            let now = r.arrival_ns;
            let backlog: u64 = free[..active].iter().map(|&f| f.saturating_sub(now)).sum();
            let avg = backlog / active as u64;
            let target = if avg > cfg.scaler.up_backlog_ns {
                (active * 2).min(max)
            } else if avg < cfg.scaler.down_backlog_ns {
                active.saturating_sub(1).max(cfg.min_workers)
            } else {
                active
            };
            if target != active {
                if target < active {
                    // Tokens follow the pool: deactivated stripes hand
                    // their slack back to the global bucket.
                    if let Some(b) = bucket {
                        for shard in target..active {
                            b.redistribute(&mut ctx, shard);
                        }
                    }
                    trace.scale_downs += 1;
                } else {
                    trace.scale_ups += 1;
                }
                active = target;
                shared.directory.publish(&mut ctx, active);
                shared.active.store(active as u64, Ordering::Release);
                trace.resizes += 1;
                trace.peak_workers = trace.peak_workers.max(active);
                trace.low_workers = trace.low_workers.min(active);
            }
        }
        // Keyed workloads hash over the *active* shards; unkeyed ones
        // round-robin — both at generation time.
        let shard = if keyed {
            shard_for_key(r.key, active)
        } else {
            (i % active as u64) as usize
        };
        let outcome = match bucket {
            None => AdmitOutcome::Admitted { refilled: false },
            Some(b) => b.admit(&mut ctx, shard, r.arrival_ns),
        };
        match outcome {
            AdmitOutcome::Admitted { refilled } => {
                cell.record_admit();
                if refilled {
                    cell.record_refill();
                }
                let claimed = dispatch_free[shard].max(r.arrival_ns) + CLAIM_NS_PER_CONTENDER;
                dispatch_free[shard] = claimed;
                let mut best = 0;
                for (j, &f) in free.iter().enumerate().take(active).skip(1) {
                    if f < free[best] {
                        best = j;
                    }
                }
                let start_home = free[shard].max(claimed);
                let start_best = free[best].max(claimed);
                let completion = if start_best + STEAL_NS < start_home {
                    cell.record_steal();
                    let c = start_best + STEAL_NS + r.service_ns;
                    free[best] = c;
                    c
                } else {
                    let c = start_home + r.service_ns;
                    free[shard] = c;
                    c
                };
                cell.record_sojourn(completion - r.arrival_ns);
                let mut backoff = Backoff::new();
                while !shared.rings[shard].try_push(&mut ctx, r) {
                    backoff.spin();
                }
            }
            AdmitOutcome::Shed => cell.record_shed(),
        }
        unflushed += 1;
        if unflushed >= FLUSH_EVERY {
            cell.flush(shared.sink);
            flush_telemetry(&mut tele, shared.sinks);
            unflushed = 0;
        }
    }
    cell.flush(shared.sink);
    flush_telemetry(&mut tele, shared.sinks);
    trace.final_workers = active;
    trace
}

/// One elastic worker: park until activated, join (or fall back to a
/// fixed slot), serve an activation epoch, retire, repeat.
fn elastic_worker<P: Provider, F: FnMut(u64)>(shared: &ElasticShared<'_, P>, me: usize, mut op: F) {
    let mut cell = CellFlusher::new(me);
    let shared_slot = nbsp_telemetry::thread_slot() == shared.producer_slot;
    let mut tele = (!shared_slot)
        .then_some(shared.sinks)
        .flatten()
        .map(|_| {
            (
                nbsp_telemetry::Flusher::new(),
                nbsp_telemetry::HistFlusher::new(),
            )
        });
    let mut backoff = Backoff::new();
    let mut rng = SplitMix64::new(shared.seed ^ (me as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut stash = [Request {
        arrival_ns: 0,
        service_ns: 0,
        key: 0,
    }; STEAL_MAX];
    // Fixed-N providers cannot join, so their workers hold slot `me`
    // for the whole run (created on first activation).
    let mut fixed_tc: Option<P::ThreadCtx> = None;

    'run: loop {
        // Parked: no provider context, so the plain mirror is the only
        // readable signal.
        loop {
            if shared.active.load(Ordering::Acquire) > me as u64 {
                break;
            }
            if shared.done.load(Ordering::Acquire) {
                break 'run;
            }
            backoff.spin();
        }
        backoff.reset();
        // Activation: dynamic providers join a fresh slot per epoch and
        // retire it on deactivation — real membership churn at every
        // resize.
        let joined = P::join(shared.env).ok();
        let mut epoch_tc;
        let tc: &mut P::ThreadCtx = match joined {
            Some(p) => {
                epoch_tc = P::thread_ctx(shared.env, p);
                &mut epoch_tc
            }
            None => fixed_tc.get_or_insert_with(|| P::thread_ctx(shared.env, me)),
        };
        let drained = serve_epoch::<P, F>(shared, me, &mut op, &mut cell, &mut tele, tc, &mut rng, &mut stash);
        if let Some(p) = joined {
            P::retire(shared.env, p);
        }
        if drained {
            break 'run;
        }
    }
    cell.flush(shared.sink);
    flush_telemetry(&mut tele, shared.sinks);
}

type TeleFlushers = Option<(nbsp_telemetry::Flusher, nbsp_telemetry::HistFlusher)>;

/// One activation epoch: drain the own ring, steal when dry, leave when
/// deactivated (returns `false`) or when the whole fabric is drained
/// (returns `true`).
#[allow(clippy::too_many_arguments)]
fn serve_epoch<P: Provider, F: FnMut(u64)>(
    shared: &ElasticShared<'_, P>,
    me: usize,
    op: &mut F,
    cell: &mut CellFlusher,
    tele: &mut TeleFlushers,
    tc: &mut P::ThreadCtx,
    rng: &mut SplitMix64,
    stash: &mut [Request; STEAL_MAX],
) -> bool {
    let mut ctx = P::ctx(tc);
    let mut backoff = Backoff::new();
    let mut unflushed = 0u32;
    let drained = loop {
        // The directory is the authoritative shape: a worker the latest
        // publish no longer covers deactivates itself.
        let (_generation, workers) = shared.directory.read(&mut ctx);
        if workers <= me {
            break false;
        }
        if let Some(r) = shared.rings[me].try_pop(&mut ctx) {
            op(r.key);
            cell.record_completed(1);
            unflushed += 1;
            backoff.reset();
        } else {
            // Thieves scan every ring, active or not: a deactivated
            // ring may still hold requests pushed before the resize.
            let start = (rng.next_u64() as usize) % shared.max_workers;
            let mut stolen = 0;
            for j in 0..shared.max_workers {
                let victim = (start + j) % shared.max_workers;
                if victim == me {
                    continue;
                }
                stolen = shared.rings[victim].steal_into(&mut ctx, stash);
                if stolen > 0 {
                    break;
                }
            }
            if stolen > 0 {
                for r in &stash[..stolen] {
                    op(r.key);
                }
                cell.record_completed(stolen as u64);
                unflushed += stolen as u32;
                backoff.reset();
            } else {
                if shared.done.load(Ordering::Acquire)
                    && (0..shared.max_workers).all(|w| shared.rings[w].is_empty(&mut ctx))
                {
                    break true;
                }
                backoff.spin();
            }
        }
        if unflushed >= FLUSH_EVERY {
            cell.flush(shared.sink);
            flush_telemetry(tele, shared.sinks);
            unflushed = 0;
        }
    };
    if !drained {
        // Deactivated: hand back an empty ring rather than leaving the
        // leftovers for a thief to find.
        while let Some(r) = shared.rings[me].try_pop(&mut ctx) {
            op(r.key);
            cell.record_completed(1);
        }
    }
    cell.flush(shared.sink);
    flush_telemetry(tele, shared.sinks);
    drained
}

#[cfg(test)]
mod tests {
    use super::*;

    fn onoff(pool_capacity_per_sec: f64) -> ArrivalProcess {
        ArrivalProcess::OnOff {
            on_rate_per_sec: 2.0 * pool_capacity_per_sec,
            on_mean_ns: 50_000.0,
            off_mean_ns: 50_000.0,
        }
    }

    fn small_cfg() -> ElasticConfig {
        let max = 8;
        ElasticConfig {
            seed: 0x0e1a_571c,
            process: onoff(max as f64 * 1e6),
            workload: Workload::Counter,
            min_workers: 2,
            max_workers: max,
            requests: 20_000,
            service_mean_ns: 1_000.0,
            admission: Some(AdmissionConfig {
                rate_per_sec: 0.85 * max as f64 * 1e6,
                burst: 256,
            }),
            ring_capacity: 1024,
            refill_batch: 64,
            scaler: ScalerConfig {
                check_every: 64,
                up_backlog_ns: 4_000,
                down_backlog_ns: 1_000,
                idle_gap_ns: 10_000,
            },
        }
    }

    #[test]
    fn elastic_cell_conserves_and_is_deterministic() {
        let cfg = small_cfg();
        let a = run_elastic_cell(&cfg, None);
        let b = run_elastic_cell(&cfg, None);
        assert_eq!(a, b, "seeded elastic runs must be byte-identical");
        assert_eq!(a.cell.snapshot.generated(), cfg.requests);
        assert_eq!(a.cell.snapshot.completed, a.cell.snapshot.admitted);
    }

    #[test]
    fn the_flash_crowd_moves_the_pool_both_ways() {
        let r = run_elastic_cell(&small_cfg(), None);
        assert!(r.pool.scale_ups > 0, "the ON slabs must grow the pool");
        assert!(r.pool.scale_downs > 0, "the OFF gaps must shrink it");
        assert!(r.pool.peak_workers > 2, "peak above min");
        assert_eq!(r.pool.low_workers, 2, "never below min");
        assert_eq!(r.pool.resizes, r.pool.scale_ups + r.pool.scale_downs);
    }

    #[test]
    fn the_durable_provider_carries_the_elastic_cell_too() {
        let mut cfg = small_cfg();
        cfg.requests = 5_000;
        let r = run_elastic_cell_as(ProviderId::DynamicDurable, &cfg, None);
        assert_eq!(r.cell.snapshot.completed, r.cell.snapshot.admitted);
        assert!(r.pool.resizes > 0);
    }

    #[test]
    fn fixed_n_providers_fall_back_to_held_slots() {
        // Fig4Native's join reports PoolExhausted; the workers keep
        // their own slots and the cell still resizes and conserves.
        let mut cfg = small_cfg();
        cfg.requests = 5_000;
        let r = run_elastic_cell_as(ProviderId::Fig4Native, &cfg, None);
        assert_eq!(r.cell.snapshot.completed, r.cell.snapshot.admitted);
        assert!(r.pool.resizes > 0);
    }

    #[test]
    fn the_keyed_map_workload_survives_resizes() {
        // Keys hash over the *active* shard set, which moves under the
        // run; conservation is asserted inside the cell after the drain.
        let mut cfg = small_cfg();
        cfg.requests = 5_000;
        cfg.workload = Workload::OrdMap {
            key_space: 32,
            zipf: true,
        };
        let a = run_elastic_cell(&cfg, None);
        let b = run_elastic_cell(&cfg, None);
        assert_eq!(a, b, "seeded keyed elastic runs must be byte-identical");
        assert_eq!(a.cell.snapshot.completed, a.cell.snapshot.admitted);
        assert!(a.pool.resizes > 0);
    }

    #[test]
    fn a_fixed_scaler_window_of_zero_never_resizes() {
        let mut cfg = small_cfg();
        cfg.requests = 2_000;
        cfg.scaler.check_every = 0;
        cfg.scaler.idle_gap_ns = 0;
        let r = run_elastic_cell(&cfg, None);
        assert_eq!(r.pool.resizes, 0);
        assert_eq!(r.pool.final_workers, cfg.min_workers);
        assert_eq!(r.cell.snapshot.completed, r.cell.snapshot.admitted);
    }
}
