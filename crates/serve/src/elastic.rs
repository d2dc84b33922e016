//! The serving pipeline: an elastic worker pool behind a load generator,
//! admission, dispatch rings and the virtual queue model.
//!
//! Every cell runs through this one pipeline; [`Pool`] and [`Dispatch`]
//! pick its shape. A cell pre-spawns the pool's ceiling of threads but
//! *activates* only its floor; for an elastic pool a producer-driven
//! autoscaler then resizes the active set as load moves (a fixed pool is
//! the case floor == ceiling, where it never does):
//!
//! * **Resize protocol** — the producer republishes the [`Directory`]
//!   word (`generation` bumps, `workers` becomes the new active count).
//!   Active workers poll the directory between requests: a worker that
//!   reads `workers <= me` **retires** its provider slot and parks.
//!   Parked workers hold *no* provider context, so they cannot read an
//!   LL/SC word at all — they wake on a plain-atomic `active` mirror the
//!   producer stores right after each publish, and **join** the provider
//!   domain afresh on activation. On the `dynamic` providers this is real
//!   process churn through [`Provider::join`]/[`Provider::retire`] — a
//!   new slot id per activation epoch, exercising the construction's
//!   membership path at every resize. Fixed-N providers (whose `join`
//!   reports `PoolExhausted`) fall back to holding slot `me` for the
//!   whole run, so every cell runs — without churn — on every registry
//!   entry.
//! * **Dispatch** — `R` rings: one shared ring ([`Dispatch::Shared`]) or
//!   one per worker ([`Dispatch::Sharded`]). Worker `me` pops ring
//!   `me mod R` and, when it runs dry, steals half of another ring's
//!   queue ([`ShardRing::steal_into`]).
//! * **Admission follows the pool** — a sharded cell's [`StripedBucket`]
//!   holds a stripe per provisioned worker but only the active ones are
//!   dispatched to, so the standing burst slack is `active × B`, not
//!   `max × B`. On scale-down the producer calls
//!   [`StripedBucket::redistribute`] for each deactivated stripe,
//!   draining its parked tokens back to the global bucket. This is the
//!   mechanism behind E14's headline: a big *fixed* pool keeps `W × B`
//!   slack parked in stripes and therefore admits a deeper slab of every
//!   ON burst; the elastic pool meets the burst with the slack of a small
//!   pool, sheds the slab front, and scales workers up to absorb what it
//!   did admit. A shared cell admits through one [`TokenBucket`] word.
//! * **Leftover work is conserved** — thieves scan *every* ring, active
//!   or not, so requests queued on a deactivated ring are executed by
//!   the active workers, exactly once, no matter how the pool moved
//!   under them. The cell asserts `completed == admitted` at the end of
//!   every run.
//!
//! ## The virtual model
//!
//! Latency comes from a virtual queue model that is a pure function of
//! the seed, while the requests are really executed by real threads on
//! the real structures. With `R` the ring count (1 shared, `active`
//! sharded), each request is routed to ring `shard` — by key hash for a
//! keyed workload, round-robin over `R` otherwise — whose cursor is a
//! serialized station charging `CLAIM_NS_PER_CONTENDER × active / R` per
//! claim. Its *home* server is the earliest-free active server among
//! those that pop ring `shard`; if the pool's earliest-free server would
//! start it more than [`STEAL_NS`] sooner, it executes there instead,
//! paying [`STEAL_NS`] — the model's image of steal-half. With one
//! shared ring the home server *is* the earliest-free server, so the
//! model is a plain FCFS `N`-server queue behind one contended cursor
//! and never steals. Model steals and batch refills are counted in the
//! deterministic [`CellSnapshot`](crate::CellSnapshot) (`steals`,
//! `refills`); the real thieves' committed steals are racy and reported
//! only through `nbsp-telemetry` (`serve_steal`).
//!
//! ## The autoscaler is deterministic
//!
//! Scaling decisions read only the virtual model: every
//! [`ScalerConfig::check_every`] generated requests the producer
//! computes the mean per-active-server backlog (`free[w] − now` on the
//! virtual clock) and doubles the pool (up to `max`) when it exceeds
//! [`ScalerConfig::up_backlog_ns`], or parks one worker (down to `min`)
//! when it falls below [`ScalerConfig::down_backlog_ns`]. Like every
//! number in the result, the resize history is a pure function of the
//! seed, while the *real* threads genuinely join, steal and retire under
//! the resizes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use nbsp_core::{Backoff, LlScVar, Provider};
use nbsp_memsim::rng::SplitMix64;
use nbsp_telemetry::{Flusher, HistFlusher};

use crate::admission::TokenBucket;
use crate::fabric::{
    shard_for_key, AdmitOutcome, Directory, ShardRing, StripedBucket, STEAL_MAX, STEAL_NS,
};
use crate::loadgen::{LoadGen, Request};
use crate::metrics::{CellFlusher, CellSink};
use crate::service::{CellConfig, Dispatch, Pool, ServeSinks, CLAIM_NS_PER_CONTENDER, FLUSH_EVERY};

/// The producer-driven autoscaler's policy knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScalerConfig {
    /// Generated requests between scaling decisions (nonzero).
    pub check_every: u64,
    /// Scale up (double, capped at the ceiling) when the mean
    /// per-active-server virtual backlog exceeds this.
    pub up_backlog_ns: u64,
    /// Scale down (one worker, floored at the floor) when the mean
    /// backlog falls below this.
    pub down_backlog_ns: u64,
    /// Park straight down to the floor when an inter-arrival gap reaches
    /// this (the end of a burst), redistributing every deactivated
    /// stripe. With the global bucket refilled to its cap by the same
    /// idle time, most of the parked stripe slack is clipped away —
    /// which is exactly why the elastic pool admits a shallower slab of
    /// the *next* burst than a fixed full-size pool.
    pub idle_gap_ns: u64,
}

/// The deterministic resize history of one run.
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

/// A cell's admission control: one bucket word for a shared ring, or
/// one stripe per ring.
enum Admission<V: LlScVar> {
    Shared(TokenBucket),
    Striped(StripedBucket<V>),
}

impl<V: LlScVar> Admission<V> {
    fn admit(&self, ctx: &mut V::Ctx<'_>, shard: usize, now_ns: u64) -> AdmitOutcome {
        match self {
            Admission::Shared(b) if b.admit(now_ns) => AdmitOutcome::Admitted { refilled: false },
            Admission::Shared(_) => AdmitOutcome::Shed,
            Admission::Striped(b) => b.admit(ctx, shard, now_ns),
        }
    }

    /// Hands the slack of stripes `from..to` back to the global bucket.
    fn redistribute(&self, ctx: &mut V::Ctx<'_>, from: usize, to: usize) {
        if let Admission::Striped(b) = self {
            for shard in from..to {
                b.redistribute(ctx, shard);
            }
        }
    }
}

/// Everything the producer and the worker threads share.
struct Shared<'a, P: Provider> {
    env: &'a P::Env,
    rings: &'a [ShardRing<P::Var>],
    directory: &'a Directory<P::Var>,
    admission: Option<&'a Admission<P::Var>>,
    /// Plain-atomic mirror of the directory's worker count, for parked
    /// workers (which hold no provider context and therefore cannot
    /// read an LL/SC word).
    active: &'a AtomicU64,
    done: &'a AtomicBool,
    sink: &'a CellSink,
    sinks: Option<&'a ServeSinks>,
    seed: u64,
}

impl<P: Provider> Shared<'_, P> {
    /// Publishes a new active count: the directory word for active
    /// workers, then the plain mirror for parked ones.
    fn publish(&self, ctx: &mut <P::Var as LlScVar>::Ctx<'_>, active: usize) {
        self.directory.publish(ctx, active);
        self.active.store(active as u64, Ordering::Release);
    }

    /// Moves the pool from `from` to `to` active workers and records it.
    /// Tokens follow the pool: deactivated stripes hand their slack back
    /// to the global bucket before the shrink is published.
    fn resize(
        &self,
        ctx: &mut <P::Var as LlScVar>::Ctx<'_>,
        trace: &mut PoolTrace,
        from: usize,
        to: usize,
    ) {
        if to < from {
            if let Some(a) = self.admission {
                a.redistribute(ctx, to, from);
            }
            trace.scale_downs += 1;
        } else {
            trace.scale_ups += 1;
        }
        self.publish(ctx, to);
        trace.resizes += 1;
        trace.peak_workers = trace.peak_workers.max(to);
        trace.low_workers = trace.low_workers.min(to);
    }
}

type TeleFlushers = Option<(Flusher, HistFlusher)>;

fn flush_telemetry(tele: &mut TeleFlushers, sinks: Option<&ServeSinks>) {
    if let (Some((events, hists)), Some(s)) = (tele.as_mut(), sinks) {
        events.flush(&s.events);
        hists.flush(&s.hists);
    }
}

/// Builds the pipeline's words from one provider env at the pool's
/// ceiling, spawns every worker (parked), runs the producer inline,
/// joins. `make_op(slot)` builds worker `slot`'s structure operation.
pub(crate) fn drive<P: Provider, F>(
    cfg: &CellConfig,
    sink: &CellSink,
    sinks: Option<&ServeSinks>,
    make_op: impl FnMut(usize) -> F,
) -> PoolTrace
where
    F: FnMut(u64) + Send,
{
    let (_, max) = cfg.pool.bounds();
    let env = P::env(max + 1).expect("pipeline provider env");
    let ring_count = match cfg.dispatch {
        Dispatch::Shared => 1,
        Dispatch::Sharded { .. } => max,
    };
    let rings: Vec<ShardRing<P::Var>> = (0..ring_count)
        .map(|_| {
            ShardRing::new(
                cfg.ring_capacity,
                P::var(&env, 0).unwrap(),
                P::var(&env, 0).unwrap(),
            )
        })
        .collect();
    let directory = Directory::new(P::var(&env, 0).unwrap());
    let admission = cfg.admission.map(|a| match cfg.dispatch {
        Dispatch::Shared => Admission::Shared(TokenBucket::from_config(a)),
        Dispatch::Sharded { refill_batch } => {
            let locals = (0..max).map(|_| P::var(&env, 0).unwrap()).collect();
            Admission::Striped(StripedBucket::new(a, refill_batch, locals))
        }
    });
    // 0 until the first publish: no worker activates before the
    // directory exists.
    let active = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let ops: Vec<F> = (0..max).map(make_op).collect();
    let shared = Shared::<P> {
        env: &env,
        rings: &rings,
        directory: &directory,
        admission: admission.as_ref(),
        active: &active,
        done: &done,
        sink,
        sinks,
        seed: cfg.seed,
    };
    std::thread::scope(|s| {
        for (me, op) in ops.into_iter().enumerate() {
            let shared = &shared;
            s.spawn(move || worker::<P, F>(shared, me, op));
        }
        let trace = produce::<P>(cfg, &shared);
        done.store(true, Ordering::Release);
        trace
    })
}

/// The open-loop client and autoscaler: admission, the virtual queue
/// model over the active servers, resize decisions on the virtual clock,
/// dispatch. Runs on the calling thread, in the env's last slot.
fn produce<P: Provider>(cfg: &CellConfig, shared: &Shared<'_, P>) -> PoolTrace {
    let (min, max) = cfg.pool.bounds();
    let scaler = match cfg.pool {
        Pool::Fixed(_) => None,
        Pool::Elastic { scaler, .. } => Some(scaler),
    };
    let mut tc = P::thread_ctx(shared.env, max);
    let mut ctx = P::ctx(&mut tc);
    let mut active = min;
    shared.publish(&mut ctx, active);

    let keyed = cfg.workload.key_dist().is_some();
    let mut gen = match cfg.workload.key_dist() {
        Some(dist) => LoadGen::new_keyed(cfg.seed, cfg.process, cfg.service_mean_ns, dist),
        None => LoadGen::new(cfg.seed, cfg.process, cfg.service_mean_ns),
    };
    let mut cell = CellFlusher::new(max);
    let mut tele = shared.sinks.map(|_| (Flusher::new(), HistFlusher::new()));
    // Per-ring cursor and per-server clocks. A server's `free` clock
    // survives deactivation — a re-activated server may still be
    // finishing what it had (the pool pays for scaling into servers that
    // are not instantly idle).
    let mut dispatch_free = vec![0u64; shared.rings.len()];
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
        if let Some(sc) = scaler {
            // A burst ended: park to the floor. The deactivated stripes
            // redistribute into a global bucket the same idle time has
            // refilled to its cap, so most of their parked slack is
            // clipped away — the next burst meets a small pool's slack.
            if active > min && r.arrival_ns.saturating_sub(prev_arrival_ns) >= sc.idle_gap_ns {
                shared.resize(&mut ctx, &mut trace, active, min);
                active = min;
            }
            // The autoscaler: a pure function of the virtual model, so
            // the whole resize history replays from the seed.
            if i > 0 && i % sc.check_every == 0 {
                let backlog: u64 = free[..active]
                    .iter()
                    .map(|&f| f.saturating_sub(r.arrival_ns))
                    .sum();
                let avg = backlog / active as u64;
                let target = if avg > sc.up_backlog_ns {
                    (active * 2).min(max)
                } else if avg < sc.down_backlog_ns {
                    active.saturating_sub(1).max(min)
                } else {
                    active
                };
                if target != active {
                    shared.resize(&mut ctx, &mut trace, active, target);
                    active = target;
                }
            }
        }
        prev_arrival_ns = r.arrival_ns;
        // The rings in use: the one shared ring, or one per active
        // worker. Keyed workloads hash over them (all ops on a key share
        // one); unkeyed ones round-robin — both at generation time.
        let rings = active.min(shared.rings.len());
        let shard = if keyed {
            shard_for_key(r.key, rings)
        } else {
            (i % rings as u64) as usize
        };
        let outcome = match shared.admission {
            None => AdmitOutcome::Admitted { refilled: false },
            Some(a) => a.admit(&mut ctx, shard, r.arrival_ns),
        };
        match outcome {
            AdmitOutcome::Admitted { refilled } => {
                cell.record_admit();
                if refilled {
                    cell.record_refill();
                }
                // The ring's cursor serializes claims; each costs the
                // contended-claim term for the workers popping it.
                let claim_ns = CLAIM_NS_PER_CONTENDER * (active / rings) as u64;
                let claimed = dispatch_free[shard].max(r.arrival_ns) + claim_ns;
                dispatch_free[shard] = claimed;
                // Earliest-free servers (ties to the lowest index): among
                // the ring's poppers, and in the whole active pool.
                let home = (shard..active)
                    .step_by(rings)
                    .min_by_key(|&w| free[w])
                    .expect("every ring in use has an active popper");
                let best = (0..active)
                    .min_by_key(|&w| free[w])
                    .expect("the floor is at least one worker");
                let start_home = free[home].max(claimed);
                let start_best = free[best].max(claimed);
                let (server, start) = if start_best + STEAL_NS < start_home {
                    cell.record_steal();
                    (best, start_best + STEAL_NS)
                } else {
                    (home, start_home)
                };
                free[server] = start + r.service_ns;
                cell.record_sojourn(free[server] - r.arrival_ns);
                // A full ring stalls the producer's real time only;
                // latency is charged from the intended arrival stamp.
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

/// One worker: park until activated, join (or fall back to a fixed
/// slot), serve an activation epoch, retire, repeat.
fn worker<P: Provider, F: FnMut(u64)>(shared: &Shared<'_, P>, me: usize, mut op: F) {
    let mut cell = CellFlusher::new(me);
    let mut tele = shared.sinks.map(|_| (Flusher::new(), HistFlusher::new()));
    let mut backoff = Backoff::new();
    // Victim rotation is seeded per worker: deterministic *sequence* of
    // starting points (me ⊕ cell seed), racy outcomes.
    let mut rng = SplitMix64::new(shared.seed ^ (me as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
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
        let drained = serve_epoch::<P, F>(shared, me, &mut op, &mut cell, &mut tele, tc, &mut rng);
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

/// One activation epoch: pop the own ring, steal when dry, leave when
/// deactivated (returns `false`) or when every ring is drained (returns
/// `true`).
fn serve_epoch<P: Provider, F: FnMut(u64)>(
    shared: &Shared<'_, P>,
    me: usize,
    op: &mut F,
    cell: &mut CellFlusher,
    tele: &mut TeleFlushers,
    tc: &mut P::ThreadCtx,
    rng: &mut SplitMix64,
) -> bool {
    let mut ctx = P::ctx(tc);
    let rings = shared.rings;
    let own = me % rings.len();
    let mut stash = [Request {
        arrival_ns: 0,
        service_ns: 0,
        key: 0,
    }; STEAL_MAX];
    let mut backoff = Backoff::new();
    let mut unflushed = 0u32;
    let drained = loop {
        // The directory is the authoritative shape: a worker the latest
        // publish no longer covers deactivates itself.
        let (_generation, workers) = shared.directory.read(&mut ctx);
        if workers <= me {
            break false;
        }
        if let Some(r) = rings[own].try_pop(&mut ctx) {
            op(r.key);
            cell.record_completed(1);
            unflushed += 1;
            backoff.reset();
        } else {
            // Dry: one steal attempt per other ring, active or not (a
            // deactivated ring may still hold requests pushed before the
            // resize), starting at a seeded rotation point.
            let start = (rng.next_u64() as usize) % rings.len();
            let stolen = (0..rings.len())
                .map(|j| (start + j) % rings.len())
                .filter(|&victim| victim != own)
                .map(|victim| rings[victim].steal_into(&mut ctx, &mut stash))
                .find(|&k| k > 0)
                .unwrap_or(0);
            if stolen > 0 {
                for r in &stash[..stolen] {
                    op(r.key);
                }
                cell.record_completed(stolen as u64);
                unflushed += stolen as u32;
                backoff.reset();
            } else {
                // `done` is set after the final push (release/acquire);
                // observing it and *then* finding every ring empty means
                // the cell is drained. Requests a peer has stolen but not
                // yet executed are claimed, not lost: the thief executes
                // its whole stash before re-checking.
                if shared.done.load(Ordering::Acquire)
                    && rings.iter().all(|ring| ring.is_empty(&mut ctx))
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
    cell.flush(shared.sink);
    flush_telemetry(tele, shared.sinks);
    drained
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::loadgen::ArrivalProcess;
    use crate::service::{run_cell, run_cell_as, CellResult, Workload};
    use nbsp_core::provider::{Dynamic, DynamicDurable, Fig4Native};

    fn onoff(pool_capacity_per_sec: f64) -> ArrivalProcess {
        ArrivalProcess::OnOff {
            on_rate_per_sec: 2.0 * pool_capacity_per_sec,
            on_mean_ns: 50_000.0,
            off_mean_ns: 50_000.0,
        }
    }

    fn scaler() -> ScalerConfig {
        ScalerConfig {
            check_every: 64,
            up_backlog_ns: 4_000,
            down_backlog_ns: 1_000,
            idle_gap_ns: 10_000,
        }
    }

    fn small_cfg() -> CellConfig {
        let max = 8;
        CellConfig {
            seed: 0x0e1a_571c,
            process: onoff(max as f64 * 1e6),
            workload: Workload::Counter,
            pool: Pool::Elastic {
                min: 2,
                max,
                scaler: scaler(),
            },
            dispatch: Dispatch::Sharded { refill_batch: 64 },
            requests: 20_000,
            service_mean_ns: 1_000.0,
            admission: Some(AdmissionConfig {
                rate_per_sec: 0.85 * max as f64 * 1e6,
                burst: 256,
            }),
            ring_capacity: 1024,
        }
    }

    fn run_dynamic(cfg: &CellConfig) -> CellResult {
        run_cell_as(Dynamic::ID, cfg, None)
    }

    #[test]
    fn elastic_cell_conserves_and_is_deterministic() {
        let cfg = small_cfg();
        let a = run_dynamic(&cfg);
        let b = run_dynamic(&cfg);
        assert_eq!(a, b, "seeded elastic runs must be byte-identical");
        assert_eq!(a.snapshot.generated(), cfg.requests);
        assert_eq!(a.snapshot.completed, a.snapshot.admitted);
    }

    #[test]
    fn the_flash_crowd_moves_the_pool_both_ways() {
        let r = run_dynamic(&small_cfg());
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
        let r = run_cell_as(DynamicDurable::ID, &cfg, None);
        assert_eq!(r.snapshot.completed, r.snapshot.admitted);
        assert!(r.pool.resizes > 0);
    }

    #[test]
    fn fixed_n_providers_fall_back_to_held_slots() {
        // Fig4Native's join reports PoolExhausted; the workers keep
        // their own slots and the cell still resizes and conserves.
        let mut cfg = small_cfg();
        cfg.requests = 5_000;
        let r = run_cell_as(Fig4Native::ID, &cfg, None);
        assert_eq!(r.snapshot.completed, r.snapshot.admitted);
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
        let a = run_dynamic(&cfg);
        let b = run_dynamic(&cfg);
        assert_eq!(a, b, "seeded keyed elastic runs must be byte-identical");
        assert_eq!(a.snapshot.completed, a.snapshot.admitted);
        assert!(a.pool.resizes > 0);
    }

    #[test]
    fn a_fixed_pool_never_resizes() {
        let mut cfg = small_cfg();
        cfg.requests = 2_000;
        cfg.pool = Pool::Fixed(2);
        let r = run_dynamic(&cfg);
        assert_eq!(
            r.pool,
            PoolTrace {
                resizes: 0,
                scale_ups: 0,
                scale_downs: 0,
                peak_workers: 2,
                low_workers: 2,
                final_workers: 2,
            }
        );
        assert_eq!(r.snapshot.completed, r.snapshot.admitted);
    }

    #[test]
    fn a_fixed_pool_is_an_elastic_pool_with_floor_equal_to_ceiling() {
        // Whatever the scaler says, a pool that cannot move behaves
        // exactly like the fixed pool of that size.
        let mut cfg = small_cfg();
        cfg.requests = 5_000;
        for n in [1, 4] {
            cfg.pool = Pool::Fixed(n);
            let fixed = run_cell(&cfg, None);
            cfg.pool = Pool::Elastic {
                min: n,
                max: n,
                scaler: scaler(),
            };
            assert_eq!(run_cell(&cfg, None), fixed, "{n} workers");
        }
    }

    #[test]
    fn a_single_worker_never_steals() {
        let mut cfg = small_cfg();
        cfg.requests = 2_000;
        cfg.pool = Pool::Fixed(1);
        let r = run_cell(&cfg, None);
        assert_eq!(r.snapshot.steals, 0);
        assert_eq!(r.snapshot.completed, r.snapshot.admitted);
    }

    #[test]
    fn sharding_beats_the_shared_ring_at_scale() {
        // The in-crate image of the E12 scaling gate: at 8 workers and
        // 1.2x pool capacity, the shared ring's dispatch cursor is past
        // saturation (8 x 40 ns x 9.6M/s > 1) while the per-worker
        // cursors are not.
        let workers = 8;
        let rate = 1.2 * workers as f64 * 1e6;
        let mut cfg = small_cfg();
        cfg.process = ArrivalProcess::Poisson { rate_per_sec: rate };
        cfg.pool = Pool::Fixed(workers);
        let sharded = run_cell(&cfg, None);
        cfg.dispatch = Dispatch::Shared;
        let base = run_cell(&cfg, None);
        assert!(
            sharded.p99_ns < base.p99_ns,
            "sharded p99 {} must beat shared-ring p99 {} at 8 workers",
            sharded.p99_ns,
            base.p99_ns
        );
    }
}
