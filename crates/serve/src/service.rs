//! What a serving *cell* is: its configuration, its result, the
//! structure its workers drive, and the two entry points.
//!
//! A cell is one run of the one serving pipeline
//! ([`crate::elastic`]): the calling thread is the open-loop client
//! (generation, admission, the virtual queue model, dispatch) and worker
//! threads execute the *real* structure operation for every admitted
//! request — counter increment, stack or queue push/pop pair, STM
//! transfer, ordered-map op — so the LL/SC stack underneath sees genuine
//! multi-thread contention and its telemetry is real. Two parameters
//! shape the pipeline:
//!
//! * [`Pool`] — `Fixed(n)` workers, or an `Elastic` pool that an
//!   autoscaler resizes between a floor and a ceiling. A fixed pool is
//!   exactly an elastic pool whose floor equals its ceiling.
//! * [`Dispatch`] — `Shared`: one ring every worker pops plus the
//!   single-word [`TokenBucket`](crate::admission::TokenBucket) (the E12
//!   baseline); or `Sharded`: a ring and an admission stripe per worker,
//!   with work stealing between rings (the fabric).
//!
//! ## Why completion times are virtual
//!
//! The split — real execution, virtual clock — buys both halves of what
//! the experiments need. Real threads racing on the real structures
//! exercise every help path and SC retry loop (and feed `nbsp-telemetry`
//! through per-worker flushers). The virtual queue model makes the
//! *latency numbers* a pure function of the seed: same seed ⇒ identical
//! admit/shed decisions ⇒ identical server assignments ⇒ byte-identical
//! histogram buckets, on any host, which is what lets tests and CI gate
//! on them. A wall-clock sojourn measurement would instead report the
//! host's scheduler.
//!
//! All metrics flow through [`CellFlusher`](crate::CellFlusher)s into
//! the cell's single Figure-6 [`CellSink`]; the returned [`CellSnapshot`]
//! is one WLL.

use std::sync::atomic::{AtomicU64, Ordering};

use nbsp_core::provider::Fig4Native;
use nbsp_core::{with_provider, Provider, ProviderId, WideTotals};
use nbsp_memsim::ProcId;
use nbsp_structures::stm_orec::OrecStm;
use nbsp_structures::{ordmap_capacity, Counter, OrdMap, Queue, Stack};

use crate::admission::AdmissionConfig;
use crate::elastic::{drive, PoolTrace, ScalerConfig};
use crate::loadgen::{ArrivalProcess, KeyDist};
use crate::metrics::{CellSink, CellSnapshot};

/// Operations between metric/telemetry flushes. Small enough that
/// mid-run snapshots stay fresh, large enough that the WLL/SC flush loop
/// stays off the hot path.
pub(crate) const FLUSH_EVERY: u32 = 1024;

/// Virtual cost, per contending consumer, of one claim on a dispatch
/// cursor: a claim on a cursor popped by `W` workers occupies it for
/// `W * CLAIM_NS_PER_CONTENDER` virtual nanoseconds.
///
/// This is the dispatch-contention term of the virtual queue model. A
/// shared ring's head cursor serializes every claim, and each claim's
/// cost grows with the number of contenders (failed-SC retries plus the
/// cache-line ping-pong that `exp_contention` measures directly: a
/// contended Figure-4 CAS word costs tens to a few hundred ns per success
/// at 2–16 threads). The constant is deliberately a round calibrated
/// figure, not a host measurement — keeping the model a pure function of
/// the seed is what makes runs byte-identical — but its *scaling shape*
/// (linear in contenders, serialized at one word) is the measured one.
/// Sharded rings have one owner each and pay the single-contender cost;
/// that difference, and nothing else, is what the E12 scaling curves
/// compare.
pub const CLAIM_NS_PER_CONTENDER: u64 = 40;

/// Which structure a cell's workers drive (one real operation per
/// admitted request).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Shared-counter increment (maximum-contention single variable).
    Counter,
    /// Treiber-style stack push/pop pair.
    Stack,
    /// Michael–Scott-style queue enqueue/dequeue pair.
    Queue,
    /// Two-cell transfer transaction on the ownership-record STM.
    Stm,
    /// Keyed mixed ops (insert/delete/get) on the LLX/SCX external-BST
    /// ordered map. The only *keyed* workload: requests carry a sampled
    /// key and the fabric routes them by key hash (E15).
    OrdMap {
        /// Size of the key space keys are sampled from.
        key_space: u64,
        /// Zipf(1)-skewed keys when `true`, uniform otherwise.
        zipf: bool,
    },
}

impl Workload {
    /// Every *unkeyed* workload, in report order. Deliberately excludes
    /// [`Workload::OrdMap`]: E12's sweeps iterate this list and their
    /// byte-identical baselines predate keys; the keyed map workload is
    /// swept by its own experiment (E15).
    pub const ALL: [Workload; 4] = [
        Workload::Counter,
        Workload::Stack,
        Workload::Queue,
        Workload::Stm,
    ];

    /// Stable name for reports and the JSON schema.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Counter => "counter",
            Workload::Stack => "stack",
            Workload::Queue => "queue",
            Workload::Stm => "stm_orec",
            Workload::OrdMap { .. } => "ordmap",
        }
    }

    /// The key distribution of a keyed workload; `None` for the unkeyed
    /// ones (their generators stamp key 0 and dispatch round-robin).
    #[must_use]
    pub fn key_dist(self) -> Option<KeyDist> {
        match self {
            Workload::OrdMap { key_space, zipf } => Some(if zipf {
                KeyDist::Zipf { space: key_space }
            } else {
                KeyDist::Uniform { space: key_space }
            }),
            _ => None,
        }
    }
}

/// The worker pool of a cell. Threads, rings, stripes and virtual
/// servers are provisioned for the ceiling; the floor is active from
/// the start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pool {
    /// `n` workers for the whole run: an elastic pool whose floor equals
    /// its ceiling, so it never resizes.
    Fixed(usize),
    /// Between `min` and `max` active workers, resized by `scaler`.
    Elastic {
        /// Active workers the pool starts at and never shrinks below.
        min: usize,
        /// Pre-spawned workers the pool can grow to.
        max: usize,
        /// The autoscaler's policy.
        scaler: ScalerConfig,
    },
}

impl Pool {
    /// `(floor, ceiling)` of the active worker count.
    pub(crate) fn bounds(self) -> (usize, usize) {
        match self {
            Pool::Fixed(n) => (n, n),
            Pool::Elastic { min, max, .. } => (min, max),
        }
    }
}

/// How admitted requests reach the workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dispatch {
    /// One ring every worker pops, admitted by the single-word
    /// [`TokenBucket`](crate::admission::TokenBucket): every claim
    /// contends on one head cursor (the E12 baseline).
    Shared,
    /// A ring and an admission stripe per worker; dry workers steal.
    Sharded {
        /// Batch size `B` of a global → stripe token refill.
        refill_batch: u64,
    },
}

/// Everything one cell needs; a pure value, so sweeps can clone and vary.
#[derive(Clone, Debug)]
pub struct CellConfig {
    /// Seed for the whole cell (arrivals and service demands).
    pub seed: u64,
    /// Arrival process (also fixes the offered rate).
    pub process: ArrivalProcess,
    /// Structure under service.
    pub workload: Workload,
    /// Worker threads, which are also the virtual servers.
    pub pool: Pool,
    /// Shared ring or per-worker rings.
    pub dispatch: Dispatch,
    /// Requests to generate (admitted + shed).
    pub requests: u64,
    /// Mean virtual service demand per request, in nanoseconds.
    pub service_mean_ns: f64,
    /// Token-bucket admission, or `None` to admit everything.
    pub admission: Option<AdmissionConfig>,
    /// Capacity of each dispatch ring (a power of two).
    pub ring_capacity: usize,
}

/// A finished cell: the consistent snapshot, the headline sojourn
/// percentiles (bucket upper edges, virtual nanoseconds) and the pool's
/// resize history. Byte-identical across same-seed runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellResult {
    /// The cell's final single-WLL metrics snapshot.
    pub snapshot: CellSnapshot,
    /// Median sojourn time.
    pub p50_ns: u64,
    /// 95th percentile sojourn time.
    pub p95_ns: u64,
    /// 99th percentile sojourn time.
    pub p99_ns: u64,
    /// 99.9th percentile sojourn time.
    pub p999_ns: u64,
    /// The autoscaler's history (no resizes for a fixed pool).
    pub pool: PoolTrace,
}

/// Runs one cell with its coordination words (ring cursors, directory,
/// admission stripes) on the registry's Figure-4 native entry.
///
/// When `telemetry` is provided, the producer and every worker also
/// flush their `nbsp-telemetry` rows into it (periodically and at exit),
/// so the caller can publish a run-level telemetry block read with one
/// WLL. One [`WideTotals`] can serve every cell of a sweep.
///
/// # Panics
///
/// As [`run_cell_as`].
#[must_use]
pub fn run_cell(cfg: &CellConfig, telemetry: Option<&WideTotals>) -> CellResult {
    run_cell_on::<Fig4Native>(cfg, telemetry)
}

/// Runs one cell with its coordination words on the given registry
/// provider, dispatched through `with_provider!`. The workload
/// structures themselves stay on the native Figure-4 entry, so the
/// provider under test is the pipeline's and the ablation isolates
/// dispatch, admission and — on the `dynamic` providers — the
/// join/retire membership path of an elastic pool.
///
/// # Panics
///
/// Panics on a zero floor or `requests`, a floor above the ceiling, a
/// ceiling that does not fit the directory's 8-bit count or the
/// telemetry slot space, a zero `check_every`, a non-power-of-two
/// `ring_capacity`, and if the final snapshot violates
/// `completed == admitted` (every admitted request is executed exactly
/// once, across resizes).
#[must_use]
pub fn run_cell_as(
    provider: ProviderId,
    cfg: &CellConfig,
    telemetry: Option<&WideTotals>,
) -> CellResult {
    macro_rules! run_as {
        ($p:ty) => {
            run_cell_on::<$p>(cfg, telemetry)
        };
    }
    with_provider!(provider, run_as)
}

/// The monomorphized cell body: builds the workload structure and its
/// per-worker op closures, runs the pipeline, checks the result.
fn run_cell_on<P: Provider>(cfg: &CellConfig, telemetry: Option<&WideTotals>) -> CellResult {
    let (min, max) = cfg.pool.bounds();
    assert!(min >= 1, "need at least one active worker");
    assert!(min <= max, "the pool's floor must not exceed its ceiling");
    assert!(max < 256, "directory holds 8-bit counts");
    assert!(
        max < nbsp_telemetry::MAX_SLOTS,
        "more workers than telemetry slots: two workers would share a slot"
    );
    assert!(cfg.requests > 0, "need at least one request");
    if let Pool::Elastic { scaler, .. } = cfg.pool {
        assert!(scaler.check_every > 0, "the autoscaler needs a window");
    }
    let sink = CellSink::new(max + 1).unwrap();

    // The structures run on the registry's Figure-4 native entry; its
    // env has one extra context slot for setup (index `max`). The `let
    // env` binding keeps the provider's generic shape even though this
    // entry's `Env` happens to be `()`.
    #[allow(clippy::let_unit_value)]
    let env = Fig4Native::env(max + 1).unwrap();
    let mut setup_tc = Fig4Native::thread_ctx(&env, max);
    let mut setup = Fig4Native::ctx(&mut setup_tc);
    let pool = match cfg.workload {
        Workload::Counter => {
            let c = Counter::new(Fig4Native::var(&env, 0).unwrap());
            drive::<P, _>(cfg, &sink, telemetry, |slot| {
                let c = &c;
                let mut tc = Fig4Native::thread_ctx(&env, slot);
                move |_key| {
                    c.increment(&mut Fig4Native::ctx(&mut tc));
                }
            })
        }
        Workload::Stack => {
            let st = Stack::new(
                2 * max + 8,
                Fig4Native::var(&env, 0).unwrap(),
                Fig4Native::var(&env, 0).unwrap(),
                &mut setup,
            );
            drive::<P, _>(cfg, &sink, telemetry, |slot| {
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
            let q = Queue::new(
                2 * max + 8,
                || Fig4Native::var(&env, 0).unwrap(),
                &mut setup,
            );
            drive::<P, _>(cfg, &sink, telemetry, |slot| {
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
            drive::<P, _>(cfg, &sink, telemetry, |slot| {
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
            let mc = MapCell::new(max, cfg.requests, cfg.seed);
            let pool = drive::<P, _>(cfg, &sink, telemetry, |slot| mc.op(slot));
            mc.assert_conserved();
            pool
        }
    };

    let snapshot = sink.snapshot();
    assert_eq!(
        snapshot.completed, snapshot.admitted,
        "every admitted request must be executed exactly once"
    );
    CellResult {
        snapshot,
        p50_ns: snapshot.percentile_ns(0.50),
        p95_ns: snapshot.percentile_ns(0.95),
        p99_ns: snapshot.percentile_ns(0.99),
        p999_ns: snapshot.percentile_ns(0.999),
        pool,
    }
}

/// The shared state of an [`Workload::OrdMap`] cell: the LLX/SCX
/// external-BST map (on the registry's Figure-4 native entry, like every
/// cell workload structure), per-worker op-mix streams, and the
/// conservation ledger. Each admitted request executes **one** map
/// operation on its sampled key — 2:1:1 insert/delete/get, the kind drawn
/// from a worker-seeded stream so a hot key sees all three kinds. The
/// ledger counts *effective* inserts (a new key landed) and deletes (a
/// key removed); [`MapCell::assert_conserved`] checks `inserts − deletes
/// == final size` after the cell drains — the E15 conservation gate, and
/// a whole-structure check that no SCX was lost or doubled under load.
pub(crate) struct MapCell {
    env: <Fig4Native as Provider>::Env,
    map: OrdMap<<Fig4Native as Provider>::Var>,
    workers: usize,
    seed: u64,
    inserted: AtomicU64,
    deleted: AtomicU64,
}

impl MapCell {
    /// Builds the map with a record budget covering every request being
    /// an insert (the arena is lifetime-allocated; see `ordmap`).
    pub(crate) fn new(workers: usize, requests: u64, seed: u64) -> Self {
        #[allow(clippy::let_unit_value)]
        let env = Fig4Native::env(workers + 1).unwrap();
        let mut setup_tc = Fig4Native::thread_ctx(&env, workers);
        let mut setup = Fig4Native::ctx(&mut setup_tc);
        let map = OrdMap::new(
            workers,
            ordmap_capacity(requests as usize),
            || Fig4Native::var(&env, 0).unwrap(),
            &mut setup,
        );
        MapCell {
            env,
            map,
            workers,
            seed,
            inserted: AtomicU64::new(0),
            deleted: AtomicU64::new(0),
        }
    }

    /// The op closure for worker `slot` (also its LLX/SCX process id).
    pub(crate) fn op(&self, slot: usize) -> impl FnMut(u64) + Send + '_ {
        let mut tc = Fig4Native::thread_ctx(&self.env, slot);
        let mut rng = nbsp_memsim::rng::SplitMix64::new(
            self.seed ^ (slot as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        move |key| {
            let mut ctx = Fig4Native::ctx(&mut tc);
            match rng.next_index(4) {
                0 | 1 => {
                    if self
                        .map
                        .insert(&mut ctx, slot, key, key + 1)
                        .expect("map arena sized for every request")
                        .is_none()
                    {
                        self.inserted.fetch_add(1, Ordering::Relaxed);
                    }
                }
                2 => {
                    if self
                        .map
                        .delete(&mut ctx, slot, key)
                        .expect("map arena sized for every request")
                        .is_some()
                    {
                        self.deleted.fetch_add(1, Ordering::Relaxed);
                    }
                }
                _ => {
                    let _ = self.map.get(&mut ctx, key);
                }
            }
        }
    }

    /// The conservation gate: every effective insert grew the map by one
    /// key and every effective delete shrank it by one, so after the
    /// drain the final size must equal their difference exactly.
    pub(crate) fn assert_conserved(&self) {
        let mut tc = Fig4Native::thread_ctx(&self.env, self.workers);
        let mut ctx = Fig4Native::ctx(&mut tc);
        let net = self.inserted.load(Ordering::Relaxed) - self.deleted.load(Ordering::Relaxed);
        assert_eq!(
            self.map.len(&mut ctx) as u64,
            net,
            "ordmap conservation: inserts − deletes must equal the final size"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(workload: Workload, rate: f64, admission: Option<AdmissionConfig>) -> CellConfig {
        CellConfig {
            seed: 0x5eed,
            process: ArrivalProcess::Poisson { rate_per_sec: rate },
            workload,
            pool: Pool::Fixed(2),
            dispatch: Dispatch::Shared,
            requests: 4_000,
            service_mean_ns: 1_000.0,
            admission,
            ring_capacity: 256,
        }
    }

    #[test]
    fn underload_has_negligible_queueing() {
        // 2 virtual servers x 1 µs mean service = 2e6 req/s capacity;
        // offer 10% of it. Sojourn should stay within a few service
        // times: p99 under ~64 µs is generous.
        let r = run_cell(&small_cfg(Workload::Counter, 2e5, None), None);
        assert_eq!(r.snapshot.generated(), 4_000);
        assert_eq!(r.snapshot.shed, 0);
        assert_eq!(r.snapshot.completed, 4_000);
        assert!(r.p99_ns < 65_536, "p99 {} ns under light load", r.p99_ns);
        assert!(r.p50_ns >= 511, "sojourn includes service time");
    }

    #[test]
    fn overload_backlog_shows_up_as_latency_not_lost_requests() {
        // Offer 2x capacity with no admission: open-loop accounting must
        // charge the backlog to sojourn time.
        let r = run_cell(&small_cfg(Workload::Counter, 4e6, None), None);
        assert_eq!(r.snapshot.generated(), 4_000);
        assert_eq!(r.snapshot.completed, 4_000);
        // ~2_000 excess requests queue behind 2 servers: the tail is
        // hundreds of µs at least.
        assert!(r.p99_ns > 100_000, "p99 {} ns under 2x overload", r.p99_ns);
    }

    #[test]
    fn admission_sheds_and_caps_the_tail() {
        let admission = Some(AdmissionConfig {
            rate_per_sec: 1.6e6, // 80% of the 2e6 capacity
            burst: 32,
        });
        let off = run_cell(&small_cfg(Workload::Counter, 4e6, None), None);
        let on = run_cell(&small_cfg(Workload::Counter, 4e6, admission), None);
        assert!(on.snapshot.shed > 0, "2x overload must shed");
        assert_eq!(on.snapshot.generated(), 4_000);
        assert_eq!(on.snapshot.completed, on.snapshot.admitted);
        assert!(
            on.p99_ns < off.p99_ns,
            "admission on p99 {} !< off p99 {}",
            on.p99_ns,
            off.p99_ns
        );
    }

    #[test]
    fn every_workload_drains_exactly() {
        for w in Workload::ALL {
            let r = run_cell(&small_cfg(w, 1e6, None), None);
            assert_eq!(r.snapshot.completed, r.snapshot.admitted, "{}", w.name());
            assert_eq!(r.snapshot.sojourns(), r.snapshot.admitted, "{}", w.name());
        }
    }

    #[test]
    fn the_keyed_map_cell_drains_and_conserves() {
        // Conservation (inserts − deletes == final size) is asserted
        // inside the cell by `MapCell::assert_conserved`; both skews.
        for zipf in [false, true] {
            let w = Workload::OrdMap {
                key_space: 64,
                zipf,
            };
            let r = run_cell(&small_cfg(w, 1e6, None), None);
            assert_eq!(r.snapshot.completed, r.snapshot.admitted, "{zipf}");
        }
    }
}
