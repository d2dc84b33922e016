//! The glue: one serving *cell* = load generator + admission + dispatch
//! ring + real workers + consistent metrics.
//!
//! [`run_cell`] executes one experiment cell. The calling thread is the
//! open-loop client: it draws requests from the seeded [`LoadGen`],
//! decides admission at each request's **intended** arrival time, passes
//! admitted requests through a serialized virtual claim on the single
//! dispatch cursor (cost [`CLAIM_NS_PER_CONTENDER`] × workers — the
//! single-ring contention term the sharded fabric exists to remove), then
//! assigns them to a deterministic FCFS virtual `N`-server queue (which
//! yields the sojourn time = virtual completion − intended arrival), and
//! pushes them into the [`SpmcRing`]. Worker threads claim
//! requests from the ring and execute the *real* structure operation —
//! counter increment, stack or queue push/pop pair, STM transfer — so the
//! LL/SC stack underneath sees genuine multi-thread contention and its
//! telemetry is real.
//!
//! ## Why completion times are virtual
//!
//! The split — real execution, virtual clock — buys both halves of what
//! the experiment needs. Real threads racing on the real structures
//! exercise every help path and SC retry loop (and feed `nbsp-telemetry`
//! through per-worker flushers). The virtual queue model makes the
//! *latency numbers* a pure function of the seed: same seed ⇒ identical
//! admit/shed decisions ⇒ identical server assignments ⇒ byte-identical
//! histogram buckets, on any host, which is what lets tests and CI gate
//! on them. A wall-clock sojourn measurement would instead report the
//! host's scheduler.
//!
//! All metrics flow through [`CellFlusher`]s into the cell's single
//! Figure-6 [`CellSink`]; the returned [`CellSnapshot`] is one WLL.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use nbsp_core::provider::Fig4Native;
use nbsp_core::{Backoff, Provider, WideHists, WideTotals};
use nbsp_memsim::ProcId;
use nbsp_structures::stm_orec::OrecStm;
use nbsp_structures::{ordmap_capacity, Counter, OrdMap, Queue, Stack};
use nbsp_telemetry::{Flusher, HistFlusher};

use crate::admission::{AdmissionConfig, TokenBucket};
use crate::loadgen::{ArrivalProcess, KeyDist, LoadGen};
use crate::metrics::{CellFlusher, CellSink, CellSnapshot};
use crate::ring::SpmcRing;

/// Operations between metric/telemetry flushes. Small enough that
/// mid-run snapshots stay fresh, large enough that the WLL/SC flush loop
/// stays off the hot path.
pub(crate) const FLUSH_EVERY: u32 = 1024;

/// Virtual cost, per contending consumer, of one claim on a shared
/// dispatch cursor: a claim on a cursor with `W` contenders occupies the
/// cursor for `W * CLAIM_NS_PER_CONTENDER` virtual nanoseconds.
///
/// This is the dispatch-contention term of the virtual queue model. A
/// single SPMC head cursor serializes every claim, and each claim's cost
/// grows with the number of contenders (failed-SC retries plus the
/// cache-line ping-pong that `exp_contention` measures directly: a
/// contended Figure-4 CAS word costs tens to a few hundred ns per success
/// at 2–16 threads). The constant is deliberately a round calibrated
/// figure, not a host measurement — keeping the model a pure function of
/// the seed is what makes runs byte-identical — but its *scaling shape*
/// (linear in contenders, serialized at one word) is the measured one.
/// The sharded fabric's per-worker rings pay the single-contender cost
/// instead; that difference, and nothing else, is what the E12 scaling
/// curves compare.
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

/// Everything one cell needs; a pure value, so sweeps can clone and vary.
#[derive(Clone, Debug)]
pub struct CellConfig {
    /// Seed for the whole cell (arrivals and service demands).
    pub seed: u64,
    /// Arrival process (also fixes the offered rate).
    pub process: ArrivalProcess,
    /// Structure under service.
    pub workload: Workload,
    /// Real worker threads; also the virtual server count `N`.
    pub workers: usize,
    /// Requests to generate (admitted + shed).
    pub requests: u64,
    /// Mean virtual service demand per request, in nanoseconds.
    pub service_mean_ns: f64,
    /// Token-bucket admission, or `None` to admit everything.
    pub admission: Option<AdmissionConfig>,
    /// Dispatch ring capacity (a power of two).
    pub ring_capacity: usize,
}

/// A finished cell: the consistent snapshot plus the headline sojourn
/// percentiles (bucket upper edges, virtual nanoseconds).
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
}

/// Run-level consistent telemetry sinks: per-event totals and histogram
/// buckets, each one Figure-6 variable, shared by every cell of a sweep.
/// Workers flush into them; the report reads each with a single WLL.
#[derive(Debug)]
pub struct ServeSinks {
    /// Aggregated event totals (`WideVar` of `EVENT_COUNT` words).
    pub events: WideTotals,
    /// Aggregated histogram buckets (`WideVar` of all buckets).
    pub hists: WideHists,
}

impl ServeSinks {
    /// Sinks sized for every possible telemetry slot.
    ///
    /// # Errors
    ///
    /// Propagates wide-variable construction errors (none in practice).
    pub fn new() -> nbsp_core::Result<Self> {
        Ok(ServeSinks {
            events: WideTotals::with_all_slots()?,
            hists: WideHists::with_all_slots()?,
        })
    }
}

/// Runs one cell to completion and returns its consistent result.
///
/// When `sinks` is provided, the producer and every worker also flush
/// their `nbsp-telemetry` rows into it (periodically and at exit), so the
/// caller can publish a run-level telemetry block read via the WLL path.
///
/// # Panics
///
/// Panics on a zero `workers`/`requests`, a `ring_capacity` that is not a
/// power of two, or if the final snapshot violates
/// `completed == admitted` (every admitted request is executed exactly
/// once).
#[must_use]
pub fn run_cell(cfg: &CellConfig, sinks: Option<&ServeSinks>) -> CellResult {
    assert!(cfg.workers > 0, "need at least one worker");
    assert!(
        cfg.workers < nbsp_telemetry::MAX_SLOTS,
        "more workers than telemetry slots: two workers would share a slot"
    );
    assert!(cfg.requests > 0, "need at least one request");
    let sink = CellSink::new(cfg.workers + 1).unwrap();

    // The LL/SC substrate comes from the provider registry
    // (`nbsp_core::provider`), not a local construction list; serving
    // cells run on the registry's Figure-4 native entry. The env gets one
    // extra context slot for structure setup (index `cfg.workers`). The
    // `let env` bindings keep the provider's generic shape even though
    // this entry's `Env` happens to be `()`.
    #[allow(clippy::let_unit_value)]
    match cfg.workload {
        Workload::Counter => {
            let env = Fig4Native::env(cfg.workers + 1).unwrap();
            let c = Counter::new(Fig4Native::var(&env, 0).unwrap());
            drive(cfg, &sink, sinks, |slot| {
                let c = &c;
                let mut tc = Fig4Native::thread_ctx(&env, slot);
                move |_key| {
                    c.increment(&mut Fig4Native::ctx(&mut tc));
                }
            });
        }
        Workload::Stack => {
            let env = Fig4Native::env(cfg.workers + 1).unwrap();
            let mut setup_tc = Fig4Native::thread_ctx(&env, cfg.workers);
            let mut setup = Fig4Native::ctx(&mut setup_tc);
            let st = Stack::new(
                2 * cfg.workers + 8,
                Fig4Native::var(&env, 0).unwrap(),
                Fig4Native::var(&env, 0).unwrap(),
                &mut setup,
            );
            drive(cfg, &sink, sinks, |slot| {
                let st = &st;
                let mut tc = Fig4Native::thread_ctx(&env, slot);
                let v = slot as u64;
                move |_key| {
                    let mut ctx = Fig4Native::ctx(&mut tc);
                    let _ = st.push(&mut ctx, v);
                    let _ = st.pop(&mut ctx);
                }
            });
        }
        Workload::Queue => {
            let env = Fig4Native::env(cfg.workers + 1).unwrap();
            let mut setup_tc = Fig4Native::thread_ctx(&env, cfg.workers);
            let mut setup = Fig4Native::ctx(&mut setup_tc);
            let q = Queue::new(
                2 * cfg.workers + 8,
                || Fig4Native::var(&env, 0).unwrap(),
                &mut setup,
            );
            drive(cfg, &sink, sinks, |slot| {
                let q = &q;
                let mut tc = Fig4Native::thread_ctx(&env, slot);
                let v = slot as u64;
                move |_key| {
                    let mut ctx = Fig4Native::ctx(&mut tc);
                    let _ = q.enqueue(&mut ctx, v);
                    let _ = q.dequeue(&mut ctx);
                }
            });
        }
        Workload::Stm => {
            let stm = OrecStm::new(&[0; 4]);
            drive(cfg, &sink, sinks, |slot| {
                let stm = &stm;
                let p = ProcId::new(slot);
                move |_key| {
                    stm.transact(p, &[0, 1], |vals| {
                        vals[0] += 1;
                        vals[1] += 1;
                    });
                }
            });
        }
        Workload::OrdMap { .. } => {
            let mc = MapCell::new(cfg.workers, cfg.requests, cfg.seed);
            drive(cfg, &sink, sinks, |slot| mc.op(slot));
            mc.assert_conserved();
        }
    }

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

/// Spawns the workers, runs the producer inline, joins.
fn drive<F>(
    cfg: &CellConfig,
    sink: &CellSink,
    sinks: Option<&ServeSinks>,
    mut make_op: impl FnMut(usize) -> F,
) where
    F: FnMut(u64) + Send,
{
    let ring = SpmcRing::new(cfg.ring_capacity);
    let bucket = cfg.admission.map(TokenBucket::from_config);
    let done = AtomicBool::new(false);
    let ops: Vec<F> = (0..cfg.workers).map(&mut make_op).collect();
    // Telemetry slots wrap modulo the registry size, so across a long
    // sweep a worker can land on the producer's slot. Two live flushers
    // mirroring one row double-publish it; a worker that collides
    // therefore skips telemetry flushing and lets the producer's
    // mirror-diff publish that row's whole delta exactly once.
    let producer_slot = nbsp_telemetry::thread_slot();
    std::thread::scope(|s| {
        for (slot, op) in ops.into_iter().enumerate() {
            let ring = &ring;
            let done = &done;
            s.spawn(move || worker_loop(ring, done, sink, slot, producer_slot, sinks, op));
        }
        produce(cfg, &ring, bucket.as_ref(), sink, sinks);
        done.store(true, Ordering::Release);
    });
}

/// The open-loop client: generation, admission, the virtual queue model,
/// and dispatch. Runs on the calling thread (publishing under the cell's
/// last flusher slot).
fn produce(
    cfg: &CellConfig,
    ring: &SpmcRing,
    bucket: Option<&TokenBucket>,
    sink: &CellSink,
    sinks: Option<&ServeSinks>,
) {
    let mut gen = match cfg.workload.key_dist() {
        Some(dist) => LoadGen::new_keyed(cfg.seed, cfg.process, cfg.service_mean_ns, dist),
        None => LoadGen::new(cfg.seed, cfg.process, cfg.service_mean_ns),
    };
    let mut producer = ring.producer();
    let mut cell = CellFlusher::new(cfg.workers);
    let mut tele = sinks.map(|_| (Flusher::new(), HistFlusher::new()));
    // Virtual FCFS queue: per-server next-free times. Ties break to the
    // lowest index — deterministic.
    let mut free = vec![0u64; cfg.workers];
    // The single dispatch ring's head cursor: every admitted request is
    // claimed through this one serialized station before it can start
    // service, and each claim occupies the cursor for a duration that
    // grows with the number of contending workers (see
    // [`CLAIM_NS_PER_CONTENDER`]). This is what makes the single-ring
    // baseline's scaling curve bend: past the point where
    // `rate * claim_ns >= 1` the cursor itself is the bottleneck no
    // matter how many servers sit behind it.
    let claim_ns = CLAIM_NS_PER_CONTENDER * cfg.workers as u64;
    let mut dispatch_free = 0u64;
    let mut unflushed = 0u32;
    for _ in 0..cfg.requests {
        let r = gen.next_request();
        let admitted = bucket.is_none_or(|b| b.admit(r.arrival_ns));
        if admitted {
            cell.record_admit();
            let claimed = dispatch_free.max(r.arrival_ns) + claim_ns;
            dispatch_free = claimed;
            let mut best = 0;
            for (i, &f) in free.iter().enumerate().skip(1) {
                if f < free[best] {
                    best = i;
                }
            }
            let start = free[best].max(claimed);
            let completion = start + r.service_ns;
            free[best] = completion;
            cell.record_sojourn(completion - r.arrival_ns);
            producer.push(r);
        } else {
            cell.record_shed();
        }
        unflushed += 1;
        if unflushed >= FLUSH_EVERY {
            cell.flush(sink);
            flush_telemetry(&mut tele, sinks);
            unflushed = 0;
        }
    }
    cell.flush(sink);
    flush_telemetry(&mut tele, sinks);
}

/// One worker: claim, execute the real operation, count, flush.
fn worker_loop<F: FnMut(u64)>(
    ring: &SpmcRing,
    done: &AtomicBool,
    sink: &CellSink,
    slot: usize,
    producer_slot: usize,
    sinks: Option<&ServeSinks>,
    mut op: F,
) {
    let mut cell = CellFlusher::new(slot);
    let shared_slot = nbsp_telemetry::thread_slot() == producer_slot;
    let mut tele = (!shared_slot)
        .then_some(sinks)
        .flatten()
        .map(|_| (Flusher::new(), HistFlusher::new()));
    let mut backoff = Backoff::new();
    let mut unflushed = 0u32;
    loop {
        match ring.try_pop() {
            Some(r) => {
                op(r.key);
                cell.record_completed(1);
                unflushed += 1;
                if unflushed >= FLUSH_EVERY {
                    cell.flush(sink);
                    flush_telemetry(&mut tele, sinks);
                    unflushed = 0;
                }
                backoff.reset();
            }
            None => {
                // `done` is set after the final push (release/acquire), so
                // observing it *and then* still finding the ring empty
                // means the cell is drained.
                if done.load(Ordering::Acquire) && ring.is_empty() {
                    break;
                }
                backoff.spin();
            }
        }
    }
    cell.flush(sink);
    flush_telemetry(&mut tele, sinks);
}

fn flush_telemetry(tele: &mut Option<(Flusher, HistFlusher)>, sinks: Option<&ServeSinks>) {
    if let (Some((events, hists)), Some(s)) = (tele.as_mut(), sinks) {
        events.flush(&s.events);
        hists.flush(&s.hists);
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
            workers: 2,
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
