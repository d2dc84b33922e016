//! `llsc_mix`: the paper's LL/SC constructions themselves. A closed loop
//! of two threads; each operation is a contended `Counter::increment`
//! plus an LL/VL/SC on one of the thread's private words, taken in turn.
//! Every provider gets the same op budget per window, and every window
//! builds fresh environments and words.
//! A provider's part ends when its first thread finishes: if the host runs
//! one vCPU faster, the other thread would otherwise finish alone,
//! uncontended, and halve the median latency.
//! `cas-from-swap` and `feb-llsc` are left out: they are blocking
//! emulations whose two-thread cost swings with scheduling. A traced run
//! also runs the `verify_dpor` suite once, traced, for the model
//! checker's layers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use nbsp_core::{with_provider, CachePadded, LlScVar, Provider, ProviderId};
use nbsp_structures::Counter;
use nbsp_telemetry::{racy_totals, Event};

use crate::common;
use crate::report::{Out, MIX_PROVIDERS};
use crate::stall::{self, GapLog, Timed};
use crate::stats::{self, median_of};
use crate::trace::{Layer, Tracer};

/// Operations per thread per provider per window: about 4 ms of work, so
/// that most parts see no host stall. The first thread to finish ends the
/// part, so no operation runs uncontended.
const OPS_PER_THREAD: usize = 10_000;
/// Private words per thread. A provider's set-up then builds more than a
/// handful of words, so `setup_s` times real work rather than a few
/// allocations; with the counter, both threads' words stay within the
/// 256 variables a `constant` environment holds.
const PRIVATE_WORDS: usize = 120;
/// Latency limit of one operation.
const LIMIT_NS: u64 = 50_000;
const THREADS: usize = 2;

/// One provider's share of a window.
#[derive(Default)]
struct Part {
    setup_ns: u64,
    elapsed_ns: u64,
    /// Operations, both threads together.
    ops: u64,
    sc_fail: u64,
    lat_p50_ns: f64,
    lat_p99_ns: u64,
    within: u64,
    stalled: bool,
}

/// What the medians need from one part. Kept small: a run logs one per
/// provider per window, and how many windows fit in a run depends on the
/// host's speed, so a large record would tie the peak RSS to it.
#[derive(Clone, Copy)]
struct Sample {
    /// Wall time per operation, both threads together.
    ns_per_op: f32,
    lat_p50_ns: f32,
    lat_p99_ns: f32,
    ops: u32,
    traced: bool,
    stalled: bool,
}

impl Timed for Sample {
    fn traced(&self) -> bool {
        self.traced
    }
    fn stalled(&self) -> bool {
        self.stalled
    }
}

/// One provider's samples and totals over a run.
struct Tally {
    samples: Vec<Sample>,
    ops: u64,
    sc_fail: u64,
}

/// One LL/VL/SC sequence on a private word; true if the SC landed.
#[inline]
fn private_seq<V: LlScVar>(var: &V, ctx: &mut V::Ctx<'_>) -> bool {
    let mut keep = V::Keep::default();
    let v = var.ll(ctx, &mut keep);
    if var.vl(ctx, &keep) {
        var.sc(ctx, &mut keep, v + 1)
    } else {
        var.cl(ctx, &mut keep);
        false
    }
}

/// Runs provider `P`'s share of a window, using `lat` for the threads'
/// per-operation latencies. Returns the part and any check failure.
fn part<P: Provider>(
    index: u64,
    traced: bool,
    epoch: Instant,
    tracer: &mut Tracer,
    lat: &mut [Vec<u64>; THREADS],
) -> (Part, Option<String>) {
    let t_setup = Instant::now();
    let env = P::env(THREADS + 1).expect("provider env");
    let counter = Counter::new(P::var(&env, 0).expect("provider var"));
    let private: Vec<Vec<P::Var>> = (0..THREADS)
        .map(|_| {
            (0..PRIVATE_WORDS)
                .map(|_| P::var(&env, 0).expect("provider var"))
                .collect()
        })
        .collect();
    let ctxs: Vec<P::ThreadCtx> = (0..THREADS).map(|p| P::thread_ctx(&env, p)).collect();
    let setup_ns = common::ns_since(t_setup);
    // SCs landed per private word, made here so the workers allocate
    // nothing.
    let mut landed = vec![vec![0u64; PRIVATE_WORDS]; THREADS];
    let tracers: Vec<Tracer> = (0..THREADS as u64)
        .map(|p| Tracer::new(traced, epoch, p + 1))
        .collect();
    let start = Barrier::new(THREADS);
    let stop = CachePadded::new(AtomicBool::new(false));
    let (counter, start, stop) = (&counter, &start, &stop);
    let tele0 = racy_totals();
    let results: Vec<(u64, u64, u64, Tracer, GapLog)> = std::thread::scope(|s| {
        let handles: Vec<_> = ctxs
            .into_iter()
            .zip(private.iter().zip(landed.iter_mut()))
            .zip(lat.iter_mut().zip(tracers))
            .enumerate()
            .map(|(p, ((mut tc, (words, landed)), (lat, mut tr)))| {
                s.spawn(move || {
                    let mut ctx = P::ctx(&mut tc);
                    lat.clear();
                    start.wait();
                    let t0 = Instant::now();
                    let mut prev = 0u64;
                    let mut gaps = GapLog::new(0);
                    let mut ops = 0u64;
                    for i in 0..OPS_PER_THREAD as u64 {
                        let id = (index << 32) | ((p as u64) << 24) | i;
                        tr.span(Layer::Counter, id, || counter.increment(&mut ctx));
                        let j = i as usize % PRIVATE_WORDS;
                        landed[j] += u64::from(
                            tr.span(Layer::Prim, id, || private_seq(&words[j], &mut ctx)),
                        );
                        let now = common::ns_since(t0);
                        gaps.tick(now);
                        lat.push(now - prev);
                        prev = now;
                        ops += 1;
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    stop.store(true, Ordering::Relaxed);
                    let started = t0.duration_since(epoch).as_nanos() as u64;
                    (ops, prev, started, tr, gaps)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("llsc worker panicked"))
            .collect()
    });
    let tele1 = racy_totals();
    let mut part = Part {
        setup_ns,
        sc_fail: tele1[Event::ScFail.index()] - tele0[Event::ScFail.index()],
        ..Part::default()
    };
    let first = results.iter().map(|r| r.2).min().unwrap_or(0);
    let mut error = None;
    let mut ctx_tc = P::thread_ctx(&env, THREADS);
    let mut ctx = P::ctx(&mut ctx_tc);
    for (ops, end, started, tr, gaps) in results {
        part.ops += ops;
        part.elapsed_ns = part.elapsed_ns.max(started - first + end);
        part.stalled |= gaps.stalled();
        tracer.merge(tr);
    }
    for (words, landed) in private.iter().zip(&landed) {
        if words
            .iter()
            .zip(landed)
            .any(|(w, &n)| w.read(&mut ctx) != n)
        {
            error = Some(format!("{}: a private word lost an SC", P::ID.name()));
        }
    }
    part.lat_p50_ns = stats::client_p50(lat).unwrap_or(0.0);
    let [a, b] = lat;
    a.extend_from_slice(b);
    part.within = a.iter().filter(|&&l| l <= LIMIT_NS).count() as u64;
    part.lat_p99_ns = stats::percentile(a, 0.99).map_or(0, |p| p.value);
    let total = counter.get(&mut ctx);
    if total != part.ops {
        error = Some(format!(
            "{}: counter reads {total} after {} increments",
            P::ID.name(),
            part.ops
        ));
    }
    (part, error)
}

/// Single-thread, uncontended LL, VL and SC cost of provider `P`, in ns:
/// `ll` is an LL closed by CL, and `vl` and `sc` are what adding a VL, or
/// replacing the CL by an SC, costs on top of that. Medians of five
/// batches.
fn uncontended<P: Provider>() -> [f64; 3] {
    const BATCH: u64 = 20_000;
    let env = P::env(1).expect("provider env");
    let var = P::var(&env, 0).expect("provider var");
    let mut tc = P::thread_ctx(&env, 0);
    let mut ctx = P::ctx(&mut tc);
    let mut time = |f: &mut dyn FnMut(&mut <P::Var as LlScVar>::Ctx<'_>)| {
        let runs: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..BATCH {
                    f(&mut ctx);
                }
                t.elapsed().as_nanos() as f64 / BATCH as f64
            })
            .collect();
        stats::median(&runs).unwrap_or(0.0)
    };
    let ll = time(&mut |c| {
        let mut k = <P::Var as LlScVar>::Keep::default();
        std::hint::black_box(var.ll(c, &mut k));
        var.cl(c, &mut k);
    });
    let vl = time(&mut |c| {
        let mut k = <P::Var as LlScVar>::Keep::default();
        std::hint::black_box(var.ll(c, &mut k));
        std::hint::black_box(var.vl(c, &k));
        var.cl(c, &mut k);
    });
    let sc = time(&mut |c| {
        let mut k = <P::Var as LlScVar>::Keep::default();
        let v = var.ll(c, &mut k);
        std::hint::black_box(var.sc(c, &mut k, (v + 1) % 1024));
    });
    [ll, (vl - ll).max(0.0), (sc - ll).max(0.0)]
}

/// Runs the workload for `seconds` and fills `out`.
pub fn run(seed: u64, seconds: f64, traced: bool, out: &mut Out) {
    let epoch = Instant::now();
    let ids: Vec<ProviderId> = MIX_PROVIDERS
        .iter()
        .map(|n| ProviderId::parse(n).expect("registry name"))
        .collect();
    let mut tracer = Tracer::new(true, epoch, 0);
    let mut lat = [
        Vec::with_capacity(THREADS * OPS_PER_THREAD),
        Vec::with_capacity(OPS_PER_THREAD),
    ];
    // One entry per untraced window: the set-up time of all its parts, and
    // the share of their operations that met the limit.
    let mut setups: Vec<f32> = Vec::with_capacity(common::MAX_WINDOWS);
    let mut slos: Vec<f32> = Vec::with_capacity(common::MAX_WINDOWS);
    let mut tallies: Vec<Tally> = ids
        .iter()
        .map(|_| Tally {
            samples: Vec::with_capacity(common::MAX_WINDOWS),
            ops: 0,
            sc_fail: 0,
        })
        .collect();
    let mut order: Vec<usize> = (0..ids.len()).collect();
    let mut rng = nbsp_memsim::rng::SplitMix64::new(seed);
    common::window_loop(seconds, traced, |index, on| {
        // The seed fixes the order the providers run in, window by window.
        for i in (1..order.len()).rev() {
            order.swap(i, rng.next_index(i + 1));
        }
        let (mut setup_ns, mut ops, mut within) = (0, 0, 0);
        for &i in &order {
            macro_rules! go {
                ($p:ty) => {
                    part::<$p>(index, on, epoch, &mut tracer, &mut lat)
                };
            }
            let (p, error) = with_provider!(ids[i], go);
            out.errors.extend(error);
            setup_ns += p.setup_ns;
            let t = &mut tallies[i];
            t.ops += p.ops;
            t.sc_fail += p.sc_fail;
            t.samples.push(Sample {
                ns_per_op: (p.elapsed_ns as f64 / p.ops as f64) as f32,
                lat_p50_ns: p.lat_p50_ns as f32,
                lat_p99_ns: p.lat_p99_ns as f32,
                ops: p.ops as u32,
                traced: on,
                stalled: p.stalled,
            });
            ops += p.ops;
            within += p.within;
        }
        if !on {
            setups.push(setup_ns as f32 / 1e9);
            slos.push(stats::slo_attain(within, ops) as f32);
        }
    });
    out.attempted = tallies.iter().map(|t| t.ops).sum();

    // Each provider's parts, untraced and unstalled, give its medians; the
    // workload's figures weight the providers equally, as their op
    // budgets are equal.
    let mean_over_providers = |on: bool, f: &dyn Fn(&Sample) -> f32| {
        tallies
            .iter()
            .map(|t| median_of(&stall::plain(&t.samples, on), |p| f64::from(f(p))))
            .sum::<f64>()
            / tallies.len() as f64
    };
    // Set-up and SLO attainment count every untraced window, stalled ones
    // too: an operation that took too long is a miss, whatever made it
    // long.
    let median_all = |xs: &[f32]| median_of(&xs.iter().collect::<Vec<_>>(), |&x| f64::from(x));
    out.e2e("setup_s", "s", median_all(&setups));
    let ops_per_s = |on: bool| 1e9 / mean_over_providers(on, &|p| p.ns_per_op);
    out.e2e("ops_per_s", "1/s", ops_per_s(false));
    out.e2e(
        "lat_p50_us",
        "us",
        mean_over_providers(false, &|p| p.lat_p50_ns) / 1e3,
    );
    out.e2e("slo_attain", "ratio", median_all(&slos));
    out.e2e_fail_frac();
    out.e2e("peak_rss_mb", "MB", common::peak_rss_mb());

    if traced {
        for ((id, pid), t) in MIX_PROVIDERS.iter().zip(&ids).zip(&tallies) {
            out.layer(
                &format!("prim.{id}.op_ns"),
                "ns",
                median_of(&stall::plain(&t.samples, false), |p| f64::from(p.ns_per_op))
                    * THREADS as f64,
            );
            out.layer(
                &format!("prim.{id}.sc_fail_per_op"),
                "ratio",
                t.sc_fail as f64 / t.ops.max(1) as f64,
            );
            macro_rules! solo {
                ($p:ty) => {
                    uncontended::<$p>()
                };
            }
            let [ll, vl, sc] = with_provider!(*pid, solo);
            out.layer(&format!("prim.{id}.ll_ns"), "ns", ll);
            out.layer(&format!("prim.{id}.vl_ns"), "ns", vl);
            out.layer(&format!("prim.{id}.sc_ns"), "ns", sc);
        }
        out.layer(
            "counter.increment_ns",
            "ns",
            tracer.agg(Layer::Counter).mean_ns(),
        );
        out.layer(
            "lat_us_p99",
            "us",
            mean_over_providers(false, &|p| p.lat_p99_ns) / 1e3,
        );
        out.layer(
            "lat_p99_samples",
            "count",
            mean_over_providers(false, &|p| p.ops as f32),
        );
        out.layer(
            "trace.overhead_frac",
            "ratio",
            stats::overhead_frac(ops_per_s(true), ops_per_s(false)),
        );
        let samples: Vec<Sample> = tallies
            .iter()
            .flat_map(|t| t.samples.iter().copied())
            .collect();
        out.layer("host.stalled_frac", "ratio", stall::stalled_frac(&samples));
        // The model checker verifies these constructions; its layers are
        // reported here (see `dpor`).
        crate::dpor::traced_layers(seed, epoch, &mut tracer, out);
        out.self_times(&tracer);
        out.spans(&tracer);
    }
}
