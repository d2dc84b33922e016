//! `serve_zipf`: an open loop over the serving fabric's parts, paced by a
//! real clock.
//!
//! The generator (this thread) draws seeded Poisson arrivals with Zipf
//! keys from `LoadGen`, waits until each one's intended arrival, admits
//! it through a one-stripe `StripedBucket` stamped with that intended
//! arrival (so shedding depends on the seed, not on host speed), and
//! pushes it into a `ShardRing`. The worker pops, runs one `OrdMap` call
//! (2:1:1 insert/delete/get), and records the request in its
//! `CellFlusher`. Sojourn runs from the intended arrival to the end of
//! the map call. `run_fabric_cell` is not timed: its latencies are
//! modeled and its producer is unpaced.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use nbsp_core::provider::Fig4Native;
use nbsp_core::{CachePadded, Provider};
use nbsp_memsim::rng::SplitMix64;
use nbsp_serve::{
    AdmissionConfig, AdmitOutcome, ArrivalProcess, CellFlusher, CellSink, KeyDist, LoadGen,
    ShardRing, StripedBucket,
};
use nbsp_telemetry::racy_totals;

use crate::common::{self, build_map, Ledger, MapOp};
use crate::report::Out;
use crate::stall::{self, IdleLog, Timed};
use crate::stats::{self, median_of, Staircase};
use crate::trace::{Layer, Tracer};

/// Zipf key space of the served map.
const KEY_SPACE: u64 = 1024;
/// Arrival span of one window. Each window builds fresh state sized for
/// its requests, and is short so that most windows see no host stall.
const WINDOW_S: f64 = 0.01;
/// Most requests in one ladder window: [`WINDOW_S`] of arrivals up to
/// 1 M req/s, and fewer than that above it.
const LADDER_REQUESTS: usize = 10_000;
/// Reference windows run after each ladder window.
const REF_PER_LADDER: usize = 2;
/// Capacity of the dispatch ring.
const RING_CAP: usize = 4096;
/// The offered-rate ladder is geometric: [`LADDER_RUNGS`] rungs from
/// [`LADDER_BASE`] requests per second, each [`LADDER_STEP`] times the
/// one below, so the staircase that walks it follows the program's
/// saturation rate in steps of 4%; the top rung (about 4.9 M req/s) is
/// far above it.
pub const LADDER_BASE: f64 = 100e3;
/// Ratio of two neighbouring rungs.
pub const LADDER_STEP: f64 = 1.04;
/// Rungs on the ladder.
pub const LADDER_RUNGS: usize = 100;
/// Rungs the staircase first moves by (a factor of 1.87).
const FIRST_STEP: usize = 16;
/// The reference rate at which latency and SLO attainment are reported:
/// far below saturation, so both threads mostly wait, and a host stall
/// nearly always lands where it can be told apart from a request that
/// ran long (see `slo_attain` in `run`).
pub const REF_RATE: f64 = 50e3;
/// Latency limit of one request, from its intended arrival.
pub const LIMIT_NS: u64 = 100_000;
/// Share of a ladder window's requests that must meet [`LIMIT_NS`] for
/// it to pass. Half: a window above saturation fails on its growing
/// backlog whatever the share, so the rule only has to set apart the
/// windows below saturation that a burst of arrivals delayed.
pub const SLO_TARGET: f64 = 0.5;
/// Growth in median sojourn across a window that counts as a growing
/// backlog.
const BACKLOG_SLACK_NS: u64 = LIMIT_NS / 4;
/// The admission bucket refills at over twice the top rung with a deep burst,
/// so no seed sheds: every attempted request is admitted.
const ADMIT: AdmissionConfig = AdmissionConfig {
    rate_per_sec: 10e6,
    burst: 1 << 16,
};
const REFILL_BATCH: u64 = 64;
/// Requests between two `CellFlusher::flush` calls.
const FLUSH_EVERY: u64 = 1024;

/// Offered rate of ladder rung `k`, requests per second.
#[must_use]
pub fn ladder_rate(k: usize) -> f64 {
    LADDER_BASE * LADDER_STEP.powi(k as i32)
}

/// What one window measured. A run keeps thousands of these, so what only
/// the traced run reports sits in `detail`, which untraced windows leave
/// empty: whole records, about 380 B each, made the peak RSS follow the
/// number of windows a run managed.
#[derive(Default)]
struct Window {
    /// The ladder rung it ran at; `None` for a reference window.
    rung: Option<usize>,
    /// Whether the staircase had settled when it ran (ladder windows).
    settled: bool,
    traced: bool,
    /// Whether the generator or the worker saw a host stall.
    stalled: bool,
    /// Whether the wait grew across the window.
    backlog_grows: bool,
    setup_ns: u64,
    generated: u64,
    shed: u64,
    completed: u64,
    within: u64,
    /// Requests no host gap touched (see `stats::host_clean`) that met the
    /// limit, and all of them plus the shed ones.
    clean_within: u64,
    clean_counted: u64,
    /// Median sojourn of the requests no host gap touched.
    p50_ns: u64,
    /// Worker time from pop to the end of the map call.
    busy_ns: u64,
    map_ops: u64,
    /// Map calls that returned a `StructureError`.
    map_errors: u64,
    errors: Vec<String>,
    detail: Option<Box<Detail>>,
}

/// What a traced window adds.
#[derive(Default)]
struct Detail {
    admitted: u64,
    refills: u64,
    push_full: u64,
    flushes: u64,
    records_used: u64,
    ledger: Ledger,
    /// Sojourns in completion order, which is arrival order (one FIFO ring,
    /// one worker).
    sojourns: Vec<u64>,
    /// Generator lateness per request.
    late: Vec<u64>,
    /// Release-to-pop wait per request.
    waits: Vec<u64>,
}

/// The state the generator and the worker share.
struct Shared {
    ring: ShardRing<<Fig4Native as Provider>::Var>,
    sink: CellSink,
    /// Set by the worker once it runs, so that arrivals start after it
    /// does and no request waits for a thread to be spawned.
    ready: CachePadded<AtomicBool>,
    done: CachePadded<AtomicBool>,
}

impl Window {
    /// Share of the window's requests that completed within the limit.
    fn slo(&self) -> f64 {
        stats::slo_attain(self.within, self.generated)
    }

    /// Whether the window passes the ladder's rule: the SLO target met
    /// and the backlog not growing.
    fn passes(&self) -> bool {
        stats::window_passes(self.slo(), SLO_TARGET, self.backlog_grows)
    }
}

impl Timed for Window {
    fn traced(&self) -> bool {
        self.traced
    }
    fn stalled(&self) -> bool {
        self.stalled
    }
}

/// Runs one window: `requests` arrivals offered at `rate`, on a map with
/// records for `map_ops` calls. `bufs` receive the worker's sojourns,
/// intended arrivals and waits, and the sojourns no host gap touched. The
/// caller keeps them across windows so the worker allocates nothing, and
/// the process's peak RSS does not depend on which allocator arena a
/// short-lived thread happens to get.
fn window(
    seed: u64,
    index: u64,
    rate: f64,
    requests: usize,
    map_ops: usize,
    trace: &mut [Tracer; 2],
    bufs: &mut [Vec<u64>; 4],
) -> Window {
    let mut w = Window::default();
    let mut d = Detail::default();
    let t_setup = Instant::now();
    let env = Fig4Native::env(3).expect("native env is infallible");
    let var = || Fig4Native::var(&env, 0).expect("native var is infallible");
    let (map, prefill) = build_map(2, KEY_SPACE, map_ops, seed ^ index);
    // What both threads touch lives on the heap, and the stop flag on a
    // line of its own: on the generator's stack it could share a cache
    // line with the generator's per-request writes, depending on where
    // the process's stack happens to start.
    let shared = Box::new(Shared {
        ring: ShardRing::new(RING_CAP, var(), var()),
        sink: CellSink::new(2).expect("two flushing slots"),
        ready: CachePadded::new(AtomicBool::new(false)),
        done: CachePadded::new(AtomicBool::new(false)),
    });
    let bucket = StripedBucket::new(ADMIT, REFILL_BATCH, vec![var()]);
    w.setup_ns = common::ns_since(t_setup);
    let Shared {
        ring,
        sink,
        ready,
        done,
    } = &*shared;
    let records_before = map.remaining_capacity();

    let mut gen = LoadGen::new_keyed(
        seed.wrapping_add(index),
        ArrivalProcess::Poisson { rate_per_sec: rate },
        1.0,
        KeyDist::Zipf { space: KEY_SPACE },
    );
    let [gtr, wtr] = trace;
    let traced = gtr.is_on();
    w.traced = traced;
    let op_base = index << 32;
    let t0 = Instant::now();

    let map = &map;
    let worker_bufs = &mut *bufs;
    let mut worker = move |wtr: &mut Tracer| {
        let mut tc = Fig4Native::thread_ctx(&env, 1);
        let mut ctx = Fig4Native::ctx(&mut tc);
        let mut cell = CellFlusher::new(1);
        let mut kinds = SplitMix64::new(seed ^ index.rotate_left(17) ^ 0x3c);
        let [sojourns, arrivals, waits, _] = worker_bufs;
        sojourns.clear();
        arrivals.clear();
        waits.clear();
        let mut ledger = Ledger::default();
        let (mut busy, mut flushes, mut seen_done, mut i) = (0u64, 0u64, false, 0u64);
        let mut gaps = IdleLog::new(common::ns_since(t0));
        ready.store(true, Ordering::Release);
        let mut polled_empty = false;
        loop {
            let t_pop = common::ns_since(t0);
            if polled_empty {
                gaps.tick_idle(t_pop);
            } else {
                gaps.tick(t_pop);
            }
            polled_empty = true;
            wtr.enter(Layer::RingPop, op_base | i);
            let popped = ring.try_pop(&mut ctx);
            let Some(r) = popped else {
                wtr.exit_idle(Layer::RingPopEmpty);
                if seen_done {
                    break;
                }
                seen_done = done.load(Ordering::Acquire);
                std::hint::spin_loop();
                continue;
            };
            wtr.exit();
            polled_empty = false;
            if traced {
                // `service_ns` carries the generator's release stamp.
                waits.push(t_pop.saturating_sub(r.service_ns));
            }
            let op = MapOp::draw(&mut kinds);
            let layer = match op {
                MapOp::Insert => Layer::MapInsert,
                MapOp::Delete => Layer::MapDelete,
                MapOp::Get => Layer::MapGet,
            };
            wtr.span(layer, op_base | i, || {
                ledger.apply(map, &mut ctx, 1, op, r.key)
            });
            let end = common::ns_since(t0);
            gaps.tick(end);
            busy += end.saturating_sub(t_pop);
            let sojourn = end.saturating_sub(r.arrival_ns);
            sojourns.push(sojourn);
            arrivals.push(r.arrival_ns);
            cell.record_completed(1);
            cell.record_sojourn(sojourn);
            i += 1;
            if i % FLUSH_EVERY == 0 {
                wtr.span(Layer::Metrics, op_base | i, || cell.flush(sink));
                flushes += 1;
            }
        }
        if wtr.span(Layer::Metrics, op_base | i, || cell.flush(sink)) {
            flushes += 1;
        }
        (ledger, busy, flushes, gaps)
    };

    let ((ledger, busy, worker_flushes, worker_gaps), gen_gaps) = std::thread::scope(|s| {
        let h = s.spawn(move || worker(wtr));
        let mut tc = Fig4Native::thread_ctx(&env, 0);
        let mut ctx = Fig4Native::ctx(&mut tc);
        let mut cell = CellFlusher::new(0);
        while !ready.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        // The generator's schedule starts now, with the worker running.
        let start = common::ns_since(t0);
        let mut gaps = IdleLog::new(start);
        for i in 0..requests as u64 {
            let op = op_base | i;
            let mut r = gtr.span(Layer::LoadGen, op, || gen.next_request());
            r.arrival_ns += start;
            let mut now = common::ns_since(t0);
            gaps.tick(now);
            while now < r.arrival_ns {
                std::hint::spin_loop();
                now = common::ns_since(t0);
                gaps.tick_idle(now);
            }
            if traced {
                d.late.push(now - r.arrival_ns);
            }
            w.generated += 1;
            match gtr.span(Layer::Admit, op, || bucket.admit(&mut ctx, 0, r.arrival_ns)) {
                AdmitOutcome::Shed => {
                    w.shed += 1;
                    cell.record_shed();
                }
                AdmitOutcome::Admitted { refilled } => {
                    d.admitted += 1;
                    d.refills += u64::from(refilled);
                    cell.record_admit();
                    r.service_ns = now;
                    while !gtr.span(Layer::RingPush, op, || ring.try_push(&mut ctx, r)) {
                        // A full ring is the worker falling behind, not a
                        // stall of this thread.
                        d.push_full += 1;
                        gaps.tick_idle(common::ns_since(t0));
                        std::hint::spin_loop();
                    }
                }
            }
            if (i + 1) % FLUSH_EVERY == 0 && gtr.span(Layer::Metrics, op, || cell.flush(sink)) {
                d.flushes += 1;
            }
        }
        if gtr.span(Layer::Metrics, op_base, || cell.flush(sink)) {
            d.flushes += 1;
        }
        done.store(true, Ordering::Release);
        (h.join().expect("serve worker panicked"), gaps)
    });
    w.stalled = gen_gaps.stalled() || worker_gaps.stalled();

    d.flushes += worker_flushes;
    let [sojourns, arrivals, waits, clean] = bufs;
    w.completed = sojourns.len() as u64;
    w.within = sojourns.iter().filter(|&&s| s <= LIMIT_NS).count() as u64;
    let host_gaps = [gen_gaps.host_gaps(), worker_gaps.host_gaps()];
    stats::host_clean(arrivals, sojourns, &host_gaps, clean);
    w.clean_within = clean.iter().filter(|&&s| s <= LIMIT_NS).count() as u64;
    w.clean_counted = clean.len() as u64 + w.shed;
    if traced {
        d.sojourns.clone_from(sojourns);
        d.waits.clone_from(waits);
    }
    w.backlog_grows = stats::backlog_grows(sojourns, BACKLOG_SLACK_NS);
    w.p50_ns = stats::percentile(clean, 0.5).map_or(0, |p| p.value);
    w.busy_ns = busy;
    d.records_used = (records_before - map.remaining_capacity()) as u64;

    // Output checks: the sink's consistent snapshot against both threads'
    // own counts, and the map's conservation and order.
    let snap = sink.snapshot();
    if snap.generated() != w.generated || snap.admitted != d.admitted || snap.shed != w.shed {
        w.errors.push(format!(
            "sink snapshot ({} admitted, {} shed) disagrees with the generator ({}, {})",
            snap.admitted, snap.shed, d.admitted, w.shed
        ));
    }
    if snap.completed != snap.admitted
        || snap.completed != w.completed
        || snap.sojourns() != w.completed
    {
        w.errors.push(format!(
            "sink snapshot completed {} != admitted {} (worker saw {})",
            snap.completed, snap.admitted, w.completed
        ));
    }
    if let Err(e) = common::check_map(map, prefill, &ledger) {
        w.errors.push(e);
    }
    w.map_ops = ledger.ops();
    w.map_errors = ledger.errors;
    d.ledger = ledger;
    if traced {
        w.detail = Some(Box::new(d));
    }
    w
}

/// Runs the workload for `seconds` and fills `out`.
pub fn run(seed: u64, seconds: f64, traced: bool, out: &mut Out) {
    let epoch = Instant::now();
    let off = || [Tracer::new(false, epoch, 1), Tracer::new(false, epoch, 2)];
    let mut trace = Tracer::new(true, epoch, 0);
    let mut n = 0u64;
    let ref_requests = (REF_RATE * WINDOW_S) as usize;
    let mut bufs = [
        Vec::with_capacity(LADDER_REQUESTS),
        Vec::with_capacity(LADDER_REQUESTS),
        Vec::with_capacity(if traced { ref_requests } else { 0 }),
        Vec::with_capacity(LADDER_REQUESTS),
    ];
    let mut next = |rate: f64, requests: usize, map_ops: usize, tr: &mut [Tracer; 2]| {
        n += 1;
        window(seed, n, rate, requests, map_ops, tr, &mut bufs)
    };
    let mut reference: Vec<Window> = Vec::with_capacity(common::MAX_WINDOWS);
    let mut ladder: Vec<Window> = Vec::with_capacity(common::MAX_WINDOWS);
    let mut stairs = Staircase::new(LADDER_RUNGS, FIRST_STEP);
    let tele0 = racy_totals();
    // An untraced run spends one window in `REF_PER_LADDER + 1` on the
    // ladder, at the rung the staircase picks, and the others at the
    // reference rate, which gives latency, SLO and set-up time. A traced
    // run runs reference windows only, every second one traced; the
    // worker's service rates in the two kinds give the tracing overhead.
    common::window_loop(seconds, traced, |_, on| {
        if traced {
            let mut tr = [Tracer::new(on, epoch, 1), Tracer::new(on, epoch, 2)];
            reference.push(next(REF_RATE, ref_requests, ref_requests, &mut tr));
            let [a, b] = tr;
            trace.merge(a);
            trace.merge(b);
            return;
        }
        let k = stairs.rung();
        let requests = LADDER_REQUESTS.min((ladder_rate(k) * WINDOW_S) as usize);
        // Every ladder window's map has records for the most requests a
        // ladder window holds: maps of as many sizes as the rungs a run
        // visits left the heap fragmented differently from run to run, and
        // moved the peak RSS by up to 0.8 MB.
        let mut w = next(ladder_rate(k), requests, LADDER_REQUESTS, &mut off());
        w.rung = Some(k);
        w.settled = stairs.settled();
        // A window that a host stall hit and that failed says nothing
        // about the program: the staircase stays where it is. One that
        // passed in spite of the stall moves it up.
        let passed = w.passes();
        if passed || !w.stalled {
            stairs.record(passed);
        }
        ladder.push(w);
        for _ in 0..REF_PER_LADDER {
            reference.push(next(REF_RATE, ref_requests, ref_requests, &mut off()));
        }
    });
    let tele1 = racy_totals();

    for w in reference.iter().chain(&ladder) {
        out.attempted += w.generated;
        out.failed += w.shed + w.map_errors;
        out.errors.extend(w.errors.iter().cloned());
    }

    // Set-up time, latency and SLO attainment count every untraced
    // reference window; latency and SLO only the requests in it that no
    // host gap touched (see `stats::host_clean`).
    let untraced: Vec<&Window> = reference.iter().filter(|w| !w.traced).collect();
    out.e2e(
        "setup_s",
        "s",
        median_of(&untraced, |w| w.setup_ns as f64 / 1e9),
    );
    if !traced {
        for k in 0..LADDER_RUNGS {
            let ws: Vec<&Window> = ladder.iter().filter(|w| w.rung == Some(k)).collect();
            if !ws.is_empty() {
                eprintln!(
                    "[perfbench] serve_zipf rung {:>9.0} req/s: {:>4} windows ({} stalled), {} pass",
                    ladder_rate(k),
                    ws.len(),
                    ws.iter().filter(|w| w.stalled).count(),
                    ws.iter().filter(|w| w.passes()).count(),
                );
            }
        }
        // Throughput: where the settled staircase spent its windows, the
        // rate at which half the windows pass. A run so short, or so
        // stalled, that the staircase never settled reads where it went.
        let settled = ladder.iter().any(|w| w.settled);
        let rates: Vec<f64> = ladder
            .iter()
            .filter(|w| w.settled || !settled)
            .map(|w| ladder_rate(w.rung.expect("a ladder window")))
            .collect();
        out.e2e("ops_per_s", "1/s", stats::staircase_rate(&rates));
    }
    let with_clean: Vec<&Window> = untraced
        .iter()
        .copied()
        .filter(|w| w.clean_counted > w.shed)
        .collect();
    out.e2e(
        "lat_p50_us",
        "us",
        median_of(&with_clean, |w| w.p50_ns as f64 / 1e3),
    );
    // SLO attainment pools the requests of every untraced reference
    // window, but only those no host gap touched. In the open loop one
    // host stall delays every request queued behind it, so counting those
    // would report the host's stall rate; a request that ran long, and
    // those queued behind it, still count, as misses, however rare.
    let pooled = |f: fn(&Window) -> u64| untraced.iter().map(|w| f(w)).sum::<u64>();
    let counted = pooled(|w| w.clean_counted);
    out.e2e(
        "slo_attain",
        "ratio",
        if counted == 0 {
            f64::NAN
        } else {
            stats::slo_attain(pooled(|w| w.clean_within), counted)
        },
    );
    out.e2e_fail_frac();
    out.e2e("peak_rss_mb", "MB", common::peak_rss_mb());

    if traced {
        layer_metrics(&trace, &reference, &tele0, &tele1, out);
    }
}

/// The serving layers' metrics, from the traced reference windows in
/// `windows` (the untraced ones give the tracing overhead's baseline).
fn layer_metrics(
    t: &Tracer,
    windows: &[Window],
    tele0: &[u64; nbsp_telemetry::EVENT_COUNT],
    tele1: &[u64; nbsp_telemetry::EVENT_COUNT],
    out: &mut Out,
) {
    let (reference, untraced): (Vec<&Window>, Vec<&Window>) =
        windows.iter().partition(|w| w.traced);
    let details: Vec<&Detail> = reference
        .iter()
        .map(|w| {
            w.detail
                .as_deref()
                .expect("a traced window keeps its detail")
        })
        .collect();
    let sum = |f: &dyn Fn(&Detail) -> u64| -> u64 { details.iter().map(|d| f(d)).sum() };
    let requests: u64 = reference.iter().map(|w| w.generated).sum();
    let shed: u64 = reference.iter().map(|w| w.shed).sum();
    let admitted = sum(&|d| d.admitted);
    let pooled = |f: &dyn Fn(&Detail) -> &Vec<u64>| -> Vec<u64> {
        details.iter().flat_map(|d| f(d).iter().copied()).collect()
    };
    let mut late = pooled(&|d| &d.late);
    let mut waits = pooled(&|d| &d.waits);
    let mut sojourns = pooled(&|d| &d.sojourns);
    let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    out.layer("loadgen.next_ns", "ns", t.agg(Layer::LoadGen).mean_ns());
    if let Some(p) = stats::percentile(&mut late, 0.99) {
        out.layer("loadgen.late_us_p99", "us", p.value as f64 / 1e3);
        out.layer("loadgen.late_p99_samples", "count", p.samples as f64);
    }
    out.layer(
        "loadgen.late_us_max",
        "us",
        late.iter().max().map_or(0.0, |&m| m as f64 / 1e3),
    );
    out.layer("admit.ns", "ns", t.agg(Layer::Admit).mean_ns());
    out.layer(
        "admit.refill_frac",
        "ratio",
        frac(sum(&|d| d.refills), admitted),
    );
    out.layer("admit.shed_frac", "ratio", frac(shed, requests));
    out.layer("ring.push_ns", "ns", t.agg(Layer::RingPush).mean_ns());
    out.layer("ring.push_full", "count", sum(&|d| d.push_full) as f64);
    out.layer("ring.pop_ns", "ns", t.agg(Layer::RingPop).mean_ns());
    let (pops, empties) = (
        t.agg(Layer::RingPop).count,
        t.agg(Layer::RingPopEmpty).count,
    );
    out.layer(
        "ring.pop_empty_frac",
        "ratio",
        frac(empties, pops + empties),
    );
    if let Some(p) = stats::percentile(&mut waits, 0.5) {
        out.layer("ring.wait_us_p50", "us", p.value as f64 / 1e3);
    }
    out.layer("metrics.flush_ns", "ns", t.agg(Layer::Metrics).mean_ns());
    out.layer(
        "metrics.flushes_per_req",
        "ratio",
        frac(sum(&|d| d.flushes), requests),
    );
    let mut ledger = Ledger::default();
    for d in &details {
        ledger.add(&d.ledger);
    }
    crate::report::map_layers(t, &ledger, sum(&|d| d.records_used), out);
    // Traced and untraced reference windows both ran between the two
    // quiescent telemetry readings.
    let map_ops: u64 = windows.iter().map(|w| w.map_ops).sum();
    for (name, ev) in common::TELEMETRY_RATIOS {
        out.layer(name, "ratio", common::per_op(tele0, tele1, ev, map_ops));
    }
    if let Some(p) = stats::percentile(&mut sojourns, 0.99) {
        out.layer("lat_us_p99", "us", p.value as f64 / 1e3);
        out.layer("lat_p99_samples", "count", p.samples as f64);
    }
    // Tracing overhead: worker service rate with and without spans.
    let rate = |ws: &[&Window]| {
        let c: u64 = ws.iter().map(|w| w.completed).sum();
        let b: u64 = ws.iter().map(|w| w.busy_ns).sum();
        frac(c, b)
    };
    out.layer(
        "trace.overhead_frac",
        "ratio",
        stats::overhead_frac(rate(&reference), rate(&untraced)),
    );
    out.layer("host.stalled_frac", "ratio", stall::stalled_frac(windows));
    out.self_times(t);
    out.spans(t);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ladder_is_geometric_and_never_sheds() {
        assert_eq!(ladder_rate(0), LADDER_BASE);
        assert!((ladder_rate(1) / ladder_rate(0) - LADDER_STEP).abs() < 1e-12);
        let top = ladder_rate(LADDER_RUNGS - 1);
        assert!(top > 4e6 && 2.0 * top <= ADMIT.rate_per_sec);
    }
}
