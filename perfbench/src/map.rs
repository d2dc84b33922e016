//! `contend_map`: a closed loop of two threads running the 2:1:1
//! insert/delete/get mix on one `OrdMap` over a small Zipf key space, so
//! LLX/SCX conflicts, helping and SCX aborts dominate. Each window gets a
//! fresh map sized for that window, so one stall or one unlucky layout
//! lands in a single window, and windows are short (about 10 ms) so that
//! most of them see no host stall.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use nbsp_core::CachePadded;
use nbsp_telemetry::racy_totals;

use crate::common::{self, build_map, Ledger, MapOp};
use crate::report::{self, Out};
use crate::stall::{self, GapLog, Timed};
use crate::stats::{self, median_of};
use crate::trace::{Layer, Tracer};

/// Zipf key space: small, so the two threads collide on hot keys.
const KEY_SPACE: u64 = 256;
/// Map calls per thread per window; the first thread to finish ends the
/// window.
const OPS_PER_THREAD: usize = 8_000;
/// Latency limit of one map call.
const LIMIT_NS: u64 = 50_000;
const THREADS: usize = 2;

struct Window {
    setup_ns: u64,
    elapsed_ns: u64,
    ledger: Ledger,
    lat_p50_ns: f64,
    lat_p99_ns: u64,
    calls: u64,
    within: u64,
    records_used: u64,
    traced: bool,
    stalled: bool,
}

impl Window {
    fn ops_per_s(&self) -> f64 {
        self.ledger.ops() as f64 / (self.elapsed_ns as f64 / 1e9)
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

/// Runs one window. `lat` holds one latency buffer per thread, kept by
/// the caller so every window reuses the same memory.
fn window(
    seed: u64,
    index: u64,
    traced: bool,
    epoch: Instant,
    tracer: &mut Tracer,
    lat: &mut [Vec<u64>; THREADS],
) -> (Window, Result<(), String>) {
    let t_setup = Instant::now();
    let (map, prefill) = build_map(THREADS, KEY_SPACE, THREADS * OPS_PER_THREAD, seed ^ index);
    let setup_ns = common::ns_since(t_setup);
    let records_before = map.remaining_capacity();
    let inputs: Vec<Vec<(MapOp, u64)>> = (0..THREADS as u64)
        .map(|t| common::zipf_ops(seed ^ (index << 8) ^ t, KEY_SPACE, OPS_PER_THREAD))
        .collect();
    let stop = CachePadded::new(AtomicBool::new(false));
    let start = Barrier::new(THREADS);
    let (map, stop, start) = (&map, &stop, &start);
    // Worker threads allocate nothing: buffers and tracers are made here,
    // so the process's peak RSS does not depend on which allocator arena
    // a short-lived thread happens to get.
    let tracers: Vec<Tracer> = (0..THREADS as u64)
        .map(|p| Tracer::new(traced, epoch, p + 1))
        .collect();
    let results: Vec<(Ledger, u64, u64, Tracer, GapLog)> = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .iter()
            .zip(lat.iter_mut())
            .zip(tracers)
            .enumerate()
            .map(|(p, ((ops, lat), mut tr))| {
                s.spawn(move || {
                    let mut ctx = nbsp_core::Native;
                    let mut ledger = Ledger::default();
                    lat.clear();
                    start.wait();
                    let t0 = Instant::now();
                    let mut prev = 0u64;
                    let mut gaps = GapLog::new(0);
                    for (i, &(op, key)) in ops.iter().enumerate() {
                        let layer = match op {
                            MapOp::Insert => Layer::MapInsert,
                            MapOp::Delete => Layer::MapDelete,
                            MapOp::Get => Layer::MapGet,
                        };
                        let id = (index << 32) | ((p as u64) << 24) | i as u64;
                        tr.span(layer, id, || ledger.apply(map, &mut ctx, p, op, key));
                        let now = common::ns_since(t0);
                        gaps.tick(now);
                        lat.push(now - prev);
                        prev = now;
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    stop.store(true, Ordering::Relaxed);
                    let started = t0.duration_since(epoch).as_nanos() as u64;
                    (ledger, prev, started, tr, gaps)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("map worker panicked"))
            .collect()
    });
    let mut w = Window {
        setup_ns,
        elapsed_ns: 0,
        ledger: Ledger::default(),
        lat_p50_ns: 0.0,
        lat_p99_ns: 0,
        calls: 0,
        within: 0,
        records_used: (records_before - map.remaining_capacity()) as u64,
        traced,
        stalled: false,
    };
    let first_start = results.iter().map(|r| r.2).min().unwrap_or(0);
    for (ledger, end, started, tr, gaps) in results {
        w.ledger.add(&ledger);
        w.stalled |= gaps.stalled();
        w.elapsed_ns = w.elapsed_ns.max(started - first_start + end);
        tracer.merge(tr);
    }
    w.lat_p50_ns = stats::client_p50(lat).unwrap_or(0.0);
    let [a, b] = lat;
    a.extend_from_slice(b);
    w.calls = a.len() as u64;
    w.within = a.iter().filter(|&&l| l <= LIMIT_NS).count() as u64;
    w.lat_p99_ns = stats::percentile(a, 0.99).map_or(0, |p| p.value);
    let checked = common::check_map(map, prefill, &w.ledger);
    (w, checked)
}

/// Runs the workload for `seconds` and fills `out`.
pub fn run(seed: u64, seconds: f64, traced: bool, out: &mut Out) {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(true, epoch, 0);
    let mut windows: Vec<Window> = Vec::with_capacity(common::MAX_WINDOWS);
    let tele0 = racy_totals();
    let mut lat = [
        Vec::with_capacity(2 * OPS_PER_THREAD),
        Vec::with_capacity(OPS_PER_THREAD),
    ];
    common::window_loop(seconds, traced, |index, on| {
        let (w, checked) = window(seed, index, on, epoch, &mut tracer, &mut lat);
        if let Err(e) = checked {
            out.errors.push(e);
        }
        windows.push(w);
    });
    let tele1 = racy_totals();
    for w in &windows {
        out.attempted += w.ledger.ops();
        out.failed += w.ledger.errors;
    }
    // Timing medians skip the windows a host stall hit. Set-up time and
    // SLO attainment count every untraced window, stalled ones too: a
    // call that took too long is a miss, whatever made it long.
    let plain = stall::plain(&windows, false);
    let untraced: Vec<&Window> = windows.iter().filter(|w| !w.traced).collect();
    out.e2e(
        "setup_s",
        "s",
        median_of(&untraced, |w| w.setup_ns as f64 / 1e9),
    );
    out.e2e("ops_per_s", "1/s", median_of(&plain, Window::ops_per_s));
    out.e2e(
        "lat_p50_us",
        "us",
        median_of(&plain, |w| w.lat_p50_ns / 1e3),
    );
    out.e2e(
        "slo_attain",
        "ratio",
        median_of(&untraced, |w| stats::slo_attain(w.within, w.calls)),
    );
    out.e2e_fail_frac();
    out.e2e("peak_rss_mb", "MB", common::peak_rss_mb());

    if traced {
        let traced_ws = stall::plain(&windows, true);
        let mut ledger = Ledger::default();
        let mut records = 0;
        for w in windows.iter().filter(|w| w.traced) {
            ledger.add(&w.ledger);
            records += w.records_used;
        }
        report::map_layers(&tracer, &ledger, records, out);
        let ops: u64 = windows.iter().map(|w| w.ledger.ops()).sum();
        for (name, ev) in common::TELEMETRY_RATIOS {
            out.layer(name, "ratio", common::per_op(&tele0, &tele1, ev, ops));
        }
        // p99 of each window's calls, median across windows.
        out.layer(
            "lat_us_p99",
            "us",
            median_of(&plain, |w| w.lat_p99_ns as f64 / 1e3),
        );
        out.layer(
            "lat_p99_samples",
            "count",
            median_of(&plain, |w| w.calls as f64),
        );
        out.layer(
            "trace.overhead_frac",
            "ratio",
            stats::overhead_frac(
                median_of(&traced_ws, Window::ops_per_s),
                median_of(&plain, Window::ops_per_s),
            ),
        );
        out.layer("host.stalled_frac", "ratio", stall::stalled_frac(&windows));
        out.self_times(&tracer);
        out.spans(&tracer);
    }
}
