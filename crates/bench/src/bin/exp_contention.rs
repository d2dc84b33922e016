//! Contention sweep: threads x structure x {padding, ordering, backoff}.
//!
//! The library ships cache-line padding on per-process slots, weak
//! (acquire/release) orderings in the `Native` provider, and bounded
//! exponential backoff in every structure retry loop. This harness measures
//! what each of those three knobs buys under real multi-threaded contention
//! by sweeping the four padding × ordering corners of Figure 4 on native
//! CAS (`Fig4Native` and three `Fig4NativeAblation` instances) over the
//! Figure-4-backed structures, with backoff as the third axis:
//!
//! * **padding** — each LL/SC variable on its own 128-byte line vs. packed
//!   contiguously so neighbouring links false share;
//! * **ordering** — the shipped acquire/release `Native` memory vs.
//!   `NativeSeqCst`, which forces every operation to `SeqCst` (the
//!   pre-optimization behaviour);
//! * **backoff** — structure retry loops back off after a failed SC
//!   ([`backoff::set_enabled`]) vs. hammering the line immediately.
//!
//! Each corner is a type, and its rows are labelled from that type's
//! `Corner` constants.
//!
//! A fourth workload drives [`OrecStm`], whose phase-1 orec acquisition is
//! a spin lock: there the backoff axis decides whether a waiter burns its
//! whole scheduler quantum spinning on an orec held by a preempted owner
//! (the classic oversubscription pathology) or yields it back. On machines
//! with fewer cores than threads this is the dominant effect; on big
//! machines the padding and ordering axes take over. Every cell is the
//! median of several runs, because a single oversubscribed run is mostly
//! scheduler noise.
//!
//! No criterion, no external deps: plain `std::thread` workers through
//! `measure::throughput_sessions`. Every telemetry number this binary
//! reports flows through the Figure-6 path (`nbsp_bench::sinks`): each
//! worker session owns a flusher pair and publishes its per-thread deltas
//! into a run-level WLL sink, and the JSON telemetry block and per-cell
//! event tables read those sinks with a single WLL each — never
//! `racy_totals`, whose cross-event tearing E11 demonstrates. Results go to
//! stdout as a markdown table and to `BENCH_contention.json` so future PRs
//! have a perf trajectory to regress against. The run exits nonzero if,
//! at 4 or more threads, the fully hardened configuration (padded +
//! acqrel + backoff) fails to beat the seed configuration (unpadded +
//! SeqCst + no backoff) on the geometric-mean speedup across workloads.

use std::fs;
use std::process::ExitCode;

use nbsp_bench::measure::throughput_sessions;
use nbsp_bench::report::{event_table, fmt_ops, Report, Table};
use nbsp_bench::sinks::{session_loop, FlushPair, Sinks};
use nbsp_core::provider::{Fig4Native, Fig4NativeAblation};
use nbsp_core::{backoff, CachePadded, CasLlSc, Native, NativeSeqCst, Provider};
use nbsp_memsim::ProcId;
use nbsp_structures::stm_orec::OrecStm;
use nbsp_structures::{Counter, Queue, Stack};
use nbsp_telemetry::{AtomicHists, AtomicTotals, Event, Hist, EVENT_COUNT};

// ---------------------------------------------------------------------------
// The padding × ordering corners.
// ---------------------------------------------------------------------------

/// One variable per slot, neighbours sharing cache lines.
type Packed = CasLlSc<Native>;
/// One variable per 128-byte line.
type Padded = CachePadded<CasLlSc<Native>>;

/// A corner of the padding × ordering matrix: the provider it runs and the
/// labels its rows carry.
trait Corner: Provider {
    const PADDED: bool;
    const ORDERING: &'static str;
}

impl Corner for Fig4Native {
    const PADDED: bool = false;
    const ORDERING: &'static str = "acqrel";
}

impl Corner for Fig4NativeAblation<NativeSeqCst, Packed> {
    const PADDED: bool = false;
    const ORDERING: &'static str = "seqcst";
}

impl Corner for Fig4NativeAblation<Native, Padded> {
    const PADDED: bool = true;
    const ORDERING: &'static str = "acqrel";
}

impl Corner for Fig4NativeAblation<NativeSeqCst, Padded> {
    const PADDED: bool = true;
    const ORDERING: &'static str = "seqcst";
}

// ---------------------------------------------------------------------------
// Workloads, generic over any registered provider.
// ---------------------------------------------------------------------------

/// Shared-counter increment: the worst case — every operation contends on
/// one variable, so layout cannot help but ordering and backoff can.
fn counter_tput<P: Provider>(
    threads: usize,
    per_thread: u64,
    sinks: &Sinks,
    main: &mut FlushPair,
) -> f64 {
    let env = P::env(threads + 1).expect("provider env");
    let counter = Counter::new(P::var(&env, 0).expect("provider var"));
    main.flush(sinks); // publish setup events
    throughput_sessions(threads, per_thread, |tid| {
        let counter = &counter;
        let mut tc = P::thread_ctx(&env, tid);
        move |iters: u64| {
            let mut ctx = P::ctx(&mut tc);
            session_loop(iters, sinks, || {
                counter.increment(&mut ctx);
            });
        }
    })
}

/// Treiber-style push/pop pairs. The stack's head and free-list head live
/// in adjacent variables, so the padding axis separates their cache lines.
fn stack_tput<P: Provider>(
    threads: usize,
    per_thread: u64,
    sinks: &Sinks,
    main: &mut FlushPair,
) -> f64 {
    let env = P::env(threads + 1).expect("provider env");
    // Setup does LL/SC work too: it gets the env's extra context slot.
    let mut setup_tc = P::thread_ctx(&env, threads);
    let mut setup = P::ctx(&mut setup_tc);
    let stack = Stack::new(
        2 * threads + 8,
        P::var(&env, 0).expect("provider var"),
        P::var(&env, 0).expect("provider var"),
        &mut setup,
    );
    main.flush(sinks);
    throughput_sessions(threads, per_thread, |tid| {
        let stack = &stack;
        let mut tc = P::thread_ctx(&env, tid);
        let v = tid as u64;
        move |iters: u64| {
            let mut ctx = P::ctx(&mut tc);
            session_loop(iters, sinks, || {
                let _ = stack.push(&mut ctx, v);
                let _ = stack.pop(&mut ctx);
            });
        }
    })
}

/// Michael–Scott-style enqueue/dequeue pairs over the Figure-4 link array;
/// the padding axis decides whether neighbouring links false share.
fn queue_tput<P: Provider>(
    threads: usize,
    per_thread: u64,
    sinks: &Sinks,
    main: &mut FlushPair,
) -> f64 {
    let env = P::env(threads + 1).expect("provider env");
    let mut setup_tc = P::thread_ctx(&env, threads);
    let mut setup = P::ctx(&mut setup_tc);
    let queue = Queue::new(
        2 * threads + 8,
        || P::var(&env, 0).expect("provider var"),
        &mut setup,
    );
    main.flush(sinks);
    throughput_sessions(threads, per_thread, |tid| {
        let queue = &queue;
        let mut tc = P::thread_ctx(&env, tid);
        let v = tid as u64;
        move |iters: u64| {
            let mut ctx = P::ctx(&mut tc);
            session_loop(iters, sinks, || {
                let _ = queue.enqueue(&mut ctx, v);
                let _ = queue.dequeue(&mut ctx);
            });
        }
    })
}

/// Fully overlapping two-cell transactions on the ownership-record STM.
/// The orec acquisition spin is where backoff matters most: with more
/// threads than cores, a disabled backoff burns whole scheduler quanta
/// spinning on an orec whose owner is descheduled. (Not provider-backed:
/// its orecs are raw atomics, not swappable LL/SC variables.)
fn stm_tput(threads: usize, per_thread: u64, sinks: &Sinks, main: &mut FlushPair) -> f64 {
    let stm = OrecStm::new(&[0; 4]);
    main.flush(sinks);
    throughput_sessions(threads, per_thread, |tid| {
        let stm = &stm;
        let p = ProcId::new(tid);
        move |iters: u64| {
            session_loop(iters, sinks, || {
                stm.transact(p, &[0, 1], |vals| {
                    vals[0] += 1;
                    vals[1] += 1;
                });
            });
        }
    })
}

// ---------------------------------------------------------------------------
// Sweep driver.
// ---------------------------------------------------------------------------

struct Row {
    structure: &'static str,
    threads: usize,
    padded: bool,
    ordering: &'static str,
    backoff: bool,
    ops_per_sec: f64,
}

/// Median over `runs` repetitions — a single oversubscribed run is mostly
/// scheduler noise.
fn median_tput(runs: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut samples: Vec<f64> = (0..runs).map(|_| f()).collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

type Workload = fn(usize, u64, &Sinks, &mut FlushPair) -> f64;

/// Per-cell telemetry deltas, printed in `--quick` mode so a smoke run
/// shows *why* a cell is slow (SC failure rate, help traffic, backoff
/// escalation) instead of just that it is. Runs of the full sweep keep
/// stderr compact and rely on the run-level JSON block instead. Both
/// endpoints of the delta are single-WLL snapshots of the run's
/// `WideTotals` sink, so the printed deltas cannot tear across events.
fn print_cell_events(quick: bool, before: &[u64; EVENT_COUNT], sinks: &Sinks, total_ops: u64) {
    if !quick || !nbsp_telemetry::enabled() {
        return;
    }
    let after = sinks.events.totals();
    let mut delta = [0u64; EVENT_COUNT];
    for i in 0..EVENT_COUNT {
        delta[i] = after[i] - before[i];
    }
    for line in event_table(&delta, Some(total_ops)).to_markdown().lines() {
        eprintln!("[exp_contention]     {line}");
    }
}

type Sweep = fn(&[usize], u64, usize, bool, &Sinks, &mut FlushPair, &mut Vec<Row>);

fn sweep_corner<P: Corner>(
    threads_list: &[usize],
    per_thread: u64,
    runs: usize,
    quick: bool,
    sinks: &Sinks,
    main: &mut FlushPair,
    rows: &mut Vec<Row>,
) {
    let workloads: [(&'static str, Workload); 3] = [
        ("counter", counter_tput::<P>),
        ("stack", stack_tput::<P>),
        ("queue", queue_tput::<P>),
    ];
    for &use_backoff in &[false, true] {
        backoff::set_enabled(use_backoff);
        for &(structure, work) in &workloads {
            for &threads in threads_list {
                let before = sinks.events.totals();
                let ops = median_tput(runs, || work(threads, per_thread, sinks, main));
                eprintln!(
                    "[exp_contention] {structure} t={threads} padded={} ordering={} backoff={use_backoff}: {}",
                    P::PADDED,
                    P::ORDERING,
                    fmt_ops(ops),
                );
                print_cell_events(quick, &before, sinks, runs as u64 * threads as u64 * per_thread);
                rows.push(Row {
                    structure,
                    threads,
                    padded: P::PADDED,
                    ordering: P::ORDERING,
                    backoff: use_backoff,
                    ops_per_sec: ops,
                });
            }
        }
    }
    backoff::set_enabled(true); // library default
}

/// The STM workload only has the backoff axis; padding/ordering are
/// recorded as the library defaults so the JSON stays uniform.
fn sweep_stm(
    threads_list: &[usize],
    per_thread: u64,
    runs: usize,
    quick: bool,
    sinks: &Sinks,
    main: &mut FlushPair,
    rows: &mut Vec<Row>,
) {
    for &use_backoff in &[false, true] {
        backoff::set_enabled(use_backoff);
        for &threads in threads_list {
            let before = sinks.events.totals();
            let ops = median_tput(runs, || stm_tput(threads, per_thread, sinks, main));
            eprintln!(
                "[exp_contention] stm_orec t={threads} backoff={use_backoff}: {}",
                fmt_ops(ops),
            );
            print_cell_events(quick, &before, sinks, runs as u64 * threads as u64 * per_thread);
            rows.push(Row {
                structure: "stm_orec",
                threads,
                padded: true,
                ordering: "acqrel",
                backoff: use_backoff,
                ops_per_sec: ops,
            });
        }
    }
    backoff::set_enabled(true);
}

/// End-of-run telemetry block for the JSON artifact: per-event totals and
/// the two log2 histograms, each read from its Figure-6 sink with a
/// single WLL — the whole block is built from two atomic snapshots, never
/// from racy cross-row sums. When the `telemetry` feature is compiled out
/// the block records only `"enabled": false`, so schema consumers can
/// distinguish "no events" from "not instrumented".
fn telemetry_json(indent: &str, sinks: &Sinks) -> String {
    if !nbsp_telemetry::enabled() {
        return format!("{indent}\"telemetry\": {{\"enabled\": false}}");
    }
    let totals = sinks.events.totals();
    let events = Event::ALL
        .iter()
        .map(|e| format!("\"{}\": {}", e.name(), totals[e.index()]))
        .collect::<Vec<_>>()
        .join(", ");
    let hist_totals = sinks.hists.totals();
    let hists = Hist::ALL
        .iter()
        .map(|h| {
            let buckets = hist_totals[*h as usize]
                .iter()
                .map(|b| b.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            format!("{indent}    \"{}\": [{buckets}]", h.name())
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{indent}\"telemetry\": {{\n\
         {indent}  \"enabled\": true,\n\
         {indent}  \"events\": {{{events}}},\n\
         {indent}  \"histograms\": {{\n{hists}\n{indent}  }}\n\
         {indent}}}"
    )
}

fn to_json(rows: &[Row], threads_list: &[usize], per_thread: u64, runs: usize, sinks: &Sinks) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema_version\": 2,\n");
    s.push_str("  \"experiment\": \"contention\",\n");
    s.push_str(&format!("  \"per_thread_iters\": {per_thread},\n"));
    s.push_str(&format!("  \"median_of_runs\": {runs},\n"));
    s.push_str(&format!(
        "  \"threads\": [{}],\n",
        threads_list
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    s.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"structure\": \"{}\", \"threads\": {}, \"padded\": {}, \"ordering\": \"{}\", \"backoff\": {}, \"ops_per_sec\": {:.1}}}{}\n",
            r.structure,
            r.threads,
            r.padded,
            r.ordering,
            r.backoff,
            r.ops_per_sec,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&telemetry_json("  ", sinks));
    s.push_str("\n}\n");
    s
}

fn find(rows: &[Row], structure: &str, t: usize, padded: bool, ordering: &str, b: bool) -> f64 {
    rows.iter()
        .find(|r| {
            r.structure == structure
                && r.threads == t
                && r.padded == padded
                && r.ordering == ordering
                && r.backoff == b
        })
        .map(|r| r.ops_per_sec)
        .unwrap_or(f64::NAN)
}

/// Per-workload hardened/seed speedups at `t`. The LL/SC structures
/// compare all three knobs; the STM compares the backoff knob (its only
/// axis).
fn speedups(rows: &[Row], t: usize) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    for structure in ["counter", "stack", "queue"] {
        let seed = find(rows, structure, t, false, "seqcst", false);
        let hardened = find(rows, structure, t, true, "acqrel", true);
        out.push((structure, hardened / seed));
    }
    let seed = find(rows, "stm_orec", t, true, "acqrel", false);
    let hardened = find(rows, "stm_orec", t, true, "acqrel", true);
    out.push(("stm_orec", hardened / seed));
    out
}

fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");
    let threads_list: &[usize] = &[1, 2, 4, 8];
    // Each thread's work must span many scheduler quanta (several ms at
    // least), otherwise on an oversubscribed host the threads simply run
    // to completion back-to-back and never actually contend.
    let (per_thread, stm_per_thread, runs): (u64, u64, usize) =
        if quick { (5_000, 2_000, 2) } else { (300_000, 100_000, 5) };

    let sinks = Sinks::new();
    // The main thread's own flusher pair: it records setup events
    // (structure construction does LL/SC work) and must publish them
    // exactly once.
    let mut main_flush = FlushPair::new();

    let corners: [Sweep; 4] = [
        sweep_corner::<Fig4Native>,
        sweep_corner::<Fig4NativeAblation<NativeSeqCst, Packed>>,
        sweep_corner::<Fig4NativeAblation<Native, Padded>>,
        sweep_corner::<Fig4NativeAblation<NativeSeqCst, Padded>>,
    ];
    let mut rows = Vec::new();
    for sweep in corners {
        sweep(threads_list, per_thread, runs, quick, &sinks, &mut main_flush, &mut rows);
    }
    sweep_stm(threads_list, stm_per_thread, runs, quick, &sinks, &mut main_flush, &mut rows);

    // Markdown report: one table per structure, one row per thread count,
    // seed configuration vs. hardened configuration plus the single-knob
    // ablations at the hardened ordering.
    let mut report = Report::new();
    report.heading("Contention sweep");
    report.para(&format!(
        "{per_thread} ops/thread (STM: {stm_per_thread}), median of {runs} runs; \
         seed = unpadded + SeqCst + no backoff; hardened = padded + acqrel + backoff. \
         Host CPUs: {}.",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    ));
    for structure in ["counter", "stack", "queue"] {
        let mut table = Table::new([
            "threads",
            "seed",
            "hardened",
            "speedup",
            "padded only",
            "acqrel only",
            "backoff only",
        ]);
        for &t in threads_list {
            let seed = find(&rows, structure, t, false, "seqcst", false);
            let hardened = find(&rows, structure, t, true, "acqrel", true);
            table.row([
                t.to_string(),
                fmt_ops(seed),
                fmt_ops(hardened),
                format!("{:.2}x", hardened / seed),
                fmt_ops(find(&rows, structure, t, true, "seqcst", false)),
                fmt_ops(find(&rows, structure, t, false, "acqrel", false)),
                fmt_ops(find(&rows, structure, t, false, "seqcst", true)),
            ]);
        }
        report.heading(structure);
        report.table(&table);
    }
    let mut table = Table::new(["threads", "no backoff", "backoff", "speedup"]);
    for &t in threads_list {
        let seed = find(&rows, "stm_orec", t, true, "acqrel", false);
        let hardened = find(&rows, "stm_orec", t, true, "acqrel", true);
        table.row([
            t.to_string(),
            fmt_ops(seed),
            fmt_ops(hardened),
            format!("{:.2}x", hardened / seed),
        ]);
    }
    report.heading("stm_orec (orec spin-acquire: backoff axis only)");
    report.table(&table);
    print!("{}", report.to_markdown());

    let json = to_json(&rows, threads_list, per_thread, runs, &sinks);
    if let Err(e) = fs::write("BENCH_contention.json", &json) {
        eprintln!("[exp_contention] FAILED to write BENCH_contention.json: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "[exp_contention] wrote BENCH_contention.json ({} rows)",
        rows.len()
    );

    // Acceptance gate: at every thread count >= 4 the hardened
    // configuration must beat the seed configuration on the geometric mean
    // of per-workload speedups (the standard aggregate for a suite — a sum
    // would let whichever workload has the biggest absolute ops/s swamp
    // the rest).
    let mut ok = true;
    for &t in threads_list.iter().filter(|&&t| t >= 4) {
        let per = speedups(&rows, t);
        let g = geomean(&per.iter().map(|&(_, s)| s).collect::<Vec<_>>());
        let detail = per
            .iter()
            .map(|(name, s)| format!("{name} {s:.2}x"))
            .collect::<Vec<_>>()
            .join(", ");
        let verdict = if g > 1.0 { "ok" } else { "REGRESSION" };
        eprintln!("[exp_contention] t={t}: geomean speedup {g:.2}x ({detail}) {verdict}");
        // Quick mode is a smoke run: its iteration counts are too small to
        // span scheduler quanta, so the comparison is noise-level and only
        // the full sweep enforces the gate.
        if !quick {
            ok &= g > 1.0;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("[exp_contention] FAILED: hardened config lost to the seed config");
        ExitCode::FAILURE
    }
}
