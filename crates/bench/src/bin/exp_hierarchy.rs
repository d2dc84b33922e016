//! Regenerates E16: the consensus-hierarchy portability matrix — the
//! full registry listing with capability/tier metadata, the
//! conformance/differential/DPOR stamps for the weak-primitive providers
//! (`cas-from-swap`, `feb-llsc`), and the "cost of weakening the
//! hardware" throughput ordering. Writes `BENCH_hierarchy.json` (no raw
//! throughput; outside the wall-clock `ordering` verdicts, same-seed runs
//! are byte-identical; schema documented in `e16_hierarchy::to_json`)
//! and hard-fails on any
//! gate: a failed weak-provider stamp, a wrong registry count, or a
//! non-monotone hierarchy ordering.
//!
//! Run with `--quick` for a fast smoke pass (CI uses this; the gates are
//! enforced either way).
use std::process::ExitCode;

use nbsp_bench::experiments::e16_hierarchy;
use nbsp_bench::runner::run_experiment;

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");
    let iters = if quick { 40_000 } else { 200_000 };
    run_experiment("e16_hierarchy", move || {
        let r = e16_hierarchy::collect(iters, quick);
        let json = e16_hierarchy::to_json(&r);
        std::fs::write("BENCH_hierarchy.json", &json).expect("writing BENCH_hierarchy.json failed");
        eprintln!("[nbsp-bench] wrote BENCH_hierarchy.json");
        let report = e16_hierarchy::render(&r).to_string();
        // Gates run after the artifact is written so a red run still
        // leaves the verdicts on disk for the postmortem.
        e16_hierarchy::enforce(&r);
        report
    })
}
