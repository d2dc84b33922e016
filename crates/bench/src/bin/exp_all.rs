//! Regenerates every experiment table in `EXPERIMENTS.md` (E1–E5, E7–E17;
//! E6 is `examples/concurrent_sequences.rs` / `tests/figure1.rs`; the
//! `BENCH_modelcheck.json` artifact of E13 and its figure certificates is
//! written by the separate `exp_modelcheck` binary).
//!
//! Run with `--quick` for a fast smoke pass. Failures are attributed per
//! experiment module and the process exits nonzero if any module failed.
use std::process::ExitCode;

use nbsp_bench::experiments::*;
use nbsp_bench::runner::run_all;

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");
    let (big, mid) = if quick { (5_000, 2_000) } else { (200_000, 100_000) };
    let e9_iters = if quick { 20_000 } else { 500_000 };
    run_all(vec![
        ("e1_time", Box::new(move || e1_time::run(big).to_string())),
        ("e2_wide", Box::new(move || e2_wide::run(mid).to_string())),
        (
            "e3_space",
            Box::new(|| e3_space::run(e3_space::SpaceConfig::default()).to_string()),
        ),
        ("e4_spurious", Box::new(move || e4_spurious::run(mid).to_string())),
        ("e5_wraparound", Box::new(move || e5_wraparound::run(big).to_string())),
        ("e7_structures", Box::new(move || e7_structures::run(big).to_string())),
        ("e8_interface", Box::new(move || e8_interface::run(big).to_string())),
        (
            "e9_bounded",
            Box::new(move || e9_bounded::run(e9_iters, quick).to_string()),
        ),
        ("e10_disjoint", Box::new(|| e10_disjoint::run(2_000).to_string())),
        // Gates are left to the dedicated exp_telemetry_overhead binary:
        // inside exp_all the other experiments have already heated the
        // process, which is exactly the noise the 1% gate cannot tolerate.
        (
            "e11_telemetry",
            Box::new(move || e11_telemetry::run(mid, false).to_string()),
        ),
        (
            "e12_serve",
            Box::new(move || e12_serve::run(if quick { 20_000 } else { 200_000 }).to_string()),
        ),
        (
            "e13_modelcheck",
            Box::new(move || e13_modelcheck::run(quick).to_string()),
        ),
        (
            "e14_elastic",
            Box::new(move || {
                let (requests, trials) = if quick { (20_000, 16) } else { (200_000, 64) };
                e14_elastic::run(requests, trials).to_string()
            }),
        ),
        (
            "e15_structures",
            Box::new(move || {
                let (requests, iters) = if quick { (20_000, 12_000) } else { (100_000, 48_000) };
                e15_structures::run(requests, iters).to_string()
            }),
        ),
        (
            "e16_hierarchy",
            Box::new(move || {
                e16_hierarchy::run(if quick { 40_000 } else { 200_000 }, quick).to_string()
            }),
        ),
        // Static analysis is already fast; it runs in full either way.
        ("e17_obligations", Box::new(|| e17_obligations::run().to_string())),
    ])
}
