//! Model checking of the shipped code, in two sections run by one DPOR
//! engine (`nbsp-check`):
//!
//! **Figure certificates** (first section): small programs run against
//! the shipped Figure 3, 5, 6 and 7 types (`EmuCasWord`, `RllLlSc`,
//! `WideVar`, `BoundedVar`), every interleaving enumerated and every
//! distinct history checked against the figure's specification, with a
//! negative control (Figure 5 with a 1-bit tag) that must be caught.
//!
//! **Provider sweep** (second section): every registry provider runs on
//! real threads under a cooperative scheduler, every interleaving of its
//! shared accesses is enumerated, and every distinct history is checked
//! against the Figure-2 specification.
//!
//! Writes `BENCH_modelcheck.json` (schema documented in
//! `e13_modelcheck::to_json`) and hard-fails on a certificate that misses
//! its expected verdict, any provider violation, any capped exploration, a
//! pruning ratio below 2x, or a missed planted bug.
//!
//! `--quick` restricts the provider sweep to the base configuration per
//! provider (CI uses this); the certificates always run in full.
use std::process::ExitCode;

use nbsp_bench::experiments::e13_modelcheck;
use nbsp_bench::runner::run_experiment;

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");
    run_experiment("e13_modelcheck", move || {
        let r = e13_modelcheck::collect(quick);
        let json = e13_modelcheck::to_json(&r);
        std::fs::write("BENCH_modelcheck.json", &json)
            .expect("writing BENCH_modelcheck.json failed");
        eprintln!("[nbsp-bench] wrote BENCH_modelcheck.json");
        let report = e13_modelcheck::render(&r).to_string();
        // Gates run after the artifact is written so a red run still
        // leaves the numbers on disk for the postmortem.
        e13_modelcheck::enforce(&r);
        report
    })
}
