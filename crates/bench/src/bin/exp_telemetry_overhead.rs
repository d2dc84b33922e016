//! E11 — telemetry overhead gate and snapshot ablation.
//!
//! Build variants:
//! * default (`telemetry` on): reports the recording cost per small op
//!   (not gated) and runs the racy-vs-atomic snapshot ablation, gating
//!   the Figure-6 reader to zero torn observations;
//! * `--no-default-features`: gates the instrumented/stub-free ratio at
//!   1% (the median over alternating repetitions of the geomean across
//!   the small ops) — the "zero cost when disabled" claim.
//!
//! `--quick` shrinks the iteration counts and drops the gates (a smoke
//! run's microloop timings are noise).
use std::process::ExitCode;

use nbsp_bench::experiments::e11_telemetry;
use nbsp_bench::runner::run_experiment;

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");
    let iters = if quick { 20_000 } else { 400_000 };
    run_experiment("e11_telemetry", move || {
        e11_telemetry::run(iters, !quick).to_string()
    })
}
