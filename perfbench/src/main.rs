//! The nbsp wall-clock benchmark.
//!
//! ```text
//! perfbench --workload <serve_zipf|contend_map|llsc_mix|verify_dpor>
//!           --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//! ```
//!
//! Runs one workload for `--seconds`, checks every output, and ends with
//! one JSON line: the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). A failed output check prints no numbers and
//! exits with code 1. With `--trace 1` the sampled spans are written to
//! `<trace-dir>/trace-<workload>-<seed>.jsonl`.

mod common;
mod dpor;
mod llsc;
mod map;
mod report;
mod serve;
mod stall;
mod stats;
mod trace;

use std::process::ExitCode;

use report::Out;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_dir) =
        (None, None, None, false, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-dir" => trace_dir = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        trace_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Out::default();
    let run = match args.workload.as_str() {
        "serve_zipf" => serve::run,
        "contend_map" => map::run,
        "llsc_mix" => llsc::run,
        "verify_dpor" => dpor::run,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    println!(
        "[perfbench] build: release, nbsp default features (telemetry {}), available_parallelism {}",
        if nbsp_telemetry::enabled() { "on" } else { "off" },
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get)
    );
    run(args.seed, args.seconds, args.trace, &mut out);
    if args.trace {
        if let Some(dir) = &args.trace_dir {
            let path = format!("{dir}/trace-{}-{}.jsonl", args.workload, args.seed);
            let written =
                std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &out.spans));
            match written {
                Ok(()) => println!("[perfbench] spans written to {path}"),
                Err(e) => out.errors.push(format!("writing {path}: {e}")),
            }
        }
    }
    let text = out.render(&args.workload, args.trace);
    print!("{text}");
    if out.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
