//! Shared entry-point scaffolding for the `exp_*` binaries.
//!
//! Every experiment binary announces which experiment module it is about
//! to run, catches panics from the experiment body, and exits nonzero on
//! failure — so when `exp_all` (or CI) fails, the log attributes the
//! failure to a specific module instead of dying mid-stream.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use nbsp_core::{ProviderId, Tier};

/// A parsed `--provider` CLI restriction: which registry entries an
/// experiment binary should sweep. `None` means "the experiment's
/// default set".
#[derive(Clone, Debug, Default)]
pub struct ProviderFilter {
    ids: Option<Vec<ProviderId>>,
}

impl ProviderFilter {
    /// True iff `id` should run under this filter.
    #[must_use]
    pub fn allows(&self, id: ProviderId) -> bool {
        self.ids.as_ref().is_none_or(|ids| ids.contains(&id))
    }
}

/// Parses `--provider name[,name…]` (repeatable) from the process's
/// arguments — the single provider-flag parser every experiment binary
/// routes through, so the accepted names are exactly the registry's
/// [`ProviderId::parse`] names everywhere. An entry may also be a
/// `tier:` prefix (`tier:fixed-n`, `tier:dynamic`, `tier:weak-primitive`),
/// which admits every registry entry of that [`Tier`]; tiers and plain
/// names mix freely in one list.
///
/// # Errors
///
/// Returns a message (listing the valid names) on an unknown provider or
/// tier, or a missing flag value; binaries print it and exit nonzero.
pub fn provider_filter() -> Result<ProviderFilter, String> {
    let args: Vec<String> = std::env::args().collect();
    let mut ids: Option<Vec<ProviderId>> = None;
    let mut i = 1;
    while i < args.len() {
        let value = if args[i] == "--provider" {
            i += 1;
            Some(
                args.get(i)
                    .ok_or("--provider requires a value".to_string())?
                    .as_str(),
            )
        } else {
            args[i].strip_prefix("--provider=")
        };
        if let Some(list) = value {
            parse_provider_list(list, ids.get_or_insert_with(Vec::new))?;
        }
        i += 1;
    }
    Ok(ProviderFilter { ids })
}

/// Expands one comma-separated `--provider` payload (registry names and
/// `tier:` slices) into `ids`. See [`provider_filter`].
fn parse_provider_list(list: &str, ids: &mut Vec<ProviderId>) -> Result<(), String> {
    for name in list.split(',').filter(|s| !s.is_empty()) {
        if let Some(tier) = name.strip_prefix("tier:") {
            let tier = Tier::parse(tier)?;
            ids.extend(
                ProviderId::ALL
                    .iter()
                    .copied()
                    .filter(|id| id.meta().tier == tier),
            );
        } else {
            ids.push(ProviderId::parse(name)?);
        }
    }
    Ok(())
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic payload>")
}

/// Runs one experiment body, labelled by its `experiments::` module name.
///
/// Prints `running experiments::<module>` up front (to stderr, so report
/// output stays clean for redirection), then the rendered report on
/// success. On panic it prints the failure — attributed to the module —
/// and returns a failing exit code.
#[must_use]
pub fn run_experiment(module: &str, f: impl FnOnce() -> String) -> ExitCode {
    eprintln!("[nbsp-bench] running experiments::{module} ...");
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(report) => {
            println!("{report}");
            eprintln!("[nbsp-bench] experiments::{module}: ok");
            ExitCode::SUCCESS
        }
        Err(payload) => {
            eprintln!(
                "[nbsp-bench] experiments::{module}: FAILED — {}",
                panic_message(payload.as_ref())
            );
            ExitCode::FAILURE
        }
    }
}

/// A labelled experiment body, as `exp_all` collects them.
pub type Experiment<'a> = (&'a str, Box<dyn FnOnce() -> String>);

/// Runs a sequence of labelled experiment bodies (for `exp_all`),
/// continuing past failures and reporting every failed module at the end.
#[must_use]
pub fn run_all(experiments: Vec<Experiment<'_>>) -> ExitCode {
    let mut timings: Vec<(String, f64, bool)> = Vec::new();
    for (module, f) in experiments {
        eprintln!("[nbsp-bench] running experiments::{module} ...");
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(f));
        let secs = start.elapsed().as_secs_f64();
        match outcome {
            Ok(report) => {
                println!("{report}\n");
                eprintln!("[nbsp-bench] experiments::{module}: ok ({secs:.1}s)");
                timings.push((module.to_string(), secs, true));
            }
            Err(payload) => {
                eprintln!(
                    "[nbsp-bench] experiments::{module}: FAILED after {secs:.1}s — {}",
                    panic_message(payload.as_ref())
                );
                timings.push((module.to_string(), secs, false));
            }
        }
    }
    let failed: Vec<&str> = timings
        .iter()
        .filter(|(_, _, ok)| !ok)
        .map(|(m, _, _)| m.as_str())
        .collect();
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        // Attribute wall time per module so a hung-then-killed or slow
        // experiment is identifiable from the failure summary alone.
        eprintln!("[nbsp-bench] failed experiments: {}", failed.join(", "));
        for (module, secs, ok) in &timings {
            let status = if *ok { "ok" } else { "FAILED" };
            eprintln!("[nbsp-bench]   {module}: {status} ({secs:.1}s)");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ok_body_succeeds() {
        let code = run_experiment("test_ok", || "report".to_string());
        assert_eq!(code, ExitCode::SUCCESS);
    }

    #[test]
    fn panicking_body_fails() {
        let code = run_experiment("test_panic", || panic!("boom"));
        assert_eq!(code, ExitCode::FAILURE);
    }

    #[test]
    fn run_all_reports_every_failure() {
        let code = run_all(vec![
            ("a", Box::new(|| "ok".to_string()) as Box<dyn FnOnce() -> String>),
            ("b", Box::new(|| panic!("boom"))),
        ]);
        assert_eq!(code, ExitCode::FAILURE);
    }

    #[test]
    fn unrestricted_filter_allows_everything() {
        let f = ProviderFilter::default();
        for id in ProviderId::ALL {
            assert!(f.allows(id));
        }
    }

    #[test]
    fn restricted_filter_allows_only_listed() {
        let f = ProviderFilter {
            ids: Some(vec![ProviderId::ConstantTime]),
        };
        assert!(f.allows(ProviderId::ConstantTime));
        assert!(!f.allows(ProviderId::Fig4Native));
    }

    #[test]
    fn tier_prefix_expands_to_the_registry_slice() {
        let mut ids = Vec::new();
        parse_provider_list("tier:weak-primitive", &mut ids).unwrap();
        assert_eq!(ids.len(), 2, "both consensus-hierarchy providers");
        assert!(ids.iter().all(|id| id.meta().tier == Tier::WeakPrimitive));

        let mut all = Vec::new();
        for tier in Tier::ALL {
            parse_provider_list(&format!("tier:{tier}"), &mut all).unwrap();
        }
        assert_eq!(all.len(), ProviderId::ALL.len(), "tiers partition the registry");
    }

    #[test]
    fn tier_prefix_mixes_with_plain_names() {
        let mut ids = Vec::new();
        parse_provider_list("lock,tier:dynamic", &mut ids).unwrap();
        assert!(ids.contains(&ProviderId::LockBaseline));
        assert!(ids.len() > 1, "the dynamic tier follows the named entry");
    }

    #[test]
    fn unknown_tier_is_rejected_with_the_valid_names() {
        let mut ids = Vec::new();
        let err = parse_provider_list("tier:bogus", &mut ids).unwrap_err();
        assert!(err.contains("weak-primitive"), "error lists valid tiers: {err}");
    }
}
