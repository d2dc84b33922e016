//! # nbsp-check — model checking and invariant linting for the real code
//!
//! Randomized schedules sample the shipped code; this crate enumerates
//! it. Everything it model-checks is the code benchmarks and structures
//! actually run, from several directions:
//!
//! * [`exec`] + [`dpor`] — a CHESS/Loom-style **stateless model checker**
//!   that runs the *real* [`Provider`](nbsp_core::Provider) registry entries
//!   on real OS threads under a cooperative scheduler (via
//!   [`nbsp_memsim::sched`]), enumerating every interleaving of their shared
//!   accesses with **dynamic partial-order reduction** and checking each
//!   recorded history against the Figure-2 sequential specification with
//!   the Wing–Gong checker.
//! * [`certificates`] — the same engine over the shipped Figure 3, 5, 6
//!   and 7 types (`EmuCasWord`, `RllLlSc`, `WideVar`, `BoundedVar`) on
//!   small programs, standing in for the paper's deferred linearizability
//!   proofs, with a 1-bit-tag Figure-5 negative control.
//! * [`llx`] — the same scheduler driven through `nbsp-llx`'s
//!   **multi-word** LLX/SCX commits: every info/field/state word of the
//!   protocol is a provider variable, so one SCX's freeze–write–settle–
//!   release sequence is enumerated end to end, judged by a conservation
//!   verdict, with a planted lost-freeze domain as the non-vacuity canary.
//! * [`lint`] — a dependency-free source scanner that mechanizes the
//!   repository's cross-cutting invariants (memory-ordering discipline,
//!   cache-line padding of per-process slot arrays, registry encapsulation,
//!   telemetry stub/real parity, benchmark-schema versioning) so they are
//!   CI-enforced instead of review-enforced.
//!
//! * [`flow`] (on [`lex`] + [`cfg`]) — a **static protocol-obligation
//!   analyzer**: an intraprocedural keep-lifetime dataflow over a
//!   dependency-free lexer and CFG builder that certifies, for every
//!   function in the client crates, that (a) every keep born from
//!   `ll`/`wll`/`llx` reaches an `sc`/`vl`/`cl`/`scx`-shaped consumer on
//!   all paths, (b) the repo-wide static bound on simultaneously-live
//!   keeps equals [`nbsp_core::provider::PROVIDER_K`], and (c) every
//!   `Ordering::Release` store site has a matching `Acquire` load site on
//!   the same field.
//!
//! The checker is validated for non-vacuity by [`planted`]: a deliberately
//! broken provider (SC installs its new value *without* incrementing the
//! tag, re-introducing the ABA bug the tag exists to prevent) for which the
//! checker must produce a concrete violating schedule. The flow analyzer
//! carries its own canaries ([`flow::PLANTED_KEEP_LEAK`],
//! [`flow::PLANTED_UNPAIRED_RELEASE`]).

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod certificates;
pub mod cfg;
pub mod dpor;
pub mod exec;
pub mod flow;
pub mod lex;
pub mod lint;
pub mod llx;
pub mod planted;

pub use dpor::{check, explore, Judgment, Mode, Outcome, Violation};
pub use exec::{PlanOp, Program};
pub use flow::{analyze_repo, analyze_source, RepoFlow};
pub use lint::{run_lints, Finding};
pub use llx::{check_conservation, check_lost_freeze, IncrVia, LlxProgram};
