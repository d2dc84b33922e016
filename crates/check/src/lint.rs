//! Dependency-free source lint mechanizing the repository's cross-cutting
//! invariants.
//!
//! These invariants were previously enforced by review convention only;
//! each rule below turns one of them into a CI hard-fail (`exp_lint`):
//!
//! * **R1 `seqcst`** — `Ordering::SeqCst` is forbidden outside an
//!   allowlist. The contention PR scoped the LL/SC hot paths to
//!   acquire/release; the sanctioned homes are the `NativeSeqCst` ablation
//!   family, the sequentially-consistent simulator, one-time claim flags
//!   and similarly justified cold paths.
//! * **R2 `padded-slots`** — per-process slot arrays (fields named
//!   `announce`, `claimed`, `keeps`, `last` of `Vec`/`Box` type) must be
//!   `CachePadded`, the false-sharing discipline E10 measures.
//! * **R3 `registry`** — provider name strings must not be matched or
//!   compared outside `provider.rs`, and `ProviderId::` variant paths are
//!   restricted to the registry itself plus the ablation experiments; the
//!   registry's `for_each_provider!`/`with_provider!` macros are the only
//!   sanctioned id→type dispatch.
//! * **R4 `telemetry-parity`** — inside `crates/telemetry`, `crates/llx`
//!   and `crates/memsim` (home of the instruction-set `AccessKind`
//!   instrumentation), every `#[cfg(feature = …)]` block has a matching
//!   `#[cfg(not(feature = …))]` stub, so the API is identical with
//!   recording compiled out (the E11 overhead gate relies on this); and
//!   inside `crates/llx` and the weak-primitive constructions
//!   (`cas_from_swap.rs`, `feb_llsc.rs`), `Event::` values may only
//!   appear in `record(…)` calls, the API whose stub parity the first
//!   half checks — ad-hoc counters would silently skew one build config.
//! * **R5 `bench-schema`** — any file that builds or writes a
//!   `BENCH_*.json` artifact must declare `schema_version`, so CI sanity
//!   checks and trend tooling can dispatch on it.
//! * **R6 `weak-ops`** — the sub-CAS instruction set (NB-FEB
//!   `feb_tfas`/`feb_sac`/`feb_load` and the capability-gated
//!   `try_swap`/`try_fetch_add` accessors) may only be invoked by the
//!   instruction-set layer itself and the registered weak-primitive
//!   constructions. Everything else must stay behind the `CasMemory`
//!   boundary, so the capability bitset in `ProviderMeta` remains an
//!   honest statement of what each construction assumes of the hardware.
//!
//! Allowlists carry a reason per entry and are themselves linted: an entry
//! whose file is gone or no longer triggers its rule is reported as
//! **stale** so the lists cannot rot.
//!
//! The scanner's own needle constants are assembled with `concat!` so this
//! file never contains the patterns it searches for.

use std::fs;
use std::path::Path;

use nbsp_core::ProviderId;

/// A single lint violation (or stale allowlist entry).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Short rule identifier (`seqcst`, `padded-slots`, …).
    pub rule: &'static str,
    /// Repository-relative path with `/` separators.
    pub path: String,
    /// 1-based line number (0 for file-level findings).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}:{}: {}", self.rule, self.path, self.line, self.message)
    }
}

// Needles, split so this scanner never matches itself.
const SEQCST: &str = concat!("Ordering::", "SeqCst");
const CFG_TELEMETRY_ON: &str = concat!("#[cfg(", "feature = \"telemetry\")]");
const CFG_TELEMETRY_OFF: &str = concat!("#[cfg(", "not(feature = \"telemetry\"))]");
const BENCH_PREFIX: &str = concat!("BENCH", "_");
const FS_WRITE: &str = concat!("fs::", "write(");
const PUSH_STR: &str = concat!("push_", "str(");
const PROVIDER_ID_PATH: &str = concat!("ProviderId", "::");
const SCHEMA_VERSION: &str = concat!("schema", "_version");
const CACHE_PADDED: &str = concat!("Cache", "Padded");
const EVENT_PATH: &str = concat!("Event", "::");
const RECORD_CALL: &str = concat!("record", "(");
// The substring `feb_…(` needles also match the gated `try_feb_…(`
// accessors, so both seams are covered by one needle each.
const FEB_TFAS: &str = concat!("feb_", "tfas(");
const FEB_SAC: &str = concat!("feb_", "sac(");
const FEB_LOAD: &str = concat!("feb_", "load(");
const TRY_SWAP: &str = concat!("try_", "swap(");
const TRY_FETCH_ADD: &str = concat!("try_", "fetch_add(");
const WEAK_OPS: &[&str] = &[FEB_TFAS, FEB_SAC, FEB_LOAD, TRY_SWAP, TRY_FETCH_ADD];

/// R1: files allowed to use `Ordering::SeqCst`, with the justification.
const SEQCST_ALLOW: &[(&str, &str)] = &[
    (
        "crates/core/src/cas_provider.rs",
        "the NativeSeqCst ablation family is this ordering's sanctioned home",
    ),
    (
        "crates/memsim/src/word.rs",
        "the simulated memory is sequentially consistent by design",
    ),
    (
        "crates/memsim/src/pmem.rs",
        "the persistent-memory model mirrors the simulator's sequential consistency",
    ),
    (
        "crates/core/src/dynamic_llsc.rs",
        "membership claim flags only; the LL/SC hot path runs on memsim pmem words",
    ),
    (
        "crates/memsim/src/machine.rs",
        "one-time processor-claim flag, not a hot path",
    ),
    (
        "crates/core/src/bounded.rs",
        "one-time per-process claim flag, not a hot path",
    ),
    (
        "crates/core/src/constant_llsc.rs",
        "one-time claim flag and pool cursor, not hot paths",
    ),
    (
        "crates/linearize/src/history.rs",
        "the history clock must totally order invocation/response ticks",
    ),
    (
        "crates/structures/src/set.rs",
        "node payload/bump-cursor accesses stay conservative; only LL/SC hot paths were relaxed",
    ),
    (
        "crates/structures/src/queue.rs",
        "node payload accesses stay conservative; only LL/SC hot paths were relaxed",
    ),
    (
        "crates/structures/src/arena.rs",
        "node data/link accesses stay conservative; only LL/SC hot paths were relaxed",
    ),
    (
        "crates/structures/src/stm_orec.rs",
        "orec acquire/commit stays conservative; only LL/SC hot paths were relaxed",
    ),
    (
        "crates/bench/src/experiments/e1_time.rs",
        "measures the SeqCst-vs-acquire/release cost (the E1 ordering ablation)",
    ),
    (
        "tests/linearizability.rs",
        "history recording in the integration harness, not a hot path",
    ),
    (
        "examples/wide_register.rs",
        "demo code exercising the plain (SeqCst) trio explicitly",
    ),
];

/// R3: files allowed to name `ProviderId::` variants, with justification.
const PROVIDER_ID_ALLOW: &[(&str, &str)] = &[
    (
        "crates/bench/src/runner.rs",
        "the registry-driven CLI provider filter (ALL/from_name, no per-id dispatch)",
    ),
    (
        "crates/bench/src/experiments/e9_bounded.rs",
        "the bounded-tag ablation selects registry subsets by id",
    ),
    (
        "crates/bench/src/experiments/e7_structures.rs",
        "the structures ablation selects registry subsets by id",
    ),
    (
        "crates/check/src/planted.rs",
        "the planted-bug fixture needs a nominal id; it is never registered",
    ),
    (
        "crates/bench/src/experiments/e14_elastic.rs",
        "the elastic sweep's provider-equality gate compares the dynamic pair to the fixed-N baseline by id",
    ),
    (
        "crates/bench/src/experiments/e15_structures.rs",
        "the structures sweep selects registry subsets by id and names the gated \
         native-vs-lock-substrate baseline pair",
    ),
    (
        "crates/bench/src/experiments/e16_hierarchy.rs",
        "the consensus-hierarchy sweep names the native/cas-from-swap/feb-llsc gate \
         triple by id; all dispatch is with_provider!",
    ),
    (
        "crates/check/src/lint.rs",
        "this linter pulls the authoritative provider-name list from the registry",
    ),
    (
        "perfbench/src/dpor.rs",
        "the wall-clock benchmark's DPOR workload names its fixed check set by registry id",
    ),
    (
        "perfbench/src/llsc.rs",
        "the wall-clock benchmark's LL/SC mix names its fixed provider set by registry id; \
         all dispatch is with_provider!",
    ),
];

/// R5: pass-through writers of an artifact whose schema is declared where
/// the JSON is built.
const BENCH_SCHEMA_ALLOW: &[(&str, &str)] = &[
    (
        "crates/bench/src/bin/exp_bounded_audit.rs",
        "writes the JSON built by e9_bounded::to_json, which declares the schema",
    ),
    (
        "crates/bench/src/bin/exp_modelcheck.rs",
        "writes the JSON built by e13_modelcheck::to_json, which declares the schema",
    ),
    (
        "crates/bench/src/bin/exp_hierarchy.rs",
        "writes the JSON built by e16_hierarchy::to_json, which declares the schema",
    ),
    (
        "crates/bench/src/bin/exp_obligations.rs",
        "writes the JSON built by e17_obligations::to_json, which declares the schema",
    ),
];

/// R6: files allowed to invoke the sub-CAS instruction set, with
/// justification.
const WEAK_OPS_ALLOW: &[(&str, &str)] = &[
    (
        "crates/memsim/src/machine.rs",
        "the Processor implements the instruction set; these are the ops themselves",
    ),
    (
        "crates/core/src/cas_provider.rs",
        "the SyncMemory boundary defines and implements the capability-gated accessors",
    ),
    (
        "crates/core/src/cas_from_swap.rs",
        "the registered swap+fetch-and-add construction (arXiv:1802.03844)",
    ),
    (
        "crates/core/src/feb_llsc.rs",
        "the registered NB-FEB construction (arXiv:0811.1304)",
    ),
    (
        "crates/core/src/cas_from_rll.rs",
        "tests that the RLL/RSC-only memory reports UnsupportedOp for swap",
    ),
];

fn allowed<'a>(list: &'a [(&'a str, &'a str)], path: &str) -> Option<&'a str> {
    list.iter().find(|(p, _)| *p == path).map(|(_, r)| *r)
}

/// True for lines that are pure comments (`//`, `///`, `//!`); trailing
/// comments are kept, which only errs toward strictness.
fn is_comment_line(line: &str) -> bool {
    line.trim_start().starts_with("//")
}

fn field_name_of(line: &str) -> Option<&str> {
    let t = line.trim_start();
    let t = t.strip_prefix("pub(crate) ").unwrap_or(t);
    let t = t.strip_prefix("pub ").unwrap_or(t);
    let (name, rest) = t.split_once(':')?;
    let name = name.trim();
    // Reject anything that is not a bare field identifier (`match x {`,
    // struct literals, type ascriptions in expressions…).
    if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return None;
    }
    // `::` paths split at the first ':' leave rest starting with ':'.
    if rest.starts_with(':') {
        return None;
    }
    Some(name)
}

/// Lints one file's content. `path` is repository-relative with `/`
/// separators. Pure function of its inputs, for unit testing.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn lint_file(path: &str, content: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let provider_names: Vec<&'static str> = ProviderId::ALL.iter().map(|id| id.name()).collect();
    let in_provider_rs = path == "crates/core/src/provider.rs";

    // R1: SeqCst discipline.
    if allowed(SEQCST_ALLOW, path).is_none() {
        for (i, line) in content.lines().enumerate() {
            if !is_comment_line(line) && line.contains(SEQCST) {
                findings.push(Finding {
                    rule: "seqcst",
                    path: path.to_string(),
                    line: i + 1,
                    message: format!(
                        "{SEQCST} outside the allowlist; use acquire/release or add an \
                         allowlist entry with a justification"
                    ),
                });
            }
        }
    }

    // R2: per-process slot arrays must be cache-line padded.
    for (i, line) in content.lines().enumerate() {
        if is_comment_line(line) {
            continue;
        }
        let Some(name) = field_name_of(line) else {
            continue;
        };
        if matches!(name, "announce" | "claimed" | "keeps" | "last")
            && (line.contains("Vec<") || line.contains("Box<["))
            && !line.contains(CACHE_PADDED)
        {
            findings.push(Finding {
                rule: "padded-slots",
                path: path.to_string(),
                line: i + 1,
                message: format!(
                    "per-process slot array `{name}` is not {CACHE_PADDED}; adjacent slots \
                     false-share (see E10)"
                ),
            });
        }
    }

    // R3: registry encapsulation.
    if !in_provider_rs {
        for (i, line) in content.lines().enumerate() {
            if is_comment_line(line) {
                continue;
            }
            for name in &provider_names {
                let quoted = format!("\"{name}\"");
                if line.contains(&quoted) && (line.contains("=>") || line.contains("==")) {
                    findings.push(Finding {
                        rule: "registry",
                        path: path.to_string(),
                        line: i + 1,
                        message: format!(
                            "provider name {quoted} matched/compared outside provider.rs; \
                             dispatch through the registry macros instead"
                        ),
                    });
                }
            }
            if line.contains(PROVIDER_ID_PATH) && allowed(PROVIDER_ID_ALLOW, path).is_none() {
                findings.push(Finding {
                    rule: "registry",
                    path: path.to_string(),
                    line: i + 1,
                    message: format!(
                        "{PROVIDER_ID_PATH} variant path outside the registry and its \
                         allowlisted ablations; use for_each_provider!/with_provider!"
                    ),
                });
            }
        }
    }

    // R4: telemetry real/stub parity.
    if path.starts_with("crates/telemetry/src/")
        || path.starts_with("crates/llx/src/")
        || path.starts_with("crates/memsim/src/")
    {
        let on = content.matches(CFG_TELEMETRY_ON).count();
        let off = content.matches(CFG_TELEMETRY_OFF).count();
        if on != off {
            findings.push(Finding {
                rule: "telemetry-parity",
                path: path.to_string(),
                line: 0,
                message: format!(
                    "{on} feature-on blocks vs {off} feature-off stubs; the API must be \
                     identical with recording compiled out (E11 overhead gate)"
                ),
            });
        }
    }
    if path.starts_with("crates/llx/src/")
        || path == "crates/core/src/cas_from_swap.rs"
        || path == "crates/core/src/feb_llsc.rs"
    {
        for (i, line) in content.lines().enumerate() {
            if is_comment_line(line) {
                continue;
            }
            if line.contains(EVENT_PATH) && !line.contains(RECORD_CALL) {
                findings.push(Finding {
                    rule: "telemetry-parity",
                    path: path.to_string(),
                    line: i + 1,
                    message: format!(
                        "{EVENT_PATH} value outside a {RECORD_CALL}…) call; events from \
                         instrumented constructions must flow through the parity-checked API"
                    ),
                });
            }
        }
    }

    // R6: the sub-CAS instruction set stays inside the sanctioned homes.
    if allowed(WEAK_OPS_ALLOW, path).is_none() {
        for (i, line) in content.lines().enumerate() {
            if is_comment_line(line) {
                continue;
            }
            if let Some(op) = WEAK_OPS.iter().find(|op| line.contains(**op)) {
                findings.push(Finding {
                    rule: "weak-ops",
                    path: path.to_string(),
                    line: i + 1,
                    message: format!(
                        "sub-CAS op `{op}…)` outside the instruction-set layer and the \
                         weak-primitive constructions; go through CasMemory (or register \
                         a new weak-primitive provider and allowlist it)"
                    ),
                });
            }
        }
    }

    // R5: benchmark artifacts declare their schema.
    let writes_bench_json = content.lines().any(|l| {
        !is_comment_line(l) && l.contains(BENCH_PREFIX) && l.contains(".json")
    }) && (content.contains(FS_WRITE) || content.contains(PUSH_STR));
    if writes_bench_json
        && !content.contains(SCHEMA_VERSION)
        && allowed(BENCH_SCHEMA_ALLOW, path).is_none()
    {
        findings.push(Finding {
            rule: "bench-schema",
            path: path.to_string(),
            line: 0,
            message: format!(
                "builds/writes a {BENCH_PREFIX}*.json artifact without declaring \
                 {SCHEMA_VERSION}"
            ),
        });
    }

    findings
}

fn collect_rs_files(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.filter_map(std::result::Result::ok).collect();
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let p = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if p.is_dir() {
            if name == "target" || name == ".git" || name == ".github" {
                continue;
            }
            collect_rs_files(&p, root, out);
        } else if name.ends_with(".rs") {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            if let Ok(content) = fs::read_to_string(&p) {
                out.push((rel, content));
            }
        }
    }
}

/// Runs every rule over the repository rooted at `root` and audits the
/// allowlists for staleness. Deterministic order (paths sorted).
#[must_use]
pub fn run_lints(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files);
    files.sort_by(|a, b| a.0.cmp(&b.0));

    let mut findings = Vec::new();
    for (path, content) in &files {
        findings.extend(lint_file(path, content));
    }

    // Stale-allowlist audit: every entry must exist and still trigger at
    // least one of its rule's needles.
    type AllowList = [(&'static str, &'static str)];
    let lists: &[(&str, &'static AllowList, &[&str])] = &[
        ("seqcst", SEQCST_ALLOW, &[SEQCST]),
        ("registry", PROVIDER_ID_ALLOW, &[PROVIDER_ID_PATH]),
        ("bench-schema", BENCH_SCHEMA_ALLOW, &[BENCH_PREFIX]),
        ("weak-ops", WEAK_OPS_ALLOW, WEAK_OPS),
    ];
    for (rule, list, needles) in lists {
        for (allow_path, _) in *list {
            match files.iter().find(|(p, _)| p == allow_path) {
                None => findings.push(Finding {
                    rule: "stale-allowlist",
                    path: (*allow_path).to_string(),
                    line: 0,
                    message: format!("{rule} allowlist entry points at a missing file"),
                }),
                Some((_, content)) => {
                    if !needles.iter().any(|n| content.contains(n)) {
                        findings.push(Finding {
                            rule: "stale-allowlist",
                            path: (*allow_path).to_string(),
                            line: 0,
                            message: format!(
                                "{rule} allowlist entry no longer triggers; remove it"
                            ),
                        });
                    }
                }
            }
        }
    }

    // Flow-analyzer rules (R7 backoff discipline, keep-leak/bound,
    // release/acquire pairing, stale flow-allow audits) surface through
    // the same findings channel, so `exp_lint` and the repo-clean test
    // gate on them too.
    findings.extend(crate::flow::lint_extras(root));
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));

    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_file_has_no_findings() {
        let src = "use std::sync::atomic::Ordering;\n\
                   fn f(x: &std::sync::atomic::AtomicU64) -> u64 { x.load(Ordering::Acquire) }\n";
        assert!(lint_file("crates/core/src/foo.rs", src).is_empty());
    }

    #[test]
    fn seqcst_outside_allowlist_is_flagged() {
        let src = format!("fn f() {{ x.load({SEQCST}); }}\n");
        let f = lint_file("crates/core/src/foo.rs", &src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "seqcst");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn seqcst_in_allowlisted_file_passes() {
        let src = format!("fn f() {{ x.load({SEQCST}); }}\n");
        assert!(lint_file("crates/core/src/cas_provider.rs", &src).is_empty());
    }

    #[test]
    fn seqcst_in_comment_is_ignored() {
        let src = format!("// talk about {SEQCST} freely\n");
        assert!(lint_file("crates/core/src/foo.rs", &src).is_empty());
    }

    #[test]
    fn unpadded_slot_array_is_flagged() {
        let src = "struct S {\n    announce: Vec<AtomicU64>,\n}\n";
        let f = lint_file("crates/core/src/foo.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "padded-slots");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn padded_slot_array_passes() {
        let src = format!("struct S {{\n    announce: Vec<{CACHE_PADDED}<AtomicU64>>,\n}}\n");
        assert!(lint_file("crates/core/src/foo.rs", &src).is_empty());
    }

    #[test]
    fn provider_name_match_arm_is_flagged() {
        // Build the name at runtime so this file never contains a quoted
        // provider name next to a match arrow.
        let name = ProviderId::ALL[0].name();
        let src = format!("fn f(n: &str) -> u32 {{ match n {{ \"{name}\" => 1, _ => 0 }} }}\n");
        let f = lint_file("crates/bench/src/foo.rs", &src);
        assert!(f.iter().any(|x| x.rule == "registry"));
    }

    #[test]
    fn provider_name_lookup_passes() {
        let name = ProviderId::ALL[0].name();
        let src = format!("fn f(r: &R) -> u64 {{ growth_of(r, \"{name}\") }}\n");
        assert!(lint_file("crates/bench/src/foo.rs", &src).is_empty());
    }

    #[test]
    fn provider_id_path_outside_allowlist_is_flagged() {
        let src = format!("fn f() {{ let _ = {PROVIDER_ID_PATH}Fig4Native; }}\n");
        let f = lint_file("crates/bench/src/foo.rs", &src);
        assert!(f.iter().any(|x| x.rule == "registry"));
        assert!(lint_file("crates/bench/src/runner.rs", &src).is_empty());
    }

    #[test]
    fn telemetry_parity_counts_blocks() {
        let src = format!("{CFG_TELEMETRY_ON}\nfn real() {{}}\n");
        let f = lint_file("crates/telemetry/src/lib.rs", &src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "telemetry-parity");
        let paired = format!("{CFG_TELEMETRY_ON}\nfn a() {{}}\n{CFG_TELEMETRY_OFF}\nfn b() {{}}\n");
        assert!(lint_file("crates/telemetry/src/lib.rs", &paired).is_empty());
    }

    #[test]
    fn llx_event_outside_record_is_flagged() {
        let src = format!("fn f() {{ let e = {EVENT_PATH}LlxHelp; count(e); }}\n");
        let f = lint_file("crates/llx/src/lib.rs", &src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "telemetry-parity");
        let through_api = format!("fn f() {{ {RECORD_CALL}{EVENT_PATH}LlxHelp); }}\n");
        assert!(lint_file("crates/llx/src/lib.rs", &through_api).is_empty());
        // Outside the llx crate the rule does not apply (bench reads
        // totals by Event index legitimately).
        assert!(lint_file("crates/bench/src/foo.rs", &src).is_empty());
    }

    #[test]
    fn llx_telemetry_cfg_blocks_need_stubs() {
        let src = format!("{CFG_TELEMETRY_ON}\nfn real() {{}}\n");
        let f = lint_file("crates/llx/src/lib.rs", &src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "telemetry-parity");
    }

    #[test]
    fn weak_op_outside_allowlist_is_flagged() {
        let src = format!("fn f(m: &M, w: &W) {{ let _ = m.{FEB_TFAS}w, 1); }}\n");
        let f = lint_file("crates/structures/src/foo.rs", &src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "weak-ops");
        assert_eq!(f[0].line, 1);
        let gated = format!("fn f(m: &M, w: &W) {{ let _ = m.{TRY_SWAP}w, 1); }}\n");
        assert!(lint_file("crates/structures/src/foo.rs", &gated)
            .iter()
            .any(|x| x.rule == "weak-ops"));
    }

    #[test]
    fn weak_op_in_sanctioned_home_passes() {
        let src = format!("fn f(m: &M, w: &W) {{ let _ = m.{FEB_SAC}w, 0); }}\n");
        assert!(lint_file("crates/core/src/feb_llsc.rs", &src).is_empty());
        assert!(lint_file("crates/memsim/src/machine.rs", &src).is_empty());
    }

    #[test]
    fn weak_op_in_comment_is_ignored() {
        let src = format!("// discussing {FEB_LOAD}…) and {TRY_FETCH_ADD}…) freely\n");
        assert!(lint_file("crates/structures/src/foo.rs", &src).is_empty());
    }

    #[test]
    fn weak_event_outside_record_is_flagged() {
        let src = format!("fn f() {{ let e = {EVENT_PATH}LlRestart; count(e); }}\n");
        let f = lint_file("crates/core/src/feb_llsc.rs", &src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "telemetry-parity");
        let through_api = format!("fn f() {{ {RECORD_CALL}{EVENT_PATH}LlRestart); }}\n");
        assert!(lint_file("crates/core/src/cas_from_swap.rs", &through_api).is_empty());
    }

    #[test]
    fn memsim_telemetry_cfg_blocks_need_stubs() {
        let src = format!("{CFG_TELEMETRY_ON}\nfn real() {{}}\n");
        let f = lint_file("crates/memsim/src/foo.rs", &src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "telemetry-parity");
    }

    #[test]
    fn bench_json_without_schema_is_flagged() {
        let src = format!(
            "fn main() {{\n    let mut s = String::new();\n    s.{PUSH_STR}\"x\");\n    \
             std::{FS_WRITE}\"{BENCH_PREFIX}foo.json\", &s).unwrap();\n}}\n"
        );
        let f = lint_file("crates/bench/src/bin/foo.rs", &src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "bench-schema");
        let with = format!("{src}// plus\nfn g() -> &'static str {{ \"{SCHEMA_VERSION}\" }}\n");
        assert!(lint_file("crates/bench/src/bin/foo.rs", &with).is_empty());
    }

    #[test]
    fn the_repository_is_clean() {
        // CARGO_MANIFEST_DIR = crates/check; the workspace root is two up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = run_lints(&root);
        assert!(
            findings.is_empty(),
            "repository lint must be clean:\n{}",
            findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
