//! Static LL/SC protocol-obligation analyzer.
//!
//! The paper's primitives come with an unchecked *client* contract:
//! every LL must be resolved by exactly one SC/VL/CL on every path, at
//! most `k` sequences may be outstanding per process, and the
//! acquire/release pairs justified call-site-by-call-site in PR 1 must
//! actually pair up. This module checks all three statically, over the
//! CFGs built by [`crate::cfg`]:
//!
//! * **keep-leak** — a forward dataflow pass tracks every keep born from
//!   `ll`/`wll`/`llx` and reports any function exit (`return`, `?`, or
//!   fall-off-the-end) reached with a keep still live. Intentional
//!   abandons (pure-read LLs, owner-drain paths) carry an in-source
//!   `nbsp-flow: allow(keep-leak) — reason` annotation.
//! * **keep-bound** — the maximum number of simultaneously-live keeps
//!   per function, plus [`HELP_TRANSIENT`] for functions that drive the
//!   multi-word LLX/SCX family (whose commit path holds one extra
//!   helping sequence), must stay within
//!   [`nbsp_core::provider::PROVIDER_K`]; the repo-wide maximum must
//!   *equal* it, replacing the hand audit that moved it 4→5.
//! * **ordering** — every `Ordering::Release` store site needs a
//!   matching `Acquire`/`AcqRel` load site on the same field (same
//!   crate). Publication chains that hand off between two field names go
//!   through the [`ORDERING_PAIRS`] alias table, which is stale-audited
//!   like every lint allowlist.
//! * **backoff-discipline (R7)** — a retry loop that both opens and
//!   resolves an LL/SC sequence must go through `Backoff`; bare spin
//!   loops bypass the contention hardening E4 measures and need an
//!   [`R7_BACKOFF_ALLOW`] entry with a reason.
//!
//! Functions *named* like the protocol verbs (`ll`, `sc`, `llx`, …) are
//! its implementations — their keeps belong to their callers — so the
//! leak and bound verdicts skip them (R7 still applies). The analyzer is
//! intraprocedural; the known over/under-approximations are documented
//! in `DESIGN.md` §16.
//!
//! Non-vacuity is anchored by two planted canaries mirroring
//! [`crate::planted`]: [`PLANTED_KEEP_LEAK`] (the PR 6 StripedBucket
//! shed bug, re-staged) and [`PLANTED_UNPAIRED_RELEASE`], which
//! [`check_canaries`] must catch deterministically with file:line and
//! path diagnostics.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fs;
use std::path::Path;

use crate::cfg::{self, EventKind, Function, Group, Tt, PROTOCOL_FN_NAMES};
use crate::lint::Finding;

/// The crates whose `src/` trees the analyzer certifies.
pub const SCANNED_CRATES: &[&str] =
    &["core", "llx", "structures", "serve", "dynamic", "telemetry"];

/// Extra simultaneously-live sequences charged to any function that
/// drives the LLX/SCX family: the SCX commit path transiently holds one
/// helping LL–SC sequence of its own (the freeze loop), on top of the
/// caller's handles.
pub const HELP_TRANSIENT: usize = 1;

// ---------------------------------------------------------------------------
// Allowlists (stale-audited, reasons mandatory)
// ---------------------------------------------------------------------------

/// Sanctioned release→acquire field aliases, per crate: a `Release`
/// store on the first field is considered paired when the second field
/// has an `Acquire` load in the same crate. Used where a publication
/// chain hands off between two names for the same location (an index
/// published under one binding, read back under another).
pub const ORDERING_PAIRS: &[(&str, &str, &str, &str)] = &[
    (
        "llx",
        "slot",
        "meta",
        "a reserved table slot is published via its local binding; readers load the meta word for the same index",
    ),
    (
        "llx",
        "fld_new",
        "v_len",
        "staged field values are published per-field; readers acquire the version length before loading them",
    ),
];

/// R7 `backoff-discipline` allowlist: (file, function, reason) triples
/// for retry loops sanctioned to spin bare.
pub const R7_BACKOFF_ALLOW: &[(&str, &str, &str)] = &[
    (
        "crates/core/src/wide.rs",
        "compare_and_swap",
        "single-shot CAS emulation: the loop only retries on benign wll interference, and callers own the contention policy",
    ),
    (
        "crates/llx/src/lib.rs",
        "scx",
        "the owner freeze loop must observe interference immediately to keep help latency bounded; backoff here would stall helpers",
    ),
    (
        "crates/serve/src/fabric.rs",
        "redistribute",
        "rebalance runs on the supervisor thread only; there is no cross-process contention to damp",
    ),
    (
        "crates/serve/src/fabric.rs",
        "try_push",
        "one pushing thread per ring: the sole tail writer's SC only fails spuriously, so the loop is bounded by the provider's spurious-failure bound",
    ),
    (
        "crates/serve/src/fabric.rs",
        "publish",
        "the producer is the only publisher; the loop exists only for providers with spurious SC failures",
    ),
    (
        "crates/llx/src/lib.rs",
        "force_store",
        "single-threaded construction: the records are unpublished, so the SC cannot lose a race",
    ),
    (
        "crates/llx/src/lib.rs",
        "help",
        "helping protocol: backing off here would stall the very SCX the caller must complete; every loop is value-guarded and exits as soon as a peer lands the word",
    ),
    (
        "crates/llx/src/lib.rs",
        "settle",
        "first-settler-wins on a value-guarded state word; a failed SC means a peer settled it, which the reload observes immediately",
    ),
    (
        "crates/dynamic/src/lib.rs",
        "increment_once",
        "crash-trial harness helper: trials want maximum interleaving pressure, which backoff would dilute",
    ),
    (
        "crates/structures/src/arena.rs",
        "new",
        "single-threaded construction: the free list is unpublished until the constructor returns",
    ),
    (
        "crates/structures/src/stack.rs",
        "new",
        "single-threaded construction: the head reset runs before the stack is shared",
    ),
    (
        "crates/structures/src/queue.rs",
        "force_store",
        "initialisation and free-list link writes on nodes no concurrent operation can reach",
    ),
    (
        "crates/structures/src/set.rs",
        "force_store",
        "initialisation store before the set is shared",
    ),
];

// Needle split so this scanner never matches its own source.
const ANNOT_NEEDLE: &str = concat!("nbsp-flow", ": allow(");

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// A keep that is still live on some path reaching a function exit.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Leak {
    /// The keep identity (operand chain, `@recv`, or
    /// [`crate::cfg::UNBOUND_LLX`]).
    pub keep: String,
    /// Line of the birth (`ll`/`wll`/`llx` call).
    pub birth_line: u32,
    /// Line of the exit the keep is live at.
    pub exit_line: u32,
    /// `"return"`, `"?"` or `"end"`.
    pub exit_kind: &'static str,
    /// Block-line trace from the birth to the exit (replayable path).
    pub path: Vec<u32>,
    /// `Some(reason)` if an `nbsp-flow: allow(keep-leak)` annotation
    /// covers this leak.
    pub allowed: Option<String>,
}

/// Per-function verdict of the keep dataflow.
#[derive(Clone, Debug)]
pub struct FnReport {
    /// Repository-relative file with `/` separators.
    pub file: String,
    /// Function name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Number of birth events in the body.
    pub births: usize,
    /// Max simultaneously-live keeps on any path.
    pub max_live: usize,
    /// `max_live` plus [`HELP_TRANSIENT`] if the function drives the
    /// LLX/SCX family; 0 for protocol implementations.
    pub certified: usize,
    /// True if the body calls `llx`/`scx`/`vlx`/`unlink`.
    pub uses_llx_family: bool,
    /// True if the function *is* a protocol verb (leak/bound verdicts
    /// skipped; obligations belong to its callers).
    pub protocol_impl: bool,
    /// Keeps live at an exit (annotated ones carry their reason).
    pub leaks: Vec<Leak>,
    /// Keeps born into caller-owned parameters (delegation, not leaks).
    pub escapes: Vec<String>,
}

/// A release/acquire pairing entry for one field in one crate.
#[derive(Clone, Debug)]
pub struct OrderingEntry {
    /// Crate short name (`core`, `llx`, …).
    pub crate_name: String,
    /// The field identifier the sites operate on.
    pub field: String,
    /// `(file, line)` of every Release-side site.
    pub releases: Vec<(String, u32)>,
    /// `(file, line)` of every Acquire-side site.
    pub acquires: Vec<(String, u32)>,
    /// The acquire-side field if pairing goes through [`ORDERING_PAIRS`].
    pub alias: Option<String>,
    /// True if every release site has an acquire counterpart (directly,
    /// via alias, or trivially because there are no release sites).
    pub paired: bool,
}

/// The aggregate analysis of the scanned crates.
#[derive(Clone, Debug)]
pub struct RepoFlow {
    /// Per-function verdicts, sorted by (file, line); only functions
    /// that touch the protocol at all are retained.
    pub functions: Vec<FnReport>,
    /// The release/acquire table, sorted by (crate, field).
    pub ordering: Vec<OrderingEntry>,
    /// Unallowlisted violations, sorted by (path, line, rule).
    pub violations: Vec<Finding>,
    /// Findings suppressed by annotations/allowlists (reason included).
    pub allowed: Vec<Finding>,
    /// Repo-wide certified keep bound (max over functions).
    pub certified_bound: usize,
    /// The constant the bound is certified against.
    pub provider_k: usize,
}

/// Analysis of a single source text (used by the canaries and fixtures).
#[derive(Clone, Debug)]
pub struct FileFlow {
    /// Per-function verdicts (all functions, protocol impls included).
    pub functions: Vec<FnReport>,
    /// Raw ordering sites found in the text.
    pub ordering_sites: Vec<OrdSite>,
    /// R7 bare-retry-loop hits: (function name, loop line).
    pub backoff: Vec<(String, u32)>,
    /// Parsed `nbsp-flow: allow(…)` annotations.
    pub annotations: Vec<Annotation>,
}

/// One atomic access site participating in the ordering table.
#[derive(Clone, Debug)]
pub struct OrdSite {
    /// The field identifier operated on.
    pub field: String,
    /// 1-based line.
    pub line: u32,
    /// True if this site publishes (Release or AcqRel write side).
    pub rel: bool,
    /// True if this site observes (Acquire or AcqRel read side).
    pub acq: bool,
}

/// An in-source `nbsp-flow: allow(rule) — reason` marker. It covers
/// findings on its own line and on the line directly below (so it works
/// both as a trailing comment and as a comment line above the site).
#[derive(Clone, Debug)]
pub struct Annotation {
    /// 1-based line of the marker.
    pub line: u32,
    /// The rule it suppresses (`keep-leak`, `ordering`, …).
    pub rule: String,
    /// The mandatory justification.
    pub reason: String,
}

// ---------------------------------------------------------------------------
// Keep-lifetime dataflow
// ---------------------------------------------------------------------------

struct FnAnalysis {
    leaks: Vec<Leak>,
    max_live: usize,
    births: usize,
    escapes: Vec<String>,
}

fn keep_base(keep: &str) -> &str {
    let end = keep
        .find(['.', '['])
        .unwrap_or(keep.len());
    &keep[..end]
}

fn analyze_fn(f: &Function) -> FnAnalysis {
    let blocks = &f.cfg.blocks;
    let mut births = 0usize;
    let mut birth_block: BTreeMap<(String, u32), usize> = BTreeMap::new();
    for (bi, b) in blocks.iter().enumerate() {
        for e in &b.events {
            if e.kind == EventKind::Birth {
                births += 1;
                birth_block.entry((e.keep.clone(), e.line)).or_insert(bi);
            }
        }
    }
    let mut in_states: Vec<Option<BTreeMap<String, u32>>> = vec![None; blocks.len()];
    in_states[0] = Some(BTreeMap::new());
    let mut work: VecDeque<usize> = VecDeque::from([0]);
    let mut max_live = 0usize;
    let mut escapes: BTreeSet<String> = BTreeSet::new();
    let mut raw_leaks: BTreeSet<(String, u32, u32, &'static str)> = BTreeSet::new();
    let mut guard = 0usize;
    while let Some(bi) = work.pop_front() {
        guard += 1;
        if guard > 64 * blocks.len().max(1) * blocks.len().max(1) {
            break; // defensive: malformed CFG
        }
        let Some(mut state) = in_states[bi].clone() else { continue };
        for e in &blocks[bi].events {
            match e.kind {
                EventKind::Birth => {
                    let base = keep_base(e.keep.trim_start_matches('@'));
                    if f.params.iter().any(|p| p == base) {
                        escapes.insert(e.keep.clone());
                    } else {
                        state.insert(e.keep.clone(), e.line);
                        max_live = max_live.max(state.len());
                    }
                }
                EventKind::Consume => {
                    state.remove(&e.keep);
                }
            }
        }
        if let Some((exit_line, exit_kind)) = blocks[bi].exit {
            for (keep, birth_line) in &state {
                raw_leaks.insert((keep.clone(), *birth_line, exit_line, exit_kind));
            }
        }
        for &succ in &blocks[bi].succs {
            let changed = match &mut in_states[succ] {
                None => {
                    in_states[succ] = Some(state.clone());
                    true
                }
                Some(dst) => {
                    let mut ch = false;
                    for (k, v) in &state {
                        match dst.get(k) {
                            None => {
                                dst.insert(k.clone(), *v);
                                ch = true;
                            }
                            Some(old) if v < old => {
                                dst.insert(k.clone(), *v);
                                ch = true;
                            }
                            Some(_) => {}
                        }
                    }
                    ch
                }
            };
            if changed {
                work.push_back(succ);
            }
        }
    }
    let leaks = raw_leaks
        .into_iter()
        .map(|(keep, birth_line, exit_line, exit_kind)| {
            let path = trace_path(f, &birth_block, &keep, birth_line, exit_line);
            Leak { keep, birth_line, exit_line, exit_kind, path, allowed: None }
        })
        .collect();
    FnAnalysis { leaks, max_live, births, escapes: escapes.into_iter().collect() }
}

/// Shortest block-line trace from a keep's birth block to the exiting
/// block (BFS over successor edges; deterministic by construction).
fn trace_path(
    f: &Function,
    birth_block: &BTreeMap<(String, u32), usize>,
    keep: &str,
    birth_line: u32,
    exit_line: u32,
) -> Vec<u32> {
    let blocks = &f.cfg.blocks;
    let Some(&start) = birth_block.get(&(keep.to_string(), birth_line)) else {
        return vec![birth_line, exit_line];
    };
    let target = blocks
        .iter()
        .position(|b| b.exit.is_some_and(|(l, _)| l == exit_line));
    let Some(target) = target else {
        return vec![birth_line, exit_line];
    };
    let mut prev: Vec<Option<usize>> = vec![None; blocks.len()];
    let mut seen = vec![false; blocks.len()];
    let mut q = VecDeque::from([start]);
    seen[start] = true;
    while let Some(b) = q.pop_front() {
        if b == target {
            break;
        }
        for &s in &blocks[b].succs {
            if !seen[s] {
                seen[s] = true;
                prev[s] = Some(b);
                q.push_back(s);
            }
        }
    }
    if !seen[target] {
        return vec![birth_line, exit_line];
    }
    let mut rev = vec![target];
    while let Some(p) = prev[*rev.last().expect("non-empty")] {
        rev.push(p);
    }
    rev.reverse();
    let mut path: Vec<u32> = Vec::new();
    for bi in rev {
        let l = blocks[bi].line;
        if l != 0 && path.last() != Some(&l) {
            path.push(l);
        }
    }
    if path.first() != Some(&birth_line) {
        path.insert(0, birth_line);
    }
    if path.last() != Some(&exit_line) {
        path.push(exit_line);
    }
    path
}

// ---------------------------------------------------------------------------
// Ordering-site scan
// ---------------------------------------------------------------------------

const STD_RMW: &[&str] = &[
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
];

fn orderings_in(items: &[Tt], out: &mut Vec<String>) {
    let mut i = 0usize;
    while i < items.len() {
        match &items[i] {
            Tt::Tok(t) if t.is_ident("Ordering") => {
                if items.get(i + 1).is_some_and(|n| n.is_punct2("::")) {
                    if let Some(Tt::Tok(x)) = items.get(i + 2) {
                        out.push(x.text.clone());
                    }
                }
                i += 1;
            }
            Tt::Group(g) => {
                orderings_in(&g.items, out);
                i += 1;
            }
            _ => i += 1,
        }
    }
}

trait TtExt {
    fn is_punct2(&self, s: &str) -> bool;
    fn is_ident2(&self, s: &str) -> bool;
    fn ident2(&self) -> Option<&str>;
    fn group2(&self, open: char) -> Option<&Group>;
}

impl TtExt for Tt {
    fn is_punct2(&self, s: &str) -> bool {
        matches!(self, Tt::Tok(t) if t.is_punct(s))
    }
    fn is_ident2(&self, s: &str) -> bool {
        matches!(self, Tt::Tok(t) if t.is_ident(s))
    }
    fn ident2(&self) -> Option<&str> {
        match self {
            Tt::Tok(t) if t.kind == crate::lex::TokKind::Ident => Some(&t.text),
            _ => None,
        }
    }
    fn group2(&self, open: char) -> Option<&Group> {
        match self {
            Tt::Group(g) if g.open == open => Some(g),
            _ => None,
        }
    }
}

fn scan_ordering(items: &[Tt], out: &mut Vec<OrdSite>) {
    let mut i = 0usize;
    while i < items.len() {
        if let (Some(m), Some(g)) =
            (items[i].ident2(), items.get(i + 1).and_then(|n| n.group2('(')))
        {
            let line = match &items[i] {
                Tt::Tok(t) => t.line,
                Tt::Group(gr) => gr.line,
            };
            let prev_dot = i > 0 && items[i - 1].is_punct2(".");
            // Std atomics: `<recv>.store(v, Ordering::Release)` etc.
            if prev_dot && (m == "store" || m == "load" || STD_RMW.contains(&m)) {
                let mut ords = Vec::new();
                orderings_in(&g.items, &mut ords);
                let has = |o: &str| ords.iter().any(|x| x == o);
                let rmw = m != "store" && m != "load";
                let rel = (m == "store" && has("Release"))
                    || (rmw && (has("Release") || has("AcqRel")));
                let acq = (m == "load" && has("Acquire"))
                    || (rmw && (has("Acquire") || has("AcqRel")));
                if rel || acq {
                    if let Some(field) = std_receiver_field(items, i) {
                        out.push(OrdSite { field, line, rel, acq });
                    }
                }
            }
            // Weak-memory helpers: the cell is the first argument.
            let weak = match m {
                "load_acquire" => Some((false, true)),
                "store_release" => Some((true, false)),
                "cas_acqrel" => Some((true, true)),
                _ => None,
            };
            if let Some((rel, acq)) = weak {
                if let Some(field) = arg0_field(&g.items) {
                    out.push(OrdSite { field, line, rel, acq });
                }
            }
            scan_ordering(&g.items, out);
            i += 2;
            continue;
        }
        if let Tt::Group(g) = &items[i] {
            scan_ordering(&g.items, out);
        }
        i += 1;
    }
}

/// The field ident of a std-atomic receiver chain: last identifier when
/// walking back over `ident`/`.`/`[…]` from the `.` before the method.
fn std_receiver_field(items: &[Tt], method_idx: usize) -> Option<String> {
    let mut j = method_idx.checked_sub(2)?; // before the `.`
    loop {
        match &items[j] {
            Tt::Group(g) if g.open == '[' => {
                j = j.checked_sub(1)?;
            }
            Tt::Tok(t) if t.kind == crate::lex::TokKind::Ident => {
                return Some(t.text.clone());
            }
            Tt::Group(_) => return None, // `(expr).store(…)` — no field
            _ => return None,
        }
    }
}

/// The field ident of a weak-helper call: the last top-level identifier
/// of the first argument (`&self.hdr` → `hdr`, `&d.announce[i]` →
/// `announce`).
fn arg0_field(args: &[Tt]) -> Option<String> {
    let mut last = None;
    for it in args {
        if it.is_punct2(",") {
            break;
        }
        if let Some(id) = it.ident2() {
            if id != "self" && id != "mut" {
                last = Some(id.to_string());
            }
        }
    }
    last
}

// ---------------------------------------------------------------------------
// R7: backoff discipline
// ---------------------------------------------------------------------------

fn contains_call(items: &[Tt], names: &[&str]) -> bool {
    let mut i = 0usize;
    while i < items.len() {
        if let Some(m) = items[i].ident2() {
            if names.contains(&m)
                && items.get(i + 1).and_then(|n| n.group2('(')).is_some()
                && i > 0
                && (items[i - 1].is_punct2(".") || items[i - 1].is_punct2("::"))
            {
                return true;
            }
        }
        if let Tt::Group(g) = &items[i] {
            if contains_call(&g.items, names) {
                return true;
            }
        }
        i += 1;
    }
    false
}

fn contains_backoff(items: &[Tt]) -> bool {
    items.iter().any(|it| match it {
        Tt::Tok(t) => {
            t.kind == crate::lex::TokKind::Ident
                && (t.text.to_ascii_lowercase().contains("backoff")
                    || t.text == "spin"
                    || t.text == "spin_loop"
                    || t.text == "yield_now")
        }
        Tt::Group(g) => contains_backoff(&g.items),
    })
}

/// Scans one function body for bare retry loops; flags the innermost
/// offending loop only. Nested `fn` items are skipped (they are scanned
/// as their own functions).
fn r7_scan(items: &[Tt], out: &mut Vec<u32>) -> bool {
    let mut flagged_below = false;
    let mut i = 0usize;
    while i < items.len() {
        if items[i].is_ident2("fn") {
            i += 1;
            while i < items.len() {
                if items[i].is_punct2(";") || items[i].group2('{').is_some() {
                    i += 1;
                    break;
                }
                i += 1;
            }
            continue;
        }
        let is_loop = items[i].is_ident2("loop") || items[i].is_ident2("while");
        if is_loop {
            // Construct = condition tokens (for `while`) plus the body.
            let mut j = i + 1;
            let mut construct: Vec<Tt> = Vec::new();
            while j < items.len() && items[j].group2('{').is_none() {
                construct.push(items[j].clone());
                j += 1;
            }
            if let Some(body) = items.get(j).and_then(|n| n.group2('{')) {
                let line = match &items[i] {
                    Tt::Tok(t) => t.line,
                    Tt::Group(g) => g.line,
                };
                construct.extend(body.items.iter().cloned());
                let inner_flagged = r7_scan(&body.items, out);
                let births = contains_call(&construct, &["ll", "wll", "llx"]);
                let commits = contains_call(&construct, &["sc", "scx"]);
                if births && commits && !contains_backoff(&construct) && !inner_flagged {
                    out.push(line);
                    flagged_below = true;
                }
                if inner_flagged {
                    flagged_below = true;
                }
                i = j + 1;
                continue;
            }
            i = j;
            continue;
        }
        if let Tt::Group(g) = &items[i] {
            if r7_scan(&g.items, out) {
                flagged_below = true;
            }
        }
        i += 1;
    }
    flagged_below
}

// ---------------------------------------------------------------------------
// Annotations
// ---------------------------------------------------------------------------

fn parse_annotations(content: &str) -> Vec<Annotation> {
    let mut out = Vec::new();
    for (idx, l) in content.lines().enumerate() {
        let Some(p) = l.find(ANNOT_NEEDLE) else { continue };
        let rest = &l[p + ANNOT_NEEDLE.len()..];
        let Some(close) = rest.find(')') else { continue };
        let rule = rest[..close].trim().to_string();
        let reason = rest[close + 1..]
            .trim_start_matches([' ', '\u{2014}', '-', ':'])
            .trim()
            .to_string();
        out.push(Annotation {
            line: u32::try_from(idx + 1).unwrap_or(u32::MAX),
            rule,
            reason,
        });
    }
    out
}

fn annotation_for<'a>(
    anns: &'a [Annotation],
    rule: &str,
    lines: &[u32],
) -> Option<(usize, &'a Annotation)> {
    anns.iter().enumerate().find(|(_, a)| {
        a.rule == rule && lines.iter().any(|l| a.line == *l || a.line + 1 == *l)
    })
}

// ---------------------------------------------------------------------------
// Per-file and repo analysis
// ---------------------------------------------------------------------------

/// Strips `#[cfg(test)] mod … { … }` items so token-level passes see the
/// same code the CFG pass analyzes.
fn strip_test_mods(items: &[Tt]) -> Vec<Tt> {
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut pending_test = false;
    while i < items.len() {
        if items[i].is_punct2("#") {
            if let Some(g) = items.get(i + 1).and_then(|n| n.group2('[')) {
                fn has_test(items: &[Tt]) -> bool {
                    items.iter().any(|t| match t {
                        Tt::Tok(t) => t.is_ident("test"),
                        Tt::Group(g) => has_test(&g.items),
                    })
                }
                if g.items.iter().any(|t| t.is_ident2("cfg")) && has_test(&g.items) {
                    pending_test = true;
                    i += 2;
                    continue;
                }
                out.push(items[i].clone());
                out.push(items[i + 1].clone());
                i += 2;
                continue;
            }
        }
        if pending_test && items[i].is_ident2("mod") {
            while i < items.len()
                && items[i].group2('{').is_none()
                && !items[i].is_punct2(";")
            {
                i += 1;
            }
            i += 1;
            pending_test = false;
            continue;
        }
        pending_test = false;
        match &items[i] {
            Tt::Group(g) => out.push(Tt::Group(Group {
                open: g.open,
                line: g.line,
                items: strip_test_mods(&g.items),
            })),
            t => out.push(t.clone()),
        }
        i += 1;
    }
    out
}

/// Runs every pass over one source text. `file` is only used to label
/// the reports.
#[must_use]
pub fn analyze_source(file: &str, content: &str) -> FileFlow {
    let fns = cfg::parse_functions(content);
    let mut functions = Vec::new();
    let mut backoff = Vec::new();
    for f in &fns {
        let protocol_impl = PROTOCOL_FN_NAMES.contains(&f.name.as_str());
        let a = analyze_fn(f);
        let certified = if protocol_impl {
            0
        } else {
            a.max_live + if f.uses_llx_family { HELP_TRANSIENT } else { 0 }
        };
        functions.push(FnReport {
            file: file.to_string(),
            name: f.name.clone(),
            line: f.line,
            births: a.births,
            max_live: a.max_live,
            certified,
            uses_llx_family: f.uses_llx_family,
            protocol_impl,
            leaks: if protocol_impl { Vec::new() } else { a.leaks },
            escapes: a.escapes,
        });
        let mut lines = Vec::new();
        r7_scan(&f.body.items, &mut lines);
        lines.sort_unstable();
        lines.dedup();
        for l in lines {
            backoff.push((f.name.clone(), l));
        }
    }
    functions.sort_by_key(|a| (a.line, a.name.clone()));
    let tree = strip_test_mods(&cfg::build_tree(&crate::lex::lex(content)));
    let mut ordering_sites = Vec::new();
    scan_ordering(&tree, &mut ordering_sites);
    FileFlow {
        functions,
        ordering_sites,
        backoff,
        annotations: parse_annotations(content),
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(rd) = fs::read_dir(dir) else { return };
    let mut entries: Vec<_> = rd.flatten().map(|e| e.path()).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Analyzes the six client crates under `root` and resolves every
/// finding against annotations and allowlists.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn analyze_repo(root: &Path) -> RepoFlow {
    let mut functions: Vec<FnReport> = Vec::new();
    let mut violations: Vec<Finding> = Vec::new();
    let mut allowed: Vec<Finding> = Vec::new();
    // (crate, field) → (releases, acquires), each a list of (file, line).
    type Sites = (Vec<(String, u32)>, Vec<(String, u32)>);
    let mut table: BTreeMap<(String, String), Sites> = BTreeMap::new();
    // Release-site annotations, keyed by crate → (file, anns index list).
    let mut file_anns: BTreeMap<String, Vec<Annotation>> = BTreeMap::new();
    let mut ann_used: BTreeMap<(String, u32), bool> = BTreeMap::new();
    let mut r7_hits: Vec<(String, String, u32)> = Vec::new();

    for krate in SCANNED_CRATES {
        let src = root.join("crates").join(krate).join("src");
        let mut files = Vec::new();
        collect_rs(&src, &mut files);
        for path in files {
            let Ok(content) = fs::read_to_string(&path) else { continue };
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let ff = analyze_source(&rel, &content);
            for a in &ff.annotations {
                ann_used.insert((rel.clone(), a.line), false);
            }
            file_anns.insert(rel.clone(), ff.annotations.clone());
            for site in &ff.ordering_sites {
                let entry = table
                    .entry(((*krate).to_string(), site.field.clone()))
                    .or_default();
                if site.rel {
                    entry.0.push((rel.clone(), site.line));
                }
                if site.acq {
                    entry.1.push((rel.clone(), site.line));
                }
            }
            for (fn_name, line) in &ff.backoff {
                r7_hits.push((rel.clone(), fn_name.clone(), *line));
            }
            functions.extend(ff.functions);
        }
    }
    functions.sort_by_key(|a| (a.file.clone(), a.line));

    // --- keep-leak and keep-bound resolution -----------------------------
    let provider_k = nbsp_core::provider::PROVIDER_K;
    let mut certified_bound = 0usize;
    for f in &mut functions {
        if !f.protocol_impl {
            certified_bound = certified_bound.max(f.certified);
        }
        let anns = file_anns.get(&f.file).cloned().unwrap_or_default();
        for leak in &mut f.leaks {
            let hit =
                annotation_for(&anns, "keep-leak", &[leak.birth_line, leak.exit_line]);
            let path_s = leak
                .path
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" -> ");
            let msg = format!(
                "fn `{}`: keep `{}` born at line {} is still live at the `{}` exit on line {} (path: {})",
                f.name, leak.keep, leak.birth_line, leak.exit_kind, leak.exit_line, path_s
            );
            if let Some((_, a)) = hit {
                ann_used.insert((f.file.clone(), a.line), true);
                leak.allowed = Some(a.reason.clone());
                allowed.push(Finding {
                    rule: "keep-leak",
                    path: f.file.clone(),
                    line: leak.birth_line as usize,
                    message: format!("{msg} [allowed: {}]", a.reason),
                });
            } else {
                violations.push(Finding {
                    rule: "keep-leak",
                    path: f.file.clone(),
                    line: leak.birth_line as usize,
                    message: msg,
                });
            }
        }
        if f.certified > provider_k {
            violations.push(Finding {
                rule: "keep-bound",
                path: f.file.clone(),
                line: f.line as usize,
                message: format!(
                    "fn `{}` certifies {} simultaneously-live keeps (max_live {} + {} llx help transient), exceeding PROVIDER_K = {}",
                    f.name,
                    f.certified,
                    f.max_live,
                    if f.uses_llx_family { HELP_TRANSIENT } else { 0 },
                    provider_k
                ),
            });
        }
    }
    // Only functions that touch the protocol are worth reporting.
    functions.retain(|f| {
        f.births > 0 || f.max_live > 0 || f.uses_llx_family || !f.escapes.is_empty()
    });

    // --- ordering resolution ---------------------------------------------
    let mut alias_used = vec![false; ORDERING_PAIRS.len()];
    let mut ordering = Vec::new();
    for ((krate, field), (releases, acquires)) in &table {
        let mut alias = None;
        let mut paired = releases.is_empty() || !acquires.is_empty();
        if !paired {
            if let Some(idx) = ORDERING_PAIRS
                .iter()
                .position(|(c, r, _, _)| c == krate && r == field)
            {
                let partner = ORDERING_PAIRS[idx].2;
                let partner_has_acq = table
                    .get(&(krate.clone(), partner.to_string()))
                    .is_some_and(|(_, a)| !a.is_empty());
                if partner_has_acq {
                    alias_used[idx] = true;
                    alias = Some(partner.to_string());
                    paired = true;
                    allowed.push(Finding {
                        rule: "ordering",
                        path: releases[0].0.clone(),
                        line: releases[0].1 as usize,
                        message: format!(
                            "Release on `{field}` pairs with Acquire on `{partner}` via ORDERING_PAIRS [{}]",
                            ORDERING_PAIRS[idx].3
                        ),
                    });
                }
            }
        }
        if !paired {
            // A release-site annotation can sanction an intentionally
            // unpaired publication.
            let mut sanctioned = false;
            for (file, line) in releases {
                let anns = file_anns.get(file).cloned().unwrap_or_default();
                if let Some((_, a)) = annotation_for(&anns, "ordering", &[*line]) {
                    ann_used.insert((file.clone(), a.line), true);
                    sanctioned = true;
                    allowed.push(Finding {
                        rule: "ordering",
                        path: file.clone(),
                        line: *line as usize,
                        message: format!(
                            "unpaired Release on `{field}` allowed: {}",
                            a.reason
                        ),
                    });
                }
            }
            if sanctioned {
                paired = true;
            }
        }
        if !paired {
            for (file, line) in releases {
                violations.push(Finding {
                    rule: "ordering",
                    path: file.clone(),
                    line: *line as usize,
                    message: format!(
                        "Ordering::Release on field `{field}` (crate `{krate}`) has no matching Acquire/AcqRel load site on the same field"
                    ),
                });
            }
        }
        ordering.push(OrderingEntry {
            crate_name: krate.clone(),
            field: field.clone(),
            releases: releases.clone(),
            acquires: acquires.clone(),
            alias,
            paired,
        });
    }
    for (idx, (krate, rel_field, partner, _)) in ORDERING_PAIRS.iter().enumerate() {
        if !alias_used[idx] {
            violations.push(Finding {
                rule: "stale-flow-allow",
                path: format!("crates/{krate}/src"),
                line: 0,
                message: format!(
                    "ORDERING_PAIRS entry `{rel_field}` -> `{partner}` (crate `{krate}`) no longer suppresses anything; remove it"
                ),
            });
        }
    }

    // --- R7 backoff discipline -------------------------------------------
    let mut r7_allow_used = vec![false; R7_BACKOFF_ALLOW.len()];
    r7_hits.sort();
    for (file, fn_name, line) in &r7_hits {
        if let Some(idx) = R7_BACKOFF_ALLOW
            .iter()
            .position(|(f, n, _)| f == file && n == fn_name)
        {
            r7_allow_used[idx] = true;
            allowed.push(Finding {
                rule: "backoff-discipline",
                path: file.clone(),
                line: *line as usize,
                message: format!(
                    "bare retry loop in fn `{fn_name}` allowed: {}",
                    R7_BACKOFF_ALLOW[idx].2
                ),
            });
        } else {
            violations.push(Finding {
                rule: "backoff-discipline",
                path: file.clone(),
                line: *line as usize,
                message: format!(
                    "fn `{fn_name}`: retry loop opens and resolves an LL/SC sequence without Backoff; add a Backoff or an R7_BACKOFF_ALLOW entry with a reason"
                ),
            });
        }
    }
    for (idx, (file, fn_name, _)) in R7_BACKOFF_ALLOW.iter().enumerate() {
        if !r7_allow_used[idx] {
            violations.push(Finding {
                rule: "stale-flow-allow",
                path: (*file).to_string(),
                line: 0,
                message: format!(
                    "R7_BACKOFF_ALLOW entry for fn `{fn_name}` no longer matches a bare retry loop; remove it"
                ),
            });
        }
    }

    // --- stale annotations ------------------------------------------------
    for ((file, line), used) in &ann_used {
        if !used {
            violations.push(Finding {
                rule: "stale-flow-allow",
                path: file.clone(),
                line: *line as usize,
                message: "nbsp-flow allow annotation no longer suppresses anything; remove it"
                    .to_string(),
            });
        }
    }

    violations.sort_by(|a, b| {
        (a.path.clone(), a.line, a.rule).cmp(&(b.path.clone(), b.line, b.rule))
    });
    allowed.sort_by(|a, b| {
        (a.path.clone(), a.line, a.rule).cmp(&(b.path.clone(), b.line, b.rule))
    });
    RepoFlow {
        functions,
        ordering,
        violations,
        allowed,
        certified_bound,
        provider_k,
    }
}

/// Flow-analyzer findings surfaced through [`crate::lint::run_lints`]:
/// every unallowlisted violation, so `exp_lint` and the repo-clean test
/// hard-fail alongside R1–R6.
#[must_use]
pub fn lint_extras(root: &Path) -> Vec<Finding> {
    analyze_repo(root).violations
}

// ---------------------------------------------------------------------------
// Planted canaries
// ---------------------------------------------------------------------------

/// Canary 1 — the PR 6 StripedBucket shed bug, re-staged: the zero-token
/// early return leaves the LL sequence open, eventually exhausting the
/// provider's announce slots.
pub const PLANTED_KEEP_LEAK: &str = "\
pub fn shed_leaks_on_early_return(&self, ctx: &mut C) -> u64 {
    let mut keep = K::default();
    let mut backoff = Backoff::new();
    loop {
        let tokens = self.local.ll(ctx, &mut keep);
        if tokens == 0 {
            return 0;
        }
        if self.local.sc(ctx, &mut keep, tokens - 1) {
            return tokens;
        }
        backoff.spin();
    }
}
";

/// Canary 2 — a publication flag stored with Release but only ever
/// loaded Relaxed: the handoff the Release is supposed to order is
/// unobservable.
pub const PLANTED_UNPAIRED_RELEASE: &str = "\
pub fn publish(&self) {
    self.ready.store(1, Ordering::Release);
}
pub fn poll(&self) -> bool {
    self.ready.load(Ordering::Relaxed) == 1
}
";

/// The verdict for one canary.
#[derive(Clone, Debug)]
pub struct CanaryVerdict {
    /// True if the analyzer produced the expected finding.
    pub caught: bool,
    /// The replayable diagnostic (file:line plus path trace).
    pub diagnostic: String,
}

/// Runs both planted canaries through the analyzer. Both must be
/// caught, deterministically, for the obligation report to be
/// considered non-vacuous.
#[must_use]
pub fn check_canaries() -> (CanaryVerdict, CanaryVerdict) {
    let leak_file = "<planted-keep-leak>";
    let ff = analyze_source(leak_file, PLANTED_KEEP_LEAK);
    let leak = ff
        .functions
        .iter()
        .find(|f| f.name == "shed_leaks_on_early_return")
        .and_then(|f| {
            f.leaks
                .iter()
                .find(|l| l.keep == "keep" && l.exit_kind == "return")
        });
    let leak_verdict = match leak {
        Some(l) => CanaryVerdict {
            caught: true,
            diagnostic: format!(
                "{leak_file}:{} keep `keep` leaks at the `return` exit on line {} (path: {})",
                l.birth_line,
                l.exit_line,
                l.path
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(" -> ")
            ),
        },
        None => CanaryVerdict {
            caught: false,
            diagnostic: format!("{leak_file}: expected keep leak NOT detected"),
        },
    };
    let rel_file = "<planted-unpaired-release>";
    let fr = analyze_source(rel_file, PLANTED_UNPAIRED_RELEASE);
    let mut rel_sites = Vec::new();
    let mut acq_fields = BTreeSet::new();
    for s in &fr.ordering_sites {
        if s.rel {
            rel_sites.push((s.field.clone(), s.line));
        }
        if s.acq {
            acq_fields.insert(s.field.clone());
        }
    }
    let unpaired: Vec<_> = rel_sites
        .iter()
        .filter(|(f, _)| !acq_fields.contains(f))
        .collect();
    let rel_verdict = if let Some((field, line)) = unpaired.first() {
        CanaryVerdict {
            caught: true,
            diagnostic: format!(
                "{rel_file}:{line} Ordering::Release store on `{field}` has no matching Acquire load site"
            ),
        }
    } else {
        CanaryVerdict {
            caught: false,
            diagnostic: format!("{rel_file}: expected unpaired Release NOT detected"),
        }
    };
    (leak_verdict, rel_verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canaries_are_caught() {
        let (leak, rel) = check_canaries();
        assert!(leak.caught, "{}", leak.diagnostic);
        assert!(rel.caught, "{}", rel.diagnostic);
        // Replayable diagnostics: file:line plus a path trace.
        assert!(leak.diagnostic.contains("<planted-keep-leak>:"));
        assert!(leak.diagnostic.contains("path:"));
        assert!(rel.diagnostic.contains("<planted-unpaired-release>:"));
    }

    #[test]
    fn clean_loop_has_no_leak() {
        let ff = analyze_source(
            "<t>",
            "fn bump(&self, ctx: &mut C) -> u64 {\n\
                 let mut keep = K::default();\n\
                 let mut backoff = Backoff::new();\n\
                 loop {\n\
                     let old = self.var.ll(ctx, &mut keep);\n\
                     if self.var.sc(ctx, &mut keep, old + 1) {\n\
                         return old;\n\
                     }\n\
                     backoff.spin();\n\
                 }\n\
             }\n",
        );
        let f = &ff.functions[0];
        assert!(f.leaks.is_empty(), "{:?}", f.leaks);
        assert_eq!(f.max_live, 1);
        assert!(ff.backoff.is_empty());
    }

    #[test]
    fn r7_flags_bare_retry_loop() {
        let ff = analyze_source(
            "<t>",
            "fn spin(&self, ctx: &mut C) {\n\
                 let mut keep = K::default();\n\
                 loop {\n\
                     let v = self.var.ll(ctx, &mut keep);\n\
                     if self.var.sc(ctx, &mut keep, v) { break; }\n\
                 }\n\
             }\n",
        );
        assert_eq!(ff.backoff.len(), 1);
        assert_eq!(ff.backoff[0].0, "spin");
    }

    #[test]
    fn protocol_impls_are_exempt_from_leaks() {
        let ff = analyze_source(
            "<t>",
            "fn ll(&self, ctx: &mut C, keep: &mut K) -> u64 {\n\
                 self.inner.ll(ctx, keep)\n\
             }\n",
        );
        let f = &ff.functions[0];
        assert!(f.protocol_impl);
        assert!(f.leaks.is_empty());
        assert_eq!(f.certified, 0);
    }

    #[test]
    fn param_keep_births_are_escapes_not_leaks() {
        let ff = analyze_source(
            "<t>",
            "fn reload(&self, ctx: &mut C, keep: &mut K) -> u64 {\n\
                 self.var.ll(ctx, keep)\n\
             }\n",
        );
        let f = &ff.functions[0];
        assert!(f.leaks.is_empty(), "{:?}", f.leaks);
        assert_eq!(f.escapes, ["keep"]);
    }

    #[test]
    fn annotation_suppresses_and_reason_is_kept() {
        let src = "\
fn read_once(&self, ctx: &mut C) -> u64 {
    let mut keep = K::default();
    // nbsp-flow: allow(keep-leak) - pure read, sequence abandoned by design
    self.var.ll(ctx, &mut keep)
}
";
        let ff = analyze_source("<t>", src);
        assert_eq!(ff.annotations.len(), 1);
        assert_eq!(ff.annotations[0].rule, "keep-leak");
        assert!(ff.annotations[0].reason.contains("pure read"));
        // analyze_source leaves resolution to analyze_repo; the leak is
        // present but the annotation is adjacent to the birth line.
        let f = &ff.functions[0];
        assert_eq!(f.leaks.len(), 1);
        assert_eq!(f.leaks[0].birth_line, 4);
        assert_eq!(ff.annotations[0].line + 1, f.leaks[0].birth_line);
    }

    #[test]
    fn ordering_sites_classified() {
        let ff = analyze_source(
            "<t>",
            "fn f(&self) {\n\
                 self.hdr.store(1, Ordering::Release);\n\
                 let v = self.hdr.load(Ordering::Acquire);\n\
                 mem.store_release(&self.word, v);\n\
                 let w = mem.load_acquire(&self.word);\n\
             }\n",
        );
        let rels: Vec<_> = ff.ordering_sites.iter().filter(|s| s.rel).collect();
        let acqs: Vec<_> = ff.ordering_sites.iter().filter(|s| s.acq).collect();
        assert_eq!(rels.len(), 2);
        assert_eq!(acqs.len(), 2);
        assert!(rels.iter().any(|s| s.field == "hdr"));
        assert!(rels.iter().any(|s| s.field == "word"));
    }

    #[test]
    fn max_live_counts_simultaneous_handles() {
        let ff = analyze_source(
            "<t>",
            "fn del(&self, ctx: &mut C) {\n\
                 let LlxOutcome::Linked(hg) = self.d.llx(ctx, gp) else { return; };\n\
                 let LlxOutcome::Linked(hp) = self.d.llx(ctx, p) else { self.d.unlink(ctx, hg); return; };\n\
                 let LlxOutcome::Linked(hl) = self.d.llx(ctx, l) else { self.d.unlink(ctx, hg); self.d.unlink(ctx, hp); return; };\n\
                 let LlxOutcome::Linked(hs) = self.d.llx(ctx, s) else { self.d.unlink(ctx, hg); self.d.unlink(ctx, hp); self.d.unlink(ctx, hl); return; };\n\
                 self.d.scx(ctx, p, vec![hg, hp, hl, hs], 0, gp, side, v);\n\
             }\n",
        );
        let f = &ff.functions[0];
        assert_eq!(f.max_live, 4, "{f:?}");
        assert!(f.uses_llx_family);
        assert_eq!(f.certified, 4 + HELP_TRANSIENT);
        assert!(f.leaks.is_empty(), "{:?}", f.leaks);
    }
}
