//! Pieces the workloads share: the ordered map they serve from, the
//! telemetry deltas, the seeded key streams, and the process's peak RSS.

use std::time::{Duration, Instant};

use nbsp_core::provider::Fig4Native;
use nbsp_core::Provider;
use nbsp_memsim::rng::SplitMix64;
use nbsp_serve::{ArrivalProcess, KeyDist, LoadGen};
use nbsp_structures::{ordmap_capacity, OrdMap, StructureError};
use nbsp_telemetry::{Event, EVENT_COUNT};

/// Capacity reserved up front for a run's per-window records. A log that
/// grew by doubling would reallocate at a point that depends on how many
/// windows the host's speed allowed, and move the peak RSS with it.
pub const MAX_WINDOWS: usize = 1 << 14;

/// Fewest windows a run makes, whatever `--seconds` says: three untraced
/// ones in a traced run.
const MIN_WINDOWS: u64 = 6;

/// The window loop every workload runs: calls `window(index, traced)` for
/// index 1, 2, … until `seconds` have passed. In a traced run every
/// second window is traced; the untraced ones between them give the
/// end-to-end figures and the baseline of `trace.overhead_frac`.
pub fn window_loop(seconds: f64, traced: bool, mut window: impl FnMut(u64, bool)) {
    let t0 = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut index = 0;
    while t0.elapsed() < budget || index < MIN_WINDOWS {
        index += 1;
        window(index, traced && index.is_multiple_of(2));
    }
}

/// The ordered map both map workloads run on: the registry's Figure-4
/// native entry, the provider the serving fabric defaults to.
pub type Map = OrdMap<<Fig4Native as Provider>::Var>;

/// Builds a map for `procs` processes with a record budget for `ops`
/// further insert/delete calls, prefilled with half of `0..key_space` in
/// seeded random order (a prefill in key order would degenerate the
/// unbalanced tree into a list). Returns the map and the prefill size.
pub fn build_map(procs: usize, key_space: u64, ops: usize, seed: u64) -> (Map, u64) {
    let env = Fig4Native::env(procs + 1).expect("native env is infallible");
    let mut tc = Fig4Native::thread_ctx(&env, procs);
    let mut ctx = Fig4Native::ctx(&mut tc);
    let mut keys: Vec<u64> = (0..key_space).collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.next_index(i + 1));
    }
    let prefill = key_space / 2;
    let map = OrdMap::new(
        procs,
        ordmap_capacity(prefill as usize + ops),
        || Fig4Native::var(&env, 0).expect("native var is infallible"),
        &mut ctx,
    );
    for &k in &keys[..prefill as usize] {
        let prev = map
            .insert(&mut ctx, 0, k, k + 1)
            .expect("prefill is within the record budget");
        assert!(prev.is_none(), "prefill keys are distinct");
    }
    (map, prefill)
}

/// The 2:1:1 insert/delete/get mix of the serving fabric's map cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapOp {
    /// Insert `key → key + 1`.
    Insert,
    /// Delete the key.
    Delete,
    /// Look the key up.
    Get,
}

impl MapOp {
    /// Draws one op kind from `rng`.
    pub fn draw(rng: &mut SplitMix64) -> MapOp {
        match rng.next_index(4) {
            0 | 1 => MapOp::Insert,
            2 => MapOp::Delete,
            _ => MapOp::Get,
        }
    }
}

/// One thread's map ledger: calls made and the effective ones among them.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ledger {
    /// Insert calls.
    pub inserts: u64,
    /// Inserts that added a new key.
    pub eff_inserts: u64,
    /// Delete calls.
    pub deletes: u64,
    /// Deletes that removed a key.
    pub eff_deletes: u64,
    /// Get calls.
    pub gets: u64,
    /// Gets that returned a value other than `key + 1`.
    pub bad_gets: u64,
    /// Calls that returned a `StructureError`.
    pub errors: u64,
}

impl Ledger {
    /// Runs one map call as process `p` and books its outcome.
    pub fn apply(&mut self, map: &Map, ctx: &mut nbsp_core::Native, p: usize, op: MapOp, key: u64) {
        let booked = |r: Result<Option<u64>, StructureError>, errors: &mut u64| match r {
            Ok(v) => Some(v),
            Err(_) => {
                *errors += 1;
                None
            }
        };
        match op {
            MapOp::Insert => {
                self.inserts += 1;
                if let Some(None) = booked(map.insert(ctx, p, key, key + 1), &mut self.errors) {
                    self.eff_inserts += 1;
                }
            }
            MapOp::Delete => {
                self.deletes += 1;
                if let Some(Some(_)) = booked(map.delete(ctx, p, key), &mut self.errors) {
                    self.eff_deletes += 1;
                }
            }
            MapOp::Get => {
                self.gets += 1;
                if map.get(ctx, key).is_some_and(|v| v != key + 1) {
                    self.bad_gets += 1;
                }
            }
        }
    }

    /// Adds another ledger's counts.
    pub fn add(&mut self, o: &Ledger) {
        self.inserts += o.inserts;
        self.eff_inserts += o.eff_inserts;
        self.deletes += o.deletes;
        self.eff_deletes += o.eff_deletes;
        self.gets += o.gets;
        self.bad_gets += o.bad_gets;
        self.errors += o.errors;
    }

    /// Map calls made.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.inserts + self.deletes + self.gets
    }
}

/// The output check shared by both map workloads: conservation (prefill
/// plus effective inserts minus effective deletes equals the final size),
/// a strictly sorted final snapshot holding `key + 1` under every key,
/// and no wrong read. Returns a description of the first failure.
pub fn check_map(map: &Map, prefill: u64, ledger: &Ledger) -> Result<(), String> {
    let mut ctx = nbsp_core::Native;
    let snap = map.snapshot(&mut ctx);
    let expect = prefill + ledger.eff_inserts - ledger.eff_deletes;
    if snap.len() as u64 != expect {
        return Err(format!(
            "ordmap conservation: {prefill} + {} - {} != final len {}",
            ledger.eff_inserts,
            ledger.eff_deletes,
            snap.len()
        ));
    }
    if snap.windows(2).any(|w| w[0].0 >= w[1].0) {
        return Err("ordmap snapshot is not strictly sorted".into());
    }
    if snap.iter().any(|&(k, v)| v != k + 1) {
        return Err("ordmap snapshot holds a value that was never written".into());
    }
    if ledger.bad_gets > 0 {
        return Err(format!(
            "{} gets returned a value never written",
            ledger.bad_gets
        ));
    }
    Ok(())
}

/// `n` seeded Zipf keys over `0..space` with their op kinds, drawn from
/// the serving crate's keyed generator (its arrival times are unused).
pub fn zipf_ops(seed: u64, space: u64, n: usize) -> Vec<(MapOp, u64)> {
    let mut gen = LoadGen::new_keyed(
        seed,
        ArrivalProcess::Poisson { rate_per_sec: 1e6 },
        1.0,
        KeyDist::Zipf { space },
    );
    let mut kinds = SplitMix64::new(seed ^ 0x0005_eed0_f0b5);
    (0..n)
        .map(|_| (MapOp::draw(&mut kinds), gen.next_request().key))
        .collect()
}

/// Per-operation rate of `event` between two quiescent readings.
#[must_use]
pub fn per_op(
    before: &[u64; EVENT_COUNT],
    after: &[u64; EVENT_COUNT],
    event: Event,
    ops: u64,
) -> f64 {
    let d = after[event.index()] - before[event.index()];
    if ops == 0 {
        0.0
    } else {
        d as f64 / ops as f64
    }
}

/// The telemetry events reported as per-op ratios, with their metric names.
pub const TELEMETRY_RATIOS: [(&str, Event); 6] = [
    ("llx.help_per_op", Event::LlxHelp),
    ("llx.scx_abort_per_op", Event::ScxAbort),
    ("llsc.sc_fail_per_op", Event::ScFail),
    ("llsc.ll_restart_per_op", Event::LlRestart),
    ("llsc.help_given_per_op", Event::HelpGiven),
    ("backoff.saturated_per_op", Event::BackoffSaturated),
];

/// Peak resident set size of this process (`VmHWM`), in MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nanoseconds since `t0`.
#[inline]
#[must_use]
pub fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}
