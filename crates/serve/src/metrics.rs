//! Per-cell serving metrics behind one Figure-6 wide variable.
//!
//! A serving cell reports a block of numbers that must be mutually
//! consistent — sojourn-time histogram buckets, admitted/shed/completed
//! (and, for the sharded fabric, steal/refill) counts — and the repo's
//! rule is that *no reported block may come from a racy sum*. So the
//! cell's aggregate state is one [`WideSum`] of [`CELL_WORDS`] words:
//! [`SOJOURN_BUCKETS`] log-linear latency buckets followed by the five
//! counters. Producers and workers accumulate privately in a
//! [`CellFlusher`] and publish whole deltas through the accumulator's
//! WLL → add → SC loop; [`CellSink::snapshot`] reads the whole block with
//! a **single WLL**, so by Theorem 4 every snapshot is a state the cell
//! actually passed through — `admitted + shed` can never be caught
//! mid-update, and the histogram total can never disagree with the count
//! of sojourns recorded at a flush boundary.
//!
//! Latency is bucketed in **log-linear** *virtual nanoseconds* (HDR
//! style): each power-of-two octave is divided into [`SUB_PER_OCTAVE`]
//! equal linear sub-buckets, so every bucket's width is at most 1/16 of
//! its value — ≤ 6.25% relative error everywhere. Pure log2 buckets
//! (the original scheme) doubled their width each octave, which
//! collapsed p95/p99/p999 of a heavy overload tail into one identical
//! number; the tail — not the mean — is what the p99/p999 columns of
//! `BENCH_serve.json` exist to show, and the E12 scaling gates compare
//! those tails across dispatch architectures. Percentiles
//! ([`percentile_ns`]) are resolved to a bucket's upper edge, a
//! deterministic pure function of the bucket counts (which a seeded run
//! makes byte-identical across hosts).

use nbsp_core::{Result, WideSum};

/// log2 of the linear sub-buckets per octave.
pub const SUB_BITS: u32 = 4;

/// Linear sub-buckets per power-of-two octave (16 ⇒ ≤ 6.25% relative
/// bucket width).
pub const SUB_PER_OCTAVE: usize = 1 << SUB_BITS;

/// First octave with linear subdivision: values `0..SUB_PER_OCTAVE` are
/// exact (bucket index == value).
const FIRST_OCTAVE: u32 = SUB_BITS;

/// log2 of the histogram's saturation point: values at or above
/// 2^30 ns (~1.07 virtual seconds) land in the single overflow bucket.
const LAST_OCTAVE: u32 = 30;

/// Number of log-linear sojourn-time buckets: the exact region
/// `0..=15`, [`SUB_PER_OCTAVE`] sub-buckets for each octave
/// `[2^o, 2^(o+1))` with `o` in `4..30`, and one overflow bucket for
/// everything from 2^30 ns up.
pub const SOJOURN_BUCKETS: usize =
    SUB_PER_OCTAVE + (LAST_OCTAVE - FIRST_OCTAVE) as usize * SUB_PER_OCTAVE + 1;

/// Words per cell block: the histogram plus five counters.
pub const CELL_WORDS: usize = SOJOURN_BUCKETS + 5;

const W_ADMITTED: usize = SOJOURN_BUCKETS;
const W_SHED: usize = SOJOURN_BUCKETS + 1;
const W_COMPLETED: usize = SOJOURN_BUCKETS + 2;
const W_STEALS: usize = SOJOURN_BUCKETS + 3;
const W_REFILLS: usize = SOJOURN_BUCKETS + 4;

/// The log-linear bucket a sojourn time falls into: values below
/// [`SUB_PER_OCTAVE`] are their own bucket; a value in octave
/// `[2^o, 2^(o+1))` lands in the sub-bucket selected by its top
/// [`SUB_BITS`] bits below the leading one.
#[must_use]
pub fn sojourn_bucket(ns: u64) -> usize {
    if ns < SUB_PER_OCTAVE as u64 {
        return ns as usize;
    }
    let o = 63 - ns.leading_zeros();
    if o >= LAST_OCTAVE {
        return SOJOURN_BUCKETS - 1;
    }
    let sub = ((ns - (1u64 << o)) >> (o - SUB_BITS)) as usize;
    SUB_PER_OCTAVE + (o - FIRST_OCTAVE) as usize * SUB_PER_OCTAVE + sub
}

/// Upper edge of bucket `b` in nanoseconds (the value [`percentile_ns`]
/// reports for a rank landing in `b`; the open-ended overflow bucket
/// reports its lower edge's double, as an "at least this" saturation
/// marker).
#[must_use]
pub fn bucket_upper_ns(b: usize) -> u64 {
    assert!(b < SOJOURN_BUCKETS);
    if b < SUB_PER_OCTAVE {
        return b as u64;
    }
    if b == SOJOURN_BUCKETS - 1 {
        return (1u64 << (LAST_OCTAVE + 1)) - 1;
    }
    let rel = b - SUB_PER_OCTAVE;
    let o = FIRST_OCTAVE + (rel / SUB_PER_OCTAVE) as u32;
    let sub = (rel % SUB_PER_OCTAVE) as u64;
    (1u64 << o) + (sub + 1) * (1u64 << (o - SUB_BITS)) - 1
}

/// The `q`-quantile (`0 < q <= 1`) of a bucketed sojourn distribution,
/// resolved to the containing bucket's upper edge. Returns 0 for an empty
/// histogram.
#[must_use]
pub fn percentile_ns(buckets: &[u64; SOJOURN_BUCKETS], q: f64) -> u64 {
    assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    // ceil(q * total) in integer arithmetic would overflow for huge
    // totals; the float form is exact for any count a run can produce.
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (b, &n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return bucket_upper_ns(b);
        }
    }
    bucket_upper_ns(SOJOURN_BUCKETS - 1)
}

/// One consistent reading of a cell's aggregate block (decoded from a
/// single-WLL snapshot of the wide variable).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellSnapshot {
    /// Log-linear histogram of sojourn time (completion − intended
    /// arrival).
    pub sojourn_ns: [u64; SOJOURN_BUCKETS],
    /// Requests the admission controller let through (all requests, when
    /// a cell runs without admission control).
    pub admitted: u64,
    /// Requests shed at their intended arrival time.
    pub shed: u64,
    /// Requests whose real structure operation finished on a worker.
    pub completed: u64,
    /// Committed work steals (fabric cells; zero on the single ring).
    pub steals: u64,
    /// Batch refills of a local admission sub-bucket from the global
    /// bucket (fabric cells; zero on the single ring).
    pub refills: u64,
}

impl CellSnapshot {
    /// Total requests generated: every request is either admitted or
    /// shed, and this invariant holds in *every* snapshot because both
    /// counters arrive through atomic whole-delta flushes.
    #[must_use]
    pub fn generated(&self) -> u64 {
        self.admitted + self.shed
    }

    /// Observations currently in the sojourn histogram.
    #[must_use]
    pub fn sojourns(&self) -> u64 {
        self.sojourn_ns.iter().sum()
    }

    /// The `q`-quantile of the sojourn distribution (bucket upper edge).
    #[must_use]
    pub fn percentile_ns(&self, q: f64) -> u64 {
        percentile_ns(&self.sojourn_ns, q)
    }
}

/// The cell's aggregate block: a [`CELL_WORDS`]-word Figure-6 variable.
#[derive(Debug)]
pub struct CellSink {
    sum: WideSum<CELL_WORDS>,
}

impl CellSink {
    /// Creates a zeroed sink for up to `max_procs` concurrently flushing
    /// threads (each must flush under a distinct slot in
    /// `0..max_procs`).
    ///
    /// # Errors
    ///
    /// Propagates [`nbsp_core::Error::InvalidDomain`] for
    /// `max_procs == 0`.
    pub fn new(max_procs: usize) -> Result<Self> {
        Ok(CellSink {
            sum: WideSum::new(max_procs)?,
        })
    }

    /// One consistent reading of the block: a **single WLL** (retried on
    /// interference), so all [`CELL_WORDS`] words are from the same
    /// linearization point (Theorem 4).
    #[must_use]
    pub fn snapshot(&self) -> CellSnapshot {
        let v = self.sum.read();
        CellSnapshot {
            sojourn_ns: std::array::from_fn(|b| v[b]),
            admitted: v[W_ADMITTED],
            shed: v[W_SHED],
            completed: v[W_COMPLETED],
            steals: v[W_STEALS],
            refills: v[W_REFILLS],
        }
    }
}

/// Private accumulation for one producing/working thread, flushed into a
/// [`CellSink`] in whole-delta units.
///
/// Unlike `nbsp_telemetry::Flusher`, which diffs the thread's row of the
/// telemetry matrix, this keeps its counts in the struct itself: its
/// flushes are exactly the values this thread recorded through it and
/// nothing else the thread did, which is what makes seeded runs
/// byte-identical. Its slot is the caller's (a worker index), not a
/// telemetry slot.
#[derive(Debug)]
pub struct CellFlusher {
    local: [u64; CELL_WORDS],
    slot: usize,
}

impl CellFlusher {
    /// A zeroed flusher publishing under `slot` (must be unique among the
    /// cell's concurrently flushing threads and below the sink's
    /// `max_procs`).
    #[must_use]
    pub fn new(slot: usize) -> Self {
        CellFlusher {
            local: [0; CELL_WORDS],
            slot,
        }
    }

    /// Records one admitted request.
    pub fn record_admit(&mut self) {
        self.local[W_ADMITTED] += 1;
    }

    /// Records one shed request.
    pub fn record_shed(&mut self) {
        self.local[W_SHED] += 1;
    }

    /// Records `n` completed structure operations.
    pub fn record_completed(&mut self, n: u64) {
        self.local[W_COMPLETED] += n;
    }

    /// Records one sojourn-time observation.
    pub fn record_sojourn(&mut self, ns: u64) {
        self.local[sojourn_bucket(ns)] += 1;
    }

    /// Records one committed steal (a batch transferred by one SC).
    pub fn record_steal(&mut self) {
        self.local[W_STEALS] += 1;
    }

    /// Records one batch refill of a local admission sub-bucket.
    pub fn record_refill(&mut self) {
        self.local[W_REFILLS] += 1;
    }

    /// Publishes the accumulated delta as one atomic update and zeroes
    /// the local state. Returns `true` if there was anything to publish.
    pub fn flush(&mut self, sink: &CellSink) -> bool {
        if self.local.iter().all(|&v| v == 0) {
            return false;
        }
        sink.sum.add(self.slot, &self.local);
        self.local = [0; CELL_WORDS];
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log_linear() {
        // Exact region: value == bucket.
        for v in 0..SUB_PER_OCTAVE as u64 {
            assert_eq!(sojourn_bucket(v), v as usize);
        }
        // First subdivided octave [16, 32): still one bucket per value.
        assert_eq!(sojourn_bucket(16), 16);
        assert_eq!(sojourn_bucket(31), 31);
        // Octave [1024, 2048) splits into 16 sub-buckets of width 64.
        assert_eq!(sojourn_bucket(1024), sojourn_bucket(1087));
        assert_ne!(sojourn_bucket(1024), sojourn_bucket(1088));
        // Distinct tail values that log2 buckets collapsed stay distinct.
        assert_ne!(sojourn_bucket(600_000), sojourn_bucket(900_000));
        assert_eq!(sojourn_bucket(u64::MAX), SOJOURN_BUCKETS - 1);
        assert_eq!(sojourn_bucket(1u64 << 30), SOJOURN_BUCKETS - 1);
    }

    #[test]
    fn bucket_edges_are_monotone_and_tight() {
        // Upper edges strictly increase, round-trip through the bucket
        // function, and bound the relative bucket width at 1/16.
        for b in 1..SOJOURN_BUCKETS {
            let lo = bucket_upper_ns(b - 1) + 1;
            let hi = bucket_upper_ns(b);
            assert!(hi >= lo, "bucket {b} is empty");
            assert_eq!(sojourn_bucket(hi), b, "upper edge of {b} round-trips");
            assert_eq!(sojourn_bucket(lo), b, "lower edge of {b} round-trips");
            if (SUB_PER_OCTAVE..SOJOURN_BUCKETS - 1).contains(&b) {
                let width = hi - lo + 1;
                assert!(
                    width as f64 / lo as f64 <= 1.0 / 16.0 + f64::EPSILON,
                    "bucket {b} width {width} too coarse for lower edge {lo}"
                );
            }
        }
    }

    #[test]
    fn percentiles_walk_the_cumulative_distribution() {
        let mut b = [0u64; SOJOURN_BUCKETS];
        b[sojourn_bucket(3)] = 50;
        b[sojourn_bucket(900)] = 49;
        b[sojourn_bucket(500_000)] = 1;
        assert_eq!(percentile_ns(&b, 0.5), bucket_upper_ns(sojourn_bucket(3)));
        assert_eq!(
            percentile_ns(&b, 0.95),
            bucket_upper_ns(sojourn_bucket(900))
        );
        assert_eq!(
            percentile_ns(&b, 0.999),
            bucket_upper_ns(sojourn_bucket(500_000))
        );
        assert_eq!(
            percentile_ns(&b, 1.0),
            bucket_upper_ns(sojourn_bucket(500_000))
        );
        assert_eq!(percentile_ns(&[0; SOJOURN_BUCKETS], 0.99), 0);
    }

    #[test]
    fn flush_publishes_whole_deltas_and_snapshot_decodes() {
        let sink = CellSink::new(2).unwrap();
        let mut f = CellFlusher::new(0);
        assert!(!f.flush(&sink), "nothing recorded yet");
        f.record_admit();
        f.record_admit();
        f.record_shed();
        f.record_sojourn(700);
        f.record_completed(2);
        f.record_steal();
        f.record_refill();
        assert!(f.flush(&sink));
        assert!(!f.flush(&sink), "already published");
        let s = sink.snapshot();
        assert_eq!(s.admitted, 2);
        assert_eq!(s.shed, 1);
        assert_eq!(s.completed, 2);
        assert_eq!(s.generated(), 3);
        assert_eq!(s.sojourns(), 1);
        assert_eq!(s.sojourn_ns[sojourn_bucket(700)], 1);
        assert_eq!(s.steals, 1);
        assert_eq!(s.refills, 1);
    }

    #[test]
    fn concurrent_flushes_never_tear_the_admit_shed_invariant() {
        // Each flush carries admitted + shed == 2; any snapshot must see
        // generated() a multiple of 2 and the histogram total equal to
        // the admitted count.
        let sink = CellSink::new(4).unwrap();
        std::thread::scope(|s| {
            for slot in 0..3 {
                s.spawn({
                    let sink = &sink;
                    move || {
                        let mut f = CellFlusher::new(slot);
                        for i in 0..2_000u64 {
                            f.record_admit();
                            f.record_sojourn(i % 4096);
                            f.record_shed();
                            f.flush(sink);
                        }
                    }
                });
            }
            let sink = &sink;
            s.spawn(move || {
                for _ in 0..2_000 {
                    let snap = sink.snapshot();
                    assert_eq!(snap.generated() % 2, 0, "torn admit/shed pair");
                    assert_eq!(snap.sojourns(), snap.admitted, "torn histogram");
                }
            });
        });
        let end = sink.snapshot();
        assert_eq!(end.admitted, 6_000);
        assert_eq!(end.shed, 6_000);
        assert_eq!(end.sojourns(), 6_000);
    }
}
