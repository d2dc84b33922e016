//! Deterministic open-loop load generation on a virtual-time clock.
//!
//! The generator produces a stream of [`Request`]s, each stamped with its
//! **intended arrival time** in virtual nanoseconds — the time the
//! request *would* have arrived at an ideal open-loop client, computed
//! purely from the seeded arrival process and never from how fast the
//! system is draining. Measuring sojourn time against this stamp is what
//! keeps the harness free of coordinated omission: if the system falls
//! behind, the backlog shows up as latency instead of silently stretching
//! the arrival process.
//!
//! Two arrival processes cover the interesting regimes:
//!
//! * [`ArrivalProcess::Poisson`] — exponential inter-arrival times, the
//!   memoryless baseline of open-loop benchmarking;
//! * [`ArrivalProcess::OnOff`] — a bursty two-state process (exponential
//!   ON periods at a high rate, silent OFF periods), the classic model
//!   for flash-crowd traffic that stresses admission control.
//!
//! Service demands are drawn from a shifted-exponential distribution so
//! the virtual queue model sees realistic variance. Everything flows
//! from one [`SplitMix64`] stream: same seed ⇒ identical request
//! sequence, on every platform the same floating-point libm runs on (the
//! determinism tests compare two in-process runs, which is exact).

use nbsp_memsim::rng::SplitMix64;

/// One generated request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Intended arrival time, virtual nanoseconds since run start. A
    /// request pushed into a [`ShardRing`](crate::ShardRing) must arrive
    /// before 2^56 ns (about 2.3 years): the ring keeps a lap stamp in
    /// the word's top byte, and its push panics otherwise.
    pub arrival_ns: u64,
    /// Seeded service demand in virtual nanoseconds (how long one
    /// virtual worker is occupied executing it).
    pub service_ns: u64,
    /// The key the request operates on (keyed workloads route by it;
    /// unkeyed streams carry 0).
    pub key: u64,
}

/// The key distribution of a keyed request stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyDist {
    /// Every key in `0..space` equally likely.
    Uniform {
        /// Size of the key space.
        space: u64,
    },
    /// Zipf(1) over `0..space`: key `k` with probability ∝ `1/(k+1)` —
    /// the classic skewed-popularity model, concentrating traffic (and
    /// hence SCX conflicts) on a few hot keys.
    Zipf {
        /// Size of the key space.
        space: u64,
    },
}

impl KeyDist {
    /// Stable name for reports and the JSON schema.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KeyDist::Uniform { .. } => "uniform",
            KeyDist::Zipf { .. } => "zipf",
        }
    }
}

/// Samples keys from a [`KeyDist`] on its **own** SplitMix64 stream, so
/// adding keys to a cell never perturbs the arrival/service stream — an
/// unkeyed cell's requests stay byte-identical to pre-key builds.
#[derive(Clone, Debug)]
struct KeySampler {
    rng: SplitMix64,
    dist: KeyDist,
    /// Cumulative Zipf probabilities (empty for uniform): `cdf[k]` =
    /// P(key ≤ k), normalized to end at 1.0.
    cdf: Vec<f64>,
}

impl KeySampler {
    fn new(seed: u64, dist: KeyDist) -> Self {
        let space = match dist {
            KeyDist::Uniform { space } | KeyDist::Zipf { space } => space,
        };
        assert!(space > 0, "key space must be positive");
        let cdf = match dist {
            KeyDist::Uniform { .. } => Vec::new(),
            KeyDist::Zipf { space } => {
                assert!(
                    space <= 1 << 20,
                    "Zipf CDF table is precomputed; cap the key space"
                );
                let mut acc = 0.0f64;
                let mut cdf: Vec<f64> = (0..space)
                    .map(|k| {
                        acc += 1.0 / (k + 1) as f64;
                        acc
                    })
                    .collect();
                for c in &mut cdf {
                    *c /= acc;
                }
                cdf
            }
        };
        KeySampler {
            // Decorrelate from the arrival stream's seed (golden-ratio
            // offset, the SplitMix64 stream-splitting constant).
            rng: SplitMix64::new(seed ^ 0x9e37_79b9_7f4a_7c15),
            dist,
            cdf,
        }
    }

    fn next_key(&mut self) -> u64 {
        match self.dist {
            KeyDist::Uniform { space } => self.rng.next_below(space),
            KeyDist::Zipf { .. } => {
                let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                self.cdf.partition_point(|&c| c <= u) as u64
            }
        }
    }
}

/// The arrival process driving a [`LoadGen`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals: i.i.d. exponential inter-arrival times with the
    /// given mean rate (requests per virtual second).
    Poisson {
        /// Mean arrival rate, requests per virtual second.
        rate_per_sec: f64,
    },
    /// Bursty ON/OFF arrivals: during an ON period requests arrive as a
    /// Poisson stream at `on_rate_per_sec`; OFF periods are silent. Both
    /// period lengths are exponentially distributed. The long-run mean
    /// rate is `on_rate * on_mean / (on_mean + off_mean)`.
    OnOff {
        /// Arrival rate inside an ON burst, requests per virtual second.
        on_rate_per_sec: f64,
        /// Mean ON-period length in virtual nanoseconds.
        on_mean_ns: f64,
        /// Mean OFF-period length in virtual nanoseconds.
        off_mean_ns: f64,
    },
}

impl ArrivalProcess {
    /// The process's long-run mean rate in requests per virtual second.
    #[must_use]
    pub fn mean_rate_per_sec(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_sec } => rate_per_sec,
            ArrivalProcess::OnOff {
                on_rate_per_sec,
                on_mean_ns,
                off_mean_ns,
            } => on_rate_per_sec * on_mean_ns / (on_mean_ns + off_mean_ns),
        }
    }

    /// Stable name for reports and the JSON schema.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::OnOff { .. } => "onoff",
        }
    }
}

/// Draws an exponential variate with the given mean from `rng`.
///
/// Uses inversion on a `(0, 1]` uniform (the complement of the `[0, 1)`
/// mantissa draw, so `ln` never sees zero).
fn exponential(rng: &mut SplitMix64, mean: f64) -> f64 {
    // 53 uniform mantissa bits; u ∈ (0, 1].
    let u = ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
    -mean * u.ln()
}

/// The deterministic request generator: an iterator over [`Request`]s in
/// intended-arrival order.
#[derive(Clone, Debug)]
pub struct LoadGen {
    rng: SplitMix64,
    process: ArrivalProcess,
    /// Mean service demand in virtual nanoseconds.
    service_mean_ns: f64,
    /// Virtual clock: the last intended arrival time issued.
    now_ns: f64,
    /// For [`ArrivalProcess::OnOff`]: the virtual time at which the
    /// current ON period ends (arrivals landing past it fast-forward
    /// through OFF periods).
    on_until_ns: f64,
    /// Key sampling for keyed workloads; `None` stamps every request
    /// with key 0.
    keys: Option<KeySampler>,
}

impl LoadGen {
    /// Creates a generator for `process` whose service demands have the
    /// given mean (shifted-exponential: `mean/2` deterministic floor plus
    /// an exponential tail of mean `mean/2`).
    ///
    /// # Panics
    ///
    /// Panics if the process rate or `service_mean_ns` is not positive.
    #[must_use]
    pub fn new(seed: u64, process: ArrivalProcess, service_mean_ns: f64) -> Self {
        assert!(
            process.mean_rate_per_sec() > 0.0,
            "arrival rate must be positive"
        );
        assert!(service_mean_ns > 0.0, "service mean must be positive");
        LoadGen {
            rng: SplitMix64::new(seed),
            process,
            service_mean_ns,
            now_ns: 0.0,
            on_until_ns: 0.0,
            keys: None,
        }
    }

    /// As [`LoadGen::new`], with every request additionally stamped with
    /// a key drawn from `dist`. Keys come from a separate seeded stream,
    /// so the arrival/service sequence is identical to the unkeyed
    /// generator's for the same seed.
    ///
    /// # Panics
    ///
    /// As [`LoadGen::new`]; also panics on a zero key space.
    #[must_use]
    pub fn new_keyed(
        seed: u64,
        process: ArrivalProcess,
        service_mean_ns: f64,
        dist: KeyDist,
    ) -> Self {
        let mut g = LoadGen::new(seed, process, service_mean_ns);
        g.keys = Some(KeySampler::new(seed, dist));
        g
    }

    /// The virtual time of the last generated arrival (ns).
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.now_ns as u64
    }

    /// Generates the next request (the stream is infinite).
    pub fn next_request(&mut self) -> Request {
        match self.process {
            ArrivalProcess::Poisson { rate_per_sec } => {
                self.now_ns += exponential(&mut self.rng, 1e9 / rate_per_sec);
            }
            ArrivalProcess::OnOff {
                on_rate_per_sec,
                on_mean_ns,
                off_mean_ns,
            } => {
                self.now_ns += exponential(&mut self.rng, 1e9 / on_rate_per_sec);
                // Fast-forward through as many OFF periods as the gap
                // spans; the overshoot past an ON period's end carries
                // into the next ON period.
                while self.now_ns > self.on_until_ns {
                    let overshoot = self.now_ns - self.on_until_ns;
                    let off = exponential(&mut self.rng, off_mean_ns);
                    let on = exponential(&mut self.rng, on_mean_ns);
                    self.now_ns = self.on_until_ns + off + overshoot;
                    self.on_until_ns = self.now_ns - overshoot + on;
                }
            }
        }
        let service =
            self.service_mean_ns / 2.0 + exponential(&mut self.rng, self.service_mean_ns / 2.0);
        Request {
            arrival_ns: self.now_ns as u64,
            service_ns: service as u64,
            key: self.keys.as_mut().map_or(0, KeySampler::next_key),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let p = ArrivalProcess::Poisson { rate_per_sec: 1e6 };
        let mut a = LoadGen::new(42, p, 800.0);
        let mut b = LoadGen::new(42, p, 800.0);
        for _ in 0..1000 {
            assert_eq!(a.next_request(), b.next_request());
        }
    }

    #[test]
    fn arrivals_are_monotonic_and_rate_is_roughly_right() {
        let mut g = LoadGen::new(7, ArrivalProcess::Poisson { rate_per_sec: 1e6 }, 500.0);
        let n = 100_000;
        let mut last = 0;
        for _ in 0..n {
            let r = g.next_request();
            assert!(r.arrival_ns >= last, "arrivals must be non-decreasing");
            last = r.arrival_ns;
        }
        // 1e6/s for 1e5 arrivals ⇒ ~1e5 µs ⇒ ~1e11/1000 ns. ±10%.
        let expect = 1e9 / 1e6 * n as f64;
        let got = last as f64;
        assert!((got / expect - 1.0).abs() < 0.1, "span {got} vs {expect}");
    }

    #[test]
    fn service_demand_has_floor_and_roughly_the_mean() {
        let mut g = LoadGen::new(3, ArrivalProcess::Poisson { rate_per_sec: 1e6 }, 1000.0);
        let n = 50_000u64;
        let mut sum = 0u64;
        for _ in 0..n {
            let r = g.next_request();
            assert!(r.service_ns >= 500, "shifted floor is mean/2");
            sum += r.service_ns;
        }
        let mean = sum as f64 / n as f64;
        assert!((mean / 1000.0 - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn onoff_long_run_rate_matches_formula() {
        let p = ArrivalProcess::OnOff {
            on_rate_per_sec: 4e6,
            on_mean_ns: 50_000.0,
            off_mean_ns: 150_000.0,
        };
        assert!((p.mean_rate_per_sec() - 1e6).abs() < 1.0);
        let mut g = LoadGen::new(11, p, 500.0);
        let n = 200_000;
        let mut last = 0;
        for _ in 0..n {
            last = g.next_request().arrival_ns;
        }
        let got_rate = n as f64 / (last as f64 / 1e9);
        // Bursty processes converge slower; ±15%.
        assert!(
            (got_rate / 1e6 - 1.0).abs() < 0.15,
            "long-run rate {got_rate}"
        );
    }

    #[test]
    fn keys_never_perturb_the_arrival_stream() {
        let p = ArrivalProcess::Poisson { rate_per_sec: 1e6 };
        let mut plain = LoadGen::new(42, p, 800.0);
        let mut keyed = LoadGen::new_keyed(42, p, 800.0, KeyDist::Uniform { space: 64 });
        for _ in 0..1000 {
            let a = plain.next_request();
            let b = keyed.next_request();
            assert_eq!(a.arrival_ns, b.arrival_ns);
            assert_eq!(a.service_ns, b.service_ns);
            assert_eq!(a.key, 0, "unkeyed streams carry key 0");
            assert!(b.key < 64);
        }
    }

    #[test]
    fn zipf_concentrates_on_the_hot_keys() {
        let p = ArrivalProcess::Poisson { rate_per_sec: 1e6 };
        let space = 256u64;
        let mut g = LoadGen::new_keyed(7, p, 800.0, KeyDist::Zipf { space });
        let n = 50_000;
        let mut counts = vec![0u64; space as usize];
        for _ in 0..n {
            counts[g.next_request().key as usize] += 1;
        }
        // P(key 0) = 1/H(256) ≈ 0.163; uniform would give 1/256.
        let hot = counts[0] as f64 / n as f64;
        assert!(hot > 0.12, "key 0 carried only {hot} of the traffic");
        assert!(
            counts[0] > 10 * counts[space as usize / 2].max(1),
            "head/middle ratio too flat for Zipf"
        );
    }

    #[test]
    fn onoff_actually_bursts() {
        // Max gap must dwarf the in-burst median gap.
        let p = ArrivalProcess::OnOff {
            on_rate_per_sec: 4e6,
            on_mean_ns: 50_000.0,
            off_mean_ns: 150_000.0,
        };
        let mut g = LoadGen::new(13, p, 500.0);
        let mut gaps = Vec::new();
        let mut last = 0;
        for _ in 0..20_000 {
            let r = g.next_request();
            gaps.push(r.arrival_ns - last);
            last = r.arrival_ns;
        }
        gaps.sort_unstable();
        let median = gaps[gaps.len() / 2];
        let max = *gaps.last().unwrap();
        assert!(
            max > 100 * median,
            "no burst structure: median {median} max {max}"
        );
    }
}
