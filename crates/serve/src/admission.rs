//! Wait-free-per-decision admission control: a token bucket in one LL/SC
//! word.
//!
//! A classic token bucket needs two pieces of state — the current token
//! count and the time of the last refill — and the textbook
//! implementation guards them with a lock. Here the *whole* state is
//! packed into a single [`CasLlSc`] word ([`TokenBucket::LAYOUT`]:
//! 16 tag bits, then 32 bits of refill stamp, then 16 bits of tokens), so
//! an admit/shed decision is one LL–SC sequence:
//!
//! * **admit** — LL the word, fold the elapsed refill periods into the
//!   token count, and SC back `(tokens - 1, max(stamp, now))`. SC success
//!   *is* the linearization point of spending the token: two concurrent
//!   admits can both LL the same state, but only one SC lands, so a token
//!   can never be spent twice (the unit tests pin this down with real
//!   threads).
//! * **shed** — when the refilled count is zero there is nothing to write;
//!   the decision linearizes at a VL that confirms the LLed state was
//!   still current. A failed VL (or SC) retries; a retry implies another
//!   decision landed, so decisions as a whole are lock-free, and each
//!   retry re-reads the clock-derived stamp rather than reusing a stale
//!   one.
//!
//! Refills are integral: one token per `period_ns = 1e9 / rate` of the
//! caller-supplied (virtual) clock, credited as `now_period - stamp`
//! whole periods and capped at the burst size. Everything is integer
//! arithmetic on the caller's timestamps, so a seeded virtual-time run
//! makes identical decisions on every host.
//!
//! Outcomes are recorded as [`Event::ServeAdmit`] / [`Event::ServeShed`]
//! in `nbsp-telemetry` (stubbed out when the `telemetry` feature is off).

use nbsp_core::{Backoff, CachePadded, CasLlSc, Keep, Native, TagLayout};
use nbsp_telemetry::{record, Event};

/// Bits of the word devoted to the token count.
const TOKEN_BITS: u32 = 16;

/// Bits of the word devoted to the refill stamp (whole periods since
/// virtual time zero).
const STAMP_BITS: u32 = 32;

/// Largest burst size a bucket word can hold.
pub const MAX_BURST: u64 = (1 << TOKEN_BITS) - 1;

/// Largest representable refill stamp; later periods saturate here (at a
/// 1 µs refill period that is over an hour of virtual time, far beyond
/// any run).
const MAX_STAMP: u64 = (1 << STAMP_BITS) - 1;

/// Admission parameters for a serving cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdmissionConfig {
    /// Sustained admitted rate: tokens refilled per virtual second.
    pub rate_per_sec: f64,
    /// Bucket depth: how large an arrival burst is absorbed without
    /// shedding. At most [`MAX_BURST`].
    pub burst: u64,
}

/// The single-word token bucket. See the module docs for the protocol.
#[derive(Debug)]
pub struct TokenBucket {
    /// `(stamp << TOKEN_BITS) | tokens`, behind 16 tag bits.
    state: CachePadded<CasLlSc<Native>>,
    period_ns: u64,
    burst: u64,
}

impl TokenBucket {
    /// The word layout: 16 tag bits leave 48 value bits, split
    /// stamp-over-tokens.
    pub const LAYOUT: (u32, u32) = (STAMP_BITS, TOKEN_BITS);

    /// Creates a bucket that refills at `rate_per_sec` tokens per virtual
    /// second and starts full at `burst` tokens.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive or `burst` is zero or exceeds
    /// [`MAX_BURST`].
    #[must_use]
    pub fn new(rate_per_sec: f64, burst: u64) -> Self {
        assert!(rate_per_sec > 0.0, "refill rate must be positive");
        assert!(
            burst > 0 && burst <= MAX_BURST,
            "burst must be in 1..={MAX_BURST}"
        );
        let layout = TagLayout::new(16, STAMP_BITS + TOKEN_BITS).unwrap();
        // Integer period: the effective rate is 1e9 / round(1e9 / rate),
        // within one part in period_ns of the request.
        let period_ns = ((1e9 / rate_per_sec).round() as u64).max(1);
        TokenBucket {
            state: CachePadded::new(CasLlSc::new_native(layout, pack(0, burst)).unwrap()),
            period_ns,
            burst,
        }
    }

    /// Creates a bucket from an [`AdmissionConfig`].
    #[must_use]
    pub fn from_config(cfg: AdmissionConfig) -> Self {
        TokenBucket::new(cfg.rate_per_sec, cfg.burst)
    }

    /// The integral refill period in virtual nanoseconds.
    #[must_use]
    pub fn period_ns(&self) -> u64 {
        self.period_ns
    }

    /// The bucket depth.
    #[must_use]
    pub fn burst(&self) -> u64 {
        self.burst
    }

    /// Decides one request arriving at virtual time `now_ns`: `true` to
    /// admit (a token was spent by a successful SC), `false` to shed (the
    /// bucket was confirmed empty at this arrival time).
    ///
    /// Callers must feed a non-decreasing clock per run; admissions with
    /// out-of-order timestamps stay safe (the stamp only moves forward)
    /// but may shed conservatively.
    pub fn admit(&self, now_ns: u64) -> bool {
        let mem = Native;
        let mut keep = Keep::default();
        let mut backoff = Backoff::new();
        let now_period = (now_ns / self.period_ns).min(MAX_STAMP);
        loop {
            let word = self.state.ll(&mem, &mut keep);
            let (stamp, tokens) = unpack(word);
            let refilled = tokens
                .saturating_add(now_period.saturating_sub(stamp))
                .min(self.burst);
            if refilled == 0 {
                // Nothing to spend and nothing to update. Linearize the
                // shed at a VL confirming the LLed state is still current.
                if self.state.vl(&mem, &keep) {
                    record(Event::ServeShed);
                    return false;
                }
            } else {
                let new = pack(stamp.max(now_period), refilled - 1);
                if self.state.sc(&mem, &keep, new) {
                    record(Event::ServeAdmit);
                    return true;
                }
            }
            backoff.spin();
        }
    }

    /// The token count an admit at `now_ns` would see before spending
    /// (a sequence-free read; for tests and reports).
    #[must_use]
    pub fn tokens_at(&self, now_ns: u64) -> u64 {
        let (stamp, tokens) = unpack(self.state.read(&Native));
        let now_period = (now_ns / self.period_ns).min(MAX_STAMP);
        tokens
            .saturating_add(now_period.saturating_sub(stamp))
            .min(self.burst)
    }
}

fn pack(stamp: u64, tokens: u64) -> u64 {
    debug_assert!(stamp <= MAX_STAMP && tokens <= MAX_BURST);
    (stamp << TOKEN_BITS) | tokens
}

fn unpack(word: u64) -> (u64, u64) {
    (word >> TOKEN_BITS, word & MAX_BURST)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_starvation_then_refill() {
        // 1 token per µs, depth 4.
        let b = TokenBucket::new(1e6 / 1e3, 4);
        assert_eq!(b.period_ns(), 1_000_000);
        // An aligned burst drains the initial depth...
        for _ in 0..4 {
            assert!(b.admit(0));
        }
        // ...then sheds until a full period has elapsed.
        assert!(!b.admit(0));
        assert!(!b.admit(999_999));
        assert!(b.admit(1_000_000));
        assert!(!b.admit(1_000_001));
    }

    #[test]
    fn refill_is_monotone_and_capped_at_burst() {
        let b = TokenBucket::new(1e9, 8); // 1 token per ns, depth 8
        for _ in 0..8 {
            assert!(b.admit(0));
        }
        assert_eq!(b.tokens_at(0), 0);
        // tokens_at never decreases along a forward clock and never
        // exceeds the burst, no matter how long the idle gap.
        let mut last = 0;
        for now in [1, 2, 5, 6, 1_000, 1_000_000] {
            let t = b.tokens_at(now);
            assert!(t >= last, "refill must be monotone");
            assert!(t <= 8, "refill must cap at burst");
            last = t;
        }
        assert_eq!(b.tokens_at(1_000_000), 8);
    }

    #[test]
    fn out_of_order_clock_is_safe() {
        let b = TokenBucket::new(1e6, 2);
        // The stamp moves to 10 periods.
        assert!(b.admit(10_000_000));
        // An earlier timestamp cannot mint tokens or rewind the stamp.
        assert!(b.admit(0)); // spends the remaining initial token
        assert!(!b.admit(0));
        assert!(b.admit(11_000_000)); // one period after the stamp
    }

    #[test]
    fn steady_rate_admits_about_rate_times_time() {
        // Offer 2x the sustained rate for 10ms; roughly half sheds.
        let b = TokenBucket::new(1e6, 10); // 1 token per µs
        let mut admitted = 0u64;
        let mut now = 0u64;
        for _ in 0..20_000 {
            now += 500; // 2e6 arrivals/s
            if b.admit(now) {
                admitted += 1;
            }
        }
        // 10ms at 1e6 tokens/s = 10_000 tokens (+ the 10-deep burst).
        assert!(
            (9_900..=10_010).contains(&admitted),
            "admitted {admitted}, want ~10_000"
        );
    }

    #[test]
    fn no_double_spend_under_concurrent_admits() {
        // Fixed clock => no refill: exactly `burst` tokens exist. Any
        // double spend of a token (two admits linearized on one SC-worth
        // of state) would show up as admitted > burst; any lost token as
        // admitted < burst.
        const BURST: u64 = 100;
        const THREADS: usize = 8;
        const TRIES: u64 = 1_000;
        let b = TokenBucket::new(1.0, BURST); // ~1 token/s: no refill below
        let admitted = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    let mut mine = 0u64;
                    for _ in 0..TRIES {
                        if b.admit(0) {
                            mine += 1;
                        }
                    }
                    admitted.fetch_add(mine, std::sync::atomic::Ordering::Relaxed);
                });
            }
        });
        assert_eq!(admitted.load(std::sync::atomic::Ordering::Relaxed), BURST);
    }

    #[test]
    fn decisions_are_deterministic_for_a_fixed_arrival_sequence() {
        let run = || {
            let b = TokenBucket::new(3.7e6, 16);
            let mut out = Vec::new();
            let mut now = 0u64;
            for i in 0..5_000u64 {
                now += 150 + (i * 37) % 300;
                out.push(b.admit(now));
            }
            out
        };
        assert_eq!(run(), run());
    }
}
