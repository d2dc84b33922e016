//! The single-ring cell's bounded single-producer multi-consumer
//! dispatch ring.
//!
//! The load generator is one thread, so the ring needs exactly SPMC.
//! [`SpmcRing`] is a [`ShardRing`] over two [`CasLlSc`] cursors plus a
//! claim-once [`Producer`] handle that enforces the single writer: a
//! push is *wait-free* (the tail's tag cannot move between the
//! producer's LL and SC), and a pop is *lock-free* (a failed SC means
//! another consumer's claim landed). [`ShardRing`] documents the
//! protocol and its correctness argument.

use std::sync::atomic::{AtomicBool, Ordering};

use nbsp_core::{Backoff, CasLlSc, Native, TagLayout};

use crate::fabric::ShardRing;
use crate::loadgen::Request;

/// The bounded SPMC dispatch ring. See the module docs for the protocol.
#[derive(Debug)]
pub struct SpmcRing {
    ring: ShardRing<CasLlSc<Native>>,
    /// Enforces the single-producer contract at runtime.
    producer_claimed: AtomicBool,
}

/// The unique producer handle of a ring (see [`SpmcRing::producer`]).
/// Holding it is what makes `push`'s SC unable to fail; the type is
/// deliberately neither `Clone` nor constructible elsewhere.
#[derive(Debug)]
pub struct Producer<'a> {
    ring: &'a ShardRing<CasLlSc<Native>>,
}

impl SpmcRing {
    /// Creates an empty ring with room for `capacity` in-flight requests.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity` is a power of two no larger than 2^31.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let cursor = || CasLlSc::new_native(TagLayout::half(), 0).unwrap();
        SpmcRing {
            ring: ShardRing::new(capacity, cursor(), cursor()),
            producer_claimed: AtomicBool::new(false),
        }
    }

    /// Number of requests the ring can hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Claims the ring's unique producer handle.
    ///
    /// # Panics
    ///
    /// Panics if called a second time: the wait-freedom of `push` rests on
    /// the tail having exactly one writer.
    #[must_use]
    pub fn producer(&self) -> Producer<'_> {
        assert!(
            !self.producer_claimed.swap(true, Ordering::Relaxed),
            "SpmcRing::producer may only be claimed once"
        );
        Producer { ring: &self.ring }
    }

    /// Requests in flight (racy: the two cursors are read independently).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len(&mut Native)
    }

    /// Whether the ring was empty at the time of the (racy) reads.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Claims the request at the head, or `None` if the ring was observed
    /// empty. Lock-free: retries only when another consumer's claim landed.
    pub fn try_pop(&self) -> Option<Request> {
        self.ring.try_pop(&mut Native)
    }
}

impl Producer<'_> {
    /// Appends `r` if the ring has room; `false` (without side effects) if
    /// it was full. Wait-free: one LL, one SC that cannot fail.
    pub fn try_push(&mut self, r: Request) -> bool {
        self.ring.try_push(&mut Native, r)
    }

    /// Appends `r`, spinning (with bounded backoff) while the ring is
    /// full. Open-loop semantics are unharmed: a stall here is producer
    /// real time, while latency is charged from the request's *intended*
    /// arrival stamp.
    pub fn push(&mut self, r: Request) {
        let mut backoff = Backoff::new();
        while !self.try_push(r) {
            backoff.spin();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn req(n: u64) -> Request {
        Request {
            arrival_ns: n,
            service_ns: 10 * n,
            key: n % 7,
        }
    }

    #[test]
    fn fifo_single_thread() {
        let ring = SpmcRing::new(4);
        let mut p = ring.producer();
        assert!(ring.try_pop().is_none());
        for n in 0..4 {
            assert!(p.try_push(req(n)));
        }
        assert!(!p.try_push(req(9)), "full at capacity");
        for n in 0..4 {
            assert_eq!(ring.try_pop(), Some(req(n)));
        }
        assert!(ring.try_pop().is_none());
        // Wrapped reuse keeps FIFO order.
        assert!(p.try_push(req(7)));
        assert_eq!(ring.try_pop(), Some(req(7)));
    }

    #[test]
    #[should_panic(expected = "claimed once")]
    fn second_producer_claim_panics() {
        let ring = SpmcRing::new(2);
        let _a = ring.producer();
        let _b = ring.producer();
    }

    /// On the two-slot ring every slot is rewritten about every other
    /// push, so a torn or stale slot read that slipped past the head SC
    /// would pair one request's fields with another's.
    #[test]
    fn every_request_consumed_exactly_once() {
        const N: u64 = 20_000;
        for (capacity, consumers) in [(64, 4), (2, 3)] {
            let ring = SpmcRing::new(capacity);
            let popped = AtomicU64::new(0);
            let sum = AtomicU64::new(0);
            std::thread::scope(|s| {
                for _ in 0..consumers {
                    s.spawn(|| {
                        while popped.load(Ordering::Relaxed) < N {
                            if let Some(r) = ring.try_pop() {
                                assert_eq!(r, req(r.arrival_ns), "torn slot");
                                sum.fetch_add(r.arrival_ns, Ordering::Relaxed);
                                popped.fetch_add(1, Ordering::Relaxed);
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                    });
                }
                let mut p = ring.producer();
                for n in 1..=N {
                    p.push(req(n));
                }
            });
            assert_eq!(popped.load(Ordering::Relaxed), N);
            // Each value claimed exactly once <=> the sum is exact.
            assert_eq!(sum.load(Ordering::Relaxed), N * (N + 1) / 2);
        }
    }
}
