//! The fabric's mechanisms: dispatch rings with LL/SC work stealing, the
//! shard directory, and striped batch admission.
//!
//! A single shared ring funnels every request through one head cursor
//! and one token-bucket word. Those two words are exactly what E12's
//! scaling curve measures past a handful of workers: a claim on a cursor
//! with `W` contenders occupies it for `W ×`[`CLAIM_NS_PER_CONTENDER`]
//! (the dispatch-contention term of the virtual model), so the shared
//! ring's capacity *falls* as `1/W` while the worker pool's capacity
//! grows as `W`. The pieces below remove both bottlenecks using only the
//! registry's single-word LL/VL/SC primitives — no LLX/SCX-style
//! multi-word coordination — and the pipeline in [`crate::elastic`]
//! composes them:
//!
//! * **Dispatch rings** ([`ShardRing`]) — cursors as Figure-4-style LL/SC
//!   words behind the [`LlScVar`] trait, so the pipeline runs on any
//!   registry provider. The producer's push is wait-free on the native
//!   provider (it is the sole tail writer, so its SC only fails on a
//!   simulated spurious-RSC provider, which bounds the retry). A pop is
//!   one LL–SC on the head cursor, uncontended on a sharded ring until
//!   stealing begins, and never reads the tail: each slot carries the
//!   lap stamp of the cursor it was filled for, so the slot itself says
//!   whether it holds the head's request. A shared ring is the same ring
//!   popped by every worker.
//! * **Work stealing** ([`ShardRing::steal_into`]) — a worker whose ring
//!   runs dry picks a victim by seeded rotation and steals *half* the
//!   victim's queue, committed by a **single SC** on the victim's head
//!   cursor, so a request is executed exactly once, steal or no steal
//!   ([`ShardRing`] holds the protocol and its correctness argument).
//! * **Striped admission** ([`StripedBucket`]) — per-shard token words
//!   refilled in batches of `B` from one global Figure-6 wide bucket.
//!   The common admit path is one LL–SC on the shard's own word; the
//!   global `(stamp, tokens)` pair is touched once per `B` admissions
//!   (amortization: at admitted rate `λ` the global word sees `λ/B`
//!   traffic, and the stripes trade at most `W×B` tokens of burst slack
//!   for that factor). Withdrawals use WLL → SC on the wide pair, so
//!   refill accounting is never torn.
//! * **Shard directory** ([`Directory`]) — the active worker count is
//!   published through an LL/SC word as `(generation << 8) | workers`;
//!   every resize bumps the generation.
//!
//! The real thieves' committed steals are racy by nature and are
//! therefore reported only through `nbsp-telemetry`
//! ([`Event::ServeSteal`]), never in the byte-identical results block;
//! the deterministic `steals` count is the virtual model's. Real refills
//! are driven by the producer's virtual clock, so [`Event::ServeRefill`]
//! agrees exactly with the snapshot's `refills`.

use std::sync::atomic::{AtomicU64, Ordering};

use nbsp_core::wide::{WideDomain, WideKeep, WideVar};
use nbsp_core::{Backoff, CachePadded, LlScVar, Native};
use nbsp_memsim::ProcId;
use nbsp_telemetry::{record, Event};

use crate::admission::AdmissionConfig;
use crate::loadgen::Request;
use crate::service::CLAIM_NS_PER_CONTENDER;

/// Most requests one steal transfers. Bounds the thief's stack buffer
/// and the number of slot reads a single SC has to validate.
pub const STEAL_MAX: usize = 32;

/// Virtual cost of executing a request on a stolen-to server instead of
/// its home shard: the thief's LL–SC on the victim's head cursor plus
/// the cross-shard cache traffic for the moved slots, amortized per
/// request. Calibrated to a few contended-claim costs (see
/// [`CLAIM_NS_PER_CONTENDER`]).
pub const STEAL_NS: u64 = 4 * CLAIM_NS_PER_CONTENDER;

/// The keyed-dispatch rule: requests of a keyed workload go to the shard
/// owning their key, `hash(key) mod shards` (SplitMix64 finalizer — the
/// raw key would put Zipf's hot keys 0 and 1 on adjacent shards). Every
/// operation on one key executes on one shard's thread unless stolen, so
/// per-key conflicts concentrate where admission and the virtual model
/// account for them.
#[must_use]
pub fn shard_for_key(key: u64, shards: usize) -> usize {
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) % shards as u64) as usize
}

// ---------------------------------------------------------------------------
// Shard ring
// ---------------------------------------------------------------------------

/// One worker's bounded dispatch ring, generic over the registry's
/// LL/SC variable: one producer pushes; the owning worker pops and dry
/// peers steal, every claim committed by one SC on the head.
/// A shared ring is this ring popped by every worker, so the argument
/// below covers both dispatch kinds.
///
/// **Lap stamps.** A slot says itself whether it holds the request a
/// pop wants, as NB-FEB's full/empty bit lives in its word
/// (arXiv:0811.1304). The top byte of a slot's arrival word is the lap
/// stamp of the cursor it was filled for, `0x80 | ((cursor / cap) &
/// 0x7f)`, and the producer stores it last, with Release, before its
/// tail SC. A pop LLs the head `h`, loads slot `h` with Acquire and
/// claims it by the head SC only if the stamp is `h`'s. A pop never
/// reads the tail, so a handoff moves the slot's line to the worker
/// once and the tail's line stays with the producer. The top bit keeps
/// a fresh (all-zero) slot from ever matching.
///
/// **Head copy.** The tail's line also holds the producer's private
/// (Relaxed) copy of the head. A push LLs the tail and checks for room
/// against the copy; only when the copy says full does it read the real
/// head and refresh the copy. Cursors only advance, so the copy is a
/// lower bound and a stale one only makes the check conservative. Each
/// push or pop attempt runs one LL and one SC on its own cursor.
///
/// **Head ahead of tail.** A pop can claim a stamped request before the
/// producer's tail SC lands, so the head may pass the tail by one. Steals
/// read the real tail and, like [`ShardRing::len`], read a gap above
/// `cap` as empty. The producer's SC retry (on providers with spurious
/// failures) repeats LL → SC alone: its request may already be claimed,
/// so a room check against the real head could see it one ahead and
/// report a pushed request as "full".
///
/// **Validate-after-read.** Claims read slots between their LL and SC on
/// the head. The producer overwrites slot `h % cap` only once the tail
/// reaches `h + cap`, bounded by a head value it observed, so the head
/// must pass `h` first, and any head advance fails the reader's SC. A
/// successful SC thus proves every slot read belonged to one live,
/// unclaimed request, now claimed exclusively: never executed twice,
/// never lost.
///
/// **Wrapping cursors.** Cursors wrap modulo `M` (`max_val + 1`, capped
/// at 2^63 so values above the range can mean "no copy yet"), and every
/// comparison is a wrapping distance: the head copy counts only if
/// `(tail − copy) mod M < cap`. With `cap` a power of two `≤ M / 2`,
/// slot indices stay continuous across the wrap, no real distance
/// aliases, and laps run modulo `M / cap ≥ 2`. A slot a pop reads holds
/// the request for `h − cap`, `h` or (once the head has moved, failing
/// the SC) a later lap, and consecutive laps' stamps always differ, as
/// Figure 4's tag tells one SC from the last.
#[derive(Debug)]
pub struct ShardRing<V: LlScVar> {
    /// Claim cursor.
    head: CachePadded<V>,
    /// Publish cursor (single writer), and the producer's head copy.
    tail: CachePadded<Tail<V>>,
    /// Slot payloads, indexed by `cursor % capacity`. Plain atomics —
    /// the lap stamp and the head SC make a slot's fields consistent.
    slots: Box<[Slot]>,
    /// `M - 1`: cursor values wrap modulo `M`.
    wrap: u64,
}

/// The tail cursor and, on its line, the producer's copy of the head.
#[derive(Debug)]
struct Tail<V> {
    var: V,
    /// A past value of the head; [`UNSEEN`] until taken.
    seen: AtomicU64,
}

/// A head copy not yet taken: above every cursor range, never trusted.
const UNSEEN: u64 = u64::MAX;

/// Bit position of the lap stamp in a slot's arrival word.
const STAMP_SHIFT: u32 = 56;

/// One request's fields, stored together (24 B, at most two lines). The
/// arrival word's top byte is the lap stamp.
#[derive(Debug, Default)]
struct Slot {
    arrival: AtomicU64,
    service: AtomicU64,
    key: AtomicU64,
}

impl Slot {
    /// Fills the slot for the lap `stamp`: the stamped arrival word goes
    /// last, with Release, so a pop that sees the stamp sees the fields.
    fn store(&self, r: Request, stamp: u64) {
        self.service.store(r.service_ns, Ordering::Relaxed);
        self.key.store(r.key, Ordering::Relaxed);
        self.arrival
            .store(stamp << STAMP_SHIFT | r.arrival_ns, Ordering::Release);
    }

    /// The stamped arrival word; Acquire pairs with [`Slot::store`].
    fn stamped(&self) -> u64 {
        self.arrival.load(Ordering::Acquire)
    }

    /// The request whose stamped arrival word is `stamped`.
    fn request(&self, stamped: u64) -> Request {
        Request {
            arrival_ns: stamped & ((1 << STAMP_SHIFT) - 1),
            service_ns: self.service.load(Ordering::Relaxed),
            key: self.key.load(Ordering::Relaxed),
        }
    }
}

impl<V: LlScVar> ShardRing<V> {
    /// Creates an empty ring over two cursor variables holding the same
    /// start value, any value in their range (the first push checks it).
    ///
    /// # Panics
    ///
    /// Panics unless `capacity` is a power of two and at most half the
    /// cursors' value range.
    #[must_use]
    pub fn new(capacity: usize, head: V, tail: V) -> Self {
        let wrap = head.max_val().min(tail.max_val()).min(u64::MAX >> 1);
        assert!(
            (wrap + 1).is_power_of_two()
                && capacity.is_power_of_two()
                && 2 * capacity as u64 <= wrap + 1,
            "shard ring capacity must be a power of two and at most half the cursor range"
        );
        ShardRing {
            head: CachePadded::new(head),
            tail: CachePadded::new(Tail {
                var: tail,
                seen: AtomicU64::new(UNSEEN),
            }),
            slots: (0..capacity).map(|_| Slot::default()).collect(),
            wrap,
        }
    }

    /// Number of requests the ring can hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Wrapping distance from cursor value `from` forward to `to`.
    fn gap(&self, from: u64, to: u64) -> u64 {
        to.wrapping_sub(from) & self.wrap
    }

    /// The cursor value `n` steps past `c`.
    fn advance(&self, c: u64, n: u64) -> u64 {
        c.wrapping_add(n) & self.wrap
    }

    fn slot(&self, cursor: u64) -> &Slot {
        &self.slots[cursor as usize & (self.slots.len() - 1)]
    }

    /// The lap stamp of the request for `cursor`.
    fn stamp(&self, cursor: u64) -> u64 {
        0x80 | (cursor >> self.slots.len().trailing_zeros()) & 0x7f
    }

    /// Requests in flight at the time of the (racy) cursor reads; 0 while
    /// a popped request's tail SC is still pending.
    pub fn len(&self, ctx: &mut V::Ctx<'_>) -> usize {
        let h = self.head.read(ctx);
        let t = self.tail.var.read(ctx);
        let n = self.gap(h, t);
        if n > self.slots.len() as u64 {
            0
        } else {
            n as usize
        }
    }

    /// Whether the ring was observed empty.
    pub fn is_empty(&self, ctx: &mut V::Ctx<'_>) -> bool {
        self.len(ctx) == 0
    }

    /// Appends `r` if the ring has room; `false` (without side effects)
    /// if it was full. Caller contract: one pushing thread per ring. The
    /// sole tail writer's SC only fails on providers with spurious RSC
    /// failures, so the retry loop is bounded by the provider's spurious
    /// failure bound (wait-free on the native entries).
    ///
    /// # Panics
    ///
    /// Panics if `r.arrival_ns ≥ 2^56` (the slot's top byte holds the
    /// lap stamp), and on the first push if the cursors did not start
    /// equal.
    pub fn try_push(&self, ctx: &mut V::Ctx<'_>, r: Request) -> bool {
        assert!(
            r.arrival_ns >> STAMP_SHIFT == 0,
            "a ring request's arrival_ns must be below 2^56"
        );
        let cap = self.slots.len() as u64;
        let mut keep = V::Keep::default();
        let t = self.tail.var.ll(ctx, &mut keep);
        let seen = self.tail.seen.load(Ordering::Relaxed);
        if seen > self.wrap || self.gap(seen, t) >= cap {
            let h = self.head.read(ctx);
            assert!(
                seen != UNSEEN || h == t,
                "shard ring cursors must start at the same value"
            );
            self.tail.seen.store(h, Ordering::Relaxed);
            if self.gap(h, t) >= cap {
                self.tail.var.cl(ctx, &mut keep);
                return false;
            }
        }
        self.slot(t).store(r, self.stamp(t));
        // Once stamped, the request may be claimed before the tail moves:
        // a failed SC retries LL → SC alone (type docs).
        while !self.tail.var.sc(ctx, &mut keep, self.advance(t, 1)) {
            let again = self.tail.var.ll(ctx, &mut keep);
            debug_assert_eq!(again, t, "one pushing thread per ring");
        }
        true
    }

    /// Claims and returns the request at the head, or `None` if the ring
    /// was observed empty. Lock-free: a failed SC means another claim
    /// (the owner's or a thief's) landed.
    pub fn try_pop(&self, ctx: &mut V::Ctx<'_>) -> Option<Request> {
        let mut keep = V::Keep::default();
        let mut backoff = Backoff::new();
        loop {
            let h = self.head.ll(ctx, &mut keep);
            let slot = self.slot(h);
            let stamped = slot.stamped();
            if stamped >> STAMP_SHIFT != self.stamp(h) {
                self.head.cl(ctx, &mut keep);
                return None;
            }
            let r = slot.request(stamped);
            if self.head.sc(ctx, &mut keep, self.advance(h, 1)) {
                // SC success validates the slot read (type docs).
                return Some(r);
            }
            backoff.spin();
        }
    }

    /// One steal attempt: transfers up to half the victim's queue
    /// (capped at `out.len()`) into `out`, committed by a single SC on
    /// the victim's head cursor. Returns how many requests were stolen —
    /// 0 both for an empty victim and for a lost race (the caller
    /// rotates to the next victim either way; no retry loop here, so a
    /// thief never spins on a contended victim). A steal counts queued
    /// requests on the real tail.
    pub fn steal_into(&self, ctx: &mut V::Ctx<'_>, out: &mut [Request]) -> usize {
        debug_assert!(!out.is_empty());
        let mut keep = V::Keep::default();
        let h = self.head.ll(ctx, &mut keep);
        let t = self.tail.var.read(ctx);
        let avail = self.gap(h, t);
        // Above `cap`: the head passed a pending tail SC, or it moved
        // since the LL and the SC below would fail anyway.
        if avail == 0 || avail > self.slots.len() as u64 {
            self.head.cl(ctx, &mut keep);
            return 0;
        }
        // Steal-half, rounded up so a single queued request is stealable.
        let k = avail.div_ceil(2).min(out.len() as u64);
        for (j, slot) in (0..k).zip(out.iter_mut()) {
            let s = self.slot(h.wrapping_add(j));
            *slot = s.request(s.stamped());
        }
        if self.head.sc(ctx, &mut keep, self.advance(h, k)) {
            record(Event::ServeSteal);
            k as usize
        } else {
            0
        }
    }
}

// ---------------------------------------------------------------------------
// Shard directory
// ---------------------------------------------------------------------------

/// The fabric's published shape: `(generation << 8) | worker_count` in
/// one LL/SC word. Generation 0 means "not yet published"; workers spin
/// until the producer's [`Directory::publish`] lands.
#[derive(Debug)]
pub struct Directory<V: LlScVar> {
    word: CachePadded<V>,
}

impl<V: LlScVar> Directory<V> {
    /// Wraps a fresh provider variable (must hold 0).
    #[must_use]
    pub fn new(word: V) -> Self {
        Directory {
            word: CachePadded::new(word),
        }
    }

    /// Publishes a new shape: bumps the generation and stores the worker
    /// count, through an LL → SC loop (lock-free under concurrent
    /// publishers, though the pipeline's producer is the only one).
    ///
    /// # Panics
    ///
    /// Panics if `workers` does not fit the 8-bit count field.
    pub fn publish(&self, ctx: &mut V::Ctx<'_>, workers: usize) {
        assert!(workers > 0 && workers < 256, "directory holds 8-bit counts");
        let mut keep = V::Keep::default();
        loop {
            let cur = self.word.ll(ctx, &mut keep);
            let next = ((cur >> 8) + 1) << 8 | workers as u64;
            if self.word.sc(ctx, &mut keep, next) {
                return;
            }
        }
    }

    /// Reads the current `(generation, workers)` pair.
    pub fn read(&self, ctx: &mut V::Ctx<'_>) -> (u64, usize) {
        let v = self.word.read(ctx);
        (v >> 8, (v & 0xff) as usize)
    }
}

// ---------------------------------------------------------------------------
// Striped admission
// ---------------------------------------------------------------------------

/// The outcome of one striped admission decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// A token was spent; `refilled` marks the decisions that had to
    /// batch-refill the shard's word from the global bucket first.
    Admitted {
        /// Whether this decision touched the global bucket.
        refilled: bool,
    },
    /// The shard word and the global bucket were both empty.
    Shed,
}

/// Token-bucket admission striped across per-shard LL/SC words, batch-
/// refilled from one global Figure-6 wide `(stamp, tokens)` pair.
///
/// The fast path spends a token with one LL–SC on the caller's shard
/// word. Only when that word is empty does the decision withdraw up to
/// `batch` tokens from the global pair (WLL → SC, so the stamp/token
/// update is atomic), deposit the remainder locally, and spend one. A
/// shed requires *both* levels empty and linearizes at a VL on the
/// shard word — exactly the single-word bucket's protocol, lifted one
/// level.
#[derive(Debug)]
pub struct StripedBucket<V: LlScVar> {
    /// Per-shard token counts (no stamp: refill time lives globally).
    locals: Vec<CachePadded<V>>,
    /// Global `[stamp, tokens]` wide pair.
    global: WideVar<Native>,
    period_ns: u64,
    burst: u64,
    batch: u64,
}

/// Word indices of the global wide pair.
const G_STAMP: usize = 0;
const G_TOKENS: usize = 1;

impl<V: LlScVar> StripedBucket<V> {
    /// Creates a striped bucket over the given per-shard words (each
    /// must hold 0; the global bucket starts full at `cfg.burst`).
    ///
    /// # Panics
    ///
    /// Panics on a non-positive rate, a zero burst/batch, an empty
    /// stripe set, or shard words too narrow for a batch.
    #[must_use]
    pub fn new(cfg: AdmissionConfig, batch: u64, locals: Vec<V>) -> Self {
        assert!(cfg.rate_per_sec > 0.0, "refill rate must be positive");
        assert!(cfg.burst > 0, "burst must be positive");
        assert!(!locals.is_empty(), "need at least one stripe");
        let batch = batch.clamp(1, cfg.burst);
        for l in &locals {
            assert!(
                batch <= l.max_val(),
                "refill batch exceeds a shard word's value range"
            );
        }
        let period_ns = ((1e9 / cfg.rate_per_sec).round() as u64).max(1);
        let domain = WideDomain::<Native>::new(1, 2, 16).expect("global bucket domain");
        let mut init = [0u64; 2];
        init[G_TOKENS] = cfg.burst;
        let global = domain.var(&init).expect("global bucket var");
        StripedBucket {
            locals: locals.into_iter().map(CachePadded::new).collect(),
            global,
            period_ns,
            burst: cfg.burst,
            batch,
        }
    }

    /// The batch size `B` (clamped into `1..=burst`).
    #[must_use]
    pub fn batch(&self) -> u64 {
        self.batch
    }

    /// Withdraws up to `batch` tokens from the global pair at virtual
    /// time `now_ns`; 0 means the global bucket was empty in a WLL-
    /// consistent (Theorem 4) snapshot at this time.
    fn withdraw(&self, now_ns: u64) -> u64 {
        let mem = Native;
        let mut keep = WideKeep::default();
        let mut buf = [0u64; 2];
        let max_stamp = self.global.domain().max_val();
        let now_period = (now_ns / self.period_ns).min(max_stamp);
        let mut backoff = Backoff::new();
        loop {
            // nbsp-flow: allow(keep-leak) — a WideKeep is a tag snapshot; WideVar has no announce slot to release, so returning with it live frees nothing
            if !self.global.wll(&mem, &mut keep, &mut buf).is_success() {
                backoff.spin();
                continue;
            }
            let (stamp, tokens) = (buf[G_STAMP], buf[G_TOKENS]);
            let refilled = tokens
                .saturating_add(now_period.saturating_sub(stamp))
                .min(self.burst);
            let take = refilled.min(self.batch);
            if take == 0 {
                // Nothing to move: the WLL snapshot is the decision.
                return 0;
            }
            let new = [stamp.max(now_period), refilled - take];
            if self.global.sc(&mem, ProcId::new(0), &keep, &new) {
                return take;
            }
            backoff.spin();
        }
    }

    /// Drains stripe `shard` back into the global pair, returning how
    /// many tokens moved. The elastic resizer calls this for every
    /// stripe it deactivates, so the burst slack parked in a retired
    /// shard's word is not stranded there while the pool is small (and
    /// cannot double-spend when the shard is later reactivated). Tokens
    /// above the global burst cap are discarded, exactly as a full
    /// bucket discards refill — the cap is the admission contract.
    pub fn redistribute(&self, ctx: &mut V::Ctx<'_>, shard: usize) -> u64 {
        let local = &self.locals[shard];
        let mut keep = V::Keep::default();
        let mut backoff = Backoff::new();
        let tokens = loop {
            let tokens = local.ll(ctx, &mut keep);
            if tokens == 0 {
                local.cl(ctx, &mut keep);
                return 0;
            }
            if local.sc(ctx, &mut keep, 0) {
                break tokens;
            }
            backoff.spin();
        };
        let mem = Native;
        let mut wkeep = WideKeep::default();
        let mut buf = [0u64; 2];
        loop {
            if !self.global.wll(&mem, &mut wkeep, &mut buf).is_success() {
                continue;
            }
            let new = [
                buf[G_STAMP],
                buf[G_TOKENS].saturating_add(tokens).min(self.burst),
            ];
            if self.global.sc(&mem, ProcId::new(0), &wkeep, &new) {
                return tokens;
            }
        }
    }

    /// Decides one request arriving at `now_ns` against stripe `shard`.
    /// Lock-free; the fast path is a single LL–SC on the shard word.
    pub fn admit(&self, ctx: &mut V::Ctx<'_>, shard: usize, now_ns: u64) -> AdmitOutcome {
        let local = &self.locals[shard];
        let mut keep = V::Keep::default();
        let mut backoff = Backoff::new();
        loop {
            let mut tokens = local.ll(ctx, &mut keep);
            if tokens == 0 {
                let take = self.withdraw(now_ns);
                if take == 0 {
                    // Both levels empty: the shed linearizes at a VL
                    // confirming the LLed (empty) shard word is current.
                    // The sequence ends without an SC, so the keep must
                    // be released — on the constant-time provider a
                    // dangling keep holds one of the proc's k slots.
                    if local.vl(ctx, &keep) {
                        local.cl(ctx, &mut keep);
                        record(Event::ServeShed);
                        return AdmitOutcome::Shed;
                    }
                    backoff.spin();
                    continue;
                }
                record(Event::ServeRefill);
                // Deposit the batch and spend one token from it. A failed
                // SC (a concurrent spender, or a spurious RSC failure)
                // must not drop the withdrawn tokens, so re-LL and carry
                // the deposit until an SC lands.
                let deposit = take - 1;
                loop {
                    if local.sc(ctx, &mut keep, tokens + deposit) {
                        record(Event::ServeAdmit);
                        return AdmitOutcome::Admitted { refilled: true };
                    }
                    backoff.spin();
                    tokens = local.ll(ctx, &mut keep);
                }
            }
            if local.sc(ctx, &mut keep, tokens - 1) {
                record(Event::ServeAdmit);
                return AdmitOutcome::Admitted { refilled: false };
            }
            backoff.spin();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbsp_core::{CasLlSc, TagLayout};

    fn var() -> CasLlSc<Native> {
        CasLlSc::new_native(TagLayout::half(), 0).unwrap()
    }

    fn req(n: u64) -> Request {
        Request {
            arrival_ns: n,
            service_ns: 10 * n,
            key: n % 7,
        }
    }

    #[test]
    fn shard_ring_fifo_and_wraparound() {
        let ring = ShardRing::new(4, var(), var());
        let ctx = &mut Native;
        assert!(ring.try_pop(ctx).is_none());
        for n in 0..4 {
            assert!(ring.try_push(ctx, req(n)));
        }
        assert!(!ring.try_push(ctx, req(9)), "full at capacity");
        for n in 0..4 {
            assert_eq!(ring.try_pop(ctx), Some(req(n)));
        }
        assert!(ring.try_pop(ctx).is_none());
        assert!(ring.try_push(ctx, req(7)));
        assert_eq!(ring.try_pop(ctx), Some(req(7)));
    }

    #[test]
    fn steal_takes_half_rounded_up_from_the_head() {
        let ring = ShardRing::new(16, var(), var());
        let ctx = &mut Native;
        let mut out = [req(0); STEAL_MAX];
        assert_eq!(ring.steal_into(ctx, &mut out), 0, "empty victim");
        for n in 0..7 {
            assert!(ring.try_push(ctx, req(n)));
        }
        // 7 queued: steal-half takes ceil(7/2) = 4, the oldest first.
        assert_eq!(ring.steal_into(ctx, &mut out), 4);
        assert_eq!(out[..4], [req(0), req(1), req(2), req(3)]);
        // The owner keeps the rest in order.
        for n in 4..7 {
            assert_eq!(ring.try_pop(ctx), Some(req(n)));
        }
        assert!(ring.is_empty(ctx));
        // A single queued request is stealable (ceil(1/2) = 1).
        assert!(ring.try_push(ctx, req(42)));
        assert_eq!(ring.steal_into(ctx, &mut out), 1);
        assert_eq!(out[0], req(42));
    }

    #[test]
    fn steal_respects_the_out_buffer() {
        let ring = ShardRing::new(128, var(), var());
        let ctx = &mut Native;
        for n in 0..100 {
            assert!(ring.try_push(ctx, req(n)));
        }
        let mut out = [req(0); STEAL_MAX];
        // ceil(100/2) = 50 capped at the 32-slot stash.
        assert_eq!(ring.steal_into(ctx, &mut out), STEAL_MAX);
        assert_eq!(ring.len(ctx), 100 - STEAL_MAX);
    }

    #[test]
    fn stale_head_copy_never_overwrites_an_unclaimed_slot() {
        let ring = ShardRing::new(4, var(), var());
        let ctx = &mut Native;
        for n in 0..4 {
            assert!(ring.try_push(ctx, req(n)));
        }
        assert!(!ring.try_push(ctx, req(9)), "full at capacity");
        // One pop frees one slot; the producer's copy still says full
        // until it re-reads the head.
        assert_eq!(ring.try_pop(ctx), Some(req(0)));
        assert!(ring.try_push(ctx, req(4)));
        assert!(!ring.try_push(ctx, req(9)), "full again at capacity");
        assert_eq!(ring.len(ctx), 4);
        for n in 1..5 {
            assert_eq!(ring.try_pop(ctx), Some(req(n)));
        }
        assert!(ring.try_pop(ctx).is_none());
    }

    #[test]
    fn a_fresh_ring_pops_nothing_from_any_start_cursor() {
        let narrow = TagLayout::new(32, 3).unwrap();
        let half = TagLayout::half();
        let starts = (0..=narrow.max_val()).map(|v| (narrow, v)).chain(
            [
                0,
                1,
                3,
                half.max_val() - 3,
                half.max_val() - 1,
                half.max_val(),
            ]
            .map(|v| (half, v)),
        );
        let ctx = &mut Native;
        let mut out = [req(0); STEAL_MAX];
        for (layout, start) in starts {
            let at = || CasLlSc::new_native(layout, start).unwrap();
            let ring = ShardRing::new(4, at(), at());
            assert!(ring.try_pop(ctx).is_none(), "fresh ring at {start}");
            assert_eq!(ring.steal_into(ctx, &mut out), 0);
            assert!(ring.is_empty(ctx));
            assert!(ring.try_push(ctx, req(5)));
            assert_eq!(ring.try_pop(ctx), Some(req(5)));
            assert!(ring.try_pop(ctx).is_none(), "drained ring at {start}");
        }
    }

    #[test]
    fn cursors_wrap_past_their_value_range() {
        // The half layout, and a 3-bit cursor (M = 8) at cap = M / 2,
        // where laps alternate 0, 1, 0, … and every stamp is tested.
        for layout in [TagLayout::half(), TagLayout::new(32, 3).unwrap()] {
            let max = layout.max_val();
            let start = max - 2;
            let at = |v| CasLlSc::new_native(layout, v).unwrap();
            let ring = ShardRing::new(4, at(start), at(start));
            let ctx = &mut Native;
            let mut out = [req(0); STEAL_MAX];
            let (mut next, mut expect) = (0u64, 0u64);
            // 6 rounds of: fill, steal half, pop the rest — 24 requests,
            // so both cursors cross the wrap at max + 1 == 0. A stale
            // slot whose stamp aliased the head's would pop out of order.
            for _ in 0..6 {
                while ring.try_push(ctx, req(next)) {
                    next += 1;
                }
                assert_eq!(ring.len(ctx), 4, "full at capacity across the wrap");
                assert_eq!(ring.steal_into(ctx, &mut out), 2);
                assert_eq!(out[..2], [req(expect), req(expect + 1)]);
                expect += 2;
                while let Some(r) = ring.try_pop(ctx) {
                    assert_eq!(r, req(expect), "FIFO across the wrap");
                    expect += 1;
                }
            }
            assert_eq!((next, expect), (24, 24), "each request delivered once");
            assert_eq!(ring.head.read(ctx), start.wrapping_add(24) & max);
            for c in 0..=max.min(1 << 12) {
                let later = ring.advance(c, 4);
                assert_ne!(ring.stamp(c), ring.stamp(later), "laps of {c} and {later}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "below 2^56")]
    fn arrival_times_must_leave_the_stamp_byte_free() {
        let ring = ShardRing::new(4, var(), var());
        let mut r = req(0);
        r.arrival_ns = 1 << 56;
        ring.try_push(&mut Native, r);
    }

    #[test]
    #[should_panic(expected = "start at the same value")]
    fn unequal_start_cursors_panic_on_first_push() {
        let at = |v| CasLlSc::new_native(TagLayout::half(), v).unwrap();
        let ring = ShardRing::new(4, at(3), at(0));
        ring.try_push(&mut Native, req(0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn capacity_must_be_a_power_of_two() {
        let _ = ShardRing::new(6, var(), var());
    }

    #[test]
    fn directory_publishes_generation_and_count() {
        let dir = Directory::new(var());
        let ctx = &mut Native;
        assert_eq!(dir.read(ctx), (0, 0), "unpublished");
        dir.publish(ctx, 8);
        assert_eq!(dir.read(ctx), (1, 8));
        dir.publish(ctx, 12);
        assert_eq!(dir.read(ctx), (2, 12));
    }

    #[test]
    fn striped_bucket_amortizes_global_traffic() {
        // Burst 64, batch 16, 4 stripes, rate too slow to refill within
        // the test's clock: exactly 64 admits land, moved out of the
        // global bucket in 64/16 = 4 batch withdrawals total.
        let cfg = AdmissionConfig {
            rate_per_sec: 1.0,
            burst: 64,
        };
        let bucket = StripedBucket::new(cfg, 16, (0..4).map(|_| var()).collect());
        let ctx = &mut Native;
        let mut admitted = 0;
        let mut refills = 0;
        let mut shed = 0;
        for i in 0..100u64 {
            match bucket.admit(ctx, (i % 4) as usize, 0) {
                AdmitOutcome::Admitted { refilled } => {
                    admitted += 1;
                    if refilled {
                        refills += 1;
                    }
                }
                AdmitOutcome::Shed => shed += 1,
            }
        }
        assert_eq!(admitted, 64, "exactly the global burst is spendable");
        assert_eq!(shed, 36);
        assert_eq!(refills, 4, "64 tokens moved in batches of 16");
    }

    #[test]
    fn striped_bucket_refills_on_the_virtual_clock() {
        let cfg = AdmissionConfig {
            rate_per_sec: 1e6, // 1 token per µs
            burst: 8,
        };
        let bucket = StripedBucket::new(cfg, 4, vec![var()]);
        let ctx = &mut Native;
        for _ in 0..8 {
            assert!(matches!(
                bucket.admit(ctx, 0, 0),
                AdmitOutcome::Admitted { .. }
            ));
        }
        assert_eq!(bucket.admit(ctx, 0, 0), AdmitOutcome::Shed);
        // 4 µs later: 4 periods refilled globally, movable as one batch.
        assert_eq!(
            bucket.admit(ctx, 0, 4_000),
            AdmitOutcome::Admitted { refilled: true }
        );
    }

    #[test]
    fn redistribute_returns_stripe_slack_to_the_global_bucket() {
        // Rate too slow to refill within the test's clock: the global
        // burst of 64 is all there is.
        let cfg = AdmissionConfig {
            rate_per_sec: 1.0,
            burst: 64,
        };
        let bucket = StripedBucket::new(cfg, 16, (0..2).map(|_| var()).collect());
        let ctx = &mut Native;
        // One admit on stripe 1 batch-moves 16 tokens there and spends 1.
        assert!(matches!(
            bucket.admit(ctx, 1, 0),
            AdmitOutcome::Admitted { refilled: true }
        ));
        // Deactivating stripe 1 hands its 15 parked tokens back.
        assert_eq!(bucket.redistribute(ctx, 1), 15);
        assert_eq!(bucket.redistribute(ctx, 1), 0, "already drained");
        // Every surviving token is spendable through stripe 0: none were
        // lost in the move, none can be double-spent from stripe 1.
        let mut admitted = 0;
        while matches!(bucket.admit(ctx, 0, 0), AdmitOutcome::Admitted { .. }) {
            admitted += 1;
        }
        assert_eq!(admitted, 63, "64 burst minus the one spent admit");
    }

    #[test]
    fn the_key_router_spreads_a_tiny_key_space_over_every_shard() {
        let mut hit = [false; 4];
        for key in 0..32u64 {
            hit[shard_for_key(key, 4)] = true;
        }
        assert!(hit.iter().all(|&h| h), "router left a shard keyless");
    }
}
