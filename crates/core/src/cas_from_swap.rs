//! **CAS from swap + fetch-and-add** — one rung *below* the paper.
//!
//! Moir's constructions assume CAS or LL/SC, both consensus-number-∞
//! primitives. Khanchandani and Wattenhofer (arXiv:1802.03844, *"Is
//! Compare-and-Swap Really Necessary?"*) show that CAS itself can be built
//! from primitives of consensus number two — unconditional swap and
//! fetch-and-add — by totally ordering mutations with a Φ (fetch-and-add)
//! sequence word. This module implements the sequence-number core of that
//! construction on a simulated machine whose instruction set is
//! [`SwapFaaOnly`](nbsp_memsim::InstructionSet::SwapFaaOnly), giving the
//! repo's portability matrix its "pre-CAS hardware" column.
//!
//! # The construction
//!
//! Each emulated word is a pair of machine words:
//!
//! * `tickets` — a Φ counter advanced with fetch-and-add; every mutating
//!   operation (store, or a CAS that must attempt a change) takes a ticket,
//!   and tickets define the *total order of mutations*.
//! * `cur` — the authoritative state, packed as `(round, value)` and
//!   written with swap. Invariant: `cur` holds round `r` exactly when every
//!   mutation with ticket `< r` has been applied, and its value field is
//!   then the abstract value of the word.
//!
//! A mutation with ticket `t` waits until `cur.round == t`, reads the value
//! `v` it is entitled to, and swaps in `(t + 1, v')` — for a store `v'` is
//! the new value; for a CAS, `v' = new` iff `v == old`, else `v` is
//! republished unchanged. The swap linearizes the mutation.
//!
//! # Sequence/ABA argument (after the paper's §7 style)
//!
//! The tag-based emulations in this crate (Figure 3, Figure 4) defend
//! against ABA with per-word tags that can wrap. Here the defence is the
//! round field: `cur` is written *only* by the unique holder of the current
//! round's ticket, so its `(round, value)` history is a single strictly
//! round-monotone sequence — no waiter can mistake an old state for a new
//! one until the [`ROUND_BITS`]-bit round counter wraps all the way around
//! *while that waiter sleeps*. Rounds are served in ticket order and each
//! process holds at most one ticket, so at most `N` rounds separate any
//! waiter from the current round — far below the 2¹⁶ wrap (the analogue of
//! the paper's "tag must not wrap during an operation" assumption,
//! quantified for the small-tag case by experiment E5). Round
//! comparisons use wrapping distance, so operation *across* the wrap
//! boundary is exact; the `forced_wrap` test pins this.
//!
//! # Progress (honest statement)
//!
//! Reads, and CAS calls whose comparison fails (or that would not change
//! the value), are **wait-free**: one plain read of `cur` suffices, because
//! `cur` always equals the abstract state — any mutation holding a ticket
//! but not yet applied has simply not linearized yet. A mutation, however,
//! waits for its round in FIFO order, so a stalled ticket-holder delays
//! later mutations: the full Khanchandani–Wattenhofer helping/adoption
//! layer that removes this window is **deliberately omitted**. The window
//! is the same kind the registry's Figure-2 lock baseline exhibits, and the
//! same model-checking and conformance machinery covers it.

use nbsp_memsim::{Capability, InstructionSet, Processor, SimWord};

use crate::cas_provider::SyncMemory;
use crate::{CasFamily, CasMemory};

/// Bits of the `cur` word used for the round counter.
///
/// 16 bits are enough: the round field only has to outrun the mutations
/// *in flight* at one instant, and each process holds at most one ticket,
/// so the wrapping-distance comparisons stay exact for any machine with
/// fewer than 2¹⁵ processors. Spending the other 48 bits on the value
/// keeps the emulated word wide enough for every layer stacked above it
/// (Figure 4's tag split, LLX's version field).
pub const ROUND_BITS: u32 = 16;

/// Bits of the `cur` word holding the user value (the family's
/// [`CasFamily::VALUE_BITS`]).
pub const KW_VALUE_BITS: u32 = 48;

const ROUND_MASK: u64 = (1 << ROUND_BITS) - 1;
const VALUE_MASK: u64 = (1 << KW_VALUE_BITS) - 1;
/// Half the round space: wrapping-distance comparisons treat distances
/// below this as "ahead".
const HALF_ROUND: u64 = 1 << (ROUND_BITS - 1);

#[inline]
fn pack(round: u64, value: u64) -> u64 {
    debug_assert!(value <= VALUE_MASK);
    ((round & ROUND_MASK) << KW_VALUE_BITS) | value
}

#[inline]
fn unpack(word: u64) -> (u64, u64) {
    (word >> KW_VALUE_BITS, word & VALUE_MASK)
}

#[inline]
fn round_succ(round: u64) -> u64 {
    (round + 1) & ROUND_MASK
}

/// `true` iff round `a` is strictly before `b` in wrapping order.
#[inline]
fn round_before(a: u64, b: u64) -> bool {
    a != b && b.wrapping_sub(a) & ROUND_MASK < HALF_ROUND
}

/// A shared word supporting CAS on machines that only provide swap and
/// fetch-and-add (consensus number two).
///
/// ```
/// use nbsp_core::KwWord;
/// use nbsp_memsim::{InstructionSet, Machine};
///
/// // A machine with swap + fetch-and-add but *no* CAS.
/// let machine = Machine::builder(1)
///     .instruction_set(InstructionSet::SwapFaaOnly)
///     .build();
/// let p = machine.processor(0);
///
/// let w = KwWord::new(5);
/// assert!(w.cas(&p, 5, 6));   // CAS where the hardware has none
/// assert!(!w.cas(&p, 5, 7));  // old value no longer matches
/// assert_eq!(w.read(&p), 6);
/// ```
#[derive(Debug)]
pub struct KwWord {
    /// The Φ sequence word: fetch-and-add hands out mutation tickets.
    tickets: SimWord,
    /// The authoritative `(round, value)` state, advanced by swap.
    cur: SimWord,
}

impl KwWord {
    /// Creates a word holding `initial` (round 0, no tickets issued).
    ///
    /// # Panics
    ///
    /// Panics if `initial` needs more than [`KW_VALUE_BITS`] bits.
    #[must_use]
    pub fn new(initial: u64) -> Self {
        assert!(
            initial <= VALUE_MASK,
            "initial value {initial} exceeds {KW_VALUE_BITS} value bits"
        );
        KwWord {
            tickets: SimWord::new(0),
            cur: SimWord::new(pack(0, initial)),
        }
    }

    /// Reads the current value (one plain load; linearizes at the load —
    /// `cur`'s value field *is* the abstract state at every instant).
    #[must_use]
    pub fn read(&self, proc: &Processor) -> u64 {
        unpack(proc.read(&self.cur)).1
    }

    /// Takes a ticket, waits for the round, and returns the value this
    /// mutation is entitled to rewrite. Callers must follow with exactly
    /// one [`Self::publish`].
    fn acquire(&self, proc: &Processor) -> (u64, u64) {
        let t = proc.fetch_add(&self.tickets, 1) & ROUND_MASK;
        loop {
            let (r, v) = unpack(proc.read(&self.cur));
            if r == t {
                return (t, v);
            }
            debug_assert!(
                round_before(r, t),
                "round {r} has already passed ticket {t}"
            );
            // FIFO wait on the ticket holder ahead of us: our turn arrives
            // exactly when a predecessor's `publish` swap writes `cur`, so
            // declare the wait on that word (a plain `yield_now` on a live
            // machine; a park-until-written under a model checker).
            proc.await_change(&self.cur);
        }
    }

    /// Applies a mutation's result: swaps `(t + 1, value)` into `cur`.
    fn publish(&self, proc: &Processor, t: u64, value: u64) {
        let displaced = proc.swap(&self.cur, pack(round_succ(t), value));
        debug_assert_eq!(unpack(displaced).0, t, "publish displaced a foreign round");
    }

    /// Unconditionally stores `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` needs more than [`KW_VALUE_BITS`] bits, or if the
    /// machine provides no swap/fetch-and-add.
    pub fn store(&self, proc: &Processor, value: u64) {
        assert!(
            value <= VALUE_MASK,
            "value {value} exceeds {KW_VALUE_BITS} value bits"
        );
        let (t, _) = self.acquire(proc);
        self.publish(proc, t, value);
    }

    /// CAS: iff the word's value equals `old`, replace it with `new` and
    /// return `true`.
    ///
    /// # Panics
    ///
    /// Panics if `old` or `new` needs more than [`KW_VALUE_BITS`] bits, or
    /// if the machine provides no swap/fetch-and-add.
    #[must_use]
    pub fn cas(&self, proc: &Processor, old: u64, new: u64) -> bool {
        assert!(old <= VALUE_MASK, "old value {old} exceeds {KW_VALUE_BITS} value bits");
        assert!(new <= VALUE_MASK, "new value {new} exceeds {KW_VALUE_BITS} value bits");
        // Wait-free fast paths, linearized at one read of the
        // authoritative state.
        let v = self.read(proc);
        if v != old {
            return false;
        }
        if old == new {
            return true;
        }
        // Mutation path: totally ordered by the Φ word.
        let (t, v) = self.acquire(proc);
        let ok = v == old;
        self.publish(proc, t, if ok { new } else { v });
        ok
    }

    /// Test-only handle to the Φ word, so the forced-wrap test can push
    /// the counters to the edge of the round space.
    #[cfg(test)]
    fn poke_rounds(&self, round: u64, value: u64) {
        self.tickets.poke(round);
        self.cur.poke(pack(round, value));
    }
}

/// Storage family for the Khanchandani–Wattenhofer emulation: each cell is
/// a [`KwWord`] (two machine words), exposing [`KW_VALUE_BITS`] usable
/// value bits to the layer above.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KwFamily;

impl CasFamily for KwFamily {
    type Cell = KwWord;
    type Mem<'a> = KwCas<'a>;
    const VALUE_BITS: u32 = KW_VALUE_BITS;

    fn make_cell(value: u64) -> KwWord {
        KwWord::new(value)
    }
}

/// [`CasMemory`] built from swap + fetch-and-add: "a machine with CAS"
/// synthesized on consensus-number-two hardware, usable underneath every
/// CAS-based construction in this crate.
///
/// ```
/// use nbsp_core::{CasFamily, CasMemory, KwCas, KwFamily};
/// use nbsp_memsim::{InstructionSet, Machine};
///
/// let machine = Machine::builder(1)
///     .instruction_set(InstructionSet::SwapFaaOnly)
///     .build();
/// let p = machine.processor(0);
/// let mem = KwCas::new(&p);
/// let cell = KwFamily::make_cell(3);
/// assert!(mem.cas(&cell, 3, 4));
/// assert_eq!(mem.load(&cell), 4);
/// ```
#[derive(Debug)]
pub struct KwCas<'a> {
    proc: &'a Processor,
}

impl<'a> KwCas<'a> {
    /// Wraps a simulated processor as a swap/fetch-and-add-backed CAS
    /// accessor.
    ///
    /// # Panics
    ///
    /// Panics if the machine's instruction set provides no swap or no
    /// fetch-and-add — checked here, once, so the per-op hot paths can
    /// rely on it (satellite: a typed [`Error::UnsupportedOp`](crate::Error::UnsupportedOp) is
    /// available through [`SyncMemory`] for callers probing capabilities).
    #[must_use]
    pub fn new(proc: &'a Processor) -> Self {
        let caps = proc.instruction_set().capability();
        assert!(
            caps.contains(Capability::SWAP | Capability::FETCH_ADD),
            "cas_from_swap needs swap + fetch-and-add, machine has {caps}"
        );
        KwCas { proc }
    }

    /// Like [`KwCas::new`], but reports a missing instruction as a typed
    /// error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnsupportedOp`](crate::Error::UnsupportedOp) if
    /// the machine's instruction set has no swap or no fetch-and-add.
    pub fn try_new(proc: &'a Processor) -> crate::Result<Self> {
        let caps = proc.instruction_set().capability();
        if !caps.contains(Capability::SWAP | Capability::FETCH_ADD) {
            return Err(crate::Error::UnsupportedOp {
                op: "swap",
                have: caps.to_string(),
            });
        }
        Ok(KwCas { proc })
    }

    /// The underlying processor (for reading stats).
    #[must_use]
    pub fn processor(&self) -> &Processor {
        self.proc
    }

    /// The instruction set this accessor was validated against.
    #[must_use]
    pub fn instruction_set(&self) -> InstructionSet {
        self.proc.instruction_set()
    }
}

impl CasMemory for KwCas<'_> {
    type Family = KwFamily;

    fn load(&self, cell: &KwWord) -> u64 {
        cell.read(self.proc)
    }

    fn store(&self, cell: &KwWord, value: u64) {
        cell.store(self.proc, value);
    }

    fn cas(&self, cell: &KwWord, old: u64, new: u64) -> bool {
        cell.cas(self.proc, old, new)
    }
}

impl SyncMemory for KwCas<'_> {
    /// What this accessor *offers upward* is exactly CAS (synthesized);
    /// the weak ops of the machine beneath are an implementation detail
    /// and deliberately not re-exported, so layers above cannot couple to
    /// them (the lint's weak-op discipline enforces the same boundary
    /// statically).
    fn capabilities(&self) -> Capability {
        Capability::CAS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbsp_memsim::Machine;

    fn swap_machine(n: usize) -> Machine {
        Machine::builder(n)
            .instruction_set(InstructionSet::SwapFaaOnly)
            .build()
    }

    #[test]
    fn cas_success_and_failure() {
        let m = swap_machine(1);
        let p = m.processor(0);
        let w = KwWord::new(1);
        assert!(w.cas(&p, 1, 2));
        assert!(!w.cas(&p, 1, 3));
        assert!(w.cas(&p, 2, 3));
        assert_eq!(w.read(&p), 3);
    }

    #[test]
    fn failed_cas_and_trivial_cas_take_no_ticket() {
        let m = swap_machine(1);
        let p = m.processor(0);
        let w = KwWord::new(5);
        let before = p.stats();
        assert!(!w.cas(&p, 6, 7)); // mismatch: wait-free read path
        assert!(w.cas(&p, 5, 5)); // old == new: wait-free read path
        let after = p.stats();
        assert_eq!(after.fetch_adds, before.fetch_adds);
        assert_eq!(after.swaps, before.swaps);
    }

    #[test]
    fn mutations_spend_one_ticket_and_one_swap() {
        let m = swap_machine(1);
        let p = m.processor(0);
        let w = KwWord::new(0);
        w.store(&p, 9);
        assert!(w.cas(&p, 9, 10));
        let s = p.stats();
        assert_eq!((s.fetch_adds, s.swaps), (2, 2));
        assert_eq!(w.read(&p), 10);
    }

    #[test]
    fn concurrent_emulated_cas_counter_is_exact() {
        let m = swap_machine(4);
        let w = KwWord::new(0);
        std::thread::scope(|s| {
            for id in 0..4 {
                let p = m.processor(id);
                let w = &w;
                s.spawn(move || {
                    for _ in 0..2_500 {
                        loop {
                            let v = w.read(&p);
                            if w.cas(&p, v, v + 1) {
                                break;
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(unpack(w.cur.peek()).1, 10_000);
    }

    #[test]
    fn concurrent_stores_leave_some_ticketed_value() {
        let m = swap_machine(3);
        let w = KwWord::new(0);
        std::thread::scope(|s| {
            for id in 0..3 {
                let p = m.processor(id);
                let w = &w;
                s.spawn(move || {
                    for i in 0..500 {
                        w.store(&p, (id as u64) * 1000 + i);
                    }
                });
            }
        });
        let v = unpack(w.cur.peek()).1;
        assert!(v % 1000 < 500, "final value {v} was never stored");
    }

    /// Satellite: seeded forced-wrap ABA test. Push the Φ counter and the
    /// round field to just below the round-space wrap boundary, then drive
    /// concurrent mutations *across* it to prove the wrapping-distance
    /// comparisons (and the packed round arithmetic) stay exact.
    #[test]
    fn forced_wrap() {
        const START: u64 = (1 << ROUND_BITS) - 3; // 3 rounds before the wrap
        let m = swap_machine(2);
        let w = KwWord::new(0);
        w.poke_rounds(START, 7);
        assert_eq!(unpack(w.cur.peek()).1, 7);
        std::thread::scope(|s| {
            for id in 0..2 {
                let p = m.processor(id);
                let w = &w;
                s.spawn(move || {
                    for _ in 0..100 {
                        loop {
                            let v = w.read(&p);
                            if w.cas(&p, v, (v + 1) & 0xFFFF) {
                                break;
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(unpack(w.cur.peek()).1, 207, "200 increments across the wrap");
        // The round counter really did wrap: it is now far below START.
        let (round, _) = unpack(w.cur.peek());
        assert!(round < 1000, "round {round} should have wrapped past zero");
        assert!(round_before(START, round), "wrapping order: START precedes the new round");
        // And the word still works.
        let m2 = swap_machine(1);
        let p = m2.processor(0);
        assert!(w.cas(&p, 207, 300));
        assert_eq!(w.read(&p), 300);
    }

    #[test]
    fn round_order_helpers() {
        assert!(round_before(0, 1));
        assert!(!round_before(1, 0));
        assert!(!round_before(5, 5));
        // Across the wrap: MAX is before 0.
        assert!(round_before(ROUND_MASK, 0));
        assert!(!round_before(0, ROUND_MASK));
        assert_eq!(round_succ(ROUND_MASK), 0);
    }

    #[test]
    #[should_panic(expected = "does not provide fetch-and-add")]
    fn kw_word_needs_swap_faa() {
        let m = Machine::builder(1)
            .instruction_set(InstructionSet::CasOnly)
            .build();
        let p = m.processor(0);
        let w = KwWord::new(0);
        w.store(&p, 1);
    }

    #[test]
    #[should_panic(expected = "needs swap + fetch-and-add")]
    fn kw_cas_rejects_wrong_machine_at_construction() {
        let m = Machine::builder(1)
            .instruction_set(InstructionSet::CasOnly)
            .build();
        let p = m.processor(0);
        let _ = KwCas::new(&p);
    }

    #[test]
    fn kw_cas_memory_concurrent_counter() {
        let m = swap_machine(4);
        let cell = KwFamily::make_cell(0);
        std::thread::scope(|s| {
            for id in 0..4 {
                let p = m.processor(id);
                let cell = &cell;
                s.spawn(move || {
                    let mem = KwCas::new(&p);
                    for _ in 0..2_000 {
                        loop {
                            let v = mem.load(cell);
                            if mem.cas(cell, v, v + 1) {
                                break;
                            }
                        }
                    }
                });
            }
        });
        let m1 = swap_machine(1);
        assert_eq!(cell.read(&m1.processor(0)), 8_000);
    }

    #[test]
    fn try_new_reports_missing_ops_as_typed_error() {
        let m = Machine::builder(1)
            .instruction_set(InstructionSet::CasOnly)
            .build();
        let p = m.processor(0);
        assert!(matches!(
            KwCas::try_new(&p),
            Err(crate::Error::UnsupportedOp { op: "swap", .. })
        ));
        let m2 = swap_machine(1);
        let p2 = m2.processor(0);
        assert!(KwCas::try_new(&p2).is_ok());
    }

    #[test]
    fn kw_cas_sync_memory_offers_only_cas() {
        let m = swap_machine(1);
        let p = m.processor(0);
        let mem = KwCas::new(&p);
        assert_eq!(mem.capabilities(), Capability::CAS);
        let cell = KwFamily::make_cell(0);
        assert!(matches!(
            mem.try_swap(&cell, 1),
            Err(crate::Error::UnsupportedOp { op: "swap", .. })
        ));
    }
}
