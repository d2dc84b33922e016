//! **CAS (and thence LL/SC) from NB-FEB test-flag-and-set** — the other
//! rung below the paper.
//!
//! Ha, Tsigas and Anshus (arXiv:0811.1304) propose the *non-blocking
//! full/empty bit* as a scalable universal primitive: every memory word
//! carries a flag, and `TFAS` (test-flag-and-set) installs a value only if
//! the flag is clear, setting it as it does — a one-shot atomic winner
//! election whose return value tells winners and losers apart instantly.
//! This module builds a CAS-capable word from `TFAS`/`SAC` on a simulated
//! machine whose instruction set is
//! [`FebOnly`](nbsp_memsim::InstructionSet::FebOnly); stacking the
//! crate's Figure-4 LL/SC on top (see `ops.rs`) yields the issue's "LL/SC
//! built from test-flag-and-set".
//!
//! # The construction
//!
//! Each emulated word is one plain word plus a small ring of FEB words:
//!
//! * `cur` — the authoritative `(round, value)` state. It is written
//!   *only* by each round's winner, so its history is a single strictly
//!   round-monotone sequence and one plain load linearizes a read.
//! * `claims[RING]` — FEB claim slots; round `r` is decided at slot
//!   `r % RING`. A mutation claims the current round with `TFAS`; exactly
//!   one claimant wins the slot's generation (the flag stays set until the
//!   winner's `SAC` recycles it).
//!
//! A winner must *re-validate* that `cur.round` still equals the round `r`
//! it read before claiming. If so, the win is authoritative: the previous
//! generation's winner cleared this slot only **after** advancing `cur`
//! past its own round, so an uncleaned old-generation slot still has its
//! flag set and a win for a stale round is impossible while `cur.round`
//! reads `r` on both sides of the `TFAS`. The valid winner applies its own
//! operation to `v` (the value packed beside `r` in the same word),
//! plain-writes `cur = (r + 1, v')`, and only then `SAC`s the slot back to
//! empty. A bogus win (`cur.round` moved, meaning round `r` already
//! completed) is undone with `SAC` and the operation retries against the
//! new state.
//!
//! # Progress (honest statement)
//!
//! Reads, and CAS calls that fail their comparison (or would not change
//! the value), are **wait-free** — one load of `cur`. Mutations are
//! lock-free *between* stalls: every round completes exactly one pending
//! mutation, and a bogus win implies another operation completed. A winner
//! stalled between its `TFAS` and its `SAC`, however, blocks that slot —
//! the same bounded blocking window as the registry's Figure-2 lock
//! baseline (and the sequence-number core in `cas_from_swap`), covered by
//! the same model-checking and conformance machinery.

use nbsp_memsim::{Capability, InstructionSet, Processor, SimWord};

use crate::cas_provider::SyncMemory;
use crate::{CasFamily, CasMemory};

/// Claim slots per word; round `r` is decided at slot `r % RING`.
pub const RING: usize = 4;

/// Bits of `cur` used for the round counter.
///
/// 16 bits are ample: while any claimant holds a slot, `cur.round` can
/// advance at most [`RING`] rounds past the round it claimed (round
/// `r + RING` needs that slot back), so the exact-equality re-validation
/// can never be fooled by a full 2¹⁶ wrap. The other 48 bits go to the
/// value, wide enough for every layer stacked above (Figure 4's tag
/// split, LLX's version field).
const ROUND_BITS: u32 = 16;

/// Bits of `cur` holding the user value (the family's
/// [`CasFamily::VALUE_BITS`]).
pub const FEB_VALUE_BITS: u32 = 48;

const ROUND_MASK: u64 = (1 << ROUND_BITS) - 1;
const VALUE_MASK: u64 = (1 << FEB_VALUE_BITS) - 1;

/// An empty claim slot (flag clear, no claimant).
const EMPTY: u64 = 0;

#[inline]
fn pack(round: u64, value: u64) -> u64 {
    debug_assert!(value <= VALUE_MASK);
    ((round & ROUND_MASK) << FEB_VALUE_BITS) | value
}

#[inline]
fn unpack(word: u64) -> (u64, u64) {
    (word >> FEB_VALUE_BITS, word & VALUE_MASK)
}

#[inline]
fn round_succ(round: u64) -> u64 {
    (round + 1) & ROUND_MASK
}

/// A shared word supporting CAS on machines whose only universal
/// primitive is the NB-FEB test-flag-and-set.
///
/// ```
/// use nbsp_core::FebWord;
/// use nbsp_memsim::{InstructionSet, Machine};
///
/// // A machine with TFAS/SAC but *no* CAS.
/// let machine = Machine::builder(1)
///     .instruction_set(InstructionSet::FebOnly)
///     .build();
/// let p = machine.processor(0);
///
/// let w = FebWord::new(5);
/// assert!(w.cas(&p, 5, 6));   // CAS where the hardware has none
/// assert!(!w.cas(&p, 5, 7));  // old value no longer matches
/// assert_eq!(w.read(&p), 6);
/// ```
#[derive(Debug)]
pub struct FebWord {
    /// The authoritative `(round, value)` state; written only by round
    /// winners.
    cur: SimWord,
    /// FEB claim slots, one generation at a time each.
    claims: [SimWord; RING],
}

impl FebWord {
    /// Creates a word holding `initial` (round 0, all slots empty).
    ///
    /// # Panics
    ///
    /// Panics if `initial` needs more than [`FEB_VALUE_BITS`] bits.
    #[must_use]
    pub fn new(initial: u64) -> Self {
        assert!(
            initial <= VALUE_MASK,
            "initial value {initial} exceeds {FEB_VALUE_BITS} value bits"
        );
        FebWord {
            cur: SimWord::new(pack(0, initial)),
            claims: std::array::from_fn(|_| SimWord::new(EMPTY)),
        }
    }

    /// Reads the current value (one plain load; linearizes at the load —
    /// `cur`'s value field *is* the abstract state at every instant).
    #[must_use]
    pub fn read(&self, proc: &Processor) -> u64 {
        unpack(proc.read(&self.cur)).1
    }

    /// Wins one round: returns `(r, v)` for a round this processor now
    /// owns. The caller must plain-write `cur = (r + 1, v')` and then
    /// `SAC` slot `r % RING` — which [`Self::finish`] does.
    fn win_round(&self, proc: &Processor) -> (u64, u64) {
        loop {
            let (r, v) = unpack(proc.read(&self.cur));
            let slot = &self.claims[(r as usize) % RING];
            // Claim payload: this processor's id (diagnostic only — the
            // TFAS return value alone decides the election).
            let claim = proc.id().index() as u64 + 1;
            if proc.feb_tfas(slot, claim) & nbsp_memsim::FEB_FLAG != 0 {
                // Lost: a claim (this round's, or a not-yet-recycled older
                // generation's) holds the slot, and it is released exactly
                // by the holder's `SAC` in `finish` — so declare the wait
                // on the *slot*, not on `cur`: when the holder is an older
                // generation's winner its round-advancing write to `cur`
                // already happened, and only its pending `SAC` is still
                // owed. (A plain `yield_now` on a live machine; a
                // park-until-written under a model checker.)
                nbsp_telemetry::record(nbsp_telemetry::Event::LlRestart);
                proc.await_change(slot);
                continue;
            }
            // Won the slot generation — but for *which* round? Valid iff
            // the round is unchanged: an uncleaned old-generation slot
            // still has its flag set, so a win while `cur.round == r` on
            // both sides of the TFAS can only be round r's.
            let (r2, _) = unpack(proc.read(&self.cur));
            if r2 != r {
                // Round r already completed — bogus win; undo and retry.
                let _ = proc.feb_sac(slot, EMPTY);
                nbsp_telemetry::record(nbsp_telemetry::Event::LlRestart);
                continue;
            }
            return (r, v);
        }
    }

    /// Completes an owned round: publishes `(r + 1, value)` and recycles
    /// the claim slot — in that order, so no claimant can win round `r`
    /// again once the slot frees up.
    fn finish(&self, proc: &Processor, r: u64, value: u64) {
        proc.write(&self.cur, pack(round_succ(r), value));
        let _ = proc.feb_sac(&self.claims[(r as usize) % RING], EMPTY);
    }

    /// Unconditionally stores `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` needs more than [`FEB_VALUE_BITS`] bits, or if
    /// the machine provides no NB-FEB ops.
    pub fn store(&self, proc: &Processor, value: u64) {
        assert!(
            value <= VALUE_MASK,
            "value {value} exceeds {FEB_VALUE_BITS} value bits"
        );
        let (r, _) = self.win_round(proc);
        self.finish(proc, r, value);
    }

    /// CAS: iff the word's value equals `old`, replace it with `new` and
    /// return `true`.
    ///
    /// # Panics
    ///
    /// Panics if `old` or `new` needs more than [`FEB_VALUE_BITS`] bits,
    /// or if the machine provides no NB-FEB ops.
    #[must_use]
    pub fn cas(&self, proc: &Processor, old: u64, new: u64) -> bool {
        assert!(old <= VALUE_MASK, "old value {old} exceeds {FEB_VALUE_BITS} value bits");
        assert!(new <= VALUE_MASK, "new value {new} exceeds {FEB_VALUE_BITS} value bits");
        // Wait-free fast paths, linearized at one load of the
        // authoritative state.
        let (_, v) = unpack(proc.read(&self.cur));
        if v != old {
            return false;
        }
        if old == new {
            return true;
        }
        // Mutation path: win a round. The value may have moved while
        // claiming, so re-check the comparison against the round's
        // own value.
        let (r, v) = self.win_round(proc);
        if v != old {
            // Republishing `v` unchanged keeps the round advancing.
            self.finish(proc, r, v);
            return false;
        }
        self.finish(proc, r, new);
        true
    }
}

/// Storage family for the NB-FEB emulation: each cell is a [`FebWord`]
/// (one plain word plus [`RING`] claim slots), exposing
/// [`FEB_VALUE_BITS`] usable value bits to the layer above.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FebFamily;

impl CasFamily for FebFamily {
    type Cell = FebWord;
    type Mem<'a> = FebCas<'a>;
    const VALUE_BITS: u32 = FEB_VALUE_BITS;

    fn make_cell(value: u64) -> FebWord {
        FebWord::new(value)
    }
}

/// [`CasMemory`] built from NB-FEB test-flag-and-set: "a machine with
/// CAS" synthesized on full/empty-bit hardware, usable underneath every
/// CAS-based construction in this crate.
///
/// ```
/// use nbsp_core::{CasFamily, CasMemory, FebCas, FebFamily};
/// use nbsp_memsim::{InstructionSet, Machine};
///
/// let machine = Machine::builder(1)
///     .instruction_set(InstructionSet::FebOnly)
///     .build();
/// let p = machine.processor(0);
/// let mem = FebCas::new(&p);
/// let cell = FebFamily::make_cell(3);
/// assert!(mem.cas(&cell, 3, 4));
/// assert_eq!(mem.load(&cell), 4);
/// ```
#[derive(Debug)]
pub struct FebCas<'a> {
    proc: &'a Processor,
}

impl<'a> FebCas<'a> {
    /// Wraps a simulated processor as an NB-FEB-backed CAS accessor.
    ///
    /// # Panics
    ///
    /// Panics if the machine's instruction set provides no NB-FEB ops —
    /// checked here, once, so the per-op hot paths can rely on it
    /// (satellite: a typed
    /// [`Error::UnsupportedOp`](crate::Error::UnsupportedOp) is available
    /// through [`SyncMemory`] for callers probing capabilities).
    #[must_use]
    pub fn new(proc: &'a Processor) -> Self {
        let caps = proc.instruction_set().capability();
        assert!(
            caps.contains(Capability::FEB),
            "feb_llsc needs the NB-FEB ops, machine has {caps}"
        );
        FebCas { proc }
    }

    /// Like [`FebCas::new`], but reports a missing instruction as a typed
    /// error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnsupportedOp`](crate::Error::UnsupportedOp) if
    /// the machine's instruction set has no NB-FEB ops.
    pub fn try_new(proc: &'a Processor) -> crate::Result<Self> {
        let caps = proc.instruction_set().capability();
        if !caps.contains(Capability::FEB) {
            return Err(crate::Error::UnsupportedOp {
                op: "feb_tfas",
                have: caps.to_string(),
            });
        }
        Ok(FebCas { proc })
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

impl CasMemory for FebCas<'_> {
    type Family = FebFamily;

    fn load(&self, cell: &FebWord) -> u64 {
        cell.read(self.proc)
    }

    fn store(&self, cell: &FebWord, value: u64) {
        cell.store(self.proc, value);
    }

    fn cas(&self, cell: &FebWord, old: u64, new: u64) -> bool {
        cell.cas(self.proc, old, new)
    }
}

impl SyncMemory for FebCas<'_> {
    /// Offers CAS upward; the FEB ops of the machine beneath are an
    /// implementation detail (see the identical note on `KwCas`).
    fn capabilities(&self) -> Capability {
        Capability::CAS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbsp_memsim::Machine;

    fn feb_machine(n: usize) -> Machine {
        Machine::builder(n)
            .instruction_set(InstructionSet::FebOnly)
            .build()
    }

    #[test]
    fn cas_success_and_failure() {
        let m = feb_machine(1);
        let p = m.processor(0);
        let w = FebWord::new(1);
        assert!(w.cas(&p, 1, 2));
        assert!(!w.cas(&p, 1, 3));
        assert!(w.cas(&p, 2, 3));
        assert_eq!(w.read(&p), 3);
    }

    #[test]
    fn failed_and_trivial_cas_issue_no_tfas() {
        let m = feb_machine(1);
        let p = m.processor(0);
        let w = FebWord::new(5);
        let before = p.stats();
        assert!(!w.cas(&p, 6, 7)); // mismatch: wait-free read path
        assert!(w.cas(&p, 5, 5)); // old == new: wait-free read path
        let after = p.stats();
        assert_eq!(after.febs, before.febs);
    }

    #[test]
    fn rounds_advance_and_slots_recycle() {
        let m = feb_machine(1);
        let p = m.processor(0);
        let w = FebWord::new(0);
        // Push the round counter through several full trips around the
        // claim ring.
        for i in 1..=(3 * RING as u64) {
            w.store(&p, i);
        }
        assert_eq!(w.read(&p), 3 * RING as u64);
        let (round, _) = unpack(w.cur.peek());
        assert_eq!(round, 3 * RING as u64);
        for slot in &w.claims {
            assert_eq!(slot.peek(), EMPTY, "every slot recycled");
        }
    }

    #[test]
    fn concurrent_emulated_cas_counter_is_exact() {
        let m = feb_machine(4);
        let w = FebWord::new(0);
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
    fn concurrent_stores_leave_some_stored_value() {
        let m = feb_machine(3);
        let w = FebWord::new(0);
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
        for slot in &w.claims {
            assert_eq!(slot.peek(), EMPTY, "every slot recycled");
        }
    }

    #[test]
    #[should_panic(expected = "does not provide NB-FEB")]
    fn feb_word_needs_feb_ops() {
        let m = Machine::builder(1)
            .instruction_set(InstructionSet::CasOnly)
            .build();
        let p = m.processor(0);
        let w = FebWord::new(0);
        w.store(&p, 1);
    }

    #[test]
    #[should_panic(expected = "needs the NB-FEB ops")]
    fn feb_cas_rejects_wrong_machine_at_construction() {
        let m = Machine::builder(1)
            .instruction_set(InstructionSet::SwapFaaOnly)
            .build();
        let p = m.processor(0);
        let _ = FebCas::new(&p);
    }

    #[test]
    fn feb_cas_memory_concurrent_counter() {
        let m = feb_machine(4);
        let cell = FebFamily::make_cell(0);
        std::thread::scope(|s| {
            for id in 0..4 {
                let p = m.processor(id);
                let cell = &cell;
                s.spawn(move || {
                    let mem = FebCas::new(&p);
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
        assert_eq!(unpack(cell.cur.peek()).1, 8_000);
    }

    #[test]
    fn try_new_reports_missing_ops_as_typed_error() {
        let m = Machine::builder(1)
            .instruction_set(InstructionSet::SwapFaaOnly)
            .build();
        let p = m.processor(0);
        assert!(matches!(
            FebCas::try_new(&p),
            Err(crate::Error::UnsupportedOp { op: "feb_tfas", .. })
        ));
        let m2 = feb_machine(1);
        let p2 = m2.processor(0);
        assert!(FebCas::try_new(&p2).is_ok());
    }

    #[test]
    fn feb_cas_sync_memory_offers_only_cas() {
        let m = feb_machine(1);
        let p = m.processor(0);
        let mem = FebCas::new(&p);
        assert_eq!(mem.capabilities(), Capability::CAS);
        let cell = FebFamily::make_cell(0);
        assert!(matches!(
            mem.try_feb_tfas(&cell, 1),
            Err(crate::Error::UnsupportedOp { op: "feb_tfas", .. })
        ));
    }
}
