//! **Figure 3 / Theorem 1** — CAS emulated from RLL/RSC.
//!
//! > *"RLL and RSC can be used to implement a CAS operation for small
//! > variables that is wait-free provided there are not infinitely many
//! > spurious failures during one CAS operation; that terminates in constant
//! > time after the last spurious failure; and that has no space overhead."*
//!
//! Each emulated-CAS word holds a tag and a value
//! (`record tag: tagtype; val: valtype end`); the tag detects intervening
//! successful stores, so a failed comparison can be linearized at the first
//! successful RSC after the initial read, and a successful RSC linearizes
//! the whole CAS at its own step. The RLL→RSC window contains **no other
//! memory access**, satisfying the hardware restriction (and the simulator's
//! strict mode can verify that).

use nbsp_memsim::{Capability, Processor, SimWord};

use crate::cas_provider::SyncMemory;
use crate::{CasFamily, CasMemory, Result, TagLayout};

/// A shared word supporting CAS on machines that only provide RLL/RSC.
///
/// The word stores `layout.val_bits()` bits of user value; the remaining
/// `layout.tag_bits()` bits hold the tag that makes the emulation safe
/// against ABA (up to tag wraparound, quantified in experiment E5).
///
/// ```
/// use nbsp_core::{EmuCasWord, TagLayout};
/// use nbsp_memsim::{InstructionSet, Machine};
///
/// // A machine with RLL/RSC but *no* CAS — e.g. a MIPS R4000.
/// let machine = Machine::builder(1)
///     .instruction_set(InstructionSet::RllRscOnly)
///     .build();
/// let p = machine.processor(0);
///
/// let w = EmuCasWord::new(TagLayout::half(), 5)?;
/// assert!(w.cas(&p, 5, 6));   // CAS where the hardware has none
/// assert!(!w.cas(&p, 5, 7));  // old value no longer matches
/// assert_eq!(w.read(&p), 6);
/// # Ok::<(), nbsp_core::Error>(())
/// ```
#[derive(Debug)]
pub struct EmuCasWord {
    cell: SimWord,
    layout: TagLayout,
}

impl EmuCasWord {
    /// Creates an emulated-CAS word with the given tag/value split and
    /// initial value (stored with tag 0).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ValueTooLarge`](crate::Error::ValueTooLarge) if `initial` does not fit the
    /// layout's value field.
    pub fn new(layout: TagLayout, initial: u64) -> Result<Self> {
        let word = layout.pack(0, initial)?;
        Ok(EmuCasWord {
            cell: SimWord::new(word),
            layout,
        })
    }

    /// The word's tag/value layout.
    #[must_use]
    pub fn layout(&self) -> TagLayout {
        self.layout
    }

    /// Reads the current value (one plain load; linearizes at the load).
    #[must_use]
    pub fn read(&self, proc: &Processor) -> u64 {
        self.layout.val(proc.read(&self.cell))
    }

    /// Figure 3's `CAS(addr, old, new)`: iff the word's value equals `old`,
    /// replace it with `new` (and a fresh tag) and return `true`.
    ///
    /// Terminates provided finitely many spurious RSC failures occur during
    /// the call, in constant time after the last one.
    ///
    /// # Panics
    ///
    /// Panics if `old` or `new` does not fit the layout's value field, or if
    /// the machine provides no RLL/RSC.
    #[must_use]
    pub fn cas(&self, proc: &Processor, old: u64, new: u64) -> bool {
        let max = self.layout.max_val();
        assert!(old <= max, "old value {old} exceeds layout maximum {max}");
        assert!(new <= max, "new value {new} exceeds layout maximum {max}");

        // Line 1: read the current word (tag and value together).
        let oldword = proc.read(&self.cell);
        // Line 2: value mismatch — the CAS fails, linearized at the read.
        if self.layout.val(oldword) != old {
            return false;
        }
        // Line 3: old = new — nothing to change; success, linearized at the
        // read. (This shortcut is also what guarantees that any CAS reaching
        // the loop really changes the value, which the failure-linearization
        // argument relies on.)
        if old == new {
            return true;
        }
        // Line 4: prepare the new word with the next tag.
        let newword = self
            .layout
            .pack_unchecked(self.layout.tag_succ(self.layout.tag(oldword)), new);
        // Lines 5–6: retry until the word visibly changes or our RSC lands.
        loop {
            if proc.rll(&self.cell) != oldword {
                // Some successful RSC intervened; since every successful RSC
                // changes the word (fresh tag), the value differed from
                // `old` at that point — fail there.
                return false;
            }
            if proc.rsc(&self.cell, newword) {
                return true;
            }
            // Recorded only after the RSC returns, outside the RLL→RSC
            // no-access window that strict mode polices.
            nbsp_telemetry::record(nbsp_telemetry::Event::LlRestart);
        }
    }
}

/// Storage family for the Figure-3 emulation: cells are [`SimWord`]s whose
/// high `TAG_BITS` bits hold the emulation's internal tag, leaving
/// `64 - TAG_BITS` usable value bits for the layer above.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EmuFamily<const TAG_BITS: u32>;

impl<const TAG_BITS: u32> EmuFamily<TAG_BITS> {
    pub(crate) fn layout() -> TagLayout {
        TagLayout::for_width(TAG_BITS, 64 - TAG_BITS, 64)
            .expect("TAG_BITS must be in 1..=63")
    }
}

impl<const TAG_BITS: u32> CasFamily for EmuFamily<TAG_BITS> {
    type Cell = SimWord;
    type Mem<'a> = EmuCas<'a, TAG_BITS>;
    const VALUE_BITS: u32 = 64 - TAG_BITS;

    fn make_cell(value: u64) -> SimWord {
        let layout = Self::layout();
        let word = layout
            .pack(0, value)
            .unwrap_or_else(|_| panic!("value {value} exceeds {} value bits", 64 - TAG_BITS));
        SimWord::new(word)
    }
}

/// [`CasMemory`] built from Figure 3: "a machine with CAS" synthesized on
/// RLL/RSC-only hardware, usable underneath every CAS-based construction in
/// this crate.
///
/// `TAG_BITS` is the width of the emulation's internal tag; the layer above
/// sees cells of `64 - TAG_BITS` usable bits ([`CasFamily::VALUE_BITS`]).
/// Stacking Figure 4 on top of this type reproduces the paper's "two tags in
/// one word" configuration, whose cost experiment E5 measures.
///
/// ```
/// use nbsp_core::{CasFamily, CasMemory, EmuCas, EmuFamily};
/// use nbsp_memsim::{InstructionSet, Machine};
///
/// let machine = Machine::builder(1)
///     .instruction_set(InstructionSet::RllRscOnly)
///     .build();
/// let p = machine.processor(0);
/// let mem = EmuCas::<16>::new(&p);
/// let cell = EmuFamily::<16>::make_cell(3);
/// assert!(mem.cas(&cell, 3, 4));
/// assert_eq!(mem.load(&cell), 4);
/// ```
#[derive(Debug)]
pub struct EmuCas<'a, const TAG_BITS: u32> {
    proc: &'a Processor,
}

impl<'a, const TAG_BITS: u32> EmuCas<'a, TAG_BITS> {
    /// Wraps a simulated processor as an emulated-CAS accessor.
    #[must_use]
    pub fn new(proc: &'a Processor) -> Self {
        EmuCas { proc }
    }

    /// Like [`EmuCas::new`], but verifies up front that the machine
    /// provides the RLL/RSC pair Figure 3 is built on, so the hot-path ops
    /// cannot hit the simulator's instruction-set panic later.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnsupportedOp`](crate::Error::UnsupportedOp) if
    /// the machine's instruction set has no RLL/RSC.
    pub fn try_new(proc: &'a Processor) -> Result<Self> {
        let caps = proc.instruction_set().capability();
        if !caps.contains(Capability::RLL_RSC) {
            return Err(crate::Error::UnsupportedOp {
                op: "rll",
                have: caps.to_string(),
            });
        }
        Ok(EmuCas { proc })
    }

    /// The underlying processor (for reading stats).
    #[must_use]
    pub fn processor(&self) -> &Processor {
        self.proc
    }

    fn layout() -> TagLayout {
        EmuFamily::<TAG_BITS>::layout()
    }
}

impl<const TAG_BITS: u32> CasMemory for EmuCas<'_, TAG_BITS> {
    type Family = EmuFamily<TAG_BITS>;

    fn load(&self, cell: &SimWord) -> u64 {
        Self::layout().val(self.proc.read(cell))
    }

    fn store(&self, cell: &SimWord, value: u64) {
        // An unconditional store still must not break the tag discipline, so
        // it is an RLL/RSC loop that always installs a fresh tag.
        let layout = Self::layout();
        assert!(
            value <= layout.max_val(),
            "value {value} exceeds {} value bits",
            64 - TAG_BITS
        );
        loop {
            let old = self.proc.rll(cell);
            let new = layout.pack_unchecked(layout.tag_succ(layout.tag(old)), value);
            if self.proc.rsc(cell, new) {
                return;
            }
            nbsp_telemetry::record(nbsp_telemetry::Event::LlRestart);
        }
    }

    fn cas(&self, cell: &SimWord, old: u64, new: u64) -> bool {
        let layout = Self::layout();
        let max = layout.max_val();
        assert!(old <= max, "old value {old} exceeds layout maximum {max}");
        assert!(new <= max, "new value {new} exceeds layout maximum {max}");
        // Figure 3, operating on a borrowed cell.
        let oldword = self.proc.read(cell);
        if layout.val(oldword) != old {
            return false;
        }
        if old == new {
            return true;
        }
        let newword = layout.pack_unchecked(layout.tag_succ(layout.tag(oldword)), new);
        loop {
            if self.proc.rll(cell) != oldword {
                return false;
            }
            if self.proc.rsc(cell, newword) {
                return true;
            }
            nbsp_telemetry::record(nbsp_telemetry::Event::LlRestart);
        }
    }
}

impl<const TAG_BITS: u32> SyncMemory for EmuCas<'_, TAG_BITS> {
    /// What the emulation *offers upward* is exactly CAS; the RLL/RSC pair
    /// beneath is an implementation detail, and exposing it raw would let
    /// a caller silently trample the reservation the emulation depends on.
    /// Weak-op requests therefore get a typed
    /// [`Error::UnsupportedOp`](crate::Error::UnsupportedOp) (satellite:
    /// this used to be an unconditional simulator panic).
    fn capabilities(&self) -> Capability {
        Capability::CAS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbsp_memsim::{AccessBetween, InstructionSet, Machine, SpuriousMode};

    fn rll_machine(n: usize) -> Machine {
        Machine::builder(n)
            .instruction_set(InstructionSet::RllRscOnly)
            .build()
    }

    #[test]
    fn cas_success_and_failure() {
        let m = rll_machine(1);
        let p = m.processor(0);
        let w = EmuCasWord::new(TagLayout::half(), 1).unwrap();
        assert!(w.cas(&p, 1, 2));
        assert!(!w.cas(&p, 1, 3));
        assert!(w.cas(&p, 2, 3));
        assert_eq!(w.read(&p), 3);
    }

    #[test]
    fn cas_old_equals_new_is_a_read() {
        let m = rll_machine(1);
        let p = m.processor(0);
        let w = EmuCasWord::new(TagLayout::half(), 5).unwrap();
        let before = p.stats();
        assert!(w.cas(&p, 5, 5));
        let after = p.stats();
        // Line 3 shortcut: no RLL/RSC issued at all.
        assert_eq!(after.rll, before.rll);
        assert_eq!(after.rsc_attempts, before.rsc_attempts);
        assert!(!w.cas(&p, 6, 6));
    }

    #[test]
    fn cas_survives_spurious_failures() {
        let m = Machine::builder(1)
            .instruction_set(InstructionSet::RllRscOnly)
            .spurious(SpuriousMode::Budget { per_proc: 10 })
            .build();
        let p = m.processor(0);
        let w = EmuCasWord::new(TagLayout::half(), 0).unwrap();
        assert!(w.cas(&p, 0, 1)); // must terminate despite 10 injected failures
        assert_eq!(p.stats().rsc_spurious, 10);
        assert_eq!(w.read(&p), 1);
    }

    #[test]
    fn cas_respects_strict_no_access_window() {
        // Under AccessBetween::Panic the algorithm must never access memory
        // between RLL and RSC. If Figure 3 violated restriction #1 this
        // test would panic.
        let m = Machine::builder(1)
            .instruction_set(InstructionSet::RllRscOnly)
            .access_between(AccessBetween::Panic)
            .build();
        let p = m.processor(0);
        let w = EmuCasWord::new(TagLayout::half(), 7).unwrap();
        assert!(w.cas(&p, 7, 8));
        assert!(!w.cas(&p, 7, 9));
    }

    #[test]
    #[should_panic(expected = "exceeds layout maximum")]
    fn cas_rejects_oversized_value() {
        let m = rll_machine(1);
        let p = m.processor(0);
        let w = EmuCasWord::new(TagLayout::new(60, 4).unwrap(), 0).unwrap();
        let _ = w.cas(&p, 0, 16);
    }

    #[test]
    fn new_rejects_oversized_initial() {
        let layout = TagLayout::new(60, 4).unwrap();
        assert!(matches!(
            EmuCasWord::new(layout, 16),
            Err(crate::Error::ValueTooLarge { value: 16, max: 15 })
        ));
        assert!(EmuCasWord::new(layout, 15).is_ok());
    }

    #[test]
    fn concurrent_emulated_cas_counter_is_exact() {
        let m = rll_machine(4);
        let w = EmuCasWord::new(TagLayout::half(), 0).unwrap();
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
        assert_eq!(TagLayout::half().val(w.cell.peek()), 10_000);
    }

    #[test]
    fn emu_cas_memory_value_bits() {
        assert_eq!(EmuFamily::<16>::VALUE_BITS, 48);
        assert_eq!(EmuFamily::<32>::VALUE_BITS, 32);
    }

    #[test]
    fn emu_cas_memory_store_is_unconditional() {
        let m = rll_machine(1);
        let p = m.processor(0);
        let mem = EmuCas::<8>::new(&p);
        let cell = EmuFamily::<8>::make_cell(1);
        mem.store(&cell, 9);
        assert_eq!(mem.load(&cell), 9);
        mem.store(&cell, 9); // same value: still must succeed
        assert_eq!(mem.load(&cell), 9);
    }

    #[test]
    fn emu_cas_memory_concurrent_counter() {
        let m = rll_machine(4);
        let cell = EmuFamily::<16>::make_cell(0);
        std::thread::scope(|s| {
            for id in 0..4 {
                let p = m.processor(id);
                let cell = &cell;
                s.spawn(move || {
                    let mem = EmuCas::<16>::new(&p);
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
        assert_eq!(
            TagLayout::for_width(16, 48, 64).unwrap().val(cell.peek()),
            8_000
        );
    }

    #[test]
    fn try_new_reports_missing_rll_rsc_as_typed_error() {
        let m = Machine::builder(1)
            .instruction_set(InstructionSet::CasOnly)
            .build();
        let p = m.processor(0);
        let err = EmuCas::<16>::try_new(&p).unwrap_err();
        assert!(matches!(
            err,
            crate::Error::UnsupportedOp { op: "rll", .. }
        ));
        let m2 = rll_machine(1);
        let p2 = m2.processor(0);
        assert!(EmuCas::<16>::try_new(&p2).is_ok());
    }

    #[test]
    fn emu_cas_sync_memory_offers_only_cas() {
        use crate::SyncMemory;
        let m = rll_machine(1);
        let p = m.processor(0);
        let mem = EmuCas::<16>::new(&p);
        assert_eq!(mem.capabilities(), Capability::CAS);
        let cell = EmuFamily::<16>::make_cell(0);
        assert!(matches!(
            mem.try_rll(&cell),
            Err(crate::Error::UnsupportedOp { op: "rll", .. })
        ));
        assert!(matches!(
            mem.try_swap(&cell, 1),
            Err(crate::Error::UnsupportedOp { op: "swap", .. })
        ));
    }

    #[test]
    #[should_panic(expected = "does not provide RLL/RSC")]
    fn emulated_cas_needs_rll_rsc() {
        let m = Machine::builder(1)
            .instruction_set(InstructionSet::CasOnly)
            .build();
        let p = m.processor(0);
        let w = EmuCasWord::new(TagLayout::half(), 0).unwrap();
        let _ = w.cas(&p, 0, 1);
    }
}
