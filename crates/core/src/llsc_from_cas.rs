//! **Figure 4 / Theorem 2** — LL/VL/SC emulated from CAS.
//!
//! > *"CAS can be used to implement constant-time LL, VL, and SC operations
//! > for small variables with no space overhead."*
//!
//! This is the paper's simplest and most broadly deployable construction,
//! and it showcases the paper's proposed **interface modification**: `LL`
//! takes a pointer to a private word (`keep`), writes the observed
//! tag+value word there, and `VL`/`SC` receive that word back. Because the
//! caller carries the association between the LL and its later VL/SC, the
//! implementation needs no lookup structure — avoiding "a fundamental
//! space-time tradeoff that would render the implementation impractical"
//! (measured in experiment E8 via [`crate::keep_search`]).
//!
//! Unlike hardware LL/SC, any number of LL–SC sequences may be in flight
//! concurrently, across variables *and* within one process — each sequence
//! is just another `Keep` word.

use std::marker::PhantomData;

use crate::{CasFamily, CasMemory, Error, Native, Result, TagLayout};

/// The private word LL writes and VL/SC read back — the paper's `keep`.
///
/// One `Keep` per LL–SC sequence; it normally lives on the caller's stack
/// (which is why the paper does not count it as space overhead).
/// `Keep::default()` holds no word until an LL fills it, and VL and SC on
/// an unfilled keep return `false`: an SC that no LL preceded has no
/// sequence to complete (Figure 2), even where the variable's word happens
/// to equal an all-zero keep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Keep(pub(crate) Option<u64>);

/// A small variable supporting LL/VL/SC over any [`CasMemory`].
///
/// The variable stores `layout.val_bits()` bits of user value together with
/// a `layout.tag_bits()`-bit tag in one cell of `M` (which must have enough
/// usable bits — stacking on the Figure-3 emulated CAS shrinks the budget).
///
/// ```
/// use nbsp_core::{CasLlSc, Keep, TagLayout};
///
/// let v = CasLlSc::new_native(TagLayout::half(), 10)?;
/// let mem = nbsp_core::Native;
///
/// let mut keep = Keep::default();
/// let x = v.ll(&mem, &mut keep);
/// assert_eq!(x, 10);
/// assert!(v.vl(&mem, &keep));       // still unchanged
/// assert!(v.sc(&mem, &keep, x + 1)); // store-conditional succeeds
/// assert!(!v.sc(&mem, &keep, 99));   // keep is stale now
/// assert_eq!(v.read(&mem), 11);
/// # Ok::<(), nbsp_core::Error>(())
/// ```
#[derive(Debug)]
pub struct CasLlSc<F: CasFamily = Native> {
    cell: F::Cell,
    layout: TagLayout,
    _family: PhantomData<fn() -> F>,
}

impl CasLlSc<Native> {
    /// Creates a variable backed by native atomics (the common case).
    ///
    /// # Errors
    ///
    /// See [`CasLlSc::new`].
    #[inline]
    pub fn new_native(layout: TagLayout, initial: u64) -> Result<Self> {
        Self::new(layout, initial)
    }
}

impl<F: CasFamily> CasLlSc<F> {
    /// Creates a variable with the given tag/value split and initial value
    /// (tag 0).
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidLayout`] if the layout needs more bits than the
    ///   family provides ([`CasFamily::VALUE_BITS`]).
    /// * [`Error::ValueTooLarge`] if `initial` does not fit the value field.
    #[inline]
    pub fn new(layout: TagLayout, initial: u64) -> Result<Self> {
        if layout.total_bits() > F::VALUE_BITS {
            return Err(Error::InvalidLayout {
                tag_bits: layout.tag_bits(),
                val_bits: layout.val_bits(),
                available: F::VALUE_BITS,
            });
        }
        let word = layout.pack(0, initial)?;
        Ok(CasLlSc {
            cell: F::make_cell(word),
            layout,
            _family: PhantomData,
        })
    }

    /// The variable's tag/value layout.
    #[inline]
    #[must_use]
    pub fn layout(&self) -> TagLayout {
        self.layout
    }

    /// Figure 4's `LL(addr, keep)`: copies the word into `keep` and returns
    /// the value field. Linearizes at the read.
    ///
    /// **Ordering — acquire.** The whole construction lives in one cell, so
    /// linearizability needs only that cell's coherence order, which every
    /// ordering provides. Acquire (not relaxed) is still required so that,
    /// when a caller publishes side data before its release-SC (e.g. a
    /// stack node written before the head swing), the LL that observes the
    /// SC's word also observes that data. Nothing in any construction's
    /// proof appeals to a *total* order over distinct variables, so
    /// `SeqCst` buys nothing here.
    #[inline]
    pub fn ll<M: CasMemory<Family = F>>(&self, mem: &M, keep: &mut Keep) -> u64 {
        let word = mem.load_acquire(&self.cell);
        keep.0 = Some(word);
        self.layout.val(word)
    }

    /// Figure 4's `VL(addr, keep)`: true iff no successful SC hit the
    /// variable since the LL that wrote `keep` (`false` for a keep no LL
    /// filled). Linearizes at the read.
    ///
    /// **Ordering — acquire.** VL compares against the same single cell the
    /// LL read; coherence alone decides the boolean. Acquire keeps the
    /// read-side publication guarantee symmetric with [`CasLlSc::ll`].
    #[inline]
    #[must_use]
    pub fn vl<M: CasMemory<Family = F>>(&self, mem: &M, keep: &Keep) -> bool {
        keep.0
            .is_some_and(|word| word == mem.load_acquire(&self.cell))
    }

    /// Figure 4's `SC(addr, keep, new)`: one CAS from the kept word to
    /// `(keep.tag ⊕ 1, new)`. Linearizes at the CAS; fails without one for
    /// a keep no LL filled.
    ///
    /// **Ordering — acquire-release.** A successful SC is the release half
    /// of the publication chain whose acquire half is [`CasLlSc::ll`]: it
    /// orders the caller's preceding writes before the new tagged word.
    /// Whether the CAS succeeds is decided by the cell's coherence order —
    /// exactly one CAS can take the cell from `keep.0` to a successor tag —
    /// so strengthening to `SeqCst` cannot change any outcome, only add a
    /// fence. On failure an acquire read of the current word suffices
    /// (the value is discarded).
    ///
    /// # Panics
    ///
    /// Panics if `new` does not fit the layout's value field.
    #[inline]
    #[must_use]
    pub fn sc<M: CasMemory<Family = F>>(&self, mem: &M, keep: &Keep, new: u64) -> bool {
        assert!(
            new <= self.layout.max_val(),
            "value {new} exceeds layout maximum {}",
            self.layout.max_val()
        );
        let Some(old) = keep.0 else {
            return false;
        };
        let newword = self
            .layout
            .pack_unchecked(self.layout.tag_succ(self.layout.tag(old)), new);
        let ok = mem.cas_acqrel(&self.cell, old, newword);
        nbsp_telemetry::record(if ok {
            nbsp_telemetry::Event::ScSuccess
        } else {
            nbsp_telemetry::Event::ScFail
        });
        ok
    }

    /// Reads the current value (not part of the paper's interface, but an
    /// LL whose keep is discarded; linearizes at the read).
    ///
    /// **Ordering — acquire**, same argument as [`CasLlSc::ll`].
    #[inline]
    #[must_use]
    pub fn read<M: CasMemory<Family = F>>(&self, mem: &M) -> u64 {
        self.layout.val(mem.load_acquire(&self.cell))
    }

    /// The tag currently stored (for tests and wraparound experiments).
    #[inline]
    #[must_use]
    pub fn current_tag<M: CasMemory<Family = F>>(&self, mem: &M) -> u64 {
        self.layout.tag(mem.load_acquire(&self.cell))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EmuCas, EmuFamily, SimCas, SimFamily};
    use nbsp_memsim::{InstructionSet, Machine};

    fn native_var(initial: u64) -> CasLlSc<Native> {
        CasLlSc::new(TagLayout::half(), initial).unwrap()
    }

    #[test]
    fn sc_and_vl_without_ll_fail() {
        // A fresh 0-initialised word packs to 0 (tag 0, value 0): exactly
        // what an unfilled keep would hold if it were a bare word.
        let v = native_var(0);
        let mem = Native;
        let k = Keep::default();
        assert!(!v.vl(&mem, &k));
        assert!(!v.sc(&mem, &k, 5), "an SC no LL preceded must fail");
        assert_eq!((v.read(&mem), v.current_tag(&mem)), (0, 0));
    }

    #[test]
    fn ll_sc_basic_cycle() {
        let v = native_var(1);
        let mem = Native;
        let mut k = Keep::default();
        assert_eq!(v.ll(&mem, &mut k), 1);
        assert!(v.vl(&mem, &k));
        assert!(v.sc(&mem, &k, 2));
        assert_eq!(v.read(&mem), 2);
    }

    #[test]
    fn sc_fails_after_interfering_sc() {
        let v = native_var(1);
        let mem = Native;
        let mut k1 = Keep::default();
        let mut k2 = Keep::default();
        let _ = v.ll(&mem, &mut k1);
        let _ = v.ll(&mem, &mut k2);
        assert!(v.sc(&mem, &k1, 5));
        assert!(!v.vl(&mem, &k2));
        assert!(!v.sc(&mem, &k2, 6));
        assert_eq!(v.read(&mem), 5);
    }

    #[test]
    fn sc_fails_even_if_value_was_restored() {
        // The tag defeats ABA on values: 1 -> 2 -> 1 must still fail k0.
        let v = native_var(1);
        let mem = Native;
        let mut k0 = Keep::default();
        let _ = v.ll(&mem, &mut k0);

        let mut k = Keep::default();
        let _ = v.ll(&mem, &mut k);
        assert!(v.sc(&mem, &k, 2));
        let _ = v.ll(&mem, &mut k);
        assert!(v.sc(&mem, &k, 1));

        assert_eq!(v.read(&mem), 1); // value restored…
        assert!(!v.vl(&mem, &k0)); // …but VL sees the change
        assert!(!v.sc(&mem, &k0, 9)); // …and SC fails, as the spec demands
    }

    #[test]
    fn concurrent_sequences_within_one_process() {
        // Impossible on hardware LL/SC (one LLBit); routine here.
        let x = native_var(10);
        let y = native_var(20);
        let mem = Native;
        let mut kx = Keep::default();
        let mut ky = Keep::default();
        let vx = x.ll(&mem, &mut kx);
        let vy = y.ll(&mem, &mut ky);
        assert!(x.vl(&mem, &kx));
        assert!(y.sc(&mem, &ky, vy + 1));
        assert!(x.sc(&mem, &kx, vx + 1));
        assert_eq!((x.read(&mem), y.read(&mem)), (11, 21));
    }

    #[test]
    fn tag_increments_on_each_successful_sc() {
        let v = native_var(0);
        let mem = Native;
        for i in 0..5 {
            assert_eq!(v.current_tag(&mem), i);
            let mut k = Keep::default();
            let val = v.ll(&mem, &mut k);
            assert!(v.sc(&mem, &k, val + 1));
        }
    }

    #[test]
    fn rejects_layout_too_big_for_memory() {
        // Over the Figure-3 emulation with a 32-bit internal tag, only 32
        // bits remain — a 33-bit layout must be rejected.
        let r = CasLlSc::<EmuFamily<32>>::new(TagLayout::new(17, 16).unwrap(), 0);
        assert!(matches!(r, Err(Error::InvalidLayout { available: 32, .. })));
        assert!(CasLlSc::<EmuFamily<32>>::new(TagLayout::for_width(16, 16, 32).unwrap(), 0).is_ok());
    }

    #[test]
    fn rejects_oversized_initial() {
        let r = CasLlSc::<Native>::new(TagLayout::new(60, 4).unwrap(), 16);
        assert!(matches!(r, Err(Error::ValueTooLarge { .. })));
    }

    #[test]
    #[should_panic(expected = "exceeds layout maximum")]
    fn sc_panics_on_oversized_value() {
        let v = CasLlSc::<Native>::new(TagLayout::new(60, 4).unwrap(), 0).unwrap();
        let mem = Native;
        let mut k = Keep::default();
        let _ = v.ll(&mem, &mut k);
        let _ = v.sc(&mem, &k, 16);
    }

    #[test]
    fn works_over_simulated_cas_only_machine() {
        let m = Machine::builder(3)
            .instruction_set(InstructionSet::CasOnly)
            .build();
        let reader = m.processor(2);
        let v = CasLlSc::<SimFamily>::new(TagLayout::half(), 0).unwrap();
        std::thread::scope(|s| {
            for id in 0..2 {
                let p = m.processor(id);
                let v = &v;
                s.spawn(move || {
                    let mem = SimCas::new(&p);
                    for _ in 0..2_000 {
                        loop {
                            let mut k = Keep::default();
                            let val = v.ll(&mem, &mut k);
                            if v.sc(&mem, &k, val + 1) {
                                break;
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(v.read(&SimCas::new(&reader)), 4_000);
    }

    #[test]
    fn works_over_emulated_cas_on_llsc_only_machine() {
        // The full stack: Figure 4 over Figure 3 over RLL/RSC — an LL/VL/SC
        // with concurrent sequences on a machine with one LLBit and no CAS.
        let m = Machine::builder(2)
            .instruction_set(InstructionSet::RllRscOnly)
            .build();
        let v = CasLlSc::<EmuFamily<32>>::new(TagLayout::for_width(16, 16, 32).unwrap(), 0)
            .unwrap();
        std::thread::scope(|s| {
            for id in 0..2 {
                let p = m.processor(id);
                let v = &v;
                s.spawn(move || {
                    let mem = EmuCas::<32>::new(&p);
                    for _ in 0..500 {
                        loop {
                            let mut k = Keep::default();
                            let val = v.ll(&mem, &mut k);
                            if v.sc(&mem, &k, (val + 1) & 0xFFFF) {
                                break;
                            }
                        }
                    }
                });
            }
        });
        let m_check = Machine::builder(1)
            .instruction_set(InstructionSet::RllRscOnly)
            .build();
        let p = m_check.processor(0);
        let mem = EmuCas::<32>::new(&p);
        assert_eq!(v.read(&mem), 1000);
    }
}
