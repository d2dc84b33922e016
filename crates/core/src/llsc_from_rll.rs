//! **Figure 5 / Theorem 3** — LL/VL/SC implemented *directly* from RLL/RSC.
//!
//! Combining Figures 3 and 4 naively puts **two** tags in each word (one for
//! the emulated CAS, one for the LL/SC layer), "substantially reducing the
//! time needed for the tags to wrap around". Figure 5 fuses the two
//! constructions so a single tag suffices:
//!
//! * `LL` is a plain read saved into the caller's `keep`;
//! * `VL` is a plain read compared against `keep`;
//! * `SC` retries a tight RLL→RSC pair until the word visibly changes
//!   (fail — some other SC succeeded) or its own RSC lands (success).
//!
//! > *"RLL and RSC can be used with no space overhead to implement for small
//! > variables constant-time LL and VL operations, and a SC operation that
//! > is wait-free provided only finitely many spurious failures occur during
//! > one invocation of SC, and that terminates in constant time after the
//! > last spurious failure."*
//!
//! Note how this defeats the single-`LLBit` restriction: the *user-level*
//! LL does not use RLL at all, so any number of LL–SC sequences can be in
//! flight per process; only the short window inside `SC` occupies the
//! hardware reservation.

use nbsp_memsim::{Processor, SimWord};

use crate::{Keep, Result, TagLayout};

/// A small variable supporting LL/VL/SC on machines that provide only
/// RLL/RSC (MIPS R4000, Alpha, PowerPC in the paper's survey).
///
/// ```
/// use nbsp_core::{RllLlSc, Keep, TagLayout};
/// use nbsp_memsim::{InstructionSet, Machine};
///
/// let machine = Machine::builder(1)
///     .instruction_set(InstructionSet::RllRscOnly)
///     .build();
/// let p = machine.processor(0);
///
/// let v = RllLlSc::new(TagLayout::half(), 10)?;
/// let mut keep = Keep::default();
/// let x = v.ll(&p, &mut keep);
/// assert!(v.vl(&p, &keep));
/// assert!(v.sc(&p, &keep, x + 1));
/// assert_eq!(v.read(&p), 11);
/// # Ok::<(), nbsp_core::Error>(())
/// ```
#[derive(Debug)]
pub struct RllLlSc {
    cell: SimWord,
    layout: TagLayout,
}

impl RllLlSc {
    /// Creates a variable with the given tag/value split and initial value
    /// (tag 0).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ValueTooLarge`](crate::Error::ValueTooLarge) if
    /// `initial` does not fit the layout's value field.
    #[inline]
    pub fn new(layout: TagLayout, initial: u64) -> Result<Self> {
        let word = layout.pack(0, initial)?;
        Ok(RllLlSc {
            cell: SimWord::new(word),
            layout,
        })
    }

    /// The variable's tag/value layout.
    #[must_use]
    pub fn layout(&self) -> TagLayout {
        self.layout
    }

    /// Figure 5's `LL`: a plain read saved into `keep`. Linearizes at the
    /// read. Uses no reservation, so sequences may overlap freely.
    pub fn ll(&self, proc: &Processor, keep: &mut Keep) -> u64 {
        let word = proc.read(&self.cell);
        keep.0 = Some(word);
        self.layout.val(word)
    }

    /// Figure 5's `VL`: true iff the word still equals `keep` (`false` for
    /// a keep no LL filled). Linearizes at the read.
    #[must_use]
    pub fn vl(&self, proc: &Processor, keep: &Keep) -> bool {
        keep.0.is_some_and(|word| word == proc.read(&self.cell))
    }

    /// Figure 5's `SC`: attempts to install `(keep.tag ⊕ 1, new)` with a
    /// tight RLL→RSC retry loop. Wait-free given finitely many spurious
    /// failures; constant time after the last one. Fails without touching
    /// the word for a keep no LL filled.
    ///
    /// # Panics
    ///
    /// Panics if `new` does not fit the layout's value field, or if the
    /// machine provides no RLL/RSC.
    #[must_use]
    pub fn sc(&self, proc: &Processor, keep: &Keep, new: u64) -> bool {
        assert!(
            new <= self.layout.max_val(),
            "value {new} exceeds layout maximum {}",
            self.layout.max_val()
        );
        let Some(oldword) = keep.0 else {
            return false;
        };
        let newword = self
            .layout
            .pack_unchecked(self.layout.tag_succ(self.layout.tag(oldword)), new);
        loop {
            if proc.rll(&self.cell) != oldword {
                return false;
            }
            if proc.rsc(&self.cell, newword) {
                return true;
            }
        }
    }

    /// Reads the current value. Linearizes at the read.
    #[must_use]
    pub fn read(&self, proc: &Processor) -> u64 {
        self.layout.val(proc.read(&self.cell))
    }

    /// The tag currently stored (for tests and wraparound experiments).
    #[must_use]
    pub fn current_tag(&self, proc: &Processor) -> u64 {
        self.layout.tag(proc.read(&self.cell))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbsp_memsim::{AccessBetween, InstructionSet, Machine, SpuriousMode};

    fn machine(n: usize) -> Machine {
        Machine::builder(n)
            .instruction_set(InstructionSet::RllRscOnly)
            .build()
    }

    #[test]
    fn sc_and_vl_without_ll_fail() {
        // A fresh 0-initialised word packs to 0 (tag 0, value 0): exactly
        // what an unfilled keep would hold if it were a bare word.
        let m = machine(1);
        let p = m.processor(0);
        let v = RllLlSc::new(TagLayout::half(), 0).unwrap();
        let k = Keep::default();
        assert!(!v.vl(&p, &k));
        assert!(!v.sc(&p, &k, 5), "an SC no LL preceded must fail");
        assert_eq!((v.read(&p), v.current_tag(&p)), (0, 0));
    }

    #[test]
    fn ll_vl_sc_cycle() {
        let m = machine(1);
        let p = m.processor(0);
        let v = RllLlSc::new(TagLayout::half(), 3).unwrap();
        let mut k = Keep::default();
        assert_eq!(v.ll(&p, &mut k), 3);
        assert!(v.vl(&p, &k));
        assert!(v.sc(&p, &k, 4));
        assert!(!v.vl(&p, &k));
        assert_eq!(v.read(&p), 4);
    }

    #[test]
    fn stale_keep_fails() {
        let m = machine(1);
        let p = m.processor(0);
        let v = RllLlSc::new(TagLayout::half(), 0).unwrap();
        let mut k1 = Keep::default();
        let mut k2 = Keep::default();
        let _ = v.ll(&p, &mut k1);
        let _ = v.ll(&p, &mut k2);
        assert!(v.sc(&p, &k1, 1));
        assert!(!v.sc(&p, &k2, 2));
        assert_eq!(v.read(&p), 1);
    }

    #[test]
    fn concurrent_sequences_on_one_llbit_machine() {
        // This is Figure 1(a) made legal: two in-flight LL–SC sequences on
        // one processor with a single hardware reservation.
        let m = machine(1);
        let p = m.processor(0);
        let x = RllLlSc::new(TagLayout::half(), 10).unwrap();
        let y = RllLlSc::new(TagLayout::half(), 20).unwrap();
        let mut kx = Keep::default();
        let mut ky = Keep::default();
        let vx = x.ll(&p, &mut kx);
        let vy = y.ll(&p, &mut ky);
        assert!(x.vl(&p, &kx));
        assert!(y.sc(&p, &ky, vy + 1));
        assert!(x.sc(&p, &kx, vx + 1));
        assert_eq!((x.read(&p), y.read(&p)), (11, 21));
    }

    #[test]
    fn sc_tolerates_spurious_failures() {
        let m = Machine::builder(1)
            .instruction_set(InstructionSet::RllRscOnly)
            .spurious(SpuriousMode::Budget { per_proc: 7 })
            .build();
        let p = m.processor(0);
        let v = RllLlSc::new(TagLayout::half(), 0).unwrap();
        let mut k = Keep::default();
        let _ = v.ll(&p, &mut k);
        assert!(v.sc(&p, &k, 1));
        assert_eq!(p.stats().rsc_spurious, 7);
    }

    #[test]
    fn sc_obeys_strict_no_access_window() {
        let m = Machine::builder(1)
            .instruction_set(InstructionSet::RllRscOnly)
            .access_between(AccessBetween::Panic)
            .build();
        let p = m.processor(0);
        let v = RllLlSc::new(TagLayout::half(), 0).unwrap();
        let mut k = Keep::default();
        let _ = v.ll(&p, &mut k);
        assert!(v.sc(&p, &k, 1));
    }

    #[test]
    fn sc_after_value_aba_fails() {
        let m = machine(1);
        let p = m.processor(0);
        let v = RllLlSc::new(TagLayout::half(), 1).unwrap();
        let mut k0 = Keep::default();
        let _ = v.ll(&p, &mut k0);
        for target in [2, 1] {
            let mut k = Keep::default();
            let _ = v.ll(&p, &mut k);
            assert!(v.sc(&p, &k, target));
        }
        assert_eq!(v.read(&p), 1);
        assert!(!v.sc(&p, &k0, 9));
    }

    #[test]
    fn concurrent_increment_is_exact() {
        let m = machine(4);
        let v = RllLlSc::new(TagLayout::half(), 0).unwrap();
        std::thread::scope(|s| {
            for id in 0..4 {
                let p = m.processor(id);
                let v = &v;
                s.spawn(move || {
                    for _ in 0..2_500 {
                        loop {
                            let mut k = Keep::default();
                            let val = v.ll(&p, &mut k);
                            if v.sc(&p, &k, val + 1) {
                                break;
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(TagLayout::half().val(v.cell.peek()), 10_000);
    }

    #[test]
    fn tag_advances_once_per_successful_sc() {
        let m = machine(1);
        let p = m.processor(0);
        let v = RllLlSc::new(TagLayout::new(8, 8).unwrap(), 0).unwrap();
        for i in 1..=300u64 {
            let mut k = Keep::default();
            let val = v.ll(&p, &mut k);
            assert!(v.sc(&p, &k, (val + 1) & 0xFF));
            assert_eq!(v.current_tag(&p), i & 0xFF); // wraps modulo 2^8
        }
    }

    #[test]
    #[should_panic(expected = "exceeds layout maximum")]
    fn sc_panics_on_oversized_value() {
        let m = machine(1);
        let p = m.processor(0);
        let v = RllLlSc::new(TagLayout::new(60, 4).unwrap(), 0).unwrap();
        let mut k = Keep::default();
        let _ = v.ll(&p, &mut k);
        let _ = v.sc(&p, &k, 16);
    }
}
