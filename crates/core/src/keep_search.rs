//! **Ablation (experiment E8)** — LL/VL/SC *without* the paper's interface
//! modification.
//!
//! Section 3.2 argues that passing a pointer to a private `keep` word to LL
//! "obviates the need to search for information associated with the variable
//! being accessed, thereby avoiding a fundamental space-time tradeoff that
//! would render the implementation impractical". This module implements the
//! road *not* taken, in both directions of that tradeoff, so the claim can
//! be measured rather than assumed:
//!
//! * [`PerVarKeepVar`] spends **space**: each variable owns an `N`-entry
//!   keep array indexed by process id — Θ(NT) extra words for T variables
//!   (vs. zero for [`CasLlSc`](crate::CasLlSc)), and at most one LL–SC
//!   sequence per process per variable.
//! * [`RegistryKeepVar`] spends **time**: a shared registry maps
//!   (process, variable) to the kept word, so every operation pays a lookup
//!   — and because the registry needs its own synchronization, the result
//!   is not even non-blocking. This is the "impractical" corner the paper
//!   warns about; it exists here purely as a measured baseline.
//!
//! Both use the same tag discipline as Figure 4; only the *association
//! mechanism* differs, which is exactly the variable E8 isolates (E3
//! charts the per-variable array's space).
//!
//! **Deliberately not [`LlScVar`](crate::LlScVar)s.** One kept word per
//! (process, variable) is Figure 2's one link per process: a process's
//! second `ll` on a variable replaces its first, so the two cannot be
//! independent sequences, which the trait's contract requires. E3 and E8
//! call the inherent `ll(p)`/`vl(p)`/`sc(p, v)` directly, and the type
//! system keeps the ablations out of everything built on the trait, the
//! registry and multi-word LLX/SCX included. Their own correctness is
//! checked as what they are: `nbsp_check`'s certificates run them under
//! DPOR against Figure 2's per-process specification.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use nbsp_memsim::sched::{self, AccessKind};
use nbsp_memsim::{CachePadded, ProcId};

use crate::{Error, Result, TagLayout};

/// Schedule-point before an access to the shared `cell`. The keep slots
/// ([`PerVarKeepVar::keeps`]) and the registry's per-`(process, variable)`
/// map entries are written and read only by their owning process, so only
/// the cell needs a yield for model checking; the registry's `RwLock` is
/// never held across a yield.
#[inline]
fn hook(cell: &AtomicU64, kind: AccessKind) {
    let _ = sched::yield_point(std::ptr::from_ref(cell) as usize, kind);
}

/// Figure-4 LL/VL/SC with a per-variable keep array instead of
/// caller-supplied keeps: the space side of the tradeoff (Θ(N) per
/// variable).
///
/// ```
/// use nbsp_core::keep_search::PerVarKeepVar;
/// use nbsp_core::TagLayout;
/// use nbsp_memsim::ProcId;
///
/// let v = PerVarKeepVar::new(4, TagLayout::half(), 7)?;
/// let p = ProcId::new(1);
/// let x = v.ll(p);
/// assert!(v.vl(p));
/// assert!(v.sc(p, x + 1));
/// assert_eq!(v.read(), 8);
/// # Ok::<(), nbsp_core::Error>(())
/// ```
#[derive(Debug)]
pub struct PerVarKeepVar {
    cell: AtomicU64,
    /// `keeps[p]` is written by `p`'s LL and read by `p`'s VL/SC — never by
    /// another process. Padded so that the per-process slots (which each
    /// process hits on every operation) do not false-share; this is
    /// exactly the per-process-slot pattern the announce arrays fix too.
    keeps: Vec<CachePadded<AtomicU64>>,
    layout: TagLayout,
}

impl PerVarKeepVar {
    /// Creates a variable for `n` processes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDomain`] if `n` is zero, or
    /// [`Error::ValueTooLarge`] if `initial` does not fit the layout.
    pub fn new(n: usize, layout: TagLayout, initial: u64) -> Result<Self> {
        if n == 0 {
            return Err(Error::InvalidDomain {
                what: "n (number of processes) must be positive",
            });
        }
        let word = layout.pack(0, initial)?;
        Ok(PerVarKeepVar {
            cell: AtomicU64::new(word),
            keeps: (0..n)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            layout,
        })
    }

    /// Extra words this variable reserves for keep storage (`N`) — the
    /// space cost E8 charts against T.
    #[must_use]
    pub fn space_overhead_words(&self) -> usize {
        self.keeps.len()
    }

    /// LL: stores the observed word in this variable's slot for `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn ll(&self, p: ProcId) -> u64 {
        // Acquire on the shared cell (pairs with the release CAS in `sc`);
        // the keep slot is process-private, so Relaxed is exact there.
        hook(&self.cell, AccessKind::Read);
        let w = self.cell.load(Ordering::Acquire);
        self.keeps[p.index()].store(w, Ordering::Relaxed);
        self.layout.val(w)
    }

    /// VL against the stored keep for `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn vl(&self, p: ProcId) -> bool {
        // Single-cell coherence decides the comparison; see CasLlSc::vl.
        let keep = self.keeps[p.index()].load(Ordering::Relaxed);
        hook(&self.cell, AccessKind::Read);
        keep == self.cell.load(Ordering::Acquire)
    }

    /// SC against the stored keep for `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or `new` does not fit the layout.
    #[must_use]
    pub fn sc(&self, p: ProcId, new: u64) -> bool {
        assert!(
            new <= self.layout.max_val(),
            "value {new} exceeds layout maximum {}",
            self.layout.max_val()
        );
        let keep = self.keeps[p.index()].load(Ordering::Relaxed);
        let neww = self
            .layout
            .pack_unchecked(self.layout.tag_succ(self.layout.tag(keep)), new);
        // AcqRel: success is the release publication point (same argument
        // as CasLlSc::sc); failure only needs the acquire read.
        hook(&self.cell, AccessKind::Cas);
        self.cell
            .compare_exchange(keep, neww, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Reads the current value.
    #[must_use]
    pub fn read(&self) -> u64 {
        hook(&self.cell, AccessKind::Read);
        self.layout.val(self.cell.load(Ordering::Acquire))
    }
}

/// Shared keep registry: maps (process, variable id) to the kept word.
/// Create one, share it among all [`RegistryKeepVar`]s.
#[derive(Debug, Default)]
pub struct KeepRegistry {
    map: RwLock<HashMap<(usize, u64), u64>>,
}

impl KeepRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(KeepRegistry::default())
    }

    /// Number of live (process, variable) associations (for space audits).
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.read().unwrap().len()
    }

    /// True iff no associations are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.read().unwrap().is_empty()
    }
}

/// Figure-4 LL/VL/SC with registry lookup instead of caller-supplied keeps:
/// the time side of the tradeoff (every operation searches a shared map,
/// which itself needs blocking synchronization).
///
/// ```
/// use nbsp_core::keep_search::{KeepRegistry, RegistryKeepVar};
/// use nbsp_core::TagLayout;
/// use nbsp_memsim::ProcId;
///
/// let registry = KeepRegistry::new();
/// let v = RegistryKeepVar::new(&registry, 1, TagLayout::half(), 3)?;
/// let p = ProcId::new(0);
/// let x = v.ll(p);
/// assert!(v.sc(p, x + 1));
/// assert_eq!(v.read(), 4);
/// # Ok::<(), nbsp_core::Error>(())
/// ```
#[derive(Debug)]
pub struct RegistryKeepVar {
    cell: AtomicU64,
    id: u64,
    registry: Arc<KeepRegistry>,
    layout: TagLayout,
}

static NEXT_VAR_ID: AtomicU64 = AtomicU64::new(0);

impl RegistryKeepVar {
    /// Creates a variable using `registry` for keep association.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ValueTooLarge`] if `initial` does not fit the
    /// layout. (`_n` is accepted for interface symmetry; the registry does
    /// not need it.)
    pub fn new(
        registry: &Arc<KeepRegistry>,
        _n: usize,
        layout: TagLayout,
        initial: u64,
    ) -> Result<Self> {
        let word = layout.pack(0, initial)?;
        Ok(RegistryKeepVar {
            cell: AtomicU64::new(word),
            id: NEXT_VAR_ID.fetch_add(1, Ordering::Relaxed),
            registry: Arc::clone(registry),
            layout,
        })
    }

    /// LL: records the observed word in the registry under (p, var).
    #[must_use]
    pub fn ll(&self, p: ProcId) -> u64 {
        hook(&self.cell, AccessKind::Read);
        let w = self.cell.load(Ordering::Acquire);
        self.registry
            .map
            .write()
            .unwrap()
            .insert((p.index(), self.id), w);
        self.layout.val(w)
    }

    /// VL via registry lookup.
    ///
    /// # Panics
    ///
    /// Panics if `p` has no LL in progress on this variable.
    #[must_use]
    pub fn vl(&self, p: ProcId) -> bool {
        let keep = *self
            .registry
            .map
            .read()
            .unwrap()
            .get(&(p.index(), self.id))
            .expect("VL without a preceding LL");
        hook(&self.cell, AccessKind::Read);
        keep == self.cell.load(Ordering::Acquire)
    }

    /// SC via registry lookup; removes the association.
    ///
    /// # Panics
    ///
    /// Panics if `p` has no LL in progress on this variable, or `new` does
    /// not fit the layout.
    #[must_use]
    pub fn sc(&self, p: ProcId, new: u64) -> bool {
        assert!(
            new <= self.layout.max_val(),
            "value {new} exceeds layout maximum {}",
            self.layout.max_val()
        );
        let keep = self
            .registry
            .map
            .write()
            .unwrap()
            .remove(&(p.index(), self.id))
            .expect("SC without a preceding LL");
        let neww = self
            .layout
            .pack_unchecked(self.layout.tag_succ(self.layout.tag(keep)), new);
        hook(&self.cell, AccessKind::Cas);
        self.cell
            .compare_exchange(keep, neww, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Reads the current value.
    #[must_use]
    pub fn read(&self) -> u64 {
        hook(&self.cell, AccessKind::Read);
        self.layout.val(self.cell.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_var_basic_cycle() {
        let v = PerVarKeepVar::new(2, TagLayout::half(), 1).unwrap();
        let p = ProcId::new(0);
        assert_eq!(v.ll(p), 1);
        assert!(v.vl(p));
        assert!(v.sc(p, 2));
        assert_eq!(v.read(), 2);
    }

    #[test]
    fn per_var_sc_fails_after_interference() {
        let v = PerVarKeepVar::new(2, TagLayout::half(), 0).unwrap();
        let (p0, p1) = (ProcId::new(0), ProcId::new(1));
        let _ = v.ll(p0);
        let _ = v.ll(p1);
        assert!(v.sc(p0, 1));
        assert!(!v.vl(p1));
        assert!(!v.sc(p1, 2));
    }

    #[test]
    fn per_var_space_is_n_words() {
        let v = PerVarKeepVar::new(16, TagLayout::half(), 0).unwrap();
        assert_eq!(v.space_overhead_words(), 16);
    }

    #[test]
    fn per_var_only_one_sequence_per_process() {
        // The structural limitation: a second LL by p overwrites the first
        // sequence — exactly what the keep-pointer interface avoids.
        let v = PerVarKeepVar::new(1, TagLayout::half(), 0).unwrap();
        let p = ProcId::new(0);
        let _ = v.ll(p); // sequence 1
        let _ = v.ll(p); // silently replaces it
        assert!(v.sc(p, 1)); // "sequence 1" cannot be finished separately
    }

    #[test]
    fn per_var_concurrent_counter_is_exact() {
        let v = PerVarKeepVar::new(4, TagLayout::half(), 0).unwrap();
        std::thread::scope(|s| {
            for t in 0..4 {
                let v = &v;
                s.spawn(move || {
                    let p = ProcId::new(t);
                    for _ in 0..5_000 {
                        loop {
                            let x = v.ll(p);
                            if v.sc(p, x + 1) {
                                break;
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(v.read(), 20_000);
    }

    #[test]
    fn registry_basic_cycle() {
        let r = KeepRegistry::new();
        let v = RegistryKeepVar::new(&r, 1, TagLayout::half(), 5).unwrap();
        let p = ProcId::new(0);
        assert_eq!(v.ll(p), 5);
        assert!(v.vl(p));
        assert!(v.sc(p, 6));
        assert_eq!(v.read(), 6);
        assert!(r.is_empty(), "SC must clean up the association");
    }

    #[test]
    fn registry_grows_with_live_sequences() {
        let r = KeepRegistry::new();
        let a = RegistryKeepVar::new(&r, 2, TagLayout::half(), 0).unwrap();
        let b = RegistryKeepVar::new(&r, 2, TagLayout::half(), 0).unwrap();
        let _ = a.ll(ProcId::new(0));
        let _ = b.ll(ProcId::new(0));
        let _ = a.ll(ProcId::new(1));
        assert_eq!(r.len(), 3);
        assert!(a.sc(ProcId::new(0), 1));
        assert_eq!(r.len(), 2);
    }

    #[test]
    #[should_panic(expected = "without a preceding LL")]
    fn registry_vl_without_ll_panics() {
        let r = KeepRegistry::new();
        let v = RegistryKeepVar::new(&r, 1, TagLayout::half(), 0).unwrap();
        let _ = v.vl(ProcId::new(0));
    }

    #[test]
    fn registry_concurrent_counter_is_exact() {
        let r = KeepRegistry::new();
        let v = RegistryKeepVar::new(&r, 4, TagLayout::half(), 0).unwrap();
        std::thread::scope(|s| {
            for t in 0..4 {
                let v = &v;
                s.spawn(move || {
                    let p = ProcId::new(t);
                    for _ in 0..2_000 {
                        loop {
                            let x = v.ll(p);
                            if v.sc(p, x + 1) {
                                break;
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(v.read(), 8_000);
    }
}
