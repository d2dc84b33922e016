//! The `CasFamily`/`CasMemory` abstraction: "any machine that provides CAS".
//!
//! The paper's constructions in Figures 4, 6 and 7 are written "using CAS",
//! deliberately agnostic about where that CAS comes from: native hardware,
//! or the Figure-3 emulation over RLL/RSC. Two traits capture this:
//!
//! * [`CasFamily`] describes the *storage*: the shared cell type, and how
//!   many of its 64 bits the layer above may use. Variables are
//!   parameterized by a family, so their types carry no thread or lifetime
//!   information.
//! * [`CasMemory`] is the *per-thread accessor* that actually executes
//!   loads, stores and CAS on that family's cells. Accessors may borrow
//!   thread-private state (a simulated [`Processor`]); one is created per
//!   thread.
//!
//! Three families ship with the crate:
//!
//! * [`Native`] — the host's real `AtomicU64` (a "CAS machine"); the family
//!   and the accessor are the same zero-sized type.
//! * [`SimFamily`] / [`SimCas`] — a [`nbsp_memsim`] machine configured
//!   [`CasOnly`](nbsp_memsim::InstructionSet::CasOnly), with instruction
//!   counting.
//! * [`EmuFamily`](crate::EmuFamily) / [`EmuCas`](crate::EmuCas) — Figure
//!   3's CAS emulated from RLL/RSC, making the paper's "combine the
//!   techniques" remark (and the two-tag word-budget problem it notes)
//!   executable.

use std::sync::atomic::{AtomicU64, Ordering};

use nbsp_memsim::sched::{self, AccessKind};
use nbsp_memsim::{Capability, Processor, SimWord};

use crate::error::{Error, Result};

/// Schedule-point for a native atomic cell: a no-op unless the calling
/// thread is running under `nbsp-check`'s cooperative scheduler.
#[inline]
fn hook(cell: &AtomicU64, kind: AccessKind) {
    let _ = sched::yield_point(std::ptr::from_ref(cell) as usize, kind);
}

/// Storage family for 64-bit shared cells supporting load, store and CAS.
///
/// See the crate-level docs for the family/accessor split: variables are
/// parameterized by a family (no lifetimes), accessors are per-thread.
pub trait CasFamily {
    /// Shared storage for one 64-bit word.
    type Cell: Send + Sync + std::fmt::Debug;

    /// How many low-order bits of a cell are usable as a value by the layer
    /// above (64 for real CAS; less when the CAS itself is emulated with an
    /// in-word tag).
    const VALUE_BITS: u32;

    /// The per-thread accessor that operates on this family's cells; it is
    /// the [`LlScVar`](crate::LlScVar) context of a Figure-4 variable over
    /// the family.
    type Mem<'a>: CasMemory<Family = Self>;

    /// Creates a cell holding `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` needs more than [`CasFamily::VALUE_BITS`] bits.
    /// Callers in this crate validate values first and surface
    /// [`Error::ValueTooLarge`](crate::Error::ValueTooLarge) instead.
    fn make_cell(value: u64) -> Self::Cell;
}

/// Shorthand for the cell type of a memory's family.
pub type CellOf<M> = <<M as CasMemory>::Family as CasFamily>::Cell;

/// A per-thread accessor executing operations on a [`CasFamily`]'s cells.
pub trait CasMemory {
    /// The storage family this accessor operates on.
    type Family: CasFamily;

    /// Atomically reads the cell's value.
    fn load(&self, cell: &CellOf<Self>) -> u64;

    /// Atomically writes the cell's value.
    ///
    /// # Panics
    ///
    /// Panics if `value` needs more than `Family::VALUE_BITS` bits.
    fn store(&self, cell: &CellOf<Self>, value: u64);

    /// The paper's Figure-2 CAS: iff the cell holds `old`, replace it with
    /// `new` and return `true`.
    ///
    /// # Panics
    ///
    /// Panics if `new` needs more than `Family::VALUE_BITS` bits.
    fn cas(&self, cell: &CellOf<Self>, old: u64, new: u64) -> bool;

    // ----- per-operation orderings ------------------------------------
    //
    // The constructions in this workspace never need the *global* total
    // order that `SeqCst` buys; each one's linearization argument rests on
    // (a) coherence of a single cell and (b) release/acquire publication
    // chains (announce row → header swing → helping read). The methods
    // below let a memory expose exactly that: an implementation for real
    // hardware overrides them with acquire/release atomics, while
    // simulated or emulated memories — whose "atomics" are already
    // synchronized by other means — keep the defaults, which simply
    // delegate to the fully-ordered operations above.

    /// Atomically reads the cell with *acquire* ordering: everything the
    /// writer that produced the observed value did before its release
    /// write/CAS is visible after this load.
    ///
    /// Defaults to [`CasMemory::load`].
    #[inline]
    fn load_acquire(&self, cell: &CellOf<Self>) -> u64 {
        self.load(cell)
    }

    /// Atomically writes the cell with *release* ordering: all prior
    /// writes by this thread are visible to any thread that
    /// acquire-reads the stored value.
    ///
    /// Defaults to [`CasMemory::store`].
    ///
    /// # Panics
    ///
    /// Panics if `value` needs more than `Family::VALUE_BITS` bits.
    #[inline]
    fn store_release(&self, cell: &CellOf<Self>, value: u64) {
        self.store(cell, value);
    }

    /// CAS with *acquire-release* ordering: a success is a release write
    /// (publishing this thread's prior writes) and an acquire read; a
    /// failure is an acquire read of the current value.
    ///
    /// Defaults to [`CasMemory::cas`].
    ///
    /// # Panics
    ///
    /// Panics if `new` needs more than `Family::VALUE_BITS` bits.
    #[inline]
    fn cas_acqrel(&self, cell: &CellOf<Self>, old: u64, new: u64) -> bool {
        self.cas(cell, old, new)
    }
}

/// The capability-gated instruction-set seam over [`CasMemory`].
///
/// [`CasMemory`] hard-assumes CAS — the paper's setting. The rungs *below*
/// CAS in the consensus hierarchy (swap and fetch-and-add at consensus
/// number two, Khanchandani–Wattenhofer arXiv:1802.03844; the NB-FEB
/// test-flag-and-set word of Ha–Tsigas–Anshus arXiv:0811.1304) need extra
/// ops that most backends do *not* provide. `SyncMemory` exposes them as
/// fallible `try_*` methods gated by a runtime [`Capability`] bitset:
///
/// * [`SyncMemory::capabilities`] reports exactly which ops the backend
///   executes; every op outside that set returns
///   [`Error::UnsupportedOp`] instead of panicking, so callers can probe a
///   backend and degrade gracefully (satellite: the old behaviour was a
///   `debug_assert!`/panic at the `CasMemory` boundary).
/// * Ops inside the set behave like their [`Processor`] counterparts:
///   `try_swap`/`try_fetch_add` are unconditional read-modify-writes,
///   `try_feb_tfas`/`try_feb_sac`/`try_feb_load` operate on a word with a
///   full/empty flag bit ([`nbsp_memsim::FEB_FLAG`]), and
///   `try_rll`/`try_rsc` are the paper's restricted LL/SC pair.
///
/// The weak-primitive providers (`cas_from_swap`, `feb_llsc`) are written
/// against the corresponding [`Processor`] ops directly (their inner loops
/// are capability-checked once at machine construction); `SyncMemory` is
/// the *generic* seam for code that must run over any backend.
pub trait SyncMemory: CasMemory {
    /// Which operations this backend actually executes.
    ///
    /// [`CasMemory`]'s own `load`/`store`/`cas` are usable iff
    /// [`Capability::CAS`] is reported (every backend in this crate
    /// reports it — a memory that cannot CAS implements neither trait).
    fn capabilities(&self) -> Capability;

    /// Unconditional atomic exchange: installs `value`, returns the old
    /// value. Gated by [`Capability::SWAP`].
    fn try_swap(&self, cell: &CellOf<Self>, value: u64) -> Result<u64> {
        let _ = (cell, value);
        Err(self.unsupported("swap"))
    }

    /// Fetch-and-add: adds `delta`, returns the value before the add.
    /// Gated by [`Capability::FETCH_ADD`].
    fn try_fetch_add(&self, cell: &CellOf<Self>, delta: u64) -> Result<u64> {
        let _ = (cell, delta);
        Err(self.unsupported("fetch_add"))
    }

    /// NB-FEB test-flag-and-set: iff the cell's full/empty flag is clear,
    /// installs `value` with the flag set; either way returns the old word
    /// (flag included). Gated by [`Capability::FEB`].
    fn try_feb_tfas(&self, cell: &CellOf<Self>, value: u64) -> Result<u64> {
        let _ = (cell, value);
        Err(self.unsupported("feb_tfas"))
    }

    /// NB-FEB store-and-clear: unconditionally installs `value` with the
    /// flag cleared, returning the old word. Gated by [`Capability::FEB`].
    fn try_feb_sac(&self, cell: &CellOf<Self>, value: u64) -> Result<u64> {
        let _ = (cell, value);
        Err(self.unsupported("feb_sac"))
    }

    /// NB-FEB load of the word including its flag bit. Gated by
    /// [`Capability::FEB`].
    fn try_feb_load(&self, cell: &CellOf<Self>) -> Result<u64> {
        let _ = cell;
        Err(self.unsupported("feb_load"))
    }

    /// The paper's restricted load-linked. Gated by
    /// [`Capability::RLL_RSC`].
    fn try_rll(&self, cell: &CellOf<Self>) -> Result<u64> {
        let _ = cell;
        Err(self.unsupported("rll"))
    }

    /// The paper's restricted store-conditional (may fail spuriously).
    /// Gated by [`Capability::RLL_RSC`].
    fn try_rsc(&self, cell: &CellOf<Self>, new: u64) -> Result<bool> {
        let _ = (cell, new);
        Err(self.unsupported("rsc"))
    }

    /// The [`Error::UnsupportedOp`] for `op` against this backend's
    /// capability set. Implementations reuse it when an op is present in
    /// the trait but absent from the machine beneath.
    fn unsupported(&self, op: &'static str) -> Error {
        Error::UnsupportedOp {
            op,
            have: self.capabilities().to_string(),
        }
    }
}

/// [`CasFamily`] and [`CasMemory`] backed by the host's native `AtomicU64` —
/// the "machine that provides CAS" case, and the implementation a real
/// application would deploy.
///
/// ```
/// use nbsp_core::{CasFamily, CasMemory, Native};
/// let cell = Native::make_cell(5);
/// let mem = Native;
/// assert!(mem.cas(&cell, 5, 6));
/// assert_eq!(mem.load(&cell), 6);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Native;

impl CasFamily for Native {
    type Cell = AtomicU64;
    type Mem<'a> = Native;
    const VALUE_BITS: u32 = 64;

    #[inline]
    fn make_cell(value: u64) -> AtomicU64 {
        AtomicU64::new(value)
    }
}

impl CasMemory for Native {
    type Family = Native;

    #[inline]
    fn load(&self, cell: &AtomicU64) -> u64 {
        hook(cell, AccessKind::Read);
        cell.load(Ordering::SeqCst)
    }

    #[inline]
    fn store(&self, cell: &AtomicU64, value: u64) {
        hook(cell, AccessKind::Write);
        cell.store(value, Ordering::SeqCst);
    }

    #[inline]
    fn cas(&self, cell: &AtomicU64, old: u64, new: u64) -> bool {
        hook(cell, AccessKind::Cas);
        cell.compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    #[inline]
    fn load_acquire(&self, cell: &AtomicU64) -> u64 {
        hook(cell, AccessKind::Read);
        cell.load(Ordering::Acquire)
    }

    #[inline]
    fn store_release(&self, cell: &AtomicU64, value: u64) {
        hook(cell, AccessKind::Write);
        cell.store(value, Ordering::Release);
    }

    #[inline]
    fn cas_acqrel(&self, cell: &AtomicU64, old: u64, new: u64) -> bool {
        hook(cell, AccessKind::Cas);
        cell.compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

impl SyncMemory for Native {
    /// The host's `AtomicU64` provides CAS, swap and fetch-and-add; it has
    /// no reservation bit and no full/empty flag.
    fn capabilities(&self) -> Capability {
        Capability::CAS | Capability::SWAP | Capability::FETCH_ADD
    }

    #[inline]
    fn try_swap(&self, cell: &AtomicU64, value: u64) -> Result<u64> {
        hook(cell, AccessKind::Swap);
        Ok(cell.swap(value, Ordering::SeqCst))
    }

    #[inline]
    fn try_fetch_add(&self, cell: &AtomicU64, delta: u64) -> Result<u64> {
        hook(cell, AccessKind::FetchAdd);
        Ok(cell.fetch_add(delta, Ordering::SeqCst))
    }
}

/// A [`CasMemory`] over [`Native`] cells that executes **every** operation
/// — including the acquire/release variants — with `SeqCst`, reproducing
/// the pre-optimization behaviour of this crate.
///
/// Exists for the contention ablation (`exp_contention`): running the same
/// construction through [`Native`] and `NativeSeqCst` isolates what the
/// per-operation orderings are worth. Not recommended outside benchmarks;
/// the relaxed orderings are argued correct at each call site.
///
/// ```
/// use nbsp_core::{CasFamily, CasMemory, Native, NativeSeqCst};
/// let cell = Native::make_cell(5);
/// let mem = NativeSeqCst;
/// assert!(mem.cas_acqrel(&cell, 5, 6)); // SeqCst under the hood
/// assert_eq!(mem.load_acquire(&cell), 6);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NativeSeqCst;

impl CasMemory for NativeSeqCst {
    type Family = Native;

    #[inline]
    fn load(&self, cell: &AtomicU64) -> u64 {
        hook(cell, AccessKind::Read);
        cell.load(Ordering::SeqCst)
    }

    #[inline]
    fn store(&self, cell: &AtomicU64, value: u64) {
        hook(cell, AccessKind::Write);
        cell.store(value, Ordering::SeqCst);
    }

    #[inline]
    fn cas(&self, cell: &AtomicU64, old: u64, new: u64) -> bool {
        hook(cell, AccessKind::Cas);
        cell.compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }
    // load_acquire / store_release / cas_acqrel inherit the defaults, which
    // delegate to the SeqCst operations above — the whole point.
}

impl SyncMemory for NativeSeqCst {
    /// Same hardware as [`Native`], so the same capability set.
    fn capabilities(&self) -> Capability {
        Capability::CAS | Capability::SWAP | Capability::FETCH_ADD
    }

    #[inline]
    fn try_swap(&self, cell: &AtomicU64, value: u64) -> Result<u64> {
        hook(cell, AccessKind::Swap);
        Ok(cell.swap(value, Ordering::SeqCst))
    }

    #[inline]
    fn try_fetch_add(&self, cell: &AtomicU64, delta: u64) -> Result<u64> {
        hook(cell, AccessKind::FetchAdd);
        Ok(cell.fetch_add(delta, Ordering::SeqCst))
    }
}

/// Storage family for simulated CAS machines: cells are [`SimWord`]s.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimFamily;

impl CasFamily for SimFamily {
    type Cell = SimWord;
    type Mem<'a> = SimCas<'a>;
    const VALUE_BITS: u32 = 64;

    #[inline]
    fn make_cell(value: u64) -> SimWord {
        SimWord::new(value)
    }
}

/// [`CasMemory`] accessor for a simulated CAS machine, with per-processor
/// instruction counting.
///
/// A [`CasOnly`](nbsp_memsim::InstructionSet::CasOnly) machine *proves*
/// that constructions built over this accessor never touch LL/SC (the
/// simulator panics if they do).
///
/// ```
/// use nbsp_core::{CasFamily, CasMemory, SimCas, SimFamily};
/// use nbsp_memsim::{InstructionSet, Machine};
///
/// let machine = Machine::builder(1)
///     .instruction_set(InstructionSet::CasOnly)
///     .build();
/// let p = machine.processor(0);
/// let mem = SimCas::new(&p);
/// let cell = SimFamily::make_cell(1);
/// assert!(mem.cas(&cell, 1, 2));
/// ```
#[derive(Debug)]
pub struct SimCas<'a> {
    proc: &'a Processor,
}

impl<'a> SimCas<'a> {
    /// Wraps a simulated processor as a CAS accessor.
    #[must_use]
    pub fn new(proc: &'a Processor) -> Self {
        SimCas { proc }
    }

    /// Like [`SimCas::new`], but verifies up front that the machine
    /// provides CAS, so the hot-path ops cannot hit the simulator's
    /// instruction-set panic later.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnsupportedOp`] if the machine's instruction set
    /// has no CAS.
    pub fn try_new(proc: &'a Processor) -> Result<Self> {
        let caps = proc.instruction_set().capability();
        if !caps.contains(Capability::CAS) {
            return Err(Error::UnsupportedOp {
                op: "cas",
                have: caps.to_string(),
            });
        }
        Ok(SimCas { proc })
    }

    /// The underlying processor (for reading stats).
    #[must_use]
    pub fn processor(&self) -> &Processor {
        self.proc
    }
}

impl CasMemory for SimCas<'_> {
    type Family = SimFamily;

    #[inline]
    fn load(&self, cell: &SimWord) -> u64 {
        self.proc.read(cell)
    }

    #[inline]
    fn store(&self, cell: &SimWord, value: u64) {
        self.proc.write(cell, value);
    }

    #[inline]
    fn cas(&self, cell: &SimWord, old: u64, new: u64) -> bool {
        self.proc.cas(cell, old, new)
    }
}

impl SyncMemory for SimCas<'_> {
    /// Whatever the simulated machine was built with — this is the one
    /// backend whose capability set is genuinely dynamic, which is why
    /// [`SyncMemory::capabilities`] is a method rather than a constant.
    fn capabilities(&self) -> Capability {
        self.proc.instruction_set().capability()
    }

    fn try_swap(&self, cell: &SimWord, value: u64) -> Result<u64> {
        if !self.capabilities().contains(Capability::SWAP) {
            return Err(self.unsupported("swap"));
        }
        Ok(self.proc.swap(cell, value))
    }

    fn try_fetch_add(&self, cell: &SimWord, delta: u64) -> Result<u64> {
        if !self.capabilities().contains(Capability::FETCH_ADD) {
            return Err(self.unsupported("fetch_add"));
        }
        Ok(self.proc.fetch_add(cell, delta))
    }

    fn try_feb_tfas(&self, cell: &SimWord, value: u64) -> Result<u64> {
        if !self.capabilities().contains(Capability::FEB) {
            return Err(self.unsupported("feb_tfas"));
        }
        Ok(self.proc.feb_tfas(cell, value))
    }

    fn try_feb_sac(&self, cell: &SimWord, value: u64) -> Result<u64> {
        if !self.capabilities().contains(Capability::FEB) {
            return Err(self.unsupported("feb_sac"));
        }
        Ok(self.proc.feb_sac(cell, value))
    }

    fn try_feb_load(&self, cell: &SimWord) -> Result<u64> {
        if !self.capabilities().contains(Capability::FEB) {
            return Err(self.unsupported("feb_load"));
        }
        Ok(self.proc.feb_load(cell))
    }

    fn try_rll(&self, cell: &SimWord) -> Result<u64> {
        if !self.capabilities().contains(Capability::RLL_RSC) {
            return Err(self.unsupported("rll"));
        }
        Ok(self.proc.rll(cell))
    }

    fn try_rsc(&self, cell: &SimWord, new: u64) -> Result<bool> {
        if !self.capabilities().contains(Capability::RLL_RSC) {
            return Err(self.unsupported("rsc"));
        }
        Ok(self.proc.rsc(cell, new))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbsp_memsim::{InstructionSet, Machine};

    #[test]
    fn native_cas_round_trip() {
        let mem = Native;
        let cell = Native::make_cell(10);
        assert_eq!(mem.load(&cell), 10);
        mem.store(&cell, 11);
        assert!(mem.cas(&cell, 11, 12));
        assert!(!mem.cas(&cell, 11, 13));
        assert_eq!(mem.load(&cell), 12);
    }

    #[test]
    fn sim_cas_counts_instructions() {
        let m = Machine::builder(1)
            .instruction_set(InstructionSet::CasOnly)
            .build();
        let p = m.processor(0);
        let mem = SimCas::new(&p);
        let cell = SimFamily::make_cell(0);
        let _ = mem.load(&cell);
        mem.store(&cell, 1);
        assert!(mem.cas(&cell, 1, 2));
        let s = mem.processor().stats();
        assert_eq!((s.reads, s.writes, s.cas_attempts), (1, 1, 1));
    }

    #[test]
    fn sim_cas_works_on_cas_only_machine() {
        // The whole point: no LL/SC instructions are issued.
        let m = Machine::builder(2)
            .instruction_set(InstructionSet::CasOnly)
            .build();
        let cell = SimFamily::make_cell(0);
        std::thread::scope(|s| {
            for id in 0..2 {
                let p = m.processor(id);
                let cell = &cell;
                s.spawn(move || {
                    let mem = SimCas::new(&p);
                    for _ in 0..1000 {
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
        assert_eq!(cell.peek(), 2000);
    }

    #[test]
    fn native_sync_memory_swap_and_faa() {
        for mem in [&Native as &dyn SyncMemory<Family = Native>, &NativeSeqCst] {
            let cell = Native::make_cell(4);
            assert!(mem.capabilities().contains(Capability::SWAP | Capability::FETCH_ADD));
            assert_eq!(mem.try_swap(&cell, 9).unwrap(), 4);
            assert_eq!(mem.try_fetch_add(&cell, 2).unwrap(), 9);
            assert_eq!(mem.load(&cell), 11);
            // No reservation bit and no full/empty flag on host atomics.
            assert!(matches!(
                mem.try_rll(&cell),
                Err(Error::UnsupportedOp { op: "rll", .. })
            ));
            assert!(matches!(
                mem.try_feb_tfas(&cell, 1),
                Err(Error::UnsupportedOp { op: "feb_tfas", .. })
            ));
        }
    }

    #[test]
    fn sim_sync_memory_is_gated_by_instruction_set() {
        let m = Machine::builder(1)
            .instruction_set(InstructionSet::CasOnly)
            .build();
        let p = m.processor(0);
        let mem = SimCas::new(&p);
        let cell = SimFamily::make_cell(0);
        assert_eq!(mem.capabilities(), Capability::CAS);
        let err = mem.try_swap(&cell, 1).unwrap_err();
        assert_eq!(
            err.to_string(),
            "operation swap is not in the backend's instruction set (cas)"
        );
        assert!(mem.try_fetch_add(&cell, 1).is_err());
        assert!(mem.try_feb_sac(&cell, 1).is_err());
        assert!(mem.try_feb_load(&cell).is_err());
        assert!(mem.try_rsc(&cell, 1).is_err());
    }

    #[test]
    fn sim_sync_memory_executes_granted_ops() {
        let m = Machine::builder(1)
            .instruction_set(InstructionSet::Both)
            .build();
        let p = m.processor(0);
        let mem = SimCas::new(&p);
        let cell = SimFamily::make_cell(1);
        assert_eq!(mem.try_swap(&cell, 2).unwrap(), 1);
        assert_eq!(mem.try_fetch_add(&cell, 3).unwrap(), 2);
        let v = mem.try_rll(&cell).unwrap();
        assert!(mem.try_rsc(&cell, v + 1).unwrap());
        assert_eq!(mem.try_feb_tfas(&cell, 9).unwrap(), 6);
        assert_eq!(
            mem.try_feb_sac(&cell, 0).unwrap(),
            9 | nbsp_memsim::FEB_FLAG
        );
        assert_eq!(mem.try_feb_load(&cell).unwrap(), 0);
        let s = p.stats();
        assert_eq!(
            (s.swaps, s.fetch_adds, s.febs, s.rll, s.rsc_success),
            (1, 1, 3, 1, 1)
        );
    }

    #[test]
    fn native_is_copy_and_default() {
        fn copy<T: Copy>(_: T) {}
        copy(Native);
        let _ = Native;
    }
}
