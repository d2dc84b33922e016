use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::rng::SplitMix64;
use crate::{CachePadded, ProcId, ProcStats, SimWord, SpuriousMode};

/// Which strong synchronization instructions the simulated machine provides.
///
/// The paper's premise (Section 1): "many machines provide either CAS or
/// LL/SC, but not both". Modelling the capability explicitly lets tests and
/// examples demonstrate that each construction runs on the machines it
/// claims to run on — and *only* uses instructions those machines have.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InstructionSet {
    /// CAS is available; RLL/RSC are not (e.g. SPARC, x86 lineage).
    CasOnly,
    /// RLL/RSC are available; CAS is not (e.g. MIPS R4000, Alpha, PowerPC).
    RllRscOnly,
    /// Only the consensus-number-2 pair swap and fetch-and-add — the
    /// machine Khanchandani–Wattenhofer's CAS construction targets.
    SwapFaaOnly,
    /// Only the NB-FEB full/empty-bit operations (TFAS, SAC, and the
    /// flag-aware load) of Ha–Tsigas–Anshus.
    FebOnly,
    /// Every instruction the simulator models (the reference machine used
    /// by tests that need all of them at once).
    Both,
}

impl InstructionSet {
    /// Whether this machine executes CAS.
    #[must_use]
    pub fn has_cas(self) -> bool {
        matches!(self, InstructionSet::CasOnly | InstructionSet::Both)
    }

    /// Whether this machine executes RLL/RSC.
    #[must_use]
    pub fn has_rll_rsc(self) -> bool {
        matches!(self, InstructionSet::RllRscOnly | InstructionSet::Both)
    }

    /// Whether this machine executes swap and fetch-and-add.
    #[must_use]
    pub fn has_swap_faa(self) -> bool {
        matches!(self, InstructionSet::SwapFaaOnly | InstructionSet::Both)
    }

    /// Whether this machine executes the NB-FEB word operations.
    #[must_use]
    pub fn has_feb(self) -> bool {
        matches!(self, InstructionSet::FebOnly | InstructionSet::Both)
    }

    /// The capability bitset equivalent to this instruction set.
    #[must_use]
    pub fn capability(self) -> Capability {
        let mut c = Capability::NONE;
        if self.has_cas() {
            c = c | Capability::CAS;
        }
        if self.has_rll_rsc() {
            c = c | Capability::RLL_RSC;
        }
        if self.has_swap_faa() {
            c = c | Capability::SWAP | Capability::FETCH_ADD;
        }
        if self.has_feb() {
            c = c | Capability::FEB;
        }
        c
    }
}

/// A bitset of synchronization instructions: which ops a machine provides,
/// or which ops a construction *requires* of its machine (carried by
/// `ProviderMeta` in `nbsp-core` — the registry's portability matrix over
/// the consensus hierarchy).
///
/// ```
/// use nbsp_memsim::{Capability, InstructionSet};
/// let weak = Capability::SWAP | Capability::FETCH_ADD;
/// assert!(InstructionSet::SwapFaaOnly.capability().contains(weak));
/// assert!(!weak.contains(Capability::CAS));
/// assert_eq!(weak.to_string(), "swap+fetch_add");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Capability(u8);

impl Capability {
    /// The empty set (no synchronization beyond plain reads/writes).
    pub const NONE: Capability = Capability(0);
    /// Compare-and-swap.
    pub const CAS: Capability = Capability(1);
    /// Restricted load-linked / store-conditional.
    pub const RLL_RSC: Capability = Capability(1 << 1);
    /// Unconditional atomic exchange.
    pub const SWAP: Capability = Capability(1 << 2);
    /// Fetch-and-add.
    pub const FETCH_ADD: Capability = Capability(1 << 3);
    /// The NB-FEB full/empty-bit operations (TFAS, SAC, flag-aware load).
    pub const FEB: Capability = Capability(1 << 4);

    /// True iff every bit of `other` is present in `self`.
    #[must_use]
    pub fn contains(self, other: Capability) -> bool {
        self.0 & other.0 == other.0
    }

    /// True iff no instruction is present.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The names of the present instructions, in declaration order.
    #[must_use]
    pub fn names(self) -> Vec<&'static str> {
        [
            (Capability::CAS, "cas"),
            (Capability::RLL_RSC, "rll_rsc"),
            (Capability::SWAP, "swap"),
            (Capability::FETCH_ADD, "fetch_add"),
            (Capability::FEB, "feb"),
        ]
        .into_iter()
        .filter(|(bit, _)| self.contains(*bit))
        .map(|(_, name)| name)
        .collect()
    }
}

impl std::ops::BitOr for Capability {
    type Output = Capability;

    fn bitor(self, rhs: Capability) -> Capability {
        Capability(self.0 | rhs.0)
    }
}

impl fmt::Display for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("none");
        }
        f.write_str(&self.names().join("+"))
    }
}

/// What happens when a processor touches memory between an RLL and the
/// subsequent RSC (the paper's restriction #1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessBetween {
    /// The reservation is silently dropped, so the RSC fails. This is the
    /// conservative model of real hardware and the default.
    Invalidate,
    /// An RSC issued after the reservation was touched by an intervening
    /// access panics. (Merely abandoning a reservation and moving on is
    /// fine — the restriction concerns the RLL→RSC *pair*.) Use in tests
    /// to prove an algorithm never violates the restriction.
    Panic,
}

#[derive(Debug)]
struct MachineInner {
    n: usize,
    isa: InstructionSet,
    spurious: SpuriousMode,
    access_between: AccessBetween,
    seed: u64,
    /// One claim flag per processor; padded because unrelated threads claim
    /// their processors concurrently at startup and should not ping-pong a
    /// shared line while doing so.
    claimed: Vec<CachePadded<AtomicBool>>,
}

/// A simulated shared-memory multiprocessor with `n` processors.
///
/// Construct with [`Machine::builder`], then hand one [`Processor`] to each
/// thread via [`Machine::processor`]. The machine itself is cheap to clone
/// (it is an `Arc` internally) and is `Send + Sync`.
///
/// ```
/// use nbsp_memsim::{Machine, SimWord};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let machine = Machine::builder(4).build();
/// let counter = SimWord::new(0);
/// std::thread::scope(|s| {
///     for id in 0..4 {
///         let p = machine.processor(id);
///         let counter = &counter;
///         s.spawn(move || {
///             for _ in 0..1000 {
///                 loop {
///                     let v = p.rll(counter);
///                     if p.rsc(counter, v + 1) {
///                         break;
///                     }
///                 }
///             }
///         });
///     }
/// });
/// assert_eq!(counter.peek(), 4000);
/// ```
#[derive(Clone, Debug)]
pub struct Machine {
    inner: Arc<MachineInner>,
}

/// Builder for [`Machine`] (see [`Machine::builder`]).
#[derive(Debug)]
pub struct MachineBuilder {
    n: usize,
    isa: InstructionSet,
    spurious: SpuriousMode,
    access_between: AccessBetween,
    seed: u64,
}

impl MachineBuilder {
    /// Sets the instruction-set capability (default: [`InstructionSet::Both`]).
    #[must_use]
    pub fn instruction_set(mut self, isa: InstructionSet) -> Self {
        self.isa = isa;
        self
    }

    /// Sets the spurious-failure adversary (default: [`SpuriousMode::Never`]).
    #[must_use]
    pub fn spurious(mut self, mode: SpuriousMode) -> Self {
        self.spurious = mode;
        self
    }

    /// Sets the policy for memory accesses between RLL and RSC
    /// (default: [`AccessBetween::Invalidate`]).
    #[must_use]
    pub fn access_between(mut self, policy: AccessBetween) -> Self {
        self.access_between = policy;
        self
    }

    /// Sets the seed for all deterministic randomness (default: 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the machine.
    ///
    /// # Panics
    ///
    /// Panics if the machine was configured with zero processors.
    #[must_use]
    pub fn build(self) -> Machine {
        assert!(self.n > 0, "a machine needs at least one processor");
        Machine {
            inner: Arc::new(MachineInner {
                n: self.n,
                isa: self.isa,
                spurious: self.spurious,
                access_between: self.access_between,
                seed: self.seed,
                claimed: (0..self.n)
                    .map(|_| CachePadded::new(AtomicBool::new(false)))
                    .collect(),
            }),
        }
    }
}

impl Machine {
    /// Starts building a machine with `n` processors.
    #[must_use]
    pub fn builder(n: usize) -> MachineBuilder {
        MachineBuilder {
            n,
            isa: InstructionSet::Both,
            spurious: SpuriousMode::Never,
            access_between: AccessBetween::Invalidate,
            seed: 0,
        }
    }

    /// Convenience constructor: `n` processors, both instruction sets, no
    /// spurious failures.
    #[must_use]
    pub fn new(n: usize) -> Machine {
        Machine::builder(n).build()
    }

    /// Number of processors.
    #[must_use]
    pub fn n(&self) -> usize {
        self.inner.n
    }

    /// The machine's instruction-set capability.
    #[must_use]
    pub fn instruction_set(&self) -> InstructionSet {
        self.inner.isa
    }

    /// Claims the processor with index `id`.
    ///
    /// Each processor may be claimed once for the lifetime of the machine:
    /// a `Processor` owns per-processor private state (the reservation and
    /// counters), mirroring the paper's "private variable of process p".
    ///
    /// # Panics
    ///
    /// Panics if `id >= n` or if processor `id` was already claimed.
    #[must_use]
    pub fn processor(&self, id: usize) -> Processor {
        assert!(
            id < self.inner.n,
            "processor id {id} out of range (n = {})",
            self.inner.n
        );
        let was = self.inner.claimed[id].swap(true, Ordering::SeqCst);
        assert!(!was, "processor {id} claimed twice");
        Processor {
            id: ProcId::new(id),
            inner: Arc::clone(&self.inner),
            reservation: Cell::new(None),
            rsc_counter: Cell::new(0),
            rng: RefCell::new(SplitMix64::new(
                self.inner.seed ^ (id as u64).wrapping_mul(0x9e3779b97f4a7c15),
            )),
            stats: Cell::new(ProcStats::default()),
        }
    }

    /// Claims all `n` processors at once.
    ///
    /// # Panics
    ///
    /// Panics if any processor was already claimed.
    #[must_use]
    pub fn processors(&self) -> Vec<Processor> {
        (0..self.inner.n).map(|id| self.processor(id)).collect()
    }
}

#[derive(Clone, Copy, Debug)]
struct Reservation {
    addr: usize,
    observed: u64,
    /// An intervening access by the owning processor touched memory while
    /// this reservation was armed (only tracked under
    /// [`AccessBetween::Panic`]).
    dirtied: bool,
}

/// A handle to one simulated processor; bind one per thread.
///
/// `Processor` is `Send` but **not** `Sync`: the paper's model gives each
/// process private state (here, the `LLBit`-style reservation, the RNG that
/// drives spurious failures, and instruction counters), and the type system
/// enforces that no two threads share it.
///
/// # Instruction-set discipline
///
/// [`Processor::cas`] panics on an [`InstructionSet::RllRscOnly`] machine and
/// [`Processor::rll`]/[`Processor::rsc`] panic on an
/// [`InstructionSet::CasOnly`] machine. Algorithms built on this crate are
/// thereby *checked*, not merely claimed, to use only the instructions the
/// target machine provides.
// Aligned to a full (prefetch-paired) cache line: a `Processor` carries the
// per-proc stats and reservation that the owning thread mutates on every
// simulated instruction, so two processors boxed side by side (e.g. in the
// `Vec` from [`Machine::processors`]) must not share a line.
#[repr(align(128))]
pub struct Processor {
    id: ProcId,
    inner: Arc<MachineInner>,
    reservation: Cell<Option<Reservation>>,
    /// Total RSC attempts, used to index the spurious-failure schedule.
    rsc_counter: Cell<u64>,
    rng: RefCell<SplitMix64>,
    stats: Cell<ProcStats>,
}

impl fmt::Debug for Processor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Processor")
            .field("id", &self.id)
            .field("reserved", &self.reservation.get().is_some())
            .finish()
    }
}

impl Processor {
    /// This processor's identifier.
    #[must_use]
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// Number of processors on the machine this processor belongs to.
    #[must_use]
    pub fn n(&self) -> usize {
        self.inner.n
    }

    /// The instruction-set capability of the machine this processor
    /// belongs to (so per-thread accessors can gate operations without a
    /// handle on the [`Machine`]).
    #[must_use]
    pub fn instruction_set(&self) -> InstructionSet {
        self.inner.isa
    }

    /// Snapshot of this processor's instruction counters.
    #[must_use]
    pub fn stats(&self) -> ProcStats {
        self.stats.get()
    }

    /// Resets this processor's instruction counters to zero.
    pub fn reset_stats(&self) {
        self.stats.set(ProcStats::default());
    }

    fn bump(&self, f: impl FnOnce(&mut ProcStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    /// Invalidate (or mark) the reservation because of an intervening
    /// access, honouring the machine's [`AccessBetween`] policy.
    fn touch_memory(&self) {
        let Some(mut res) = self.reservation.get() else {
            return;
        };
        match self.inner.access_between {
            AccessBetween::Invalidate => {
                self.reservation.set(None);
                self.bump(|s| s.reservations_invalidated += 1);
            }
            AccessBetween::Panic => {
                res.dirtied = true;
                self.reservation.set(Some(res));
            }
        }
    }

    /// Declares that this processor cannot make progress until some other
    /// processor writes `w`, and yields the time slice.
    ///
    /// This performs **no** shared access: no memory is touched, no
    /// reservation is invalidated, nothing is counted — the processor
    /// merely hands control away. Spin loops that wait for a
    /// *specific* word to change (the FIFO hand-off of
    /// `nbsp_core::KwWord`, the claim-slot release of
    /// `nbsp_core::FebWord`) call this between re-reads. On a live
    /// machine it degrades to [`std::thread::yield_now`]; under a
    /// cooperative model checker the [`crate::sched::AccessKind::Wait`]
    /// yield parks the processor until a mutating access hits `w`, so a
    /// blocking construction produces finitely many schedule points per
    /// wake instead of an unbounded spin.
    pub fn await_change(&self, w: &SimWord) {
        let _ = crate::sched::yield_point(w.addr(), crate::sched::AccessKind::Wait);
        std::thread::yield_now();
    }

    /// Reads a word (an ordinary load).
    ///
    /// Under the default [`AccessBetween::Invalidate`] policy this drops any
    /// outstanding reservation, as on hardware where any memory traffic can
    /// clear the `LLBit`.
    #[must_use]
    pub fn read(&self, w: &SimWord) -> u64 {
        let _ = crate::sched::yield_point(w.addr(), crate::sched::AccessKind::Read);
        self.touch_memory();
        self.bump(|s| s.reads += 1);
        w.load()
    }

    /// Writes a word (an ordinary store).
    pub fn write(&self, w: &SimWord, value: u64) {
        let _ = crate::sched::yield_point(w.addr(), crate::sched::AccessKind::Write);
        self.touch_memory();
        self.bump(|s| s.writes += 1);
        w.store(value);
    }

    /// Hardware compare-and-swap.
    ///
    /// # Panics
    ///
    /// Panics on a machine without CAS ([`InstructionSet::RllRscOnly`],
    /// [`InstructionSet::SwapFaaOnly`] or [`InstructionSet::FebOnly`]).
    #[must_use]
    pub fn cas(&self, w: &SimWord, old: u64, new: u64) -> bool {
        assert!(
            self.inner.isa.has_cas(),
            "this machine ({:?}) does not provide CAS",
            self.inner.isa
        );
        let _ = crate::sched::yield_point(w.addr(), crate::sched::AccessKind::Cas);
        self.touch_memory();
        let ok = w.compare_exchange(old, new);
        self.bump(|s| {
            s.cas_attempts += 1;
            if ok {
                s.cas_success += 1;
            }
        });
        ok
    }

    /// Unconditional atomic exchange: installs `value` and returns the old
    /// word.
    ///
    /// # Panics
    ///
    /// Panics on a machine without swap/fetch-and-add.
    #[must_use]
    pub fn swap(&self, w: &SimWord, value: u64) -> u64 {
        assert!(
            self.inner.isa.has_swap_faa(),
            "this machine ({:?}) does not provide swap",
            self.inner.isa
        );
        let _ = crate::sched::yield_point(w.addr(), crate::sched::AccessKind::Swap);
        self.touch_memory();
        self.bump(|s| s.swaps += 1);
        w.swap(value)
    }

    /// Fetch-and-add: adds `delta` (wrapping) and returns the old word.
    ///
    /// # Panics
    ///
    /// Panics on a machine without swap/fetch-and-add.
    #[must_use]
    pub fn fetch_add(&self, w: &SimWord, delta: u64) -> u64 {
        assert!(
            self.inner.isa.has_swap_faa(),
            "this machine ({:?}) does not provide fetch-and-add",
            self.inner.isa
        );
        let _ = crate::sched::yield_point(w.addr(), crate::sched::AccessKind::FetchAdd);
        self.touch_memory();
        self.bump(|s| s.fetch_adds += 1);
        w.fetch_add(delta)
    }

    /// NB-FEB test-flag-and-set: iff the word's full/empty flag
    /// ([`crate::FEB_FLAG`]) is clear, install `value` with the flag set;
    /// either way, return the old word (flag included).
    ///
    /// # Panics
    ///
    /// Panics on a machine without the NB-FEB operations, or if `value`
    /// itself carries the flag bit.
    #[must_use]
    pub fn feb_tfas(&self, w: &SimWord, value: u64) -> u64 {
        assert!(
            self.inner.isa.has_feb(),
            "this machine ({:?}) does not provide NB-FEB operations",
            self.inner.isa
        );
        assert!(value & crate::FEB_FLAG == 0, "TFAS value overlaps the flag bit");
        let _ = crate::sched::yield_point(w.addr(), crate::sched::AccessKind::Feb);
        self.touch_memory();
        self.bump(|s| s.febs += 1);
        w.tfas(value)
    }

    /// NB-FEB store-and-clear: unconditionally install `value` with the
    /// full/empty flag cleared, returning the old word (flag included).
    ///
    /// # Panics
    ///
    /// Panics on a machine without the NB-FEB operations, or if `value`
    /// itself carries the flag bit.
    #[must_use]
    pub fn feb_sac(&self, w: &SimWord, value: u64) -> u64 {
        assert!(
            self.inner.isa.has_feb(),
            "this machine ({:?}) does not provide NB-FEB operations",
            self.inner.isa
        );
        assert!(value & crate::FEB_FLAG == 0, "SAC value overlaps the flag bit");
        let _ = crate::sched::yield_point(w.addr(), crate::sched::AccessKind::Feb);
        self.touch_memory();
        self.bump(|s| s.febs += 1);
        w.sac(value)
    }

    /// NB-FEB load: reads the word, flag included. Read-only (commutes
    /// with other loads), so it yields as an [`AccessKind::Read`](crate::sched::AccessKind::Read).
    ///
    /// # Panics
    ///
    /// Panics on a machine without the NB-FEB operations.
    #[must_use]
    pub fn feb_load(&self, w: &SimWord) -> u64 {
        assert!(
            self.inner.isa.has_feb(),
            "this machine ({:?}) does not provide NB-FEB operations",
            self.inner.isa
        );
        let _ = crate::sched::yield_point(w.addr(), crate::sched::AccessKind::Read);
        self.touch_memory();
        self.bump(|s| s.febs += 1);
        w.load()
    }

    /// Restricted load-linked: reads `w` and sets this processor's single
    /// reservation, discarding any previous one.
    ///
    /// # Panics
    ///
    /// Panics on a machine without RLL/RSC ([`InstructionSet::CasOnly`]).
    #[must_use]
    pub fn rll(&self, w: &SimWord) -> u64 {
        assert!(
            self.inner.isa.has_rll_rsc(),
            "this machine ({:?}) does not provide RLL/RSC",
            self.inner.isa
        );
        let _ = crate::sched::yield_point(w.addr(), crate::sched::AccessKind::Rll);
        let observed = w.load();
        self.reservation.set(Some(Reservation {
            addr: w.addr(),
            observed,
            dirtied: false,
        }));
        self.bump(|s| s.rll += 1);
        observed
    }

    /// Restricted store-conditional: stores `new` to `w` iff the reservation
    /// set by the previous [`Processor::rll`] on `w` is still intact and the
    /// spurious-failure adversary permits it. Consumes the reservation either
    /// way.
    ///
    /// Returns `true` on success.
    ///
    /// # Panics
    ///
    /// Panics on a machine without RLL/RSC, or if called without a prior
    /// `rll` on the *same* word (whose reservation has not been spent) —
    /// hardware leaves that case undefined; the simulator makes it a bug.
    #[must_use]
    pub fn rsc(&self, w: &SimWord, new: u64) -> bool {
        assert!(
            self.inner.isa.has_rll_rsc(),
            "this machine ({:?}) does not provide RLL/RSC",
            self.inner.isa
        );
        let decision = crate::sched::yield_point(w.addr(), crate::sched::AccessKind::Rsc);
        let attempt = self.rsc_counter.get() + 1;
        self.rsc_counter.set(attempt);

        let res = match self.reservation.take() {
            Some(r) => r,
            None => {
                // The reservation was invalidated by an intervening access
                // (or never set). On hardware the SC simply fails; calling
                // RSC with *no previous RLL at all* is a programming error,
                // but we cannot distinguish the two here, so we fail.
                self.bump(|s| {
                    s.rsc_attempts += 1;
                    s.rsc_conflict += 1;
                });
                return false;
            }
        };
        assert_eq!(
            res.addr,
            w.addr(),
            "RSC on a different word than the preceding RLL (processor {})",
            self.id
        );
        assert!(
            !res.dirtied,
            "memsim strict mode: processor {} accessed memory between RLL \
             and RSC (the paper's restriction #1)",
            self.id
        );

        let random = self.rng.borrow_mut().next_u64();
        if decision == crate::sched::Decision::SpuriousFail
            || self.inner.spurious.should_fail(attempt, random)
        {
            nbsp_telemetry::record(nbsp_telemetry::Event::RscSpurious);
            self.bump(|s| {
                s.rsc_attempts += 1;
                s.rsc_spurious += 1;
            });
            return false;
        }

        let ok = w.compare_exchange(res.observed, new);
        self.bump(|s| {
            s.rsc_attempts += 1;
            if ok {
                s.rsc_success += 1;
            } else {
                s.rsc_conflict += 1;
            }
        });
        ok
    }

    /// Whether this processor currently holds a reservation
    /// (for tests and assertions; hardware does not expose the `LLBit`).
    #[must_use]
    pub fn has_reservation(&self) -> bool {
        self.reservation.get().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rll_rsc_increments() {
        let m = Machine::new(1);
        let p = m.processor(0);
        let w = SimWord::new(10);
        let v = p.rll(&w);
        assert_eq!(v, 10);
        assert!(p.rsc(&w, v + 1));
        assert_eq!(w.peek(), 11);
    }

    #[test]
    fn rsc_without_reservation_fails() {
        let m = Machine::new(1);
        let p = m.processor(0);
        let w = SimWord::new(0);
        assert!(!p.rsc(&w, 1));
        assert_eq!(w.peek(), 0);
        assert_eq!(p.stats().rsc_conflict, 1);
    }

    #[test]
    fn second_rll_discards_first_reservation() {
        // Single LLBit per processor: an RLL on Y after an RLL on X leaves
        // only the Y reservation, so an RSC on X must panic (wrong word).
        let m = Machine::new(1);
        let p = m.processor(0);
        let x = SimWord::new(1);
        let y = SimWord::new(2);
        let _ = p.rll(&x);
        let vy = p.rll(&y);
        // The reservation now names y; RSC on y works…
        assert!(p.rsc(&y, vy + 1));
        // …and the x reservation is gone.
        assert!(!p.has_reservation());
    }

    #[test]
    #[should_panic(expected = "different word")]
    fn rsc_on_wrong_word_panics() {
        let m = Machine::new(1);
        let p = m.processor(0);
        let x = SimWord::new(1);
        let y = SimWord::new(2);
        let _ = p.rll(&y);
        let _ = p.rll(&x);
        let _ = p.rsc(&y, 9); // reservation is on x
    }

    #[test]
    fn intervening_read_invalidates_reservation() {
        let m = Machine::new(1);
        let p = m.processor(0);
        let w = SimWord::new(0);
        let z = SimWord::new(7);
        let v = p.rll(&w);
        let _ = p.read(&z); // restriction #1 violated -> reservation dropped
        assert!(!p.rsc(&w, v + 1));
        assert_eq!(p.stats().reservations_invalidated, 1);
    }

    #[test]
    #[should_panic(expected = "restriction #1")]
    fn strict_mode_panics_on_rsc_after_intervening_access() {
        let m = Machine::builder(1)
            .access_between(AccessBetween::Panic)
            .build();
        let p = m.processor(0);
        let w = SimWord::new(0);
        let z = SimWord::new(7);
        let v = p.rll(&w);
        let _ = p.read(&z);
        let _ = p.rsc(&w, v + 1); // the violation is the RLL->RSC pair
    }

    #[test]
    fn strict_mode_allows_abandoning_a_reservation() {
        // Abandoning a reservation (no RSC) and touching memory is not a
        // violation of restriction #1; a fresh pair afterwards is fine.
        let m = Machine::builder(1)
            .access_between(AccessBetween::Panic)
            .build();
        let p = m.processor(0);
        let w = SimWord::new(0);
        let z = SimWord::new(7);
        let _ = p.rll(&w); // abandoned
        let _ = p.read(&z);
        p.write(&z, 8);
        let v = p.rll(&w); // fresh pair
        assert!(p.rsc(&w, v + 1));
        assert_eq!(w.peek(), 1);
    }

    #[test]
    fn conflicting_write_fails_rsc() {
        let m = Machine::new(2);
        let p0 = m.processor(0);
        let p1 = m.processor(1);
        let w = SimWord::new(0);
        let v = p0.rll(&w);
        p1.write(&w, 99);
        assert!(!p0.rsc(&w, v + 1));
        assert_eq!(w.peek(), 99);
        assert_eq!(p0.stats().rsc_conflict, 1);
    }

    #[test]
    #[should_panic(expected = "does not provide CAS")]
    fn cas_panics_on_llsc_machine() {
        let m = Machine::builder(1)
            .instruction_set(InstructionSet::RllRscOnly)
            .build();
        let p = m.processor(0);
        let w = SimWord::new(0);
        let _ = p.cas(&w, 0, 1);
    }

    #[test]
    #[should_panic(expected = "does not provide RLL/RSC")]
    fn rll_panics_on_cas_machine() {
        let m = Machine::builder(1)
            .instruction_set(InstructionSet::CasOnly)
            .build();
        let p = m.processor(0);
        let w = SimWord::new(0);
        let _ = p.rll(&w);
    }

    #[test]
    fn swap_faa_round_trip_and_counters() {
        let m = Machine::builder(1)
            .instruction_set(InstructionSet::SwapFaaOnly)
            .build();
        let p = m.processor(0);
        let w = SimWord::new(10);
        assert_eq!(p.swap(&w, 20), 10);
        assert_eq!(p.fetch_add(&w, 5), 20);
        assert_eq!(p.read(&w), 25);
        let s = p.stats();
        assert_eq!((s.swaps, s.fetch_adds), (1, 1));
    }

    #[test]
    fn feb_ops_round_trip_and_counters() {
        let m = Machine::builder(1)
            .instruction_set(InstructionSet::FebOnly)
            .build();
        let p = m.processor(0);
        let w = SimWord::new(3);
        assert_eq!(p.feb_tfas(&w, 7), 3, "flag clear: install");
        assert_eq!(p.feb_tfas(&w, 8), 7 | crate::FEB_FLAG, "flag set: refuse");
        assert_eq!(p.feb_load(&w), 7 | crate::FEB_FLAG);
        assert_eq!(p.feb_sac(&w, 1), 7 | crate::FEB_FLAG);
        assert_eq!(p.feb_load(&w), 1);
        assert_eq!(p.stats().febs, 5);
    }

    #[test]
    #[should_panic(expected = "does not provide swap")]
    fn swap_panics_on_cas_machine() {
        let m = Machine::builder(1)
            .instruction_set(InstructionSet::CasOnly)
            .build();
        let p = m.processor(0);
        let _ = p.swap(&SimWord::new(0), 1);
    }

    #[test]
    #[should_panic(expected = "does not provide NB-FEB")]
    fn tfas_panics_on_swap_machine() {
        let m = Machine::builder(1)
            .instruction_set(InstructionSet::SwapFaaOnly)
            .build();
        let p = m.processor(0);
        let _ = p.feb_tfas(&SimWord::new(0), 1);
    }

    #[test]
    #[should_panic(expected = "does not provide CAS")]
    fn cas_panics_on_feb_machine() {
        let m = Machine::builder(1)
            .instruction_set(InstructionSet::FebOnly)
            .build();
        let p = m.processor(0);
        let _ = p.cas(&SimWord::new(0), 0, 1);
    }

    #[test]
    fn swap_invalidates_reservation() {
        let m = Machine::new(1);
        let p = m.processor(0);
        let w = SimWord::new(0);
        let z = SimWord::new(0);
        let v = p.rll(&w);
        let _ = p.swap(&z, 1); // intervening access drops the LLBit
        assert!(!p.rsc(&w, v + 1));
        assert_eq!(p.stats().reservations_invalidated, 1);
    }

    #[test]
    fn instruction_set_capability_mapping() {
        use crate::Capability;
        assert_eq!(
            InstructionSet::SwapFaaOnly.capability(),
            Capability::SWAP | Capability::FETCH_ADD
        );
        assert_eq!(InstructionSet::FebOnly.capability(), Capability::FEB);
        assert!(InstructionSet::Both
            .capability()
            .contains(Capability::CAS | Capability::RLL_RSC | Capability::FEB));
        assert!(!InstructionSet::CasOnly.capability().contains(Capability::SWAP));
        assert_eq!(InstructionSet::RllRscOnly.capability().to_string(), "rll_rsc");
        assert_eq!(Capability::NONE.to_string(), "none");
        assert_eq!(
            (Capability::SWAP | Capability::FETCH_ADD).names(),
            vec!["swap", "fetch_add"]
        );
    }

    #[test]
    fn processor_exposes_instruction_set() {
        let m = Machine::builder(1)
            .instruction_set(InstructionSet::SwapFaaOnly)
            .build();
        assert_eq!(m.processor(0).instruction_set(), InstructionSet::SwapFaaOnly);
    }

    #[test]
    #[should_panic(expected = "claimed twice")]
    fn processor_cannot_be_claimed_twice() {
        let m = Machine::new(2);
        let _a = m.processor(1);
        let _b = m.processor(1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn processor_id_out_of_range() {
        let m = Machine::new(2);
        let _ = m.processor(2);
    }

    #[test]
    fn processors_claims_all() {
        let m = Machine::new(3);
        let ps = m.processors();
        assert_eq!(ps.len(), 3);
        assert_eq!(ps[2].id().index(), 2);
    }

    #[test]
    fn spurious_budget_schedule_is_deterministic() {
        let m = Machine::builder(1)
            .spurious(SpuriousMode::Budget { per_proc: 2 })
            .build();
        let p = m.processor(0);
        let w = SimWord::new(0);
        for expected in [false, false, true] {
            let v = p.rll(&w);
            assert_eq!(p.rsc(&w, v + 1), expected);
        }
        let s = p.stats();
        assert_eq!(s.rsc_spurious, 2);
        assert_eq!(s.rsc_success, 1);
    }

    #[test]
    fn probabilistic_spurious_is_reproducible_across_machines() {
        let run = || {
            let m = Machine::builder(1)
                .spurious(SpuriousMode::Probability { p: 0.5 })
                .seed(42)
                .build();
            let p = m.processor(0);
            let w = SimWord::new(0);
            (0..64)
                .map(|_| {
                    let v = p.rll(&w);
                    p.rsc(&w, v)
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stats_track_reads_and_writes() {
        let m = Machine::new(1);
        let p = m.processor(0);
        let w = SimWord::new(0);
        let _ = p.read(&w);
        p.write(&w, 3);
        let _ = p.cas(&w, 3, 4);
        let s = p.stats();
        assert_eq!((s.reads, s.writes, s.cas_attempts, s.cas_success), (1, 1, 1, 1));
        p.reset_stats();
        assert_eq!(p.stats(), ProcStats::default());
    }

    #[test]
    fn concurrent_rll_rsc_counter_is_exact() {
        let m = Machine::new(4);
        let w = SimWord::new(0);
        std::thread::scope(|s| {
            for id in 0..4 {
                let p = m.processor(id);
                let w = &w;
                s.spawn(move || {
                    for _ in 0..5_000 {
                        loop {
                            let v = p.rll(w);
                            if p.rsc(w, v + 1) {
                                break;
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(w.peek(), 20_000);
    }

    #[test]
    fn every_instruction_yields_once_before_its_access() {
        use crate::sched::{self, AccessKind, Decision, SchedulePoint};
        use std::sync::{Arc, Mutex};

        /// Logs each yield with the value its word held at that moment, so
        /// a mutating instruction must show the value from *before* it ran.
        struct Recorder {
            words: [Arc<SimWord>; 2],
            log: Mutex<Vec<(usize, AccessKind, u64)>>,
        }
        impl SchedulePoint for Recorder {
            fn yield_point(&self, addr: usize, kind: AccessKind) -> Decision {
                let word = self.words.iter().find(|w| w.addr() == addr).unwrap();
                self.log.lock().unwrap().push((addr, kind, word.peek()));
                Decision::Proceed
            }
        }

        let w = Arc::new(SimWord::new(1));
        let f = Arc::new(SimWord::new(0));
        let rec = Arc::new(Recorder {
            words: [Arc::clone(&w), Arc::clone(&f)],
            log: Mutex::new(Vec::new()),
        });
        let m = Machine::builder(2)
            .spurious(SpuriousMode::Budget { per_proc: 1 })
            .build();
        let (p, q) = (m.processor(0), m.processor(1));
        let guard = sched::install(rec.clone());
        let _ = p.read(&w);
        p.write(&w, 2);
        assert!(p.cas(&w, 2, 3));
        assert_eq!(p.swap(&w, 4), 3);
        assert_eq!(p.fetch_add(&w, 1), 4);
        assert_eq!(p.feb_tfas(&f, 7), 0);
        assert_eq!(p.feb_load(&f), 7 | crate::FEB_FLAG);
        assert_eq!(p.feb_sac(&f, 1), 7 | crate::FEB_FLAG);
        let v = p.rll(&w);
        assert!(!p.rsc(&w, v + 1), "spurious failure");
        let v = p.rll(&w);
        assert!(p.rsc(&w, v + 1), "success");
        let v = p.rll(&w);
        q.write(&w, 9);
        assert!(!p.rsc(&w, v + 1), "conflict");
        p.await_change(&w);
        drop(guard);
        let _ = p.read(&w);

        let s = p.stats();
        assert_eq!((s.rsc_spurious, s.rsc_success, s.rsc_conflict), (1, 1, 1));
        let (a, b) = (w.addr(), f.addr());
        let expected = [
            (a, AccessKind::Read, 1),
            (a, AccessKind::Write, 1),
            (a, AccessKind::Cas, 2),
            (a, AccessKind::Swap, 3),
            (a, AccessKind::FetchAdd, 4),
            (b, AccessKind::Feb, 0),
            (b, AccessKind::Read, 7 | crate::FEB_FLAG),
            (b, AccessKind::Feb, 7 | crate::FEB_FLAG),
            (a, AccessKind::Rll, 5),
            (a, AccessKind::Rsc, 5),
            (a, AccessKind::Rll, 5),
            (a, AccessKind::Rsc, 5),
            (a, AccessKind::Rll, 6),
            (a, AccessKind::Write, 6),
            (a, AccessKind::Rsc, 9),
            (a, AccessKind::Wait, 9),
        ];
        // Nothing after the guard dropped: the final read is not logged.
        assert_eq!(*rec.log.lock().unwrap(), expected);
    }

    #[test]
    fn send_not_sync() {
        fn assert_send<T: Send>() {}
        assert_send::<Processor>();
        assert_send::<Machine>();
        fn assert_sync<T: Sync>() {}
        assert_sync::<Machine>();
        // Processor is intentionally !Sync (Cell fields); this is checked
        // by compile-fail in practice — here we just document the intent.
    }
}
