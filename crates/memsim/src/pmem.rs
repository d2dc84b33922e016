//! Persistent-memory model: words with an explicit volatile/persisted split.
//!
//! The durable LL/SC construction (arXiv:2302.00135) is specified for
//! machines with byte-addressable persistent memory, where a store becomes
//! durable only once it is explicitly *flushed* (CLWB/SFENCE on x86). A
//! crash discards every store that was not yet flushed; recovery starts
//! from the persisted image. This module models that contract exactly:
//!
//! * a [`PWord`] carries **two** cells — the volatile cache line that
//!   loads/stores/CAS operate on, and the persisted image;
//! * [`PWord::flush`] copies volatile → persisted (the CLWB+SFENCE pair);
//! * [`PWord::crash_reset`] copies persisted → volatile, simulating the
//!   power failure: unflushed stores vanish.
//!
//! Every volatile access goes through [`sched::yield_point`], so the same
//! schedule-point machinery that drives DPOR model checking can also drive
//! crash injection: a [`sched::CrashPlan`] kills the run at an arbitrary
//! schedule point, after which `crash_reset` + the algorithm's recovery
//! procedure must restore a durably linearizable state.
//!
//! `crash_reset` is a *quiescent* operation: it must only be called after
//! every thread of the crashed execution has stopped (joined or unwound).
//! It intentionally does not synchronize with concurrent accessors — a real
//! power failure does not either.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::sched::{self, AccessKind};

/// A 64-bit word of simulated persistent memory.
///
/// Accesses operate on the volatile cell; [`PWord::flush`] persists it and
/// [`PWord::crash_reset`] rolls the volatile cell back to the persisted
/// image. All volatile accesses are sequentially consistent (matching
/// [`SimWord`](crate::SimWord)) and yield to the per-thread schedule hook
/// before executing, so crash plans and model checkers see them.
///
/// ```
/// use nbsp_memsim::PWord;
/// let w = PWord::new(1);
/// w.store(2);          // volatile only
/// w.crash_reset();     // crash before flush: the store is lost
/// assert_eq!(w.load(), 1);
/// w.store(3);
/// w.flush();           // now durable
/// w.crash_reset();
/// assert_eq!(w.load(), 3);
/// ```
pub struct PWord {
    volatile: AtomicU64,
    persisted: AtomicU64,
}

impl PWord {
    /// Creates a word whose volatile and persisted cells both hold `value`
    /// (i.e. the initial state is already durable, as after formatting the
    /// persistent heap).
    #[must_use]
    pub const fn new(value: u64) -> Self {
        PWord {
            volatile: AtomicU64::new(value),
            persisted: AtomicU64::new(value),
        }
    }

    /// The address used for schedule-point identity.
    fn addr(&self) -> usize {
        self as *const PWord as usize
    }

    /// Loads the volatile cell (instrumented).
    #[must_use]
    pub fn load(&self) -> u64 {
        let _ = sched::yield_point(self.addr(), AccessKind::Read);
        self.volatile.load(Ordering::SeqCst)
    }

    /// Stores to the volatile cell (instrumented). Not durable until
    /// [`PWord::flush`].
    pub fn store(&self, value: u64) {
        let _ = sched::yield_point(self.addr(), AccessKind::Write);
        self.volatile.store(value, Ordering::SeqCst);
    }

    /// Compare-and-swap on the volatile cell (instrumented). Not durable
    /// until [`PWord::flush`].
    pub fn cas(&self, old: u64, new: u64) -> bool {
        let _ = sched::yield_point(self.addr(), AccessKind::Cas);
        self.volatile
            .compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Flushes the volatile cell to the persisted image (CLWB + SFENCE).
    ///
    /// Instrumented as a read: a flush observes the volatile cell but never
    /// changes it, so two flushes (or a flush and a load) commute.
    pub fn flush(&self) {
        let _ = sched::yield_point(self.addr(), AccessKind::Read);
        self.persisted
            .store(self.volatile.load(Ordering::SeqCst), Ordering::SeqCst);
    }

    /// Flush for words whose value is **monotonically increasing** in the
    /// `u64` order (e.g. a sequence number in the high bits): the persisted
    /// image only ever moves forward.
    ///
    /// On real hardware, flushes of one cache line are serialized by
    /// coherence, so a stale flush can never roll the persisted line back
    /// behind a newer one. This model's two-cell split loses that — two
    /// racing [`PWord::flush`]es could commit out of order. For a word
    /// flushed by many threads, `flush_max` restores the hardware
    /// guarantee, at the price of only being correct for monotone values.
    pub fn flush_max(&self) {
        let _ = sched::yield_point(self.addr(), AccessKind::Read);
        self.persisted
            .fetch_max(self.volatile.load(Ordering::SeqCst), Ordering::SeqCst);
    }

    /// Simulates a power failure: the volatile cell is rolled back to the
    /// persisted image. Quiescent-only — call after all threads of the
    /// crashed execution have stopped. Deliberately uninstrumented: the
    /// crash itself is not a step of any thread.
    pub fn crash_reset(&self) {
        self.volatile
            .store(self.persisted.load(Ordering::SeqCst), Ordering::SeqCst);
    }

    /// Reads the persisted image directly (uninstrumented), for assertions
    /// about what a crash at this instant would preserve.
    #[must_use]
    pub fn peek_persisted(&self) -> u64 {
        self.persisted.load(Ordering::SeqCst)
    }

    /// Reads the volatile cell without yielding, for sequential inspection
    /// in tests after all worker threads have joined.
    #[must_use]
    pub fn peek(&self) -> u64 {
        self.volatile.load(Ordering::SeqCst)
    }
}

impl Default for PWord {
    fn default() -> Self {
        PWord::new(0)
    }
}

impl fmt::Debug for PWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PWord(volatile={:#x}, persisted={:#x})",
            self.peek(),
            self.peek_persisted()
        )
    }
}

/// A volatile counterpart to [`PWord`] with the same surface, so the
/// dynamic-joining construction can be written once, generic over the word
/// type: `flush` and `crash_reset` are no-ops and the "persisted" image is
/// just the live value.
pub struct VWord(AtomicU64);

impl VWord {
    /// Creates a word holding `value`.
    #[must_use]
    pub const fn new(value: u64) -> Self {
        VWord(AtomicU64::new(value))
    }

    fn addr(&self) -> usize {
        self as *const VWord as usize
    }

    /// Loads the word (instrumented).
    #[must_use]
    pub fn load(&self) -> u64 {
        let _ = sched::yield_point(self.addr(), AccessKind::Read);
        self.0.load(Ordering::SeqCst)
    }

    /// Stores to the word (instrumented).
    pub fn store(&self, value: u64) {
        let _ = sched::yield_point(self.addr(), AccessKind::Write);
        self.0.store(value, Ordering::SeqCst);
    }

    /// Compare-and-swap (instrumented).
    pub fn cas(&self, old: u64, new: u64) -> bool {
        let _ = sched::yield_point(self.addr(), AccessKind::Cas);
        self.0
            .compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// No-op: a volatile word has no separate persisted image.
    pub fn flush(&self) {}

    /// No-op (see [`PWord::flush_max`]).
    pub fn flush_max(&self) {}

    /// No-op: nothing is lost because nothing was cached.
    pub fn crash_reset(&self) {}

    /// The "persisted" image of a volatile word is its live value.
    #[must_use]
    pub fn peek_persisted(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    /// Reads without yielding, for sequential test inspection.
    #[must_use]
    pub fn peek(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

impl Default for VWord {
    fn default() -> Self {
        VWord::new(0)
    }
}

impl fmt::Debug for VWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VWord({:#x})", self.peek())
    }
}

/// The word interface the durable construction is generic over: the
/// intersection of [`PWord`] and [`VWord`].
pub trait MemWord: Default + Send + Sync + 'static {
    /// Creates a word holding `value`, already durable.
    fn new(value: u64) -> Self;
    /// Instrumented load.
    fn load(&self) -> u64;
    /// Instrumented store (volatile until [`MemWord::flush`]).
    fn store(&self, value: u64);
    /// Instrumented compare-and-swap (volatile until [`MemWord::flush`]).
    fn cas(&self, old: u64, new: u64) -> bool;
    /// Makes the current value durable.
    fn flush(&self);
    /// Makes the current value durable, never regressing the persisted
    /// image — correct only for monotone values (see [`PWord::flush_max`]).
    fn flush_max(&self);
    /// Quiescent crash: roll back to the durable image.
    fn crash_reset(&self);
    /// The durable image (uninstrumented, for assertions).
    fn peek_persisted(&self) -> u64;
    /// The current value without yielding to the model checker — only
    /// for a read whose every outcome leads to the same observable
    /// behaviour, so no schedule can hinge on it.
    fn peek(&self) -> u64;
}

impl MemWord for PWord {
    fn new(value: u64) -> Self {
        PWord::new(value)
    }
    fn load(&self) -> u64 {
        PWord::load(self)
    }
    fn store(&self, value: u64) {
        PWord::store(self, value);
    }
    fn cas(&self, old: u64, new: u64) -> bool {
        PWord::cas(self, old, new)
    }
    fn flush(&self) {
        PWord::flush(self);
    }
    fn flush_max(&self) {
        PWord::flush_max(self);
    }
    fn crash_reset(&self) {
        PWord::crash_reset(self);
    }
    fn peek_persisted(&self) -> u64 {
        PWord::peek_persisted(self)
    }
    fn peek(&self) -> u64 {
        PWord::peek(self)
    }
}

impl MemWord for VWord {
    fn new(value: u64) -> Self {
        VWord::new(value)
    }
    fn load(&self) -> u64 {
        VWord::load(self)
    }
    fn store(&self, value: u64) {
        VWord::store(self, value);
    }
    fn cas(&self, old: u64, new: u64) -> bool {
        VWord::cas(self, old, new)
    }
    fn flush(&self) {
        VWord::flush(self);
    }
    fn flush_max(&self) {
        VWord::flush_max(self);
    }
    fn crash_reset(&self) {
        VWord::crash_reset(self);
    }
    fn peek_persisted(&self) -> u64 {
        VWord::peek_persisted(self)
    }
    fn peek(&self) -> u64 {
        VWord::peek(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{install, Decision, SchedulePoint};
    use std::sync::Arc;

    #[test]
    fn store_without_flush_is_lost_on_crash() {
        let w = PWord::new(10);
        w.store(11);
        assert_eq!(w.peek(), 11);
        assert_eq!(w.peek_persisted(), 10);
        w.crash_reset();
        assert_eq!(w.load(), 10);
    }

    #[test]
    fn flush_makes_the_store_durable() {
        let w = PWord::new(0);
        w.store(5);
        w.flush();
        w.crash_reset();
        assert_eq!(w.load(), 5);
        assert_eq!(w.peek_persisted(), 5);
    }

    #[test]
    fn cas_is_volatile_until_flushed() {
        let w = PWord::new(1);
        assert!(w.cas(1, 2));
        assert!(!w.cas(1, 3));
        assert_eq!(w.peek_persisted(), 1);
        w.flush();
        assert_eq!(w.peek_persisted(), 2);
    }

    #[test]
    fn flush_max_never_regresses_the_persisted_image() {
        let w = PWord::new(0);
        w.store(9);
        w.flush_max();
        assert_eq!(w.peek_persisted(), 9);
        // A stale flush (volatile rolled forward is impossible for a
        // monotone word, but simulate the racing-writeback shape: the
        // volatile value is *behind* what a newer flush persisted).
        w.persisted.store(12, Ordering::SeqCst);
        w.flush_max();
        assert_eq!(w.peek_persisted(), 12, "must keep the newer image");
    }

    #[test]
    fn vword_crash_is_a_noop() {
        let w = VWord::new(1);
        w.store(2);
        w.crash_reset();
        assert_eq!(w.load(), 2);
        assert_eq!(w.peek_persisted(), 2);
    }

    #[test]
    fn accesses_reach_the_schedule_hook() {
        struct Counter(AtomicU64);
        impl SchedulePoint for Counter {
            fn yield_point(&self, _addr: usize, _kind: AccessKind) -> Decision {
                self.0.fetch_add(1, Ordering::Relaxed);
                Decision::Proceed
            }
        }
        let hook = Arc::new(Counter(AtomicU64::new(0)));
        let _g = install(hook.clone());
        let p = PWord::new(0);
        let _ = p.load();
        p.store(1);
        let _ = p.cas(1, 2);
        p.flush();
        p.crash_reset(); // uninstrumented
        let v = VWord::new(0);
        let _ = v.load();
        v.store(1);
        let _ = v.cas(1, 2);
        v.flush(); // no-op, uninstrumented
        assert_eq!(hook.0.load(Ordering::Relaxed), 4 + 3);
    }

    #[test]
    fn generic_word_roundtrip() {
        fn durable_increment<W: MemWord>() -> u64 {
            let w = W::new(0);
            let v = w.load();
            w.store(v + 1);
            w.flush();
            w.crash_reset();
            w.load()
        }
        assert_eq!(durable_increment::<PWord>(), 1);
        assert_eq!(durable_increment::<VWord>(), 1);
    }
}
