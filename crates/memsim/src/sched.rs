//! Schedule-point hook: every shared access can yield to an explicit
//! scheduler.
//!
//! Stateless model checkers (CHESS, Loom, and this workspace's
//! `nbsp-check`) work by running the *real* implementation under a
//! cooperative scheduler that decides, at every shared-memory access, which
//! thread moves next. This module is the seam that makes that possible
//! without forking the code under test: the simulator's
//! [`Processor`](crate::Processor) — and, in `nbsp-core`, the native
//! `CasMemory` accessors and the raw-atomic ablations — call
//! [`yield_point`] immediately before each shared access.
//!
//! Because each yield names the word and the kind of access, the same seam
//! also serves observers that never reorder anything: crash injection
//! ([`CrashPlan`]) counts accesses, and experiment E10 records the set of
//! words each process touches to check disjoint-access parallelism.
//!
//! The hook is **per-thread**: a checker installs its [`SchedulePoint`]
//! only in the worker threads it spawns, so concurrently running tests,
//! benchmarks and unrelated threads in the same process are never
//! intercepted. When no hook is installed anywhere in the process the cost
//! is a single relaxed load of a static counter, so production and
//! benchmark paths are unaffected.
//!
//! Besides choosing *when* an access runs, the scheduler also controls the
//! one source of nondeterminism that is not an interleaving: it may answer
//! an [`AccessKind::Rsc`] yield with [`Decision::SpuriousFail`], forcing
//! the store-conditional to fail spuriously on that attempt. This turns
//! the paper's "RSC may occasionally fail when the normal semantics
//! dictate that it should succeed" from a probabilistic adversary into an
//! explicitly enumerable scheduler branch.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The kind of shared access about to be performed at a yield point.
///
/// Two accesses to the same address are *independent* (commute) iff both
/// are in the read-only subset ([`AccessKind::is_read_only`]); everything
/// else may write and therefore conflicts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// An ordinary load.
    Read,
    /// An ordinary store.
    Write,
    /// A compare-and-swap (counted as a write even when it fails).
    Cas,
    /// A restricted load-linked (reads memory, sets the reservation).
    Rll,
    /// A restricted store-conditional (may write; may fail spuriously).
    Rsc,
    /// An unconditional atomic exchange (always writes).
    Swap,
    /// A fetch-and-add (always writes; the paper's Φ-style sequence
    /// numbers in the consensus-hierarchy providers come from here).
    FetchAdd,
    /// A full/empty-bit word operation (TFAS or SAC — both may write the
    /// flag and therefore conflict; the read-only NB-FEB load is issued as
    /// [`AccessKind::Read`]).
    Feb,
    /// A declared wait: the process announces it cannot make progress
    /// until some other process *writes* the yielded address, and performs
    /// no access itself. Cooperative schedulers park the process until a
    /// mutating access hits that address instead of re-granting a spin
    /// loop forever; with no hook installed the yield is a no-op and the
    /// caller's own retry loop (with [`std::thread::yield_now`]) provides
    /// host-side fairness. This is the standard "await" reduction for
    /// model-checking blocking constructions: side-effect-free re-reads of
    /// an unchanged word need not be explored as distinct interleavings.
    Wait,
}

impl AccessKind {
    /// True iff this access never modifies the shared word: two read-only
    /// accesses to the same address commute. A declared [`Wait`] touches
    /// nothing at all, so it commutes with reads — but *not* with writes:
    /// reordering a wait across the write that would wake it changes when
    /// the waiter becomes runnable, so a DPOR driver must still treat the
    /// pair as dependent (which this predicate's callers get for free,
    /// because the write side is never read-only).
    ///
    /// [`Wait`]: AccessKind::Wait
    #[must_use]
    pub fn is_read_only(self) -> bool {
        matches!(self, AccessKind::Read | AccessKind::Rll | AccessKind::Wait)
    }
}

/// The scheduler's answer to a yield: proceed normally, or (for
/// [`AccessKind::Rsc`] only) fail this store-conditional spuriously.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Decision {
    /// Perform the access with its normal semantics.
    Proceed,
    /// Fail this RSC attempt spuriously. Ignored by non-RSC accesses.
    SpuriousFail,
}

/// A scheduler receiving yield points from instrumented shared accesses.
///
/// Implementations typically park the calling thread until a controller
/// grants it the step; the return value is the controller's decision.
pub trait SchedulePoint: Send + Sync {
    /// Called immediately before a shared access to `addr` of kind `kind`;
    /// blocks until the scheduler lets the access proceed.
    fn yield_point(&self, addr: usize, kind: AccessKind) -> Decision;
}

/// Number of threads with a hook installed, so the uninstrumented fast
/// path is one relaxed load (no thread-local access).
static ACTIVE_HOOKS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static HOOK: RefCell<Option<Arc<dyn SchedulePoint>>> = const { RefCell::new(None) };
}

/// Yields to the calling thread's installed scheduler, if any.
///
/// Instrumented call sites invoke this immediately before every shared
/// access. With no hook installed on the calling thread this returns
/// [`Decision::Proceed`] after a single relaxed load.
#[inline]
pub fn yield_point(addr: usize, kind: AccessKind) -> Decision {
    if ACTIVE_HOOKS.load(Ordering::Relaxed) == 0 {
        return Decision::Proceed;
    }
    yield_point_slow(addr, kind)
}

#[cold]
fn yield_point_slow(addr: usize, kind: AccessKind) -> Decision {
    // Clone the Arc out so the hook runs without the RefCell borrowed:
    // a hook that itself touches instrumented state must not re-enter a
    // held borrow.
    let hook = HOOK.with(|h| h.borrow().clone());
    match hook {
        Some(hook) => hook.yield_point(addr, kind),
        None => Decision::Proceed,
    }
}

/// Installs `hook` for the calling thread, returning a guard that
/// uninstalls it when dropped (including on unwind).
///
/// # Panics
///
/// Panics if the calling thread already has a hook installed — checkers
/// do not nest.
#[must_use]
pub fn install(hook: Arc<dyn SchedulePoint>) -> HookGuard {
    HOOK.with(|h| {
        let mut slot = h.borrow_mut();
        assert!(
            slot.is_none(),
            "a schedule hook is already installed on this thread"
        );
        *slot = Some(hook);
    });
    ACTIVE_HOOKS.fetch_add(1, Ordering::Relaxed);
    HookGuard { _priv: () }
}

/// Uninstalls the calling thread's schedule hook on drop (see [`install`]).
#[derive(Debug)]
pub struct HookGuard {
    _priv: (),
}

impl Drop for HookGuard {
    fn drop(&mut self) {
        HOOK.with(|h| h.borrow_mut().take());
        ACTIVE_HOOKS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Kill-at-schedule-point crash injection.
///
/// A `CrashPlan` is a [`SchedulePoint`] shared (via `Arc`) by every thread
/// of a crash experiment. It counts down the instrumented shared accesses
/// performed across *all* participating threads; when the countdown
/// reaches zero the plan *trips*, and from then on every yield from a
/// participating thread panics with a recognizable crash token instead of
/// letting the access proceed. The harness joins the workers, treats
/// [`is_crash_panic`] payloads as the simulated power failure (any other
/// panic is a real bug and is resumed), rolls persistent words back with
/// `crash_reset`, runs the algorithm's recovery procedure, and asserts
/// durable linearizability.
///
/// Because the kill point is "the k-th instrumented access, whichever
/// thread performs it", sweeping `k` over a seeded random range explores
/// crashes at arbitrary interleaving depths without any cooperation from
/// the code under test — the same property that makes the schedule-point
/// seam sufficient for DPOR makes it sufficient for crash injection.
///
/// The countdown and trip flag use relaxed atomics: the plan needs an
/// *atomic* trip (exactly one access observes the count hit zero) but no
/// ordering with the data accesses themselves — the crash is adversarial
/// by design, so any interleaving of "who noticed the trip when" is a
/// legal power-failure instant.
#[derive(Debug)]
pub struct CrashPlan {
    remaining: AtomicUsize,
    tripped: std::sync::atomic::AtomicBool,
}

/// The panic payload used by [`CrashPlan`] to tear a thread down; detect
/// it with [`is_crash_panic`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashToken;

/// True iff `payload` (from [`std::thread::JoinHandle::join`] or
/// [`std::panic::catch_unwind`]) is a [`CrashPlan`] kill, as opposed to a
/// genuine assertion failure in the code under test.
#[must_use]
pub fn is_crash_panic(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.is::<CrashToken>()
}

impl CrashPlan {
    /// A plan that trips at the `kill_after`-th instrumented access
    /// (0 trips at the very first access) counted across every thread the
    /// plan is installed on.
    #[must_use]
    pub fn new(kill_after: usize) -> Arc<Self> {
        Arc::new(CrashPlan {
            remaining: AtomicUsize::new(kill_after),
            tripped: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// True once the kill point has been reached (some thread has already
    /// been torn down, or will be at its next yield).
    #[must_use]
    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
    }
}

impl SchedulePoint for CrashPlan {
    fn yield_point(&self, _addr: usize, _kind: AccessKind) -> Decision {
        if !self.tripped() {
            // fetch_update is a CAS loop: exactly one access moves the
            // count from 0, and it is the one that sets the trip flag.
            let hit = self
                .remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| r.checked_sub(1))
                .is_err();
            if !hit {
                return Decision::Proceed;
            }
            self.tripped.store(true, Ordering::Relaxed);
        }
        // Tripped: this thread dies *before* the access executes, exactly
        // like a power failure between two instructions.
        std::panic::panic_any(CrashToken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    struct Counter(AtomicU64);

    impl SchedulePoint for Counter {
        fn yield_point(&self, _addr: usize, _kind: AccessKind) -> Decision {
            self.0.fetch_add(1, Ordering::Relaxed);
            Decision::Proceed
        }
    }

    #[test]
    fn uninstalled_hook_proceeds() {
        assert_eq!(yield_point(0, AccessKind::Read), Decision::Proceed);
    }

    #[test]
    fn install_routes_and_guard_uninstalls() {
        let hook = Arc::new(Counter(AtomicU64::new(0)));
        {
            let _g = install(hook.clone());
            let _ = yield_point(1, AccessKind::Write);
            let _ = yield_point(2, AccessKind::Cas);
            assert_eq!(hook.0.load(Ordering::Relaxed), 2);
        }
        let _ = yield_point(3, AccessKind::Read);
        assert_eq!(hook.0.load(Ordering::Relaxed), 2, "guard must uninstall");
    }

    #[test]
    fn hook_is_per_thread() {
        let hook = Arc::new(Counter(AtomicU64::new(0)));
        let _g = install(hook.clone());
        std::thread::scope(|s| {
            s.spawn(|| {
                // No hook installed on this thread: not intercepted even
                // though ACTIVE_HOOKS is nonzero.
                let _ = yield_point(7, AccessKind::Rsc);
            });
        });
        assert_eq!(hook.0.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn processor_accesses_reach_the_hook() {
        let hook = Arc::new(Counter(AtomicU64::new(0)));
        let _g = install(hook.clone());
        let m = crate::Machine::new(1);
        let p = m.processor(0);
        let w = crate::SimWord::new(0);
        let _ = p.read(&w);
        p.write(&w, 1);
        let _ = p.cas(&w, 1, 2);
        let v = p.rll(&w);
        let _ = p.rsc(&w, v + 1);
        assert_eq!(hook.0.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn spurious_decision_fails_the_rsc() {
        struct FailRsc;
        impl SchedulePoint for FailRsc {
            fn yield_point(&self, _addr: usize, kind: AccessKind) -> Decision {
                if kind == AccessKind::Rsc {
                    Decision::SpuriousFail
                } else {
                    Decision::Proceed
                }
            }
        }
        let _g = install(Arc::new(FailRsc));
        let m = crate::Machine::new(1);
        let p = m.processor(0);
        let w = crate::SimWord::new(0);
        let v = p.rll(&w);
        assert!(!p.rsc(&w, v + 1), "scheduler-forced spurious failure");
        assert_eq!(w.peek(), 0);
        assert_eq!(p.stats().rsc_spurious, 1);
    }

    #[test]
    #[should_panic(expected = "already installed")]
    fn nested_install_panics() {
        let _a = install(Arc::new(Counter(AtomicU64::new(0))));
        let _b = install(Arc::new(Counter(AtomicU64::new(0))));
    }

    #[test]
    fn crash_plan_kills_at_the_exact_access() {
        let plan = CrashPlan::new(3);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = install(plan.clone());
            let mut survived = 0u64;
            for i in 0..10 {
                let _ = yield_point(i, AccessKind::Write);
                survived += 1;
            }
            survived
        }));
        let payload = result.expect_err("the plan must kill the loop");
        assert!(is_crash_panic(payload.as_ref()), "crash token, not a bug");
        assert!(plan.tripped());
    }

    #[test]
    fn crash_plan_counts_across_threads() {
        // Two threads, 4 accesses budget: together they execute exactly 4
        // accesses before both die at their next yield.
        let plan = CrashPlan::new(4);
        let done = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let plan = plan.clone();
                let done = done.clone();
                s.spawn(move || {
                    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let _g = install(plan);
                        loop {
                            let _ = yield_point(0, AccessKind::Cas);
                            done.fetch_add(1, Ordering::Relaxed);
                        }
                    }));
                    let payload = caught.expect_err("must crash");
                    assert!(is_crash_panic(payload.as_ref()));
                });
            }
        });
        assert_eq!(done.load(Ordering::Relaxed), 4);
        assert!(plan.tripped());
    }

    #[test]
    fn crash_panic_discriminates_real_bugs() {
        let real = std::panic::catch_unwind(|| panic!("assertion failed: real bug"))
            .expect_err("panicked");
        assert!(!is_crash_panic(real.as_ref()));
    }

    #[test]
    fn crash_plan_zero_kills_immediately() {
        let plan = CrashPlan::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = install(plan.clone());
            let _ = yield_point(0, AccessKind::Read);
        }));
        assert!(is_crash_panic(result.expect_err("dies first access").as_ref()));
    }
}
