//! **Figure 2** — reference semantics of CAS and LL/VL/SC, under a lock.
//!
//! The paper specifies the "normal" semantics of the primitives as atomic
//! code fragments (Figure 2) and notes in footnote 1 that "it is
//! straightforward to implement LL and SC using locks, but this defeats the
//! purpose of the non-blocking algorithms that use them". This module is
//! that straightforward implementation, serving two roles:
//!
//! * the **baseline** against which the non-blocking constructions are
//!   benchmarked (experiments E1 and E7);
//! * the **oracle** for differential and linearizability testing — each
//!   fragment executes atomically inside the lock, so its behaviour *is*
//!   the specification.
//!
//! Unlike the tag-based constructions, this implements Figure 2 exactly:
//! SC fails **only** when a successful SC intervened (per-process `valid`
//! bits), values occupy a full 64-bit word, and there is no tag to wrap.
//!
//! Figure 2 has one `valid` bit per process, so a process's second LL on a
//! variable revalidates its first sequence. The registry interface
//! ([`LlScVar`](crate::LlScVar)) instead gives every caller-held keep its
//! own sequence, as the paper's Figure 4 does ([`LockLlSc::ll_keep`]): a
//! keep records the count of successful SCs its LL saw and stays valid
//! while that count stands — Figure 2's `valid[p]`, per keep.

use std::sync::Mutex;

use nbsp_memsim::sched::{self, AccessKind};
use nbsp_memsim::ProcId;

/// A shared variable with Figure 2's exact LL/VL/SC and CAS semantics,
/// implemented with a lock (blocking; baseline/oracle only).
///
/// ```
/// use nbsp_core::lock_baseline::LockLlSc;
/// use nbsp_memsim::ProcId;
///
/// let v = LockLlSc::new(2, 5);
/// let p0 = ProcId::new(0);
/// let p1 = ProcId::new(1);
///
/// assert_eq!(v.ll(p0), 5);
/// assert_eq!(v.ll(p1), 5);
/// assert!(v.sc(p0, 6));   // p0 wins…
/// assert!(!v.vl(p1));     // …which invalidates p1's sequence
/// assert!(!v.sc(p1, 7));
/// assert_eq!(v.read(), 6);
/// ```
#[derive(Debug)]
pub struct LockLlSc {
    state: Mutex<State>,
}

#[derive(Debug)]
struct State {
    value: u64,
    /// Figure 2's `valid_X[0..N-1]`.
    valid: Vec<bool>,
    /// Successful SCs so far; a keep is valid while this equals the count
    /// its LL saw.
    scs: u64,
}

impl LockLlSc {
    /// Creates a variable for `n` processes holding `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize, initial: u64) -> Self {
        assert!(n > 0, "need at least one process");
        LockLlSc {
            state: Mutex::new(State {
                value: initial,
                valid: vec![false; n],
                scs: 0,
            }),
        }
    }

    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.state.lock().unwrap().valid.len()
    }

    fn check(&self, p: ProcId, len: usize) {
        assert!(
            p.index() < len,
            "process {p} out of range (n = {len})"
        );
    }

    /// Schedule-point before taking the lock. Each Figure-2 fragment runs
    /// atomically inside the mutex, so for model checking the whole
    /// operation is a single access to this variable; the lock is never
    /// held across a yield, so the cooperative scheduler cannot deadlock.
    #[inline]
    fn hook(&self, kind: AccessKind) {
        let _ = sched::yield_point(std::ptr::from_ref(self) as usize, kind);
    }

    /// Figure 2's `LL(X)`: `valid[p] := true; return X`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn ll(&self, p: ProcId) -> u64 {
        self.hook(AccessKind::Write);
        let mut g = self.state.lock().unwrap();
        self.check(p, g.valid.len());
        g.valid[p.index()] = true;
        g.value
    }

    /// Figure 2's `VL(X)`: `return valid[p]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn vl(&self, p: ProcId) -> bool {
        self.hook(AccessKind::Read);
        let g = self.state.lock().unwrap();
        self.check(p, g.valid.len());
        g.valid[p.index()]
    }

    /// Figure 2's `SC(X, v)`: if `valid[p]`, store `v`, invalidate everyone,
    /// return true; else return false.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn sc(&self, p: ProcId, v: u64) -> bool {
        self.hook(AccessKind::Write);
        let mut g = self.state.lock().unwrap();
        self.check(p, g.valid.len());
        if g.valid[p.index()] {
            g.store_conditional(v);
            true
        } else {
            false
        }
    }

    /// LL for a caller-held keep: returns the value and the keep — the
    /// number of successful SCs so far. Sets no `valid` bit, so a
    /// process may hold any number of independent sequences. A `Write`
    /// access for the model checker, like [`LockLlSc::ll`], so both forms
    /// explore the same schedules.
    #[must_use]
    pub fn ll_keep(&self) -> (u64, u64) {
        self.hook(AccessKind::Write);
        let g = self.state.lock().unwrap();
        (g.value, g.scs)
    }

    /// VL for a keep from [`LockLlSc::ll_keep`]: no successful SC since.
    #[must_use]
    pub fn vl_keep(&self, keep: u64) -> bool {
        self.hook(AccessKind::Read);
        self.state.lock().unwrap().scs == keep
    }

    /// SC for a keep from [`LockLlSc::ll_keep`]: stores `v` iff no
    /// successful SC intervened, invalidating every other sequence.
    #[must_use]
    pub fn sc_keep(&self, keep: u64, v: u64) -> bool {
        self.hook(AccessKind::Write);
        let mut g = self.state.lock().unwrap();
        let ok = g.scs == keep;
        if ok {
            g.store_conditional(v);
        }
        ok
    }

    /// Figure 2's `CAS(X, v, w)` as an atomic fragment. Note that per the
    /// specification, a successful CAS does **not** invalidate LL
    /// reservations (only SC does); the two specifications are independent.
    #[must_use]
    pub fn cas(&self, old: u64, new: u64) -> bool {
        self.hook(AccessKind::Cas);
        let mut g = self.state.lock().unwrap();
        if g.value == old {
            g.value = new;
            true
        } else {
            false
        }
    }

    /// Reads the current value atomically.
    #[must_use]
    pub fn read(&self) -> u64 {
        self.hook(AccessKind::Read);
        self.state.lock().unwrap().value
    }
}

impl State {
    /// A successful SC: store, and end every open sequence of either form.
    fn store_conditional(&mut self, v: u64) {
        self.value = v;
        self.valid.fill(false);
        self.scs += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ll_sc_round_trip() {
        let v = LockLlSc::new(1, 0);
        let p = ProcId::new(0);
        assert_eq!(v.ll(p), 0);
        assert!(v.vl(p));
        assert!(v.sc(p, 1));
        assert_eq!(v.read(), 1);
    }

    #[test]
    fn sc_without_ll_fails() {
        let v = LockLlSc::new(1, 0);
        assert!(!v.sc(ProcId::new(0), 1));
        assert_eq!(v.read(), 0);
    }

    #[test]
    fn successful_sc_invalidates_all() {
        let v = LockLlSc::new(3, 0);
        for i in 0..3 {
            let _ = v.ll(ProcId::new(i));
        }
        assert!(v.sc(ProcId::new(1), 9));
        for i in 0..3 {
            assert!(!v.vl(ProcId::new(i)));
            assert!(!v.sc(ProcId::new(i), 10));
        }
        assert_eq!(v.read(), 9);
    }

    #[test]
    fn failed_sc_does_not_invalidate_others() {
        let v = LockLlSc::new(2, 0);
        let _ = v.ll(ProcId::new(0));
        assert!(!v.sc(ProcId::new(1), 5)); // p1 never LL'd
        assert!(v.vl(ProcId::new(0)));
        assert!(v.sc(ProcId::new(0), 6));
    }

    #[test]
    fn cas_semantics() {
        let v = LockLlSc::new(1, 4);
        assert!(!v.cas(3, 9));
        assert!(v.cas(4, 9));
        assert_eq!(v.read(), 9);
    }

    #[test]
    fn cas_does_not_invalidate_ll() {
        let v = LockLlSc::new(1, 4);
        let p = ProcId::new(0);
        let _ = v.ll(p);
        assert!(v.cas(4, 5));
        // Per Figure 2, only SC clears valid bits.
        assert!(v.vl(p));
        assert!(v.sc(p, 6));
    }

    #[test]
    fn concurrent_counter_is_exact() {
        let v = LockLlSc::new(4, 0);
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
    fn keeps_are_independent_sequences() {
        let v = LockLlSc::new(1, 0);
        let (_, stale) = v.ll_keep();
        let p = ProcId::new(0);
        let x = v.ll(p);
        assert!(v.sc(p, x + 1));
        // A later LL through another keep leaves the stale one stale.
        let (x, fresh) = v.ll_keep();
        assert!(!v.vl_keep(stale));
        assert!(!v.sc_keep(stale, 7));
        assert!(v.sc_keep(fresh, x + 1));
        assert!(!v.sc_keep(fresh, 9), "a keep commits at most once");
        assert_eq!(v.read(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_foreign_process() {
        let v = LockLlSc::new(2, 0);
        let _ = v.ll(ProcId::new(2));
    }
}
