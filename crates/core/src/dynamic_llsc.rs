//! Writable LL/SC with dynamic joining (and a durable variant).
//!
//! Every construction in this crate fixes its process set at creation:
//! Figure 7's tag pool, the constant-time announce array, even the lock
//! baseline's valid bits are all sized for `N` processes known up front.
//! Jayanti, Jayanti & Jayanti (*Durable Algorithms for Writable LL/SC and
//! CAS with Dynamic Joining*, arXiv:2302.00135) lift both restrictions at
//! once: processes may [`join`](DynamicDomain::join) and
//! [`retire`](DynamicDomain::retire) at any time, and the durable variant
//! survives full-system crashes on persistent memory.
//!
//! ## The construction
//!
//! The variable is a pointer word `X = (seq, cell)` naming one cell of a
//! pool; the *value* lives in the cell, so values are full 64-bit words
//! (no tag bits stolen). Each process slot `p` owns two cells; cell 0 is
//! the genesis cell holding the initial value.
//!
//! * **LL**: read `X`, read the cell it names, re-read `X`; retry until
//!   the two reads of `X` agree (then the value belongs to that `X`).
//!   The observed `X` is the keep.
//! * **VL**: `X` still equals the keep.
//! * **SC(new)**: write `new` into the *own* cell the keep does **not**
//!   name, then CAS `X` from the keep to `(seq+1, that cell)`.
//!
//! The two-cell rule is the heart of the safety argument: `X` can only
//! name one of `p`'s cells if `p`'s *own previous* SC installed it, and
//! because `seq` strictly increases and `p` operates sequentially, the
//! keep of `p`'s next SC either names that same cell (so `p` writes the
//! other one) or was read after `X` had already moved off it — and an `X`
//! state, once left, can never recur (its `seq` is spent). So the cell a
//! successful CAS publishes is never concurrently overwritten, and a
//! *failed* CAS means the write went into a cell nothing points to.
//! A process may hold several keeps on one variable (LLX/SCX does); an
//! SC through a keep older than the process's last SC on the variable
//! first checks that `X` does not name its target cell, and fails if it
//! does, so the rule holds per keep, not only per process.
//! Retiring a slot and re-joining it later preserves this: the rule is
//! about which cell `X` names *now*, not about who owned it when.
//!
//! The monotone `seq` (54 bits here) also defeats ABA without consuming
//! value bits — the pointer word is tagged, the values are not.
//!
//! ## Durability
//!
//! Instantiated over [`PWord`] the same code is
//! durably linearizable, with three flush rules (the paper's CLWB/SFENCE
//! placement):
//!
//! * SC flushes the **cell before** installing it (a durable `X` must
//!   never name an unflushed value) and flushes `X` **after** a
//!   successful install, *before returning* (an SC that reported success
//!   must survive the crash).
//! * LL and read flush `X` before returning (an operation may act on what
//!   it saw; what it saw must therefore be durable first — this persists
//!   other processes' installs before anything is built on them).
//!
//! `X` is flushed by many processes, so it uses
//! [`flush_max`](nbsp_memsim::PWord::flush_max) (persisted image only
//! moves forward — the per-cache-line coherence real CLWB gives); each
//! cell is flushed only by its owning slot, so plain `flush` suffices.
//! After a crash, [`DynamicVar::recover`] rolls every word back to its
//! persisted image; the flush rules above make that state a prefix-closed
//! linearization of the pre-crash history (every completed SC included).
//!
//! ## Membership
//!
//! [`DynamicDomain`] tracks slot membership in per-slot claim flags
//! (free → admitted → active); `join` finds a free slot by CAS and
//! `retire` frees it. Membership is bookkeeping, not synchronization —
//! the LL/SC hot path never touches it — so the flags are plain atomics
//! outside the schedule-point instrumentation.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nbsp_memsim::{CachePadded, MemWord, PWord, VWord};

use crate::{Error, LlScVar, Result};

/// Bits of `X` naming the cell; the rest is the monotone sequence number.
const IDX_BITS: u32 = 10;
/// Largest slot count the cell index can address: `2 * MAX_SLOTS + 1`
/// cells must fit in `IDX_BITS` bits.
pub const MAX_SLOTS: usize = ((1 << IDX_BITS) - 1) / 2;

const fn seq_of(x: u64) -> u64 {
    x >> IDX_BITS
}

const fn idx_of(x: u64) -> usize {
    (x & ((1 << IDX_BITS) - 1)) as usize
}

const fn make_x(seq: u64, idx: usize) -> u64 {
    (seq << IDX_BITS) | idx as u64
}

// Membership slot states.
const FREE: u64 = 0;
const ADMITTED: u64 = 1;
const ACTIVE: u64 = 2;

/// The membership side of the construction: a pool of process slots that
/// can be admitted and retired at runtime. Shared by every
/// [`DynamicVar`] created against it (the slot count sizes their cell
/// pools).
pub struct DynamicDomain {
    slots: Box<[CachePadded<AtomicU64>]>,
}

impl DynamicDomain {
    /// A domain with `capacity` process slots, all free.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidDomain`] if `capacity` is zero or exceeds
    /// [`MAX_SLOTS`] (the cell index must fit the pointer word).
    pub fn new(capacity: usize) -> Result<Arc<DynamicDomain>> {
        if capacity == 0 {
            return Err(Error::InvalidDomain {
                what: "dynamic domain capacity must be positive",
            });
        }
        if capacity > MAX_SLOTS {
            return Err(Error::InvalidDomain {
                what: "dynamic domain capacity exceeds the cell index width",
            });
        }
        let slots = (0..capacity)
            .map(|_| CachePadded::new(AtomicU64::new(FREE)))
            .collect();
        Ok(Arc::new(DynamicDomain { slots }))
    }

    /// A domain sized for `n` pre-admitted slots (ids `0..n`, ready for
    /// [`DynamicDomain::claim`]) plus headroom of at least `max(8, n)`
    /// free slots for late joiners, capped at [`MAX_SLOTS`].
    ///
    /// # Errors
    ///
    /// [`Error::InvalidDomain`] if `n` is zero or exceeds [`MAX_SLOTS`].
    pub fn with_preadmitted(n: usize) -> Result<Arc<DynamicDomain>> {
        let capacity = n.saturating_add(n.max(8)).min(MAX_SLOTS);
        if n > MAX_SLOTS {
            return Err(Error::InvalidDomain {
                what: "dynamic domain capacity exceeds the cell index width",
            });
        }
        let d = DynamicDomain::new(capacity)?;
        for slot in d.slots.iter().take(n) {
            slot.store(ADMITTED, Ordering::SeqCst);
        }
        Ok(d)
    }

    /// Number of process slots (admitted or not).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of slots currently admitted or active.
    #[must_use]
    pub fn members(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.load(Ordering::SeqCst) != FREE)
            .count()
    }

    /// Admits a new process: claims a free slot and returns its id, ready
    /// for [`DynamicDomain::claim`].
    ///
    /// # Errors
    ///
    /// [`Error::PoolExhausted`] when every slot is taken.
    pub fn join(&self) -> Result<usize> {
        for (p, slot) in self.slots.iter().enumerate() {
            if slot
                .compare_exchange(FREE, ADMITTED, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                nbsp_telemetry::record(nbsp_telemetry::Event::JoinAdmit);
                return Ok(p);
            }
        }
        Err(Error::PoolExhausted {
            capacity: self.capacity(),
        })
    }

    /// Binds an admitted slot to the calling thread, producing the
    /// per-thread context. Each admission is claimable exactly once
    /// (until the slot is retired and re-joined).
    ///
    /// # Errors
    ///
    /// [`Error::PoolExhausted`] if `p` is out of range or the slot is
    /// free (not admitted); [`Error::InvalidDomain`] if the slot is
    /// already active on another thread.
    pub fn claim(&self, p: usize) -> Result<DynProc> {
        let Some(slot) = self.slots.get(p) else {
            return Err(Error::PoolExhausted {
                capacity: self.capacity(),
            });
        };
        match slot.compare_exchange(ADMITTED, ACTIVE, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => Ok(DynProc { p }),
            Err(FREE) => Err(Error::PoolExhausted {
                capacity: self.capacity(),
            }),
            Err(_) => Err(Error::InvalidDomain {
                what: "dynamic slot already claimed by another thread",
            }),
        }
    }

    /// Retires slot `p`: its id (and its cells in every variable) return
    /// to the pool for future joiners. The caller must have stopped using
    /// every context derived from this slot — retiring a slot an LL/SC
    /// sequence is still running on is a caller bug (like dropping a
    /// claimed processor mid-operation), not detected here.
    pub fn retire(&self, p: usize) {
        if let Some(slot) = self.slots.get(p) {
            if slot.swap(FREE, Ordering::SeqCst) != FREE {
                nbsp_telemetry::record(nbsp_telemetry::Event::Retire);
            }
        }
    }
}

impl fmt::Debug for DynamicDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DynamicDomain(capacity={}, members={})",
            self.capacity(),
            self.members()
        )
    }
}

/// Per-thread context of a dynamic slot: just the slot id (the cells it
/// owns are addressed by id inside each variable).
#[derive(Clone, Copy, Debug)]
pub struct DynProc {
    p: usize,
}

impl DynProc {
    /// The slot id this context operates as.
    #[must_use]
    pub fn id(self) -> usize {
        self.p
    }
}

/// One writable LL/SC variable of the dynamic-joining construction,
/// generic over the word type: [`VWord`] for the volatile provider,
/// [`PWord`] for the durable one.
pub struct DynamicVar<W: MemWord> {
    /// The pointer word `(seq << IDX_BITS) | cell`.
    x: W,
    /// Cell 0 is genesis (the initial value); slot `p` owns cells
    /// `1 + 2p` and `2 + 2p`.
    cells: Box<[W]>,
}

/// The volatile variable type.
pub type VolatileDynamicVar = DynamicVar<VWord>;
/// The durable (persistent-memory) variable type.
pub type DurableDynamicVar = DynamicVar<PWord>;

impl<W: MemWord> DynamicVar<W> {
    /// A variable over a pool of `capacity` slots, holding `initial`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidDomain`] if `capacity` is zero or exceeds
    /// [`MAX_SLOTS`].
    pub fn new(capacity: usize, initial: u64) -> Result<DynamicVar<W>> {
        if capacity == 0 || capacity > MAX_SLOTS {
            return Err(Error::InvalidDomain {
                what: "dynamic variable capacity out of range",
            });
        }
        let cells: Box<[W]> = (0..1 + 2 * capacity)
            .map(|i| W::new(if i == 0 { initial } else { 0 }))
            .collect();
        Ok(DynamicVar {
            x: W::new(make_x(0, 0)),
            cells,
        })
    }

    fn own_cells(p: usize) -> (usize, usize) {
        (1 + 2 * p, 2 + 2 * p)
    }

    /// One consistent `(x, value)` snapshot: the value is the one the
    /// returned `x` installed.
    fn snapshot(&self) -> (u64, u64) {
        loop {
            let x1 = self.x.load();
            let v = self.cells[idx_of(x1)].load();
            if self.x.load() == x1 {
                // What this operation saw must be durable before the
                // caller acts on it (no-op for the volatile word).
                self.x.flush_max();
                return (x1, v);
            }
            nbsp_telemetry::record(nbsp_telemetry::Event::LlRestart);
        }
    }

    /// Rolls every word back to its persisted image after a crash and
    /// re-checks the recovered state's integrity. Quiescent-only: every
    /// thread of the crashed execution must have stopped. For the
    /// volatile instantiation this is a no-op (nothing was lost).
    ///
    /// Returns the recovered value.
    pub fn recover(&self) -> u64 {
        self.x.crash_reset();
        for c in self.cells.iter() {
            c.crash_reset();
        }
        nbsp_telemetry::record(nbsp_telemetry::Event::CrashRecover);
        let x = self.x.peek_persisted();
        assert!(
            idx_of(x) < self.cells.len(),
            "recovered pointer names a cell outside the pool"
        );
        self.cells[idx_of(x)].peek_persisted()
    }
}

impl<W: MemWord> LlScVar for DynamicVar<W> {
    type Keep = Option<u64>;
    type Ctx<'a> = DynProc;

    fn ll(&self, _ctx: &mut DynProc, keep: &mut Option<u64>) -> u64 {
        let (x, v) = self.snapshot();
        *keep = Some(x);
        v
    }

    fn vl(&self, _ctx: &mut DynProc, keep: &Option<u64>) -> bool {
        keep.is_some_and(|k| self.x.load() == k)
    }

    fn sc(&self, ctx: &mut DynProc, keep: &mut Option<u64>, new: u64) -> bool {
        let Some(k) = keep.take() else {
            return false;
        };
        let (a, b) = Self::own_cells(ctx.p);
        // The two-cell rule: write the own cell the keep does not name.
        // X can only currently name an own cell if the keep names it too
        // (see the module docs), so the target is never the live cell —
        // for one sequence at a time. A process holding several keeps on
        // this variable may have installed the target through another
        // one since this keep's LL: then X != keep, the SC fails, and the
        // write must not land on the live cell. Only this process
        // installs its own cells, so the check cannot go stale. Either
        // outcome of the check fails this SC or writes a cell X does not
        // name, so the read is a peek, not a schedule point: one sequence
        // per process never takes the early exit, and model checking
        // explores exactly the schedules it did without the check.
        let target = if idx_of(k) == a { b } else { a };
        if idx_of(self.x.peek()) == target {
            nbsp_telemetry::record(nbsp_telemetry::Event::ScFail);
            return false;
        }
        self.cells[target].store(new);
        // The value must be durable before X can name it.
        self.cells[target].flush();
        let ok = self.x.cas(k, make_x(seq_of(k) + 1, target));
        if ok {
            // A reported success must survive a crash.
            self.x.flush_max();
            nbsp_telemetry::record(nbsp_telemetry::Event::ScSuccess);
        } else {
            nbsp_telemetry::record(nbsp_telemetry::Event::ScFail);
        }
        ok
    }

    fn cl(&self, _ctx: &mut DynProc, keep: &mut Option<u64>) {
        *keep = None;
    }

    fn read(&self, _ctx: &mut DynProc) -> u64 {
        self.snapshot().1
    }

    fn max_val(&self) -> u64 {
        // Values live in whole cells, not in the pointer word: no tag
        // bits are stolen from the value.
        u64::MAX
    }
}

impl<W: MemWord> fmt::Debug for DynamicVar<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let x = self.x.peek_persisted();
        write!(
            f,
            "DynamicVar(seq={}, cell={}, cells={})",
            seq_of(x),
            idx_of(x),
            self.cells.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn increments<W: MemWord>(var: &DynamicVar<W>, mut me: DynProc, times: u64) {
        for _ in 0..times {
            let mut keep = None;
            loop {
                let v = var.ll(&mut me, &mut keep);
                if var.sc(&mut me, &mut keep, v + 1) {
                    break;
                }
            }
        }
    }

    #[test]
    fn sequential_semantics_on_both_words() {
        fn run<W: MemWord>() {
            let d = DynamicDomain::with_preadmitted(1).unwrap();
            let var = DynamicVar::<W>::new(d.capacity(), 7).unwrap();
            let mut me = d.claim(0).unwrap();
            assert_eq!(var.read(&mut me), 7);
            increments(&var, me, 100);
            assert_eq!(var.read(&mut me), 107);
        }
        run::<VWord>();
        run::<PWord>();
    }

    #[test]
    fn vl_tracks_interference() {
        let d = DynamicDomain::with_preadmitted(2).unwrap();
        let var = DynamicVar::<VWord>::new(d.capacity(), 0).unwrap();
        let mut p0 = d.claim(0).unwrap();
        let mut p1 = d.claim(1).unwrap();
        let mut k0 = None;
        let _ = var.ll(&mut p0, &mut k0);
        assert!(var.vl(&mut p0, &k0));
        increments(&var, p1, 1);
        assert!(!var.vl(&mut p0, &k0), "p1's SC must invalidate p0's keep");
        assert!(!var.sc(&mut p0, &mut k0, 99));
        assert_eq!(var.read(&mut p1), 1);
    }

    #[test]
    fn sc_without_ll_fails() {
        let d = DynamicDomain::with_preadmitted(1).unwrap();
        let var = DynamicVar::<VWord>::new(d.capacity(), 3).unwrap();
        let mut me = d.claim(0).unwrap();
        let mut keep = None;
        assert!(!var.sc(&mut me, &mut keep, 4));
        assert!(!var.vl(&mut me, &keep));
        assert_eq!(var.read(&mut me), 3);
    }

    #[test]
    fn full_word_values_roundtrip() {
        let d = DynamicDomain::with_preadmitted(1).unwrap();
        let var = DynamicVar::<VWord>::new(d.capacity(), u64::MAX).unwrap();
        let mut me = d.claim(0).unwrap();
        assert_eq!(var.max_val(), u64::MAX);
        assert_eq!(var.read(&mut me), u64::MAX);
        let mut keep = None;
        let v = var.ll(&mut me, &mut keep);
        assert!(var.sc(&mut me, &mut keep, v - 1));
        assert_eq!(var.read(&mut me), u64::MAX - 1);
    }

    #[test]
    fn join_exhaustion_and_slot_reuse() {
        let d = DynamicDomain::new(2).unwrap();
        let a = d.join().unwrap();
        let b = d.join().unwrap();
        assert_ne!(a, b);
        assert_eq!(
            d.join(),
            Err(Error::PoolExhausted { capacity: 2 }),
            "pool of 2 must reject a third joiner"
        );
        d.retire(a);
        assert_eq!(d.join().unwrap(), a, "retired slot is reusable");
        assert_eq!(d.members(), 2);
    }

    #[test]
    fn claim_rejects_free_and_double_claims() {
        let d = DynamicDomain::new(2).unwrap();
        assert!(matches!(d.claim(0), Err(Error::PoolExhausted { .. })));
        assert!(matches!(d.claim(9), Err(Error::PoolExhausted { .. })));
        let p = d.join().unwrap();
        let _ctx = d.claim(p).unwrap();
        assert!(matches!(d.claim(p), Err(Error::InvalidDomain { .. })));
    }

    #[test]
    fn late_joiner_operates_on_a_live_variable() {
        let d = DynamicDomain::with_preadmitted(1).unwrap();
        let var = DynamicVar::<VWord>::new(d.capacity(), 0).unwrap();
        let p0 = d.claim(0).unwrap();
        increments(&var, p0, 5);
        let late = d.join().unwrap();
        let mut me = d.claim(late).unwrap();
        increments(&var, me, 5);
        assert_eq!(var.read(&mut me), 10);
    }

    #[test]
    fn retire_then_rejoin_reuses_cells_safely() {
        let d = DynamicDomain::with_preadmitted(1).unwrap();
        let var = DynamicVar::<VWord>::new(d.capacity(), 0).unwrap();
        let p0 = d.claim(0).unwrap();
        increments(&var, p0, 3);
        d.retire(0);
        let again = d.join().unwrap();
        assert_eq!(again, 0, "lowest free slot is reused");
        let mut me = d.claim(again).unwrap();
        increments(&var, me, 3);
        assert_eq!(var.read(&mut me), 6);
    }

    #[test]
    fn unflushed_sc_is_lost_but_recovery_is_consistent() {
        // Drive the durable variant by hand to a crash point: value
        // written, cell flushed, X installed but *not* flushed — the SC
        // never returned, so losing it is linearizable.
        let d = DynamicDomain::with_preadmitted(1).unwrap();
        let var = DynamicVar::<PWord>::new(d.capacity(), 5).unwrap();
        let me = d.claim(0).unwrap();
        let (a, _) = DynamicVar::<PWord>::own_cells(me.id());
        let k = var.x.load();
        var.cells[a].store(42);
        var.cells[a].flush();
        assert!(var.x.cas(k, make_x(seq_of(k) + 1, a)));
        // Crash before the X flush: recovery must roll back to 5.
        assert_eq!(var.recover(), 5);
        let mut me = me;
        assert_eq!(var.read(&mut me), 5);
    }

    #[test]
    fn completed_sc_survives_recovery() {
        let d = DynamicDomain::with_preadmitted(1).unwrap();
        let var = DynamicVar::<PWord>::new(d.capacity(), 0).unwrap();
        let mut me = d.claim(0).unwrap();
        increments(&var, me, 4);
        assert_eq!(var.recover(), 4, "returned SCs are durable");
        assert_eq!(var.read(&mut me), 4);
    }

    #[test]
    fn contended_increments_are_exact() {
        let d = DynamicDomain::with_preadmitted(4).unwrap();
        let var = DynamicVar::<VWord>::new(d.capacity(), 0).unwrap();
        std::thread::scope(|s| {
            for p in 0..4 {
                let d = &d;
                let var = &var;
                s.spawn(move || {
                    let me = d.claim(p).unwrap();
                    increments(var, me, 1000);
                });
            }
        });
        let mut me = d.claim(d.join().unwrap()).unwrap();
        assert_eq!(var.read(&mut me), 4000);
    }

    #[test]
    fn domain_capacity_bounds() {
        assert!(DynamicDomain::new(0).is_err());
        assert!(DynamicDomain::new(MAX_SLOTS + 1).is_err());
        assert!(DynamicDomain::new(MAX_SLOTS).is_ok());
        assert!(DynamicVar::<VWord>::new(0, 0).is_err());
    }
}
