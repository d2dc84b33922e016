//! A constant-time, bounded-space LL/VL/SC from CAS, after Blelloch & Wei.
//!
//! Figure 7 bounds space by recycling *tags* packed next to the value,
//! which costs value bits (the layout shrinks as `N` and `k` grow) and, as
//! written in the paper (line 10's plain-queue `delete(Q, t)`), an O(Nk)
//! scan per SC. Blelloch & Wei ("LL/SC and Atomic Copy: Constant Time,
//! Space Efficient Implementations using only pointer-width CAS",
//! arXiv:1911.09671) take the other branch of the design space: make the
//! shared word an *index into a pool of immutable version nodes*, announce
//! the index being read, and recycle nodes through a small per-process
//! pipeline whose reclamation work is spread one announce-cell scan step
//! per SC. Every operation is then **O(1) worst case** — no per-SC
//! revolution over the announce array, no tag field stealing value bits —
//! while space stays bounded at Θ(N²k) nodes total (Θ(Nk) per process).
//!
//! The shape implemented here (simplified to fixed `u64` values rather
//! than arbitrary-size buffers, matching the rest of this crate):
//!
//! * A [`ConstantDomain`] owns the node pool and the `N × k` announce
//!   array. A variable `X` is one CAS cell holding a node index.
//! * `LL`: read `X` → `idx`; announce `idx`; re-read `X` and fail the
//!   sequence if it moved (exactly Figure 7's lines 2–5, with a node
//!   index where Figure 7 has a tagged word). On success the announce
//!   *pins* the node: it cannot re-enter a free list while pinned.
//! * `SC`: take a fresh node from the private free list, write the new
//!   value into it, and `CAS(X, idx, fresh)`. The displaced node is
//!   *retired* into the process's reclamation pipeline. The announce cell
//!   is cleared only after the CAS, so the pin covers linearization.
//! * Reclamation: each SC also advances a private scan of the announce
//!   array by **one** cell and filters at most [`FILTER_PER_STEP`] retired
//!   nodes. A node retired during revolution `R` is checked only after the
//!   *complete* revolution `R + 1` has been scanned; any announcement that
//!   could still pin it is therefore observed and the node is recirculated
//!   instead of freed. This staggers Figure 7's per-SC O(Nk) feedback
//!   revolution across Nk SCs — the asymptotic gap E9 measures.
//!
//! Why no ABA: `CAS(X, idx, fresh)` can only succeed spuriously if `idx`
//! was displaced and later *reinstalled* between LL and SC. Reinstallation
//! requires `idx` to pass through a free list, which the pin (announce
//! placed before the LL's re-read, held until after the SC's CAS) forbids:
//! the full post-retirement revolution reads the announcing cell — all
//! announce/scan accesses are fully ordered, as in `bounded.rs` — and
//! recirculates the node. Hence SC succeeds iff `X` is untouched since LL.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use nbsp_memsim::{CachePadded, ProcId};

use crate::layout::low_mask;
use crate::{CasFamily, CasMemory, Error, Native, Result};

/// Retired nodes checked for liveness per SC. Any constant ≥ 2 keeps the
/// pipeline drained (at most `Nk + recirculations ≤ 3Nk` arrivals per
/// `Nk`-step revolution); 4 gives slack without a latency cliff.
const FILTER_PER_STEP: usize = 4;

/// Hashes a `u32` node index with one multiply (Fibonacci hashing), for
/// the private `stamps` map: every SC inserts into it and every filtered
/// node looks up and removes, and nothing iterates it, so the default
/// SipHash's flood resistance buys nothing there. The odd multiplier
/// spreads consecutive indices over both the low bits (bucket) and the
/// high bits (control byte) of the hash.
#[derive(Clone, Copy, Debug, Default)]
struct NodeHasher(u64);

impl NodeHasher {
    /// 2^64 / φ, rounded to odd.
    const FIB: u64 = 0x9E37_79B9_7F4A_7C15;
}

impl Hasher for NodeHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(Self::FIB);
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.0 = u64::from(i).wrapping_mul(Self::FIB);
    }
}

/// Private free-list nodes per process: covers the ≤ `9Nk` nodes that can
/// sit in the three pipeline stages plus recirculations (see the module
/// docs), the `k` in-flight SCs, and a constant floor for tiny domains.
fn pool_size(n: usize, k: usize) -> usize {
    12 * n * k + 16
}

/// Shared state for the constant-time construction: the version-node pool
/// and the `N × k` announce array. All variables of a domain share it.
#[derive(Debug)]
pub struct ConstantDomain<F: CasFamily = Native> {
    n: usize,
    k: usize,
    max_vars: usize,
    /// `A[p][s]` at `announce[p * k + s]`, holding `node + 1` (0 = empty).
    /// Padded for the same writer-vs-scanner reason as `bounded.rs`.
    announce: Vec<CachePadded<F::Cell>>,
    /// Version nodes. Indices `0..max_vars` seed new variables; index
    /// `max_vars + p * pool ..` is process `p`'s initial free list.
    /// Unpadded: a node has exactly one writer between free and retired.
    nodes: Vec<F::Cell>,
    /// Bump allocator over the variable-seed region.
    next_var_node: AtomicUsize,
    claimed: Vec<CachePadded<AtomicBool>>,
    _family: PhantomData<fn() -> F>,
}

impl<F: CasFamily> ConstantDomain<F> {
    /// Creates a domain for `n` processes, each running at most `k`
    /// concurrent LL–SC sequences, supporting up to `max_vars` variables.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDomain`] if `n`, `k` or `max_vars` is zero,
    /// or if the node count does not fit the family's value width (node
    /// indices travel through `X` and the announce array as values).
    pub fn new(n: usize, k: usize, max_vars: usize) -> Result<Arc<Self>> {
        if n == 0 {
            return Err(Error::InvalidDomain {
                what: "n (number of processes) must be positive",
            });
        }
        if k == 0 {
            return Err(Error::InvalidDomain {
                what: "k (concurrent sequences per process) must be positive",
            });
        }
        if max_vars == 0 {
            return Err(Error::InvalidDomain {
                what: "max_vars must be positive",
            });
        }
        let total_nodes = max_vars + n * pool_size(n, k);
        if total_nodes as u64 >= low_mask(F::VALUE_BITS) || total_nodes > u32::MAX as usize {
            return Err(Error::InvalidDomain {
                what: "node pool too large for the family's value width",
            });
        }
        Ok(Arc::new(ConstantDomain {
            n,
            k,
            max_vars,
            announce: (0..n * k)
                .map(|_| CachePadded::new(F::make_cell(0)))
                .collect(),
            nodes: (0..total_nodes).map(|_| F::make_cell(0)).collect(),
            next_var_node: AtomicUsize::new(0),
            claimed: (0..n)
                .map(|_| CachePadded::new(AtomicBool::new(false)))
                .collect(),
            _family: PhantomData,
        }))
    }

    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Concurrent LL–SC sequences allowed per process.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Largest storable value: the family's full value width — unlike
    /// Figure 7, no bits are sacrificed to tag/counter/pid fields.
    #[must_use]
    pub fn max_val(&self) -> u64 {
        low_mask(F::VALUE_BITS)
    }

    /// Words of shared overhead: `N·k` announce cells plus the node pool
    /// (Θ(N²k) nodes — the space/time trade against Figure 7's Θ(N(k+T))).
    #[must_use]
    pub fn space_overhead_words(&self) -> usize {
        self.announce.len() + self.nodes.len()
    }

    /// Claims the per-process private state (LL slots, free list and the
    /// reclamation pipeline) for process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or already claimed — the private
    /// state must be exclusive to one thread.
    #[must_use]
    pub fn proc(self: &Arc<Self>, p: usize) -> ConstantProc<F> {
        assert!(p < self.n, "process id {p} out of range (n = {})", self.n);
        let was = self.claimed[p].swap(true, Ordering::SeqCst);
        assert!(!was, "process {p} claimed twice");
        let pool = pool_size(self.n, self.k);
        let base = (self.max_vars + p * pool) as u32;
        let nk = self.n * self.k;
        ConstantProc {
            p: ProcId::new(p),
            domain: Arc::clone(self),
            slots: (0..self.k).rev().collect(), // pop() yields 0 first
            free: (base..base + pool as u32).collect(),
            retired_new: Vec::with_capacity(pool),
            retired_old: Vec::with_capacity(pool),
            filtering: Vec::with_capacity(pool),
            stamps: HashMap::with_capacity_and_hasher(pool, BuildHasherDefault::default()),
            rev: 1,
            filter_threshold: 0,
            scan: 0,
            scan_len: nk,
        }
    }

    /// Creates a variable holding `initial`, seeded from the domain's
    /// variable-node region.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ValueTooLarge`] if `initial` exceeds
    /// [`ConstantDomain::max_val`], or [`Error::InvalidDomain`] if the
    /// `max_vars` budget is exhausted.
    pub fn var<M: CasMemory<Family = F>>(
        self: &Arc<Self>,
        mem: &M,
        initial: u64,
    ) -> Result<ConstantVar<F>> {
        if initial > self.max_val() {
            return Err(Error::ValueTooLarge {
                value: initial,
                max: self.max_val(),
            });
        }
        let idx = self.next_var_node.fetch_add(1, Ordering::SeqCst);
        if idx >= self.max_vars {
            return Err(Error::InvalidDomain {
                what: "variable budget (max_vars) exhausted",
            });
        }
        mem.store(&self.nodes[idx], initial);
        Ok(ConstantVar {
            domain: Arc::clone(self),
            word: F::make_cell(idx as u64),
        })
    }

    fn announce_cell(&self, p: ProcId, slot: usize) -> &F::Cell {
        &self.announce[p.index() * self.k + slot]
    }
}

/// Private per-process state: LL slots, the node free list, and the
/// three-stage retired-node pipeline with its announce-scan cursor.
///
/// `Send` but not shareable: one per (process, domain), claimed via
/// [`ConstantDomain::proc`].
#[derive(Debug)]
pub struct ConstantProc<F: CasFamily = Native> {
    p: ProcId,
    domain: Arc<ConstantDomain<F>>,
    slots: Vec<usize>,
    free: Vec<u32>,
    /// Nodes retired during the current scan revolution.
    retired_new: Vec<u32>,
    /// Nodes retired during the previous revolution (aging).
    retired_old: Vec<u32>,
    /// Nodes whose post-retirement revolution is complete: checked against
    /// `stamps` at up to [`FILTER_PER_STEP`] per SC.
    filtering: Vec<u32>,
    /// `node → last revolution it was seen announced`, tracked **only**
    /// for nodes currently in this process's pipeline, so the map's size
    /// is bounded by the pipeline (≈ 9Nk), not by history.
    stamps: HashMap<u32, u64, BuildHasherDefault<NodeHasher>>,
    /// Current scan revolution (monotonic; u64 cannot wrap in practice).
    rev: u64,
    /// Stamps at or above this are "recently pinned": recirculate.
    filter_threshold: u64,
    /// Next announce cell the private scan will read.
    scan: usize,
    scan_len: usize,
}

impl<F: CasFamily> ConstantProc<F> {
    /// This process's identifier.
    #[must_use]
    pub fn id(&self) -> ProcId {
        self.p
    }

    /// Number of LL–SC sequences this process may still start.
    #[must_use]
    pub fn free_slots(&self) -> usize {
        self.slots.len()
    }

    /// Nodes currently available for this process's SCs (audits/E9).
    #[must_use]
    pub fn free_nodes(&self) -> usize {
        self.free.len()
    }

    /// Nodes currently aging through the reclamation pipeline (audits/E9).
    #[must_use]
    pub fn pipeline_nodes(&self) -> usize {
        self.retired_new.len() + self.retired_old.len() + self.filtering.len()
    }

    /// Aborts an LL–SC sequence without an SC: clears the announcement
    /// (releasing the pin) and returns the slot.
    pub fn cl<M: CasMemory<Family = F>>(&mut self, mem: &M, keep: ConstantKeep) {
        mem.store(self.domain.announce_cell(self.p, keep.slot), 0);
        self.slots.push(keep.slot);
    }

    /// One constant-time unit of reclamation work: read one announce cell,
    /// then liveness-check at most [`FILTER_PER_STEP`] filtered nodes.
    fn scan_step<M: CasMemory<Family = F>>(&mut self, mem: &M) {
        // Fully ordered read, mirroring bounded.rs's feedback path: the
        // pin-safety argument counts announce stores and scan reads in one
        // total order, which per-location acquire/release does not give.
        let a = mem.load(&self.domain.announce[self.scan]);
        if a != 0 {
            if let Some(s) = self.stamps.get_mut(&((a - 1) as u32)) {
                *s = self.rev;
            }
        }
        self.scan += 1;
        for _ in 0..FILTER_PER_STEP {
            let Some(x) = self.filtering.pop() else { break };
            self.filter_one(x);
        }
        if self.scan == self.scan_len {
            // Revolution boundary. The pipeline maths (module docs) keeps
            // `filtering` empty by now; drain defensively regardless so
            // the aging invariant ("one full revolution between retire and
            // check") survives any future re-tuning of FILTER_PER_STEP.
            debug_assert!(self.filtering.is_empty());
            while let Some(x) = self.filtering.pop() {
                self.filter_one(x);
            }
            self.filter_threshold = self.rev;
            self.rev += 1;
            std::mem::swap(&mut self.filtering, &mut self.retired_old);
            std::mem::swap(&mut self.retired_old, &mut self.retired_new);
            self.scan = 0;
        }
    }

    /// Frees `x` if no announcement could still pin it, else recirculates
    /// it for another revolution.
    fn filter_one(&mut self, x: u32) {
        let stamp = *self.stamps.get(&x).expect("pipeline node has a stamp");
        if stamp >= self.filter_threshold {
            self.retired_new.push(x); // pinned recently: try again later
        } else {
            self.stamps.remove(&x);
            self.free.push(x);
        }
    }
}

/// The per-sequence private state: the announce slot, the pinned node, and
/// the early-failure flag.
///
/// Deliberately **not** `Copy`/`Clone`: an SC or CL consumes it, so the
/// type system enforces that each slot (and its pin) is released once.
#[derive(Debug, PartialEq, Eq)]
#[must_use = "a ConstantKeep holds one of the process's k slots and pins a \
              node; finish the sequence with sc() or abort it with cl()"]
pub struct ConstantKeep {
    slot: usize,
    node: u64,
    fail: bool,
}

impl ConstantKeep {
    /// True iff the LL detected a race and condemned the sequence (any SC
    /// will fail). **The value the LL returned is untrustworthy when this
    /// is set** — the node may have been recycled mid-read; callers must
    /// retry, as [`ConstantVar::read`] does.
    #[must_use]
    pub fn failed(&self) -> bool {
        self.fail
    }
}

/// A shared variable of the constant-time construction: one CAS cell
/// holding the index of the node with the current value.
#[derive(Debug)]
pub struct ConstantVar<F: CasFamily = Native> {
    domain: Arc<ConstantDomain<F>>,
    word: F::Cell,
}

impl<F: CasFamily> ConstantVar<F> {
    /// The domain this variable belongs to.
    #[must_use]
    pub fn domain(&self) -> &Arc<ConstantDomain<F>> {
        &self.domain
    }

    fn check_domain(&self, me: &ConstantProc<F>) {
        assert!(
            Arc::ptr_eq(&self.domain, &me.domain),
            "process state belongs to a different domain"
        );
    }

    /// Starts an LL–SC sequence: reads the node index, announces it, and
    /// re-reads to detect a race. Like Figure 7, a detected race condemns
    /// the sequence (the SC will fail) instead of retrying internally, so
    /// LL stays wait-free. When `keep.failed()` the returned value must
    /// not be trusted (see [`ConstantKeep::failed`]).
    ///
    /// # Panics
    ///
    /// Panics if more than `k` sequences are in flight, or if `me` belongs
    /// to a different domain.
    pub fn ll<M: CasMemory<Family = F>>(
        &self,
        mem: &M,
        me: &mut ConstantProc<F>,
    ) -> (u64, ConstantKeep) {
        self.check_domain(me);
        let slot = me.slots.pop().unwrap_or_else(|| {
            panic!(
                "process {} exceeded k = {} concurrent LL-SC sequences \
                 (finish with sc() or abort with cl())",
                me.p, me.domain.k
            )
        });
        // All three accesses fully ordered — same feedback-path argument
        // as bounded.rs lines 2–4: the announce must be visible to every
        // reclamation scan that starts after the re-read below.
        let idx = mem.load(&self.word);
        mem.store(me.domain.announce_cell(me.p, slot), idx + 1);
        let fail = mem.load(&self.word) != idx;
        if fail {
            nbsp_telemetry::record(nbsp_telemetry::Event::LlRestart);
        }
        // With the pin established (announce placed before a successful
        // re-read), the node's content is immutable until release.
        let value = mem.load(&me.domain.nodes[idx as usize]);
        (value, ConstantKeep { slot, node: idx, fail })
    }

    /// Validates the sequence: true iff an SC at this point could succeed.
    #[must_use]
    pub fn vl<M: CasMemory<Family = F>>(
        &self,
        mem: &M,
        me: &ConstantProc<F>,
        keep: &ConstantKeep,
    ) -> bool {
        self.check_domain(me);
        !keep.fail && mem.load(&self.word) == keep.node
    }

    /// Finishes the sequence with a store-conditional of `new`: installs a
    /// fresh node via CAS, retiring the displaced one into the reclamation
    /// pipeline. O(1) worst case — including the amortized-by-construction
    /// single [`ConstantProc::scan_step`] of reclamation.
    ///
    /// # Panics
    ///
    /// Panics if `new` exceeds [`ConstantDomain::max_val`] or `me` belongs
    /// to a different domain.
    pub fn sc<M: CasMemory<Family = F>>(
        &self,
        mem: &M,
        me: &mut ConstantProc<F>,
        keep: ConstantKeep,
        new: u64,
    ) -> bool {
        self.check_domain(me);
        let ok = if keep.fail {
            nbsp_telemetry::record(nbsp_telemetry::Event::ScFail);
            false
        } else {
            let fresh = me.free.pop().expect("free-pool invariant violated");
            mem.store(&me.domain.nodes[fresh as usize], new);
            let ok = mem.cas(&self.word, keep.node, u64::from(fresh));
            if ok {
                let retired = keep.node as u32;
                me.retired_new.push(retired);
                me.stamps.insert(retired, me.rev);
                nbsp_telemetry::record(nbsp_telemetry::Event::TagAlloc);
                nbsp_telemetry::record(nbsp_telemetry::Event::ScSuccess);
            } else {
                me.free.push(fresh);
                nbsp_telemetry::record(nbsp_telemetry::Event::ScFail);
            }
            ok
        };
        // Clear the announcement only now: the pin must cover the CAS
        // (the linearization point), or the no-ABA argument collapses.
        mem.store(me.domain.announce_cell(me.p, keep.slot), 0);
        me.slots.push(keep.slot);
        me.scan_step(mem);
        ok
    }

    /// Reads the current value: retries LL until it observes a race-free
    /// pin (a failed LL's value is untrustworthy here, unlike Figure 7
    /// where the value travels inside the word itself).
    pub fn read<M: CasMemory<Family = F>>(&self, mem: &M, me: &mut ConstantProc<F>) -> u64 {
        loop {
            let (v, keep) = self.ll(mem, me);
            let ok = !keep.fail;
            me.cl(mem, keep);
            if ok {
                return v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain(n: usize, k: usize) -> Arc<ConstantDomain<Native>> {
        ConstantDomain::new(n, k, 8).unwrap()
    }

    #[test]
    fn ll_sc_roundtrip_and_persistence() {
        let d = domain(2, 2);
        let var = d.var(&Native, 7).unwrap();
        let mut p0 = d.proc(0);
        let (v, keep) = var.ll(&Native, &mut p0);
        assert_eq!(v, 7);
        assert!(!keep.failed());
        assert!(var.vl(&Native, &p0, &keep));
        assert!(var.sc(&Native, &mut p0, keep, 8));
        assert_eq!(var.read(&Native, &mut p0), 8);
        // The new value survives another full sequence.
        let (v, keep) = var.ll(&Native, &mut p0);
        assert_eq!(v, 8);
        assert!(var.sc(&Native, &mut p0, keep, 9));
        assert_eq!(var.read(&Native, &mut p0), 9);
    }

    #[test]
    fn stale_keep_fails_sc_and_vl() {
        let d = domain(2, 2);
        let var = d.var(&Native, 0).unwrap();
        let mut p0 = d.proc(0);
        let mut p1 = d.proc(1);
        let (_, keep0) = var.ll(&Native, &mut p0);
        // p1 completes a sequence in between: p0's keep is stale.
        let (_, keep1) = var.ll(&Native, &mut p1);
        assert!(var.sc(&Native, &mut p1, keep1, 1));
        assert!(!var.vl(&Native, &p0, &keep0));
        assert!(!var.sc(&Native, &mut p0, keep0, 2));
        assert_eq!(var.read(&Native, &mut p1), 1);
    }

    #[test]
    fn value_restoration_is_still_detected() {
        // The ABA case: the value returns to its LL-time state via fresh
        // nodes, so the node index differs and the CAS must fail.
        let d = domain(2, 2);
        let var = d.var(&Native, 5).unwrap();
        let mut p0 = d.proc(0);
        let mut p1 = d.proc(1);
        let (v, keep0) = var.ll(&Native, &mut p0);
        assert_eq!(v, 5);
        for target in [6, 5] {
            let (_, k1) = var.ll(&Native, &mut p1);
            assert!(var.sc(&Native, &mut p1, k1, target));
        }
        assert_eq!(var.read(&Native, &mut p1), 5); // value restored…
        assert!(!var.vl(&Native, &p0, &keep0)); // …but the sequence knows
        assert!(!var.sc(&Native, &mut p0, keep0, 7));
    }

    #[test]
    fn cl_releases_slot_and_pin() {
        let d = domain(1, 1);
        let var = d.var(&Native, 0).unwrap();
        let mut p0 = d.proc(0);
        assert_eq!(p0.free_slots(), 1);
        let (_, keep) = var.ll(&Native, &mut p0);
        assert_eq!(p0.free_slots(), 0);
        p0.cl(&Native, keep);
        assert_eq!(p0.free_slots(), 1);
        // The announce cell is cleared, so the next sequence starts clean.
        let (_, keep) = var.ll(&Native, &mut p0);
        assert!(var.sc(&Native, &mut p0, keep, 1));
    }

    #[test]
    fn k_concurrent_sequences_per_process() {
        let d = domain(1, 2);
        let a = d.var(&Native, 10).unwrap();
        let b = d.var(&Native, 20).unwrap();
        let mut p0 = d.proc(0);
        let (va, ka) = a.ll(&Native, &mut p0);
        let (vb, kb) = b.ll(&Native, &mut p0);
        assert_eq!((va, vb), (10, 20));
        assert!(a.sc(&Native, &mut p0, ka, 11));
        assert!(b.sc(&Native, &mut p0, kb, 21));
        assert_eq!(a.read(&Native, &mut p0), 11);
        assert_eq!(b.read(&Native, &mut p0), 21);
    }

    #[test]
    #[should_panic(expected = "exceeded k = 1")]
    fn exceeding_k_panics() {
        let d = domain(1, 1);
        let var = d.var(&Native, 0).unwrap();
        let mut p0 = d.proc(0);
        let (_, _keep) = var.ll(&Native, &mut p0);
        let _ = var.ll(&Native, &mut p0);
    }

    #[test]
    #[should_panic(expected = "claimed twice")]
    fn double_claim_panics() {
        let d = domain(2, 1);
        let _a = d.proc(0);
        let _b = d.proc(0);
    }

    #[test]
    fn var_budget_is_enforced() {
        let d = ConstantDomain::<Native>::new(1, 1, 2).unwrap();
        let _a = d.var(&Native, 0).unwrap();
        let _b = d.var(&Native, 0).unwrap();
        assert!(matches!(
            d.var(&Native, 0),
            Err(Error::InvalidDomain { .. })
        ));
    }

    #[test]
    fn full_width_values_are_supported() {
        // The headline advantage over Figure 7: no tag bits stolen.
        let d = domain(2, 1);
        assert_eq!(d.max_val(), u64::MAX);
        let var = d.var(&Native, u64::MAX).unwrap();
        let mut p0 = d.proc(0);
        assert_eq!(var.read(&Native, &mut p0), u64::MAX);
        let (_, keep) = var.ll(&Native, &mut p0);
        assert!(var.sc(&Native, &mut p0, keep, u64::MAX - 1));
        assert_eq!(var.read(&Native, &mut p0), u64::MAX - 1);
    }

    #[test]
    fn zero_params_rejected() {
        assert!(ConstantDomain::<Native>::new(0, 1, 1).is_err());
        assert!(ConstantDomain::<Native>::new(1, 0, 1).is_err());
        assert!(ConstantDomain::<Native>::new(1, 1, 0).is_err());
    }

    #[test]
    fn long_run_reclamation_keeps_the_pool_bounded() {
        // 50k sequential SCs cycle nodes through retire → age → filter →
        // free many times over; the free list must never approach empty
        // and the pipeline must stay within its designed bound.
        let d = domain(2, 2);
        let var = d.var(&Native, 0).unwrap();
        let mut p0 = d.proc(0);
        let pool = pool_size(2, 2);
        for i in 0..50_000u64 {
            let (v, keep) = var.ll(&Native, &mut p0);
            assert_eq!(v, i);
            assert!(var.sc(&Native, &mut p0, keep, i + 1));
            assert!(p0.free_nodes() > 0, "free pool exhausted at op {i}");
            assert!(
                p0.pipeline_nodes() <= pool,
                "pipeline overflowed at op {i}"
            );
        }
        assert_eq!(var.read(&Native, &mut p0), 50_000);
        // Conservation: the seed node captured at the first SC pays for
        // the node currently installed in the variable, so the process
        // still owns exactly its initial pool.
        assert_eq!(p0.free_nodes() + p0.pipeline_nodes(), pool);
    }

    #[test]
    fn contended_counter_is_exact() {
        let d = Arc::new(ConstantDomain::<Native>::new(3, 2, 4).unwrap());
        let var = Arc::new(d.var(&Native, 0).unwrap());
        const PER_THREAD: u64 = 20_000;
        std::thread::scope(|s| {
            for t in 0..2 {
                let d = Arc::clone(&d);
                let var = Arc::clone(&var);
                s.spawn(move || {
                    let mut me = d.proc(t);
                    for _ in 0..PER_THREAD {
                        loop {
                            let (v, keep) = var.ll(&Native, &mut me);
                            if keep.failed() {
                                me.cl(&Native, keep);
                                continue;
                            }
                            if var.sc(&Native, &mut me, keep, v + 1) {
                                break;
                            }
                        }
                    }
                });
            }
        });
        let mut reader = d.proc(2);
        assert_eq!(var.read(&Native, &mut reader), 2 * PER_THREAD);
    }

    #[test]
    fn pinned_node_survives_aggressive_recycling() {
        // p0 pins a node via LL, then p1 churns tens of revolutions of
        // SCs. p0's node must not be recycled out from under it: vl stays
        // coherent (false — the var moved) and, crucially, the pinned
        // node's content still reads back as the LL-time value.
        let d = domain(2, 1);
        let var = d.var(&Native, 42).unwrap();
        let mut p0 = d.proc(0);
        let mut p1 = d.proc(1);
        let (v, keep) = var.ll(&Native, &mut p0);
        assert_eq!(v, 42);
        for i in 0..10_000u64 {
            let (_, k1) = var.ll(&Native, &mut p1);
            assert!(var.sc(&Native, &mut p1, k1, 100 + i));
        }
        // The pinned node was recirculated, never freed, so its content
        // is untouched by p1's 10k fresh-node installs.
        assert_eq!(Native.load(&d.nodes[keep.node as usize]), 42);
        assert!(!var.vl(&Native, &p0, &keep));
        assert!(!var.sc(&Native, &mut p0, keep, 0));
    }
}
