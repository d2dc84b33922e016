//! **Figure 7 / Theorem 5** — LL/VL/SC with *bounded* tags from CAS.
//!
//! > *"CAS can be used to implement constant-time LL, VL, and SC operations
//! > that allow k concurrent LL-SC sequences on T small variables with
//! > Θ(N(k+T)) space overhead."*
//!
//! The unbounded-tag constructions are safe only because wraparound takes
//! "about nine years"; this one removes even that caveat. Each word carries
//! a small tag (range `0..=2Nk`), a counter (range `0..=Nk`), the writer's
//! process id and the value. A *feedback mechanism* prevents premature tag
//! reuse:
//!
//! * every LL **announces** the word it read in a shared `N × k` array `A`
//!   (k slots per process — one per concurrent LL–SC sequence, managed by a
//!   private slot stack `S`);
//! * every SC reads one entry of `A` (round-robin via the private index `j`)
//!   and moves the tag it sees to the back of its private tag queue `Q`;
//! * the next tag is taken from the front of `Q`. With `2Nk + 1` tags per
//!   process, at most two tags leaving the front per SC, and a full scan of
//!   `A` every `Nk` SCs, a tag observed by any in-flight sequence cannot
//!   reach the front again until that sequence has finished — so the final
//!   CAS can never succeed when the normal LL/SC semantics say it must fail.
//!
//! The per-process counter (`cnt`, `last`) spaces out reuses of each
//! tag-counter pair so that the full scan is guaranteed to happen in
//! between. A `CL` operation lets the program *abort* a sequence, returning
//! its slot — necessary because each process may hold at most `k` at once.
//!
//! Space: `Nk` announce words shared by **all** variables, plus `N` `last`
//! counters per variable — Θ(N(k+T)) for T variables, versus Θ(N²T) for the
//! best prior bounded construction (experiment E3).

use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use nbsp_memsim::{CachePadded, ProcId};

use crate::layout::{bits_for_count, low_mask};
use crate::tag_queue::ScanQueue;
use crate::{CasFamily, CasMemory, Error, Native, Result, TagQueue};

/// Which tag-queue implementation a [`BoundedDomain`]'s processes use for
/// Figure 7's `Q`.
///
/// Behaviourally identical (differentially tested in `tag_queue`); only the
/// per-SC cost differs. E9 runs the `fig7-bounded` provider under each
/// policy (`Fig7Bounded<ScanQueue>` for the scan) so the gap is measured
/// rather than asserted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TagPolicy {
    /// The paper's constant-time remark: circular doubly-linked list with a
    /// static index table ([`TagQueue`]). O(1) per SC. The default.
    Indexed,
    /// Figure 7 line 10 as literally written: a plain queue whose
    /// `delete(Q, t)` linearly searches all `2Nk + 1` tags
    /// ([`ScanQueue`]). O(Nk) per SC — the E9 ablation baseline.
    Scan,
}

/// A tag-queue type that names its [`TagPolicy`], so a provider can take
/// Figure 7's `Q` as a type parameter (`Fig7Bounded<ScanQueue>`).
pub trait QueuePolicy: 'static {
    /// The policy a domain runs for this queue type.
    const POLICY: TagPolicy;
}

impl QueuePolicy for TagQueue {
    const POLICY: TagPolicy = TagPolicy::Indexed;
}

impl QueuePolicy for ScanQueue {
    const POLICY: TagPolicy = TagPolicy::Scan;
}

/// Private dispatch between the two [`TagPolicy`] implementations. An enum
/// (not a trait object) so the hot calls stay branch-predictable and
/// allocation-free.
#[derive(Debug)]
enum TagStore {
    Indexed(TagQueue),
    Scan(ScanQueue),
}

impl TagStore {
    fn new(policy: TagPolicy, universe: usize) -> Self {
        match policy {
            TagPolicy::Indexed => TagStore::Indexed(TagQueue::new(universe)),
            TagPolicy::Scan => TagStore::Scan(ScanQueue::new(universe)),
        }
    }

    fn rotate(&mut self) -> u64 {
        match self {
            TagStore::Indexed(q) => q.rotate(),
            TagStore::Scan(q) => q.rotate(),
        }
    }

    fn move_to_back(&mut self, tag: u64) {
        match self {
            TagStore::Indexed(q) => q.move_to_back(tag),
            TagStore::Scan(q) => q.move_to_back(tag),
        }
    }

    fn to_vec(&self) -> Vec<u64> {
        match self {
            TagStore::Indexed(q) => q.to_vec(),
            TagStore::Scan(q) => q.to_vec(),
        }
    }
}

/// Field layout of a bounded-tag word: `tag | cnt | pid | val`
/// (Figure 7's `wordtype`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoundedLayout {
    t_bits: u32,
    c_bits: u32,
    p_bits: u32,
    v_bits: u32,
}

impl BoundedLayout {
    fn new(n: usize, k: usize, value_bits: u32) -> Result<Self> {
        let nk = (n as u64) * (k as u64);
        let t_bits = bits_for_count(2 * nk + 1);
        let c_bits = bits_for_count(nk + 1);
        let p_bits = bits_for_count(n as u64);
        let used = t_bits + c_bits + p_bits;
        if used >= value_bits {
            return Err(Error::InvalidLayout {
                tag_bits: t_bits,
                val_bits: c_bits + p_bits,
                available: value_bits,
            });
        }
        Ok(BoundedLayout {
            t_bits,
            c_bits,
            p_bits,
            v_bits: value_bits - used,
        })
    }

    /// Bits available for user values.
    #[must_use]
    pub fn val_bits(self) -> u32 {
        self.v_bits
    }

    /// Bits spent on the bounded tag.
    #[must_use]
    pub fn tag_bits(self) -> u32 {
        self.t_bits
    }

    /// Largest storable value.
    #[must_use]
    pub fn max_val(self) -> u64 {
        low_mask(self.v_bits)
    }

    fn pack(self, tag: u64, cnt: u64, pid: usize, val: u64) -> u64 {
        debug_assert!(val <= self.max_val());
        (((tag << self.c_bits | cnt) << self.p_bits | pid as u64) << self.v_bits) | val
    }

    fn tag(self, word: u64) -> u64 {
        (word >> (self.c_bits + self.p_bits + self.v_bits)) & low_mask(self.t_bits)
    }

    fn cnt(self, word: u64) -> u64 {
        (word >> (self.p_bits + self.v_bits)) & low_mask(self.c_bits)
    }

    fn pid(self, word: u64) -> usize {
        ((word >> self.v_bits) & low_mask(self.p_bits)) as usize
    }

    fn val(self, word: u64) -> u64 {
        word & low_mask(self.v_bits)
    }
}

/// Shared per-(N, k) state: the announce array `A[0..N-1][0..k-1]` and the
/// word layout. All variables of a domain share it, which is what brings
/// the space overhead down to Θ(N(k+T)).
#[derive(Debug)]
pub struct BoundedDomain<F: CasFamily = Native> {
    n: usize,
    k: usize,
    layout: BoundedLayout,
    /// `A[p][s]` lives at `announce[p * k + s]`; padded because process `p`
    /// stores its slot on every LL while every *other* process's SC scans
    /// the array round-robin — the classic writer-vs-scanner false-sharing
    /// pattern.
    announce: Vec<CachePadded<F::Cell>>,
    claimed: Vec<CachePadded<AtomicBool>>,
    policy: TagPolicy,
    _family: PhantomData<fn() -> F>,
}

impl<F: CasFamily> BoundedDomain<F> {
    /// Creates a domain for `n` processes, each running at most `k`
    /// concurrent LL–SC sequences.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDomain`] if `n` or `k` is zero, or
    /// [`Error::InvalidLayout`] if the tag, counter and pid fields leave no
    /// room for values (the paper's caveat that this construction trades
    /// word space for boundedness).
    pub fn new(n: usize, k: usize) -> Result<Arc<Self>> {
        Self::new_with_policy(n, k, TagPolicy::Indexed)
    }

    /// Like [`BoundedDomain::new`], but selecting the tag-queue
    /// implementation (the E9 indexed-vs-scan ablation knob).
    ///
    /// # Errors
    ///
    /// Same as [`BoundedDomain::new`].
    pub fn new_with_policy(n: usize, k: usize, policy: TagPolicy) -> Result<Arc<Self>> {
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
        let layout = BoundedLayout::new(n, k, F::VALUE_BITS)?;
        Ok(Arc::new(BoundedDomain {
            n,
            k,
            layout,
            announce: (0..n * k)
                .map(|_| CachePadded::new(F::make_cell(0)))
                .collect(),
            claimed: (0..n)
                .map(|_| CachePadded::new(AtomicBool::new(false)))
                .collect(),
            policy,
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

    /// The word layout in force for this domain.
    #[must_use]
    pub fn layout(&self) -> BoundedLayout {
        self.layout
    }

    /// Largest storable value given the domain's field widths.
    #[must_use]
    pub fn max_val(&self) -> u64 {
        self.layout.max_val()
    }

    /// Words of shared overhead owned by the domain itself: `N · k`
    /// announce words, independent of the number of variables.
    #[must_use]
    pub fn space_overhead_words(&self) -> usize {
        self.n * self.k
    }

    /// Claims the per-process private state (slot stack `S`, tag queue `Q`,
    /// scan index `j`) for process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or already claimed — the private state
    /// must be exclusive to one thread, like the paper's private variables.
    #[must_use]
    pub fn proc(self: &Arc<Self>, p: usize) -> BoundedProc<F> {
        assert!(p < self.n, "process id {p} out of range (n = {})", self.n);
        let was = self.claimed[p].swap(true, Ordering::SeqCst);
        assert!(!was, "process {p} claimed twice");
        let nk = self.n * self.k;
        BoundedProc {
            p: ProcId::new(p),
            domain: Arc::clone(self),
            slots: (0..self.k).rev().collect(), // pop() yields 0 first
            q: TagStore::new(self.policy, 2 * nk + 1),
            j: 0,
        }
    }

    /// Creates a variable holding `initial` (word `(0, 0, 0, initial)` and
    /// `last[i] = 0`, the paper's initial conditions).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ValueTooLarge`] if `initial` exceeds
    /// [`BoundedDomain::max_val`].
    pub fn var(self: &Arc<Self>, initial: u64) -> Result<BoundedVar<F>> {
        if initial > self.layout.max_val() {
            return Err(Error::ValueTooLarge {
                value: initial,
                max: self.layout.max_val(),
            });
        }
        Ok(BoundedVar {
            domain: Arc::clone(self),
            word: F::make_cell(self.layout.pack(0, 0, 0, initial)),
            last: (0..self.n)
                .map(|_| CachePadded::new(F::make_cell(0)))
                .collect(),
        })
    }

    fn announce_cell(&self, p: ProcId, slot: usize) -> &F::Cell {
        &self.announce[p.index() * self.k + slot]
    }
}

/// Private per-process state for the bounded-tag construction: the slot
/// stack `S`, the tag queue `Q` and the announce-scan index `j`.
///
/// `Send` but not shareable: one per (process, domain), claimed via
/// [`BoundedDomain::proc`].
#[derive(Debug)]
pub struct BoundedProc<F: CasFamily = Native> {
    p: ProcId,
    domain: Arc<BoundedDomain<F>>,
    slots: Vec<usize>,
    q: TagStore,
    j: usize,
}

impl<F: CasFamily> BoundedProc<F> {
    /// This process's identifier.
    #[must_use]
    pub fn id(&self) -> ProcId {
        self.p
    }

    /// Number of LL–SC sequences this process may still start
    /// (`k` minus the sequences currently in flight).
    #[must_use]
    pub fn free_slots(&self) -> usize {
        self.slots.len()
    }

    /// Figure 7's `CL(keep)`: aborts an LL–SC sequence without an SC,
    /// returning its slot to the pool (line 7).
    pub fn cl(&mut self, keep: BoundedKeep) {
        self.slots.push(keep.slot);
    }

    /// The tag queue front-to-back (for audits and experiment E9).
    #[must_use]
    pub fn tag_queue_snapshot(&self) -> Vec<u64> {
        self.q.to_vec()
    }
}

/// The per-sequence private state (Figure 7's `keeptype`: a slot index and
/// the early-failure flag).
///
/// Deliberately **not** `Copy`/`Clone`: an SC or CL consumes it, so the
/// type system enforces that each sequence's slot is returned exactly once.
#[derive(Debug, PartialEq, Eq)]
#[must_use = "a BoundedKeep holds one of the process's k slots; finish the \
              sequence with sc() or abort it with cl()"]
pub struct BoundedKeep {
    slot: usize,
    fail: bool,
}

/// A small variable with bounded tags (Figure 7's `llsctype`: a packed word
/// plus the `last[0..N-1]` counter array).
///
/// ```
/// use nbsp_core::bounded::BoundedDomain;
/// use nbsp_core::Native;
///
/// let domain = BoundedDomain::<Native>::new(4, 2)?; // N = 4, k = 2
/// let var = domain.var(10)?;
/// let mut me = domain.proc(0);
/// let mem = Native;
///
/// let (value, keep) = var.ll(&mem, &mut me);
/// assert_eq!(value, 10);
/// assert!(var.vl(&mem, &me, &keep));
/// assert!(var.sc(&mem, &mut me, keep, 11));
/// assert_eq!(var.read(&mem, &mut me), 11);
/// # Ok::<(), nbsp_core::Error>(())
/// ```
#[derive(Debug)]
pub struct BoundedVar<F: CasFamily = Native> {
    domain: Arc<BoundedDomain<F>>,
    word: F::Cell,
    /// `last[p]` is read and written only by process `p` (lines 13–14), so
    /// no ordering matters — but un-padded, neighbouring processes'
    /// counters would share lines and their SC hot paths would false-share.
    last: Vec<CachePadded<F::Cell>>,
}

impl<F: CasFamily> BoundedVar<F> {
    /// The domain this variable belongs to.
    #[must_use]
    pub fn domain(&self) -> &Arc<BoundedDomain<F>> {
        &self.domain
    }

    /// Words of overhead attributable to this variable: its `last` array
    /// (`N` words). The packed word itself is the variable, not overhead.
    #[must_use]
    pub fn space_overhead_words(&self) -> usize {
        self.last.len()
    }

    fn check_domain(&self, me: &BoundedProc<F>) {
        assert!(
            Arc::ptr_eq(&self.domain, &me.domain),
            "process state belongs to a different BoundedDomain"
        );
    }

    /// Figure 7's `LL` (lines 1–5): starts an LL–SC sequence. Reads the
    /// word, announces it in `A[p][slot]`, re-reads to detect a race (the
    /// `fail` flag), and returns the value together with the sequence's
    /// [`BoundedKeep`].
    ///
    /// # Panics
    ///
    /// Panics if all `k` slots are in use (more concurrent sequences than
    /// the domain was configured for — the paper's explicit precondition),
    /// or if `me` belongs to a different domain.
    pub fn ll<M: CasMemory<Family = F>>(
        &self,
        mem: &M,
        me: &mut BoundedProc<F>,
    ) -> (u64, BoundedKeep) {
        self.check_domain(me);
        let slot = me.slots.pop().unwrap_or_else(|| {
            panic!(
                "process {} exceeded k = {} concurrent LL-SC sequences \
                 (finish with sc() or abort with cl())",
                me.p, me.domain.k
            )
        }); // line 1
        // Line 2: fully ordered, like every load/store in the LL/scan
        // feedback path — see the line-3 comment below.
        let old = mem.load(&self.word); // line 2
        // Line 3: the announce store stays **fully ordered** (`store`, not
        // `store_release`). Figure 7's feedback argument is a *timing*
        // argument across processes: an announced word must become visible
        // to every other process's round-robin scan of `A` within one scan
        // revolution, so announce stores and scan reads must embed in one
        // total order — which per-location release/acquire does not give.
        mem.store(me.domain.announce_cell(me.p, slot), old); // line 3
        // Line 4: full-ordered re-read of the word, for the same reason —
        // it must be ordered after this process's own announce store in
        // the global order the feedback argument counts in.
        let fail = mem.load(&self.word) != old; // line 4
        if fail {
            nbsp_telemetry::record(nbsp_telemetry::Event::LlRestart);
        }
        (me.domain.layout.val(old), BoundedKeep { slot, fail }) // line 5
    }

    /// Figure 7's `VL` (line 6): true iff the word is unchanged since the
    /// LL — i.e. it still equals the announced word and no race was
    /// detected during the LL itself.
    #[must_use]
    pub fn vl<M: CasMemory<Family = F>>(
        &self,
        mem: &M,
        me: &BoundedProc<F>,
        keep: &BoundedKeep,
    ) -> bool {
        self.check_domain(me);
        // Word read: acquire suffices (single-cell coherence decides the
        // comparison). Announce read: this process's own slot — only `p`
        // ever writes `A[p][slot]`, so program order alone makes the read
        // exact, and the weakest ordering is already correct.
        !keep.fail
            && mem.load_acquire(&self.word)
                == mem.load_acquire(me.domain.announce_cell(me.p, keep.slot))
    }

    /// Figure 7's `SC` (lines 8–15): finishes the sequence, attempting to
    /// install `newval` with a tag chosen by the feedback mechanism.
    ///
    /// # Panics
    ///
    /// Panics if `newval` exceeds [`BoundedDomain::max_val`] or if `me`
    /// belongs to a different domain.
    #[must_use]
    pub fn sc<M: CasMemory<Family = F>>(
        &self,
        mem: &M,
        me: &mut BoundedProc<F>,
        keep: BoundedKeep,
        newval: u64,
    ) -> bool {
        self.check_domain(me);
        let layout = me.domain.layout;
        assert!(
            newval <= layout.max_val(),
            "value {newval} exceeds layout maximum {}",
            layout.max_val()
        );
        me.slots.push(keep.slot); // line 8
        if keep.fail {
            nbsp_telemetry::record(nbsp_telemetry::Event::ScFail);
            return false; // line 9
        }
        let nk = me.domain.n * me.domain.k;
        // Line 10: read one announce entry and retire its tag to the back
        // of the queue, so an in-flight sequence's tag is never re-issued.
        // Fully ordered (`load`, not `load_acquire`): this is the scan side
        // of the feedback mechanism — see the LL line-3 comment. Relaxing
        // the scan would let it return values stale enough to break the
        // tag-reuse bound.
        let observed = layout.tag(mem.load(&me.domain.announce[me.j]));
        debug_assert!((observed as usize) < 2 * nk + 1);
        me.q.move_to_back(observed);
        // Line 11: advance the round-robin scan of A.
        me.j = (me.j + 1) % nk;
        // Line 12: choose the least-recently-seen tag.
        let t = me.q.rotate();
        nbsp_telemetry::record(nbsp_telemetry::Event::TagAlloc);
        // Lines 13–14: next per-(process, variable) counter. `last[p]` is
        // touched only by process `p`, so any ordering is exact; the
        // acquire/release pair is just the weakest interface available.
        let cnt = (mem.load_acquire(&self.last[me.p.index()]) + 1) % (nk as u64 + 1);
        mem.store_release(&self.last[me.p.index()], cnt);
        // Line 15: install (t, cnt, p, newval) iff the word still equals
        // what this sequence's LL announced. The `old` fetch reads this
        // process's own announce slot (exact by program order). The CAS is
        // acquire-release: success is the linearization point and the
        // release publication of `newval`; whether it succeeds is decided
        // by the word's coherence order alone.
        let old = mem.load_acquire(me.domain.announce_cell(me.p, keep.slot));
        let ok = mem.cas_acqrel(
            &self.word,
            old,
            layout.pack(t, cnt, me.p.index(), newval),
        );
        nbsp_telemetry::record(if ok {
            nbsp_telemetry::Event::ScSuccess
        } else {
            nbsp_telemetry::Event::ScFail
        });
        ok
    }

    /// Reads the current value via a full LL (consuming and releasing a
    /// slot). Linearizes at the LL's first read.
    #[must_use]
    pub fn read<M: CasMemory<Family = F>>(&self, mem: &M, me: &mut BoundedProc<F>) -> u64 {
        let (v, keep) = self.ll(mem, me);
        me.cl(keep);
        v
    }

    /// Reads the current value with a single plain load, without consuming
    /// a slot. Linearizes at the load. (Not part of the paper's interface;
    /// a read-only operation needs no announce entry.)
    #[must_use]
    pub fn peek<M: CasMemory<Family = F>>(&self, mem: &M) -> u64 {
        self.domain.layout.val(mem.load_acquire(&self.word))
    }

    /// The word's current (tag, cnt, pid) triple, for audits and
    /// experiment E9.
    #[must_use]
    pub fn current_stamp<M: CasMemory<Family = F>>(&self, mem: &M) -> (u64, u64, usize) {
        let w = mem.load_acquire(&self.word);
        let l = self.domain.layout;
        (l.tag(w), l.cnt(w), l.pid(w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EmuCas, EmuFamily};
    use nbsp_memsim::{InstructionSet, Machine};

    fn setup(n: usize, k: usize) -> Arc<BoundedDomain<Native>> {
        BoundedDomain::<Native>::new(n, k).unwrap()
    }

    #[test]
    fn ll_vl_sc_cycle() {
        let d = setup(2, 1);
        let v = d.var(5).unwrap();
        let mut me = d.proc(0);
        let mem = Native;
        let (x, keep) = v.ll(&mem, &mut me);
        assert_eq!(x, 5);
        assert!(v.vl(&mem, &me, &keep));
        assert!(v.sc(&mem, &mut me, keep, 6));
        assert_eq!(v.read(&mem, &mut me), 6);
    }

    #[test]
    fn stale_keep_fails() {
        let d = setup(2, 2);
        let v = d.var(0).unwrap();
        let mut me = d.proc(0);
        let mem = Native;
        let (_, k1) = v.ll(&mem, &mut me);
        let (_, k2) = v.ll(&mem, &mut me);
        assert!(v.sc(&mem, &mut me, k1, 1));
        assert!(!v.vl(&mem, &me, &k2));
        assert!(!v.sc(&mem, &mut me, k2, 2));
        assert_eq!(v.read(&mem, &mut me), 1);
    }

    #[test]
    fn value_aba_is_detected() {
        // 0 -> 7 -> 0 by process 1 must still fail process 0's sequence.
        let d = setup(2, 1);
        let v = d.var(0).unwrap();
        let mut p0 = d.proc(0);
        let mut p1 = d.proc(1);
        let mem = Native;
        let (_, keep0) = v.ll(&mem, &mut p0);
        for target in [7, 0] {
            let (_, keep) = v.ll(&mem, &mut p1);
            assert!(v.sc(&mem, &mut p1, keep, target));
        }
        assert_eq!(v.read(&mem, &mut p1), 0); // restored…
        assert!(!v.vl(&mem, &p0, &keep0)); // …but detected
        assert!(!v.sc(&mem, &mut p0, keep0, 9));
    }

    #[test]
    fn cl_releases_slot() {
        let d = setup(1, 1);
        let v = d.var(0).unwrap();
        let mut me = d.proc(0);
        let mem = Native;
        assert_eq!(me.free_slots(), 1);
        let (_, keep) = v.ll(&mem, &mut me);
        assert_eq!(me.free_slots(), 0);
        me.cl(keep);
        assert_eq!(me.free_slots(), 1);
        // And the slot is genuinely reusable:
        let (_, keep) = v.ll(&mem, &mut me);
        assert!(v.sc(&mem, &mut me, keep, 1));
    }

    #[test]
    #[should_panic(expected = "exceeded k")]
    fn exceeding_k_sequences_panics() {
        let d = setup(1, 2);
        let v = d.var(0).unwrap();
        let mut me = d.proc(0);
        let mem = Native;
        let (_, _k1) = v.ll(&mem, &mut me);
        let (_, _k2) = v.ll(&mem, &mut me);
        let (_, _k3) = v.ll(&mem, &mut me); // third concurrent sequence
    }

    #[test]
    fn k_concurrent_sequences_work() {
        let d = setup(2, 3);
        let x = d.var(1).unwrap();
        let y = d.var(2).unwrap();
        let z = d.var(3).unwrap();
        let mut me = d.proc(0);
        let mem = Native;
        let (vx, kx) = x.ll(&mem, &mut me);
        let (vy, ky) = y.ll(&mem, &mut me);
        let (vz, kz) = z.ll(&mem, &mut me);
        assert!(z.sc(&mem, &mut me, kz, vz + 1));
        assert!(y.sc(&mem, &mut me, ky, vy + 1));
        assert!(x.sc(&mem, &mut me, kx, vx + 1));
        assert_eq!(x.read(&mem, &mut me), 2);
        assert_eq!(y.read(&mem, &mut me), 3);
        assert_eq!(z.read(&mem, &mut me), 4);
    }

    #[test]
    fn domain_and_var_validation() {
        assert!(BoundedDomain::<Native>::new(0, 1).is_err());
        assert!(BoundedDomain::<Native>::new(1, 0).is_err());
        // Enormous N*k leaves no value bits on a 64-bit word:
        assert!(BoundedDomain::<Native>::new(1 << 30, 1 << 20).is_err());
        let d = setup(2, 1);
        assert!(d.var(d.max_val()).is_ok());
        assert!(d.var(d.max_val() + 1).is_err());
    }

    #[test]
    #[should_panic(expected = "claimed twice")]
    fn proc_cannot_be_claimed_twice() {
        let d = setup(2, 1);
        let _a = d.proc(0);
        let _b = d.proc(0);
    }

    #[test]
    #[should_panic(expected = "different BoundedDomain")]
    fn foreign_proc_state_is_rejected() {
        let d1 = setup(2, 1);
        let d2 = setup(2, 1);
        let v = d1.var(0).unwrap();
        let mut me = d2.proc(0);
        let _ = v.ll(&Native, &mut me);
    }

    #[test]
    fn layout_fields_round_trip() {
        let l = BoundedLayout::new(4, 2, 64).unwrap();
        let w = l.pack(13, 7, 3, 999);
        assert_eq!(l.tag(w), 13);
        assert_eq!(l.cnt(w), 7);
        assert_eq!(l.pid(w), 3);
        assert_eq!(l.val(w), 999);
    }

    #[test]
    fn layout_sizes_match_paper_ranges() {
        // N = 4, k = 2: tags 0..=16 (5 bits), cnt 0..=8 (4 bits),
        // pid 0..4 (2 bits).
        let l = BoundedLayout::new(4, 2, 64).unwrap();
        assert_eq!(l.t_bits, 5);
        assert_eq!(l.c_bits, 4);
        assert_eq!(l.p_bits, 2);
        assert_eq!(l.v_bits, 64 - 11);
    }

    #[test]
    fn space_overhead_is_nk_plus_n_per_var() {
        let d = setup(8, 3);
        assert_eq!(d.space_overhead_words(), 24);
        let v = d.var(0).unwrap();
        assert_eq!(v.space_overhead_words(), 8);
    }

    #[test]
    fn concurrent_counter_is_exact_under_tiny_tag_universe() {
        // N = 2, k = 1 gives only five tags: the strongest reuse pressure.
        // Counter exactness proves no CAS ever succeeded when it should
        // have failed (Theorem 5's safety property).
        let d = setup(2, 1);
        let v = d.var(0).unwrap();
        std::thread::scope(|s| {
            for t in 0..2 {
                let v = &v;
                let mut me = d.proc(t);
                s.spawn(move || {
                    let mem = Native;
                    for _ in 0..20_000 {
                        loop {
                            let (x, keep) = v.ll(&mem, &mut me);
                            if v.sc(&mem, &mut me, keep, x + 1) {
                                break;
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(v.peek(&Native), 40_000);
    }

    #[test]
    fn multiple_vars_share_announce() {
        let d = setup(2, 2);
        let v1 = d.var(0).unwrap();
        let v2 = d.var(100).unwrap();
        let mut me = d.proc(0);
        let mem = Native;
        let (a, ka) = v1.ll(&mem, &mut me);
        let (b, kb) = v2.ll(&mem, &mut me);
        assert!(v2.sc(&mem, &mut me, kb, b + 1));
        assert!(v1.sc(&mem, &mut me, ka, a + 1));
        assert_eq!(v1.read(&mem, &mut me), 1);
        assert_eq!(v2.read(&mem, &mut me), 101);
    }

    #[test]
    fn runs_on_llsc_only_machine_via_emulated_cas() {
        let m = Machine::builder(3)
            .instruction_set(InstructionSet::RllRscOnly)
            .build();
        let reader = m.processor(2);
        let d = BoundedDomain::<EmuFamily<16>>::new(2, 1).unwrap();
        let v = d.var(0).unwrap();
        std::thread::scope(|s| {
            for t in 0..2 {
                let p = m.processor(t);
                let mut me = d.proc(t);
                let v = &v;
                s.spawn(move || {
                    let mem = EmuCas::<16>::new(&p);
                    for _ in 0..1_000 {
                        loop {
                            let (x, keep) = v.ll(&mem, &mut me);
                            if v.sc(&mem, &mut me, keep, x + 1) {
                                break;
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(v.peek(&EmuCas::<16>::new(&reader)), 2_000);
    }

    mod properties {
        use super::*;
        use nbsp_memsim::rng::SplitMix64;

        /// Every (n, k, value) combination that the layout accepts must
        /// round-trip all four fields exactly. (Deterministic seeded cases.)
        #[test]
        fn layout_round_trips() {
            let mut rng = SplitMix64::new(0xb0d0_0001);
            for _ in 0..256 {
                let n = 1 + rng.next_index(511);
                let k = 1 + rng.next_index(7);
                let Ok(l) = BoundedLayout::new(n, k, 64) else {
                    continue; // too big for the word; fine
                };
                let nk = (n * k) as u64;
                let tag = rng.next_below(2 * nk + 1);
                let cnt = rng.next_below(nk + 1);
                let pid = rng.next_index(n);
                let val = rng.next_u64() & l.max_val();
                let w = l.pack(tag, cnt, pid, val);
                assert_eq!(l.tag(w), tag);
                assert_eq!(l.cnt(w), cnt);
                assert_eq!(l.pid(w), pid);
                assert_eq!(l.val(w), val);
            }
        }

        /// Sequential LL;SC programs over random (n, k) keep the variable's
        /// value consistent with a plain register.
        #[test]
        fn sequential_ops_match_register_model() {
            let mut rng = SplitMix64::new(0xb0d0_0002);
            for case in 0..64 {
                let n = 1 + rng.next_index(5);
                let k = 1 + rng.next_index(3);
                let d = BoundedDomain::<Native>::new(n, k).unwrap();
                let v = d.var(0).unwrap();
                let mut me = d.proc(0);
                let mut model = 0u64;
                for _ in 0..rng.next_index(60) {
                    let w = rng.next_below(64);
                    let (read, keep) = v.ll(&Native, &mut me);
                    assert_eq!(read, model, "case {case}");
                    assert!(v.sc(&Native, &mut me, keep, w));
                    model = w;
                }
                assert_eq!(v.peek(&Native), model, "case {case}");
                assert_eq!(me.free_slots(), k);
            }
        }

        /// The two tag policies are one queue at two costs: a seeded
        /// LL/VL/SC/CL program over three processes, interleaved on one
        /// thread, returns the same value and leaves the same (tag, cnt,
        /// pid) stamps at every step on an `Indexed` and a `Scan` domain.
        #[test]
        fn scan_domain_matches_indexed_domain() {
            type Step = (u64, [(u64, u64, usize); 2]);
            fn trace(policy: TagPolicy) -> Vec<Step> {
                let (n, k) = (3, 2);
                let d = BoundedDomain::<Native>::new_with_policy(n, k, policy).unwrap();
                let vars = [d.var(0).unwrap(), d.var(0).unwrap()];
                let mut procs: Vec<_> = (0..n).map(|p| d.proc(p)).collect();
                let mut open: Vec<Vec<(usize, BoundedKeep)>> = (0..n).map(|_| Vec::new()).collect();
                let mut rng = SplitMix64::new(0xb0d0_0003);
                let mut steps = Vec::new();
                for _ in 0..4_000 {
                    let p = rng.next_index(n);
                    let (me, open) = (&mut procs[p], &mut open[p]);
                    let returned = match rng.next_index(4) {
                        0 if open.len() < k => {
                            let x = rng.next_index(vars.len());
                            let (v, keep) = vars[x].ll(&Native, me);
                            open.push((x, keep));
                            v
                        }
                        1 if !open.is_empty() => {
                            let (x, keep) = &open[rng.next_index(open.len())];
                            u64::from(vars[*x].vl(&Native, me, keep))
                        }
                        2 if !open.is_empty() => {
                            let (x, keep) = open.swap_remove(rng.next_index(open.len()));
                            u64::from(vars[x].sc(&Native, me, keep, rng.next_below(256)))
                        }
                        3 if !open.is_empty() => {
                            let (_, keep) = open.swap_remove(rng.next_index(open.len()));
                            me.cl(keep);
                            0
                        }
                        _ => u64::MAX,
                    };
                    let stamps = [
                        vars[0].current_stamp(&Native),
                        vars[1].current_stamp(&Native),
                    ];
                    steps.push((returned, stamps));
                }
                steps
            }
            let indexed = trace(TagPolicy::Indexed);
            let scan = trace(TagPolicy::Scan);
            // Each committed SC changes a stamp; more commits than the
            // 2Nk + 1 = 13 tags means the queues wrapped.
            let commits = indexed.windows(2).filter(|w| w[0].1 != w[1].1).count();
            assert!(commits > 13, "the program must wrap the tag universe");
            for (i, (a, b)) in indexed.iter().zip(&scan).enumerate() {
                assert_eq!(a, b, "step {i}");
            }
        }
    }

    #[test]
    fn stamp_reports_writer() {
        let d = setup(3, 1);
        let v = d.var(0).unwrap();
        let mut me = d.proc(2);
        let mem = Native;
        let (x, keep) = v.ll(&mem, &mut me);
        assert!(v.sc(&mem, &mut me, keep, x + 1));
        let (_tag, cnt, pid) = v.current_stamp(&mem);
        assert_eq!(pid, 2);
        assert_eq!(cnt, 1);
    }

    /// Park-and-churn, sequentially on one process: park a sequence in
    /// one slot, run `churn` LL;SC pairs through the other (values
    /// alternating 7, 0 so the value field recurs), then fire the parked
    /// SC. `universe` replaces the process's tag queue with one of that
    /// many tags. Returns whether the parked SC succeeded.
    fn parked_sc_succeeds(universe: Option<usize>, churn: usize) -> bool {
        let d = setup(2, 2);
        let v = d.var(0).unwrap();
        let mut me = d.proc(0);
        if let Some(u) = universe {
            me.q = TagStore::new(TagPolicy::Indexed, u);
        }
        let mem = Native;
        let (_, parked) = v.ll(&mem, &mut me);
        for round in 0..churn {
            let (_, keep) = v.ll(&mem, &mut me);
            assert!(v.sc(&mem, &mut me, keep, if round % 2 == 0 { 7 } else { 0 }));
        }
        v.sc(&mem, &mut me, parked, 5)
    }

    #[test]
    fn undersized_tag_universe_lets_a_parked_sc_falsely_succeed() {
        // Theorem 5's 2Nk + 1 tags are load-bearing: with 2 tags the
        // (tag, cnt, pid, val) word recurs during the churn and the
        // parked SC succeeds although successful SCs intervened. The
        // public constructor always sizes the universe correctly, so the
        // undersized queue is planted here.
        assert!(
            (1..=12).any(|churn| parked_sc_succeeds(Some(2), churn)),
            "a 2-tag universe never recreated the parked word"
        );
        for churn in 1..=20 {
            assert!(!parked_sc_succeeds(None, churn), "churn {churn}");
        }
    }
}
