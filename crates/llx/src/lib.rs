//! # nbsp-llx — multi-word LLX/SCX/VLX on the provider registry
//!
//! The Brown–Ellen–Ruppert primitives (*Pragmatic primitives for
//! non-blocking data structures*, arXiv:1712.06688) generalize LL/SC from
//! one word to a set of **records**: `LLX(r)` returns a snapshot of `r`'s
//! mutable fields and links `r` into the caller's next `SCX`; `SCX(V, R,
//! fld, new)` atomically verifies that no record in `V` changed since its
//! LLX, writes `new` into one mutable field, and marks the records in
//! `R ⊆ V` as *finalized* (logically removed, never to change again);
//! `VLX(V)` validates a set without writing. This is exactly the shape of
//! the source paper's Figure-6 announce/helping machinery, lifted from
//! "copy W words" to "freeze V records": an SCX publishes a descriptor,
//! installs a *frozen* marker in each linked record's `info` word, and any
//! reader or competing writer that trips over the marker **helps** the
//! stalled SCX to completion before proceeding (help-on-read).
//!
//! ## How this maps onto the registry
//!
//! Every interleaving-relevant word is a registry [`LlScVar`]:
//!
//! * each record's `info` word (version ∥ frozen-by pid ∥ seq hint ∥
//!   finalized bit),
//! * each record's mutable fields,
//! * each process's descriptor **state** word (`seq ∥
//!   {InProgress,Committed,Aborted}`).
//!
//! so the whole commit protocol runs on whichever provider the caller
//! supplies — and, because the providers are schedule-point instrumented,
//! a multi-word SCX is DPOR-checkable end to end by `nbsp-check` with no
//! extra hooks. The descriptor *payload* (linked set, expected infos,
//! finalize mask, field/new) lives in plain per-process atomics, like
//! Figure 6's announce rows: it is immutable from the state word's
//! InProgress publication until the owner starts its next SCX, and
//! helpers re-validate the state word after reading it, so those reads
//! are race-free by protocol rather than by instrumentation.
//!
//! ## Freezing by value, helped by keeps
//!
//! BER assume a CAS that can distinguish "still my expected descriptor
//! pointer" by identity. Here the `info` word carries a **version** field
//! bumped by every successful SC on it, so its values never repeat within
//! a version-wraparound period and helpers can freeze with a plain
//! value-guarded LL/SC loop. The SCX *owner* additionally holds the keeps
//! from its LLXs and tries a true keep-based SC first — the LL/SC-native
//! fast path — falling back to the uniform value loop when it fails. The
//! wraparound bound is the same flavour as the paper's Figure-7 tag
//! arithmetic: with `v` version bits, a stalled helper resurrects only if
//! exactly a multiple of `2^v` info updates land on one record while its
//! SCX stays in progress (documented residual, sized at construction).
//!
//! ## Freshness requirement on field values
//!
//! The committing field write is a value-guarded CAS (`old → new`), made
//! idempotent across helpers by requiring that **`new` never equals any
//! value the field previously held**. Arena-allocated structures satisfy
//! this for free (child pointers are never-reused record indices;
//! counters only grow). Violating it makes a stalled helper's late CAS
//! indistinguishable from a fresh one — the classic ABA the version field
//! excludes for the `info` words.
//!
//! ## Independent keeps
//!
//! A process holds one open keep per linked record, and help-on-read
//! re-LLs `info` words of records the helper may itself have linked. That
//! is only sound when every keep is its own LL–SC sequence, as the
//! paper's caller-held keeps are: a provider that keeps one reservation
//! per (process, variable) lets the helper's `ll` silently revalidate the
//! owner's stale keep, and the owner's fast-path SC then freezes a record
//! that moved. [`LlScVar`]'s contract requires independent keeps, and
//! the constructions that keep one link per (process, variable), the
//! keep-search ablations of `nbsp_core::keep_search`, do not implement
//! it, so an [`LlxDomain`] over one does not compile (see
//! [`LlxDomain::new`]).
//!
//! ## Per-process record allocation
//!
//! BER's design lets updates on disjoint records touch no common memory,
//! and the arena allocator keeps it that way. One shared cursor, on its
//! own cache line, hands out [`CHUNK`] records at a time; each process
//! allocates from its own chunk, whose cursor lives in the spare room of
//! that process's padded descriptor line. A single shared bump counter
//! next to the arena pointers would instead invalidate, on every
//! allocation, the line every LLX and field read of every other process
//! loads at each step of its descent.
//!
//! The budget stays exact: the arena holds exactly `capacity` records,
//! and a process whose chunk and the shared cursor are both empty takes
//! the records left in other processes' chunks, one at a time, before
//! reporting [`LlxError::Full`]. Each chunk is one `(next, end)` word
//! that its owner and any taker advance by CAS. The allocator's words
//! are plain atomics, outside the instrumented protocol, like the
//! descriptor payload.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use nbsp_core::{Backoff, CachePadded, LlScVar};
use nbsp_telemetry::{record, Event};

/// Maximum records one SCX may link (`|V|`). The external-BST delete
/// links four (grandparent, parent, leaf, sibling), the most any shipped
/// structure needs.
pub const MAX_V: usize = 4;

/// Maximum mutable fields per record (an external BST needs two: left and
/// right child). A domain's field count `F` is checked against it at
/// compile time.
pub const MAX_FIELDS: usize = 4;

/// Records a process claims from the shared cursor at a time (module
/// docs). Neighbouring records then belong to one process, so with
/// line-aligned records two processes' fresh records never share a line.
pub const CHUNK: usize = 64;

/// Descriptor states, packed into the low two bits of the state word.
const ST_IDLE: u64 = 0;
const ST_IN_PROGRESS: u64 = 1;
const ST_COMMITTED: u64 = 2;
const ST_ABORTED: u64 = 3;

/// Bits of the SCX sequence number mirrored into frozen `info` words (a
/// hint locating the descriptor generation; the full-width state word is
/// what helpers actually validate against).
const HINT_BITS: u32 = 8;

/// Structure-level errors (the arena is a lifetime budget, as everywhere
/// else in this workspace: records are never reclaimed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LlxError {
    /// The record arena's lifetime allocation budget is exhausted.
    Full,
}

impl fmt::Display for LlxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LlxError::Full => write!(f, "llx record arena exhausted"),
        }
    }
}

impl std::error::Error for LlxError {}

/// Deliberately broken protocol variants for the model checker's planted
/// canaries. Never constructed outside `nbsp-check`'s E13 harness; the
/// checker must *deterministically* catch each one, proving DPOR really
/// sees multi-word races.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Flaw {
    /// The faithful protocol.
    #[default]
    None,
    /// The freeze phase "freezes" every linked record after the first by
    /// doing nothing — a lost-freeze bug: overlapping SCXs can both
    /// commit against stale snapshots of the unfrozen records.
    LostFreeze,
}

/// The result of an [`LlxDomain::llx`] call.
#[derive(Debug)]
pub enum LlxOutcome<V: LlScVar> {
    /// The record was snapshotted and linked: the handle holds the open
    /// keep, the observed `info` word and the field values. Pass it to
    /// [`LlxDomain::scx`] (which consumes the keep) or release it with
    /// [`LlxDomain::unlink`].
    Linked(LlxHandle<V>),
    /// The record is finalized: it was removed by a committed SCX and
    /// will never change again.
    Finalized,
}

impl<V: LlScVar> LlxOutcome<V> {
    /// Unwraps the linked handle; panics on `Finalized`.
    ///
    /// # Panics
    ///
    /// Panics if the record was finalized.
    pub fn expect_linked(self, msg: &str) -> LlxHandle<V> {
        match self {
            LlxOutcome::Linked(h) => h,
            LlxOutcome::Finalized => panic!("{msg}: record is finalized"),
        }
    }
}

/// A linked LLX result: the snapshot plus the open LL–SC sequence on the
/// record's `info` word. Holding one consumes one of the provider's `k`
/// concurrent-sequence slots until it is passed to `scx` or `unlink`.
pub struct LlxHandle<V: LlScVar> {
    /// Arena index of the record.
    pub rec: usize,
    /// The `info` word observed (version ∥ unfrozen ∥ unfinalized).
    pub info: u64,
    /// Field values, valid at the `info` validation point.
    vals: [u64; MAX_FIELDS],
    /// The open keep from the LLX's `ll` on `info`.
    keep: V::Keep,
}

impl<V: LlScVar> LlxHandle<V> {
    /// The snapshotted value of field `f`.
    #[must_use]
    pub fn field(&self, f: usize) -> u64 {
        self.vals[f]
    }
}

impl<V: LlScVar> fmt::Debug for LlxHandle<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LlxHandle")
            .field("rec", &self.rec)
            .field("info", &self.info)
            .finish_non_exhaustive()
    }
}

/// An *unlinked* LLX observation (keep released, value retained): enough
/// for [`LlxDomain::vlx_snapshots`]'s value-compare validation, and not
/// bounded by the provider's `k` — range scans collect arbitrarily many.
#[derive(Clone, Copy, Debug)]
pub struct LlxSnapshot {
    /// Arena index of the record.
    pub rec: usize,
    /// The `info` word observed.
    pub info: u64,
    /// Field values, valid at the `info` validation point.
    vals: [u64; MAX_FIELDS],
}

impl LlxSnapshot {
    /// The snapshotted value of field `f`.
    #[must_use]
    pub fn field(&self, f: usize) -> u64 {
        self.vals[f]
    }
}

/// One record: an `info` word coordinating freeze/finalize, `F` fields
/// mutable only through SCX, and `M` immutable-after-alloc `meta` words
/// (keys, payload values) in plain atomics. One fixed-shape value stored
/// inline in the arena: no per-record heap block, and a descent step
/// touches one place in memory. Line-aligned, so records allocated from
/// different processes' chunks never share a cache line.
#[repr(align(64))]
struct Record<V: LlScVar, const F: usize, const M: usize> {
    info: V,
    fields: [V; F],
    meta: [AtomicU64; M],
}

/// Per-process SCX descriptor payload — the Figure-6 announce row. Plain
/// release/acquire atomics: immutable between the state word's InProgress
/// publication and the owner's next SCX, and helpers re-validate the
/// state word after reading (see the module docs).
///
/// The payload is 112 B; the process's allocation chunk takes 8 B of the
/// rest of its 128 B padded line, so per-process allocation costs no
/// extra line.
struct Desc {
    v_len: AtomicUsize,
    v: [AtomicUsize; MAX_V],
    exp: [AtomicU64; MAX_V],
    fin_mask: AtomicU64,
    fld_rec: AtomicUsize,
    fld_idx: AtomicUsize,
    fld_old: AtomicU64,
    fld_new: AtomicU64,
    /// The process's unallocated records `[next, end)`, packed by
    /// [`pack_chunk`].
    chunk: AtomicU64,
}

impl Desc {
    fn new() -> Self {
        Desc {
            v_len: AtomicUsize::new(0),
            v: std::array::from_fn(|_| AtomicUsize::new(0)),
            exp: std::array::from_fn(|_| AtomicU64::new(0)),
            fin_mask: AtomicU64::new(0),
            fld_rec: AtomicUsize::new(0),
            fld_idx: AtomicUsize::new(0),
            fld_old: AtomicU64::new(0),
            fld_new: AtomicU64::new(0),
            chunk: AtomicU64::new(0),
        }
    }
}

const _: () = assert!(
    std::mem::size_of::<Desc>() <= 128,
    "the chunk cursor must fit the descriptor's padded line"
);

/// A chunk `[next, end)` as one word, `end` high and `next` low, so an
/// owner and a taker advance it by one CAS. Record indices fit 32 bits
/// (checked at construction).
fn pack_chunk(next: usize, end: usize) -> u64 {
    ((end as u64) << 32) | next as u64
}

fn unpack_chunk(w: u64) -> (usize, usize) {
    ((w & 0xFFFF_FFFF) as usize, (w >> 32) as usize)
}

fn chunk_left(w: u64) -> usize {
    let (next, end) = unpack_chunk(w);
    end.saturating_sub(next)
}

/// Takes the next record of a chunk, `None` if it is empty. Every value
/// a chunk word holds is new — chunks are disjoint and `next` only grows
/// — so a CAS from a stale read cannot succeed.
fn take_one(chunk: &AtomicU64) -> Option<usize> {
    let mut w = chunk.load(Ordering::Relaxed);
    loop {
        let (next, end) = unpack_chunk(w);
        if next >= end {
            return None;
        }
        match chunk.compare_exchange_weak(
            w,
            pack_chunk(next + 1, end),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return Some(next),
            Err(cur) => w = cur,
        }
    }
}

/// A snapshot of one descriptor payload, taken by a helper.
#[derive(Clone, Copy)]
struct DescSnap {
    v_len: usize,
    v: [usize; MAX_V],
    exp: [u64; MAX_V],
    fin_mask: u64,
    fld_rec: usize,
    fld_idx: usize,
    fld_old: u64,
    fld_new: u64,
}

/// Bit layout of a record's `info` word, sized at construction from the
/// variable's value width and the process count:
///
/// ```text
///  high                                   low
///  [ version | seq hint | frozen-by pid+1 | finalized ]
///     rest      8 bits     ⌈log₂(n+1)⌉       1 bit
/// ```
#[derive(Clone, Copy, Debug)]
struct InfoLayout {
    pid_bits: u32,
    ver_bits: u32,
}

impl InfoLayout {
    fn new(n: usize, max_val: u64) -> InfoLayout {
        let pid_bits = usize::BITS - n.leading_zeros(); // ⌈log₂(n+1)⌉
        let value_bits = 64 - max_val.leading_zeros();
        let used = 1 + pid_bits + HINT_BITS;
        assert!(
            value_bits >= used + 8,
            "llx needs at least 8 version bits: {value_bits} value bits, \
             {used} used by pid/hint/finalized"
        );
        InfoLayout {
            pid_bits,
            ver_bits: value_bits - used,
        }
    }

    fn finalized(self, w: u64) -> bool {
        w & 1 == 1
    }

    /// Frozen-by pid + 1; 0 = unfrozen.
    fn frozen_by(self, w: u64) -> u64 {
        (w >> 1) & ((1 << self.pid_bits) - 1)
    }

    fn version(self, w: u64) -> u64 {
        w >> (1 + self.pid_bits + HINT_BITS)
    }

    fn pack(self, ver: u64, frozen_by: u64, hint: u64, fin: bool) -> u64 {
        let ver = ver & ((1u64 << self.ver_bits) - 1);
        (ver << (1 + self.pid_bits + HINT_BITS))
            | ((hint & ((1 << HINT_BITS) - 1)) << (1 + self.pid_bits))
            | (frozen_by << 1)
            | u64::from(fin)
    }

    /// The word a helper of `(pid, seq)` installs to freeze a record whose
    /// expected info is `exp` — deterministic from `exp`, so every helper
    /// computes the same target.
    fn freeze_word(self, exp: u64, pid: usize, seq: u64) -> u64 {
        self.pack(
            self.version(exp).wrapping_add(1),
            pid as u64 + 1,
            seq,
            false,
        )
    }

    /// The word that releases a frozen record (`target` per
    /// [`InfoLayout::freeze_word`]): version advances again, the frozen
    /// marker clears, and `fin` latches the finalized bit.
    fn release_word(self, target: u64, fin: bool) -> u64 {
        self.pack(self.version(target).wrapping_add(1), 0, 0, fin)
    }
}

const fn pack_state(seq: u64, st: u64) -> u64 {
    (seq << 2) | st
}

fn state_seq(w: u64) -> u64 {
    w >> 2
}

fn state_of(w: u64) -> u64 {
    w & 3
}

/// An arena of LLX/SCX records plus the per-process SCX descriptors, all
/// coordination words built by one `make_var` closure — provider-generic
/// exactly like [`Set`](../nbsp_structures/struct.Set.html).
///
/// Every record has the same shape, fixed by the type: `F` SCX-mutable
/// fields (`1..=MAX_FIELDS`) and `M` immutable meta words.
///
/// ```
/// use nbsp_core::{CasLlSc, Native, TagLayout};
/// use nbsp_llx::{LlxDomain, LlxOutcome};
///
/// let mut ctx = Native;
/// // One mutable field and one meta word per record.
/// let d: LlxDomain<_, 1, 1> = LlxDomain::new(
///     2, // processes
///     8, // record budget
///     || CasLlSc::new_native(TagLayout::half(), 0).unwrap(),
///     &mut ctx,
/// );
/// let r = d.alloc(&mut ctx, 0, &[42], &[7]).unwrap();
/// let h = d.llx(&mut ctx, r).expect_linked("fresh");
/// assert_eq!(h.field(0), 7);
/// // SCX as process 0: V = {r}, finalize nothing, write field 0.
/// assert!(d.scx(&mut ctx, 0, [h], 0, r, 0, 8));
/// let h = d.llx(&mut ctx, r).expect_linked("still live");
/// assert_eq!(h.field(0), 8);
/// d.unlink(&mut ctx, h);
/// ```
pub struct LlxDomain<V: LlScVar, const F: usize, const M: usize> {
    n: usize,
    recs: Box<[Record<V, F, M>]>,
    descs: Box<[CachePadded<Desc>]>,
    states: Box<[CachePadded<V>]>,
    layout: InfoLayout,
    max_val: u64,
    flaw: Flaw,
    /// The first record no process has claimed; advances by [`CHUNK`].
    /// On its own line: the fields above are read at every descent step.
    cursor: CachePadded<AtomicUsize>,
}

impl<V: LlScVar, const F: usize, const M: usize> fmt::Debug for LlxDomain<V, F, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LlxDomain")
            .field("n", &self.n)
            .field("capacity", &self.recs.len())
            .field("fields_per_record", &F)
            .field("meta_words", &M)
            .finish_non_exhaustive()
    }
}

impl<V: LlScVar, const F: usize, const M: usize> LlxDomain<V, F, M> {
    /// Builds a domain for `n` processes with a lifetime budget of
    /// `capacity` records, each carrying `F` SCX-mutable fields and `M`
    /// immutable-after-alloc words. All LL/SC words come from `make_var`,
    /// which is called exactly `(1 + F) · capacity + n` times and must
    /// return words holding 0: a fresh record, its `info` word and an idle
    /// descriptor state are all the word 0, so the arena is built in one
    /// pass and no word is stored to again. Debug builds check the contract
    /// through `ctx`, which is otherwise unused (construction is
    /// single-threaded).
    ///
    /// Every [`LlScVar`] has independent keeps (module docs), which the
    /// type system enforces: a per-(process, variable) keep-search
    /// ablation is no `LlScVar`, so a domain over it does not compile.
    ///
    /// ```
    /// use nbsp_core::{CasLlSc, Native, TagLayout};
    /// use nbsp_llx::LlxDomain;
    ///
    /// let make = || CasLlSc::new_native(TagLayout::half(), 0).unwrap();
    /// let _d = LlxDomain::<_, 1, 0>::new(1, 2, make, &mut Native);
    /// ```
    ///
    /// ```compile_fail,E0277
    /// use nbsp_core::keep_search::PerVarKeepVar;
    /// use nbsp_core::TagLayout;
    /// use nbsp_llx::LlxDomain;
    /// use nbsp_memsim::ProcId;
    ///
    /// let make = || PerVarKeepVar::new(1, TagLayout::half(), 0).unwrap();
    /// let _d = LlxDomain::<_, 1, 0>::new(1, 2, make, &mut ProcId::new(0));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the variable's value width cannot fit the info layout
    /// (needs `9 + ⌈log₂(n+1)⌉` bits plus at least 8 version bits), or if
    /// `capacity` exceeds `u32::MAX` records. In debug builds, also panics
    /// if `make_var` returns a word that does not hold 0.
    #[must_use]
    pub fn new(
        n: usize,
        capacity: usize,
        make_var: impl FnMut() -> V,
        ctx: &mut V::Ctx<'_>,
    ) -> Self {
        Self::build(n, capacity, make_var, ctx, Flaw::None)
    }

    /// A deliberately broken domain for the model checker's planted-bug
    /// canary. See [`Flaw`]. Not part of the public protocol.
    #[doc(hidden)]
    #[must_use]
    pub fn new_flawed(
        n: usize,
        capacity: usize,
        make_var: impl FnMut() -> V,
        ctx: &mut V::Ctx<'_>,
        flaw: Flaw,
    ) -> Self {
        Self::build(n, capacity, make_var, ctx, flaw)
    }

    /// Builds every record exactly once. The arena stays eager and exactly
    /// `capacity` records long: a record claimed later would need either a
    /// stored factory or an extra indirection on every descent step, and
    /// would move its first-touch page fault into the caller's operations.
    fn build(
        n: usize,
        capacity: usize,
        mut make_var: impl FnMut() -> V,
        ctx: &mut V::Ctx<'_>,
        flaw: Flaw,
    ) -> Self {
        const {
            assert!(
                F >= 1 && F <= MAX_FIELDS,
                "an LLX record has 1..=MAX_FIELDS mutable fields"
            );
            assert!(pack_state(0, ST_IDLE) == 0, "an idle state is the word 0");
        }
        assert!(n >= 1, "at least one process");
        assert!(
            u32::try_from(capacity).is_ok(),
            "llx record indices are 32-bit: capacity {capacity} is too large"
        );
        let mut zero_var = || {
            let v = make_var();
            debug_assert_eq!(v.read(ctx), 0, "make_var must return words holding 0");
            v
        };
        let recs: Box<[Record<V, F, M>]> = (0..capacity)
            .map(|_| Record {
                info: zero_var(),
                fields: std::array::from_fn(|_| zero_var()),
                meta: std::array::from_fn(|_| AtomicU64::new(0)),
            })
            .collect();
        let states: Box<[CachePadded<V>]> = (0..n).map(|_| CachePadded::new(zero_var())).collect();
        let probe_max = states.first().map_or(u64::MAX, |s| LlScVar::max_val(&**s));
        LlxDomain {
            n,
            recs,
            descs: (0..n).map(|_| CachePadded::new(Desc::new())).collect(),
            states,
            layout: InfoLayout::new(n, probe_max),
            max_val: probe_max,
            flaw,
            cursor: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Single-threaded store to an unpublished word (allocation only):
    /// nothing when the word already holds `value` — a fresh arena
    /// record's fields are zero from construction — else an LL/SC retry
    /// loop.
    fn force_store(&self, ctx: &mut V::Ctx<'_>, var: &V, value: u64) {
        if var.read(ctx) == value {
            return;
        }
        let mut keep = V::Keep::default();
        loop {
            let _ = var.ll(ctx, &mut keep);
            if var.sc(ctx, &mut keep, value) {
                return;
            }
        }
    }

    /// Number of processes the domain was built for.
    #[must_use]
    pub fn processes(&self) -> usize {
        self.n
    }

    /// Records still available in the lifetime budget: the unclaimed
    /// tail of the arena plus what is left in every process's chunk.
    /// Exact when no thread is allocating; a concurrent allocation can
    /// make it lag by the records that call is handing out.
    #[must_use]
    pub fn remaining_capacity(&self) -> usize {
        let unclaimed = self
            .recs
            .len()
            .saturating_sub(self.cursor.load(Ordering::Relaxed));
        let in_chunks: usize = self
            .descs
            .iter()
            .map(|d| chunk_left(d.chunk.load(Ordering::Relaxed)))
            .sum();
        unclaimed + in_chunks
    }

    /// The largest value the provider's variables can hold — the bound on
    /// anything a structure packs into a mutable field (a record index
    /// encoding, say).
    #[must_use]
    pub fn max_val(&self) -> u64 {
        self.max_val
    }

    /// Allocates a fresh record for process `p` with the given immutable
    /// `meta` words and initial mutable `fields`, returning its index.
    /// The record is private to the caller until some SCX installs its
    /// index into a published field.
    ///
    /// The record comes from `p`'s own chunk, so allocations by different
    /// processes write no common line; an empty chunk is refilled with
    /// [`CHUNK`] records from the shared cursor, and once that is spent
    /// too, `p` takes what is left in other processes' chunks (module
    /// docs).
    ///
    /// # Errors
    ///
    /// [`LlxError::Full`] when all `capacity` records have been handed
    /// out (records are never reclaimed — the workspace-wide arena
    /// discipline). The one exception is a chunk another process is
    /// claiming at that instant: its records go to that process.
    pub fn alloc(
        &self,
        ctx: &mut V::Ctx<'_>,
        p: usize,
        meta: &[u64; M],
        fields: &[u64; F],
    ) -> Result<usize, LlxError> {
        let idx = self.claim(p).ok_or(LlxError::Full)?;
        self.reinit(ctx, idx, meta, fields);
        Ok(idx)
    }

    /// One record index for process `p`: from its own chunk, else from a
    /// fresh chunk off the shared cursor, else from a peer's chunk.
    ///
    /// Relaxed throughout: the cursors only divide up indices, and a
    /// record's contents reach other processes through the SCX that
    /// installs it.
    fn claim(&self, p: usize) -> Option<usize> {
        let own = &self.descs[p].chunk;
        if let Some(idx) = take_one(own) {
            return Some(idx);
        }
        let cap = self.recs.len();
        if self.cursor.load(Ordering::Relaxed) < cap {
            let start = self.cursor.fetch_add(CHUNK, Ordering::Relaxed);
            if start < cap {
                // `own` is empty, and no taker CASes an empty chunk.
                own.store(
                    pack_chunk(start + 1, (start + CHUNK).min(cap)),
                    Ordering::Relaxed,
                );
                return Some(start);
            }
        }
        (1..self.n)
            .map(|i| (p + i) % self.n)
            .find_map(|q| take_one(&self.descs[q].chunk))
    }

    /// Rewrites a record that has **never been installed into a published
    /// field** — the retry-reuse path: an SCX that aborted never exposed
    /// its freshly allocated records, so a retry may repurpose them
    /// instead of burning more of the lifetime budget. Calling this on a
    /// reachable record is a protocol violation (it bypasses SCX).
    pub fn reinit(&self, ctx: &mut V::Ctx<'_>, rec: usize, meta: &[u64; M], fields: &[u64; F]) {
        let r = &self.recs[rec];
        for (slot, &m) in r.meta.iter().zip(meta) {
            slot.store(m, Ordering::Release);
        }
        for (f, &init) in r.fields.iter().zip(fields) {
            self.force_store(ctx, f, init);
        }
    }

    /// Reads immutable meta word `i` of record `rec`.
    #[must_use]
    pub fn meta(&self, rec: usize, i: usize) -> u64 {
        self.recs[rec].meta[i].load(Ordering::Acquire)
    }

    /// Plain (sequence-free) read of mutable field `f` of record `rec` —
    /// the traversal read; un-validated, pair it with VLX where the
    /// algorithm needs a consistent multi-record view.
    pub fn read_field(&self, ctx: &mut V::Ctx<'_>, rec: usize, f: usize) -> u64 {
        self.recs[rec].fields[f].read(ctx)
    }

    /// LLX: snapshot `rec`'s fields and link it (open keep retained in
    /// the returned handle) for a following [`LlxDomain::scx`] /
    /// [`LlxDomain::vlx`]. Helps any in-progress SCX found frozen on the
    /// record (help-on-read), then retries; returns
    /// [`LlxOutcome::Finalized`] if the record was finalized.
    pub fn llx(&self, ctx: &mut V::Ctx<'_>, rec: usize) -> LlxOutcome<V> {
        let mut backoff = Backoff::new();
        let r = &self.recs[rec];
        loop {
            let mut keep = V::Keep::default();
            let info = &r.info;
            let w = info.ll(ctx, &mut keep);
            if self.layout.finalized(w) {
                info.cl(ctx, &mut keep);
                return LlxOutcome::Finalized;
            }
            let owner = self.layout.frozen_by(w);
            if owner != 0 {
                info.cl(ctx, &mut keep);
                record(Event::LlxHelp);
                self.help(ctx, owner as usize - 1);
                backoff.spin();
                continue;
            }
            let mut vals = [0u64; MAX_FIELDS];
            for (v, f) in vals.iter_mut().zip(&r.fields) {
                *v = f.read(ctx);
            }
            if info.vl(ctx, &keep) {
                return LlxOutcome::Linked(LlxHandle {
                    rec,
                    info: w,
                    vals,
                    keep,
                });
            }
            info.cl(ctx, &mut keep);
            backoff.spin();
        }
    }

    /// Releases a linked handle without committing (returns its keep).
    pub fn unlink(&self, ctx: &mut V::Ctx<'_>, mut h: LlxHandle<V>) {
        self.recs[h.rec].info.cl(ctx, &mut h.keep);
    }

    /// The unlinked LLX: same snapshot-and-validate as
    /// [`LlxDomain::llx`], but the keep is released immediately — only
    /// the observed `info` value is retained, for value-compare
    /// validation via [`LlxDomain::vlx_snapshots`]. Unbounded by the
    /// provider's `k`, so range scans can collect one per visited record.
    pub fn llx_snapshot(&self, ctx: &mut V::Ctx<'_>, rec: usize) -> Option<LlxSnapshot> {
        match self.llx(ctx, rec) {
            LlxOutcome::Linked(h) => {
                let snap = LlxSnapshot {
                    rec: h.rec,
                    info: h.info,
                    vals: h.vals,
                };
                self.unlink(ctx, h);
                Some(snap)
            }
            LlxOutcome::Finalized => None,
        }
    }

    /// VLX over *linked* handles: true iff every record is still exactly
    /// as its LLX observed it (validated through the open keeps).
    pub fn vlx(&self, ctx: &mut V::Ctx<'_>, handles: &[&LlxHandle<V>]) -> bool {
        handles
            .iter()
            .all(|h| self.recs[h.rec].info.vl(ctx, &h.keep))
    }

    /// VLX over *unlinked* snapshots: value-compare validation — true iff
    /// every record's `info` word still equals the snapshotted one. The
    /// version field makes value equality equivalent to "unchanged"
    /// within the wraparound bound (module docs).
    pub fn vlx_snapshots(&self, ctx: &mut V::Ctx<'_>, snaps: &[LlxSnapshot]) -> bool {
        snaps
            .iter()
            .all(|s| self.recs[s.rec].info.read(ctx) == s.info)
    }

    /// SCX as process `p`: atomically (all-or-nothing, helped) verify
    /// that every handle's record is unchanged since its LLX, write `new`
    /// into field `fld_idx` of record `fld_rec` (which must be one of the
    /// linked records), and finalize the records selected by `fin_mask`
    /// (bit `i` finalizes `handles[i]`). Handles must name distinct
    /// records, ordered consistently across all possible concurrent SCXs
    /// (for trees: ancestors first) so freezing cannot livelock.
    ///
    /// The handles are taken by value as any owned list — an array
    /// (`[hp, hl]`, allocation-free) or a `Vec` when the count is only
    /// known at run time.
    ///
    /// Returns whether the SCX committed. All keeps are consumed either
    /// way. `new` must satisfy the freshness requirement (module docs).
    ///
    /// # Panics
    ///
    /// Panics on an empty or oversized handle set, or if `fld_rec` is not
    /// among the linked records.
    #[allow(clippy::too_many_arguments)] // BER's SCX(V, R, fld, new) signature, kept recognizable
    pub fn scx(
        &self,
        ctx: &mut V::Ctx<'_>,
        p: usize,
        mut handles: impl AsMut<[LlxHandle<V>]>,
        fin_mask: u64,
        fld_rec: usize,
        fld_idx: usize,
        new: u64,
    ) -> bool {
        let handles = handles.as_mut();
        assert!(
            !handles.is_empty() && handles.len() <= MAX_V,
            "SCX links 1..={MAX_V} records"
        );
        let fld_slot = handles
            .iter()
            .position(|h| h.rec == fld_rec)
            .expect("fld_rec must be one of the linked records");
        let old = handles[fld_slot].vals[fld_idx];

        // Publish the payload, then bump the state word to InProgress —
        // Figure 6's announce step. Only the owner writes either, and only
        // after its previous SCX fully settled, so the payload is frozen
        // for the whole InProgress window.
        let d = &self.descs[p];
        let seq = state_seq(self.states[p].read(ctx)).wrapping_add(1);
        d.v_len.store(handles.len(), Ordering::Relaxed);
        for (i, h) in handles.iter().enumerate() {
            d.v[i].store(h.rec, Ordering::Relaxed);
            d.exp[i].store(h.info, Ordering::Relaxed);
        }
        d.fin_mask.store(fin_mask, Ordering::Relaxed);
        d.fld_rec.store(fld_rec, Ordering::Relaxed);
        d.fld_idx.store(fld_idx, Ordering::Relaxed);
        d.fld_old.store(old, Ordering::Relaxed);
        d.fld_new.store(new, Ordering::Release);
        {
            let mut keep = V::Keep::default();
            loop {
                let _ = self.states[p].ll(ctx, &mut keep);
                // Helpers only touch InProgress states, so this SC races
                // nothing but spurious failure.
                if self.states[p].sc(ctx, &mut keep, pack_state(seq, ST_IN_PROGRESS)) {
                    break;
                }
            }
        }

        // Owner fast path: freeze through the keeps still held from the
        // LLXs — a true LL/SC commit when uncontended. A failed SC here
        // is not a verdict (it may be spurious, or a helper may already
        // have installed our freeze word); help() below resolves every
        // record uniformly by value.
        for h in handles.iter_mut() {
            let target = self.layout.freeze_word(h.info, p, seq);
            let _ = self.recs[h.rec].info.sc(ctx, &mut h.keep, target);
        }

        self.help(ctx, p);
        let outcome = self.states[p].read(ctx);
        debug_assert_eq!(state_seq(outcome), seq, "only the owner starts a new SCX");
        let committed = state_of(outcome) == ST_COMMITTED;
        if !committed {
            record(Event::ScxAbort);
        }
        committed
    }

    /// Reads `pid`'s descriptor payload; `None` if the state word moved
    /// while reading (torn — caller rereads the state).
    fn read_desc(&self, ctx: &mut V::Ctx<'_>, pid: usize, st_word: u64) -> Option<DescSnap> {
        let d = &self.descs[pid];
        let v_len = d.v_len.load(Ordering::Acquire).min(MAX_V);
        let snap = DescSnap {
            v_len,
            v: std::array::from_fn(|i| d.v[i].load(Ordering::Relaxed)),
            exp: std::array::from_fn(|i| d.exp[i].load(Ordering::Relaxed)),
            fin_mask: d.fin_mask.load(Ordering::Relaxed),
            fld_rec: d.fld_rec.load(Ordering::Relaxed),
            fld_idx: d.fld_idx.load(Ordering::Relaxed),
            fld_old: d.fld_old.load(Ordering::Relaxed),
            fld_new: d.fld_new.load(Ordering::Relaxed),
        };
        (self.states[pid].read(ctx) == st_word).then_some(snap)
    }

    /// Drives `pid`'s current SCX (if any) to completion: freeze every
    /// linked record, perform the field write, settle the state word, and
    /// release (unfreeze or finalize) the records. Idempotent and safe
    /// for any caller at any time — the uniform helping routine run by
    /// the owner and by every reader/writer that trips over a frozen
    /// record.
    fn help(&self, ctx: &mut V::Ctx<'_>, pid: usize) {
        let mut keep = V::Keep::default();
        'outer: loop {
            let st_word = self.states[pid].read(ctx);
            let (seq, st) = (state_seq(st_word), state_of(st_word));
            if st == ST_IDLE {
                return;
            }
            let Some(d) = self.read_desc(ctx, pid, st_word) else {
                continue 'outer;
            };
            let final_word = if st == ST_IN_PROGRESS {
                let mut frozen_all = true;
                'freeze: for i in 0..d.v_len {
                    if self.flaw == Flaw::LostFreeze && i > 0 {
                        // Planted bug: pretend the record froze.
                        continue;
                    }
                    let info = &self.recs[d.v[i]].info;
                    let target = self.layout.freeze_word(d.exp[i], pid, seq);
                    loop {
                        let cur = info.ll(ctx, &mut keep);
                        if cur == target {
                            info.cl(ctx, &mut keep);
                            break; // frozen for this SCX (by us or a peer)
                        }
                        if cur == d.exp[i] {
                            if info.sc(ctx, &mut keep, target) {
                                break;
                            }
                            continue; // SC lost a race; re-inspect
                        }
                        info.cl(ctx, &mut keep);
                        if self.states[pid].read(ctx) != st_word {
                            // The SCX settled under us; restart to release.
                            continue 'outer;
                        }
                        // Genuine conflict: the record moved since its LLX.
                        frozen_all = false;
                        break 'freeze;
                    }
                }
                if frozen_all {
                    // All linked records frozen: the committing write. A
                    // value-guarded CAS, idempotent because `new` is fresh
                    // (module docs): whichever helper lands it first wins,
                    // the rest observe old != fld_old and stand down.
                    let f = &self.recs[d.fld_rec].fields[d.fld_idx];
                    loop {
                        let cur = f.ll(ctx, &mut keep);
                        if cur != d.fld_old {
                            f.cl(ctx, &mut keep);
                            break;
                        }
                        if f.sc(ctx, &mut keep, d.fld_new) {
                            break;
                        }
                    }
                    self.settle(ctx, &mut keep, pid, seq, ST_COMMITTED)
                } else {
                    self.settle(ctx, &mut keep, pid, seq, ST_ABORTED)
                }
            } else {
                st_word
            };
            if state_seq(final_word) != seq {
                // A different generation: that SCX's own helpers (at
                // minimum its owner) release its records.
                return;
            }
            let fst = state_of(final_word);
            debug_assert_ne!(fst, ST_IN_PROGRESS);
            // Release phase: unfreeze (or finalize) every linked record.
            // Value-guarded — only the freeze word of exactly this SCX is
            // ever replaced, so stale helpers no-op.
            for i in 0..d.v_len {
                let info = &self.recs[d.v[i]].info;
                let target = self.layout.freeze_word(d.exp[i], pid, seq);
                let fin = fst == ST_COMMITTED && (d.fin_mask >> i) & 1 == 1;
                let release = self.layout.release_word(target, fin);
                loop {
                    let cur = info.ll(ctx, &mut keep);
                    if cur != target {
                        info.cl(ctx, &mut keep);
                        break; // already released (or never frozen: abort)
                    }
                    if info.sc(ctx, &mut keep, release) {
                        break;
                    }
                }
            }
            return;
        }
    }

    /// Moves `(pid, seq)` from InProgress to `to` (first settler wins);
    /// returns the state word that ended the race.
    fn settle(
        &self,
        ctx: &mut V::Ctx<'_>,
        keep: &mut V::Keep,
        pid: usize,
        seq: u64,
        to: u64,
    ) -> u64 {
        let from = pack_state(seq, ST_IN_PROGRESS);
        loop {
            let s = self.states[pid].ll(ctx, keep);
            if s != from {
                self.states[pid].cl(ctx, keep);
                return s;
            }
            if self.states[pid].sc(ctx, keep, pack_state(seq, to)) {
                return pack_state(seq, to);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbsp_core::{CasLlSc, Native, TagLayout};

    fn native_domain<const F: usize>(
        n: usize,
        capacity: usize,
    ) -> LlxDomain<CasLlSc<Native>, F, 1> {
        let mut ctx = Native;
        LlxDomain::new(
            n,
            capacity,
            || CasLlSc::new_native(TagLayout::half(), 0).unwrap(),
            &mut ctx,
        )
    }

    #[test]
    fn build_calls_the_factory_once_per_word() {
        let (n, capacity) = (3, 10);
        let mut calls = 0;
        let _d = LlxDomain::<_, 2, 1>::new(
            n,
            capacity,
            || {
                calls += 1;
                CasLlSc::new_native(TagLayout::half(), 0).unwrap()
            },
            &mut Native,
        );
        assert_eq!(calls, (1 + 2) * capacity + n);
    }

    #[test]
    fn fresh_records_read_zero_and_link_with_info_zero() {
        let d = native_domain::<3>(2, 2 * CHUNK + 5);
        let mut ctx = Native;
        for rec in 0..d.recs.len() {
            for f in 0..3 {
                assert_eq!(d.read_field(&mut ctx, rec, f), 0, "record {rec} field {f}");
            }
            let h = d.llx(&mut ctx, rec).expect_linked("fresh");
            assert_eq!(h.info, 0, "record {rec}");
            assert_eq!((h.field(0), h.field(1), h.field(2)), (0, 0, 0));
            d.unlink(&mut ctx, h);
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "make_var must return words holding 0")]
    fn a_factory_word_not_holding_zero_panics() {
        let _d = LlxDomain::<_, 1, 0>::new(
            1,
            2,
            || CasLlSc::new_native(TagLayout::half(), 1).unwrap(),
            &mut Native,
        );
    }

    #[test]
    fn llx_scx_single_record_roundtrip() {
        let d = native_domain::<2>(2, 4);
        let mut ctx = Native;
        let r = d.alloc(&mut ctx, 0, &[11], &[1, 2]).unwrap();
        assert_eq!(d.meta(r, 0), 11);
        let h = d.llx(&mut ctx, r).expect_linked("fresh");
        assert_eq!((h.field(0), h.field(1)), (1, 2));
        assert!(d.scx(&mut ctx, 0, [h], 0, r, 1, 9));
        assert_eq!(d.read_field(&mut ctx, r, 1), 9);
        assert_eq!(d.read_field(&mut ctx, r, 0), 1);
    }

    #[test]
    fn scx_fails_after_conflicting_scx() {
        let d = native_domain::<1>(2, 4);
        let mut ctx = Native;
        let r = d.alloc(&mut ctx, 0, &[0], &[5]).unwrap();
        let h0 = d.llx(&mut ctx, r).expect_linked("p0");
        let h1 = d.llx(&mut ctx, r).expect_linked("p1");
        assert!(d.scx(&mut ctx, 0, [h0], 0, r, 0, 6));
        // p1's snapshot is stale now: its SCX must abort.
        assert!(!d.scx(&mut ctx, 1, [h1], 0, r, 0, 7));
        assert_eq!(d.read_field(&mut ctx, r, 0), 6);
    }

    #[test]
    fn finalized_records_stay_finalized() {
        let d = native_domain::<1>(2, 4);
        let mut ctx = Native;
        let a = d.alloc(&mut ctx, 0, &[0], &[1]).unwrap();
        let b = d.alloc(&mut ctx, 0, &[0], &[2]).unwrap();
        let ha = d.llx(&mut ctx, a).expect_linked("a");
        let hb = d.llx(&mut ctx, b).expect_linked("b");
        // V = {a, b}, finalize b (bit 1), write a.
        assert!(d.scx(&mut ctx, 0, [ha, hb], 0b10, a, 0, 3));
        assert!(matches!(d.llx(&mut ctx, b), LlxOutcome::Finalized));
        assert!(d.llx_snapshot(&mut ctx, b).is_none());
        // a is unfrozen and writable again.
        let ha = d.llx(&mut ctx, a).expect_linked("a again");
        assert_eq!(ha.field(0), 3);
        assert!(d.scx(&mut ctx, 1, [ha], 0, a, 0, 4));
    }

    #[test]
    fn multi_record_scx_validates_every_link() {
        let d = native_domain::<1>(2, 4);
        let mut ctx = Native;
        let a = d.alloc(&mut ctx, 0, &[0], &[10]).unwrap();
        let b = d.alloc(&mut ctx, 0, &[0], &[20]).unwrap();
        let ha = d.llx(&mut ctx, a).expect_linked("a");
        let hb = d.llx(&mut ctx, b).expect_linked("b");
        // Concurrent change to b (not the written field's record):
        let hb2 = d.llx(&mut ctx, b).expect_linked("b2");
        assert!(d.scx(&mut ctx, 1, [hb2], 0, b, 0, 21));
        // The two-record SCX linked b's old snapshot: must abort.
        assert!(!d.scx(&mut ctx, 0, [ha, hb], 0, a, 0, 11));
        assert_eq!(d.read_field(&mut ctx, a, 0), 10);
    }

    #[test]
    fn vlx_detects_interference_and_quiet() {
        let d = native_domain::<1>(2, 4);
        let mut ctx = Native;
        let r = d.alloc(&mut ctx, 0, &[0], &[1]).unwrap();
        let h = d.llx(&mut ctx, r).expect_linked("r");
        assert!(d.vlx(&mut ctx, &[&h]));
        let s = d.llx_snapshot(&mut ctx, r).unwrap();
        assert!(d.vlx_snapshots(&mut ctx, &[s]));
        let h2 = d.llx(&mut ctx, r).expect_linked("writer");
        assert!(d.scx(&mut ctx, 1, [h2], 0, r, 0, 2));
        assert!(!d.vlx(&mut ctx, &[&h]));
        assert!(!d.vlx_snapshots(&mut ctx, &[s]));
        d.unlink(&mut ctx, h);
    }

    #[test]
    fn arena_budget_is_enforced() {
        let d = native_domain::<1>(1, 2);
        let mut ctx = Native;
        assert!(d.alloc(&mut ctx, 0, &[0], &[0]).is_ok());
        assert!(d.alloc(&mut ctx, 0, &[0], &[0]).is_ok());
        assert_eq!(d.alloc(&mut ctx, 0, &[0], &[0]), Err(LlxError::Full));
        assert_eq!(d.remaining_capacity(), 0);
    }

    #[test]
    fn concurrent_allocation_hands_out_exactly_capacity() {
        // Not a multiple of CHUNK, and enough for every thread to claim
        // several chunks, so the last chunk is short and the tail runs
        // through the take-from-peer path.
        const THREADS: usize = 4;
        const CAPACITY: usize = 10 * CHUNK + 17;
        let d = native_domain::<1>(THREADS, CAPACITY);
        let mut got: Vec<usize> = std::thread::scope(|s| {
            (0..THREADS)
                .map(|p| {
                    let d = &d;
                    s.spawn(move || {
                        let mut ctx = Native;
                        let mut mine = Vec::new();
                        while let Ok(i) = d.alloc(&mut ctx, p, &[p as u64], &[0]) {
                            mine.push(i);
                        }
                        mine
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(got.len(), CAPACITY, "Full only after capacity records");
        got.sort_unstable();
        assert_eq!(got, (0..CAPACITY).collect::<Vec<_>>(), "distinct, in range");
        assert_eq!(d.remaining_capacity(), 0);
        let mut ctx = Native;
        assert_eq!(d.alloc(&mut ctx, 0, &[0], &[0]), Err(LlxError::Full));
    }

    #[test]
    fn an_empty_process_takes_from_a_peers_chunk() {
        let d = native_domain::<1>(2, CHUNK + 10);
        let mut ctx = Native;
        // p0 claims the first chunk and uses one record of it.
        assert_eq!(d.alloc(&mut ctx, 0, &[0], &[0]), Ok(0));
        assert_eq!(d.remaining_capacity(), CHUNK + 9);
        // p1 claims the short last chunk and drains it.
        for i in CHUNK..CHUNK + 10 {
            assert_eq!(d.alloc(&mut ctx, 1, &[1], &[0]), Ok(i));
        }
        assert_eq!(d.remaining_capacity(), CHUNK - 1);
        // With the shared cursor spent, p1 takes the rest of p0's chunk.
        for i in 1..CHUNK {
            assert_eq!(d.alloc(&mut ctx, 1, &[1], &[0]), Ok(i));
            assert_eq!(d.remaining_capacity(), CHUNK - 1 - i);
        }
        assert_eq!(d.alloc(&mut ctx, 1, &[1], &[0]), Err(LlxError::Full));
        assert_eq!(d.alloc(&mut ctx, 0, &[0], &[0]), Err(LlxError::Full));
    }

    #[test]
    fn consecutive_allocations_are_contiguous_within_a_chunk() {
        let d = native_domain::<1>(2, 4 * CHUNK);
        let mut ctx = Native;
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for _ in 0..CHUNK {
            a.push(d.alloc(&mut ctx, 0, &[0], &[0]).unwrap());
            b.push(d.alloc(&mut ctx, 1, &[1], &[0]).unwrap());
        }
        assert_eq!(a, (0..CHUNK).collect::<Vec<_>>());
        assert_eq!(b, (CHUNK..2 * CHUNK).collect::<Vec<_>>());
        // A spent chunk is replaced by the next unclaimed one.
        assert_eq!(d.alloc(&mut ctx, 1, &[1], &[0]), Ok(2 * CHUNK));
        assert_eq!(d.alloc(&mut ctx, 0, &[0], &[0]), Ok(3 * CHUNK));
        assert_eq!(d.alloc(&mut ctx, 1, &[1], &[0]), Ok(2 * CHUNK + 1));
        assert_eq!(d.remaining_capacity(), 2 * CHUNK - 3);
    }

    #[test]
    fn a_map_record_on_fig4_native_is_one_line() {
        // The ordered map's shape: two fields, two meta words.
        assert_eq!(std::mem::size_of::<Record<CasLlSc<Native>, 2, 2>>(), 64);
        assert_eq!(std::mem::align_of::<Record<CasLlSc<Native>, 2, 2>>(), 64);
    }

    #[test]
    fn concurrent_increments_conserve() {
        // 4 threads, each SCX-increments a shared counter field with both
        // records linked: total = successes, interference forces aborts
        // and helping rather than lost updates.
        const THREADS: usize = 4;
        const ROUNDS: usize = 2_000;
        let d = native_domain::<1>(THREADS, 4);
        let mut ctx = Native;
        let a = d.alloc(&mut ctx, 0, &[0], &[0]).unwrap();
        let b = d.alloc(&mut ctx, 0, &[0], &[0]).unwrap();
        let successes: u64 = std::thread::scope(|s| {
            (0..THREADS)
                .map(|p| {
                    let d = &d;
                    s.spawn(move || {
                        let mut ctx = Native;
                        let mut ok = 0u64;
                        for i in 0..ROUNDS {
                            let ha = d.llx(&mut ctx, a).expect_linked("a");
                            let hb = d.llx(&mut ctx, b).expect_linked("b");
                            // Alternate which field carries the counter so
                            // both positions of V get exercised.
                            let (t, ti) = if i % 2 == 0 { (a, 0) } else { (b, 0) };
                            let old = if t == a { ha.field(0) } else { hb.field(0) };
                            if d.scx(&mut ctx, p, [ha, hb], 0, t, ti, old + 1) {
                                ok += 1;
                            }
                        }
                        ok
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        let total = d.read_field(&mut ctx, a, 0) + d.read_field(&mut ctx, b, 0);
        assert_eq!(total, successes, "every committed SCX counted exactly once");
        assert!(successes > 0);
    }

    #[test]
    fn works_on_the_lock_baseline() {
        use nbsp_core::lock_baseline::LockLlSc;
        use nbsp_memsim::ProcId;
        let mut c0 = ProcId::new(0);
        let d = LlxDomain::<_, 1, 1>::new(2, 4, || LockLlSc::new(2, 0), &mut c0);
        let r = d.alloc(&mut c0, 0, &[1], &[5]).unwrap();
        let h = d.llx(&mut c0, r).expect_linked("r");
        assert!(d.scx(&mut c0, 0, [h], 0, r, 0, 6));
        assert_eq!(d.read_field(&mut c0, r, 0), 6);
    }
}
