//! A uniform interface over every LL/VL/SC implementation in this crate.
//!
//! The data structures in `nbsp-structures` and the benchmark harness need
//! to run the *same* algorithm over Figure 4, Figure 5, Figure 7 and the
//! lock baseline. [`LlScVar`] abstracts the variable; its associated `Ctx`
//! type carries whatever per-thread state the implementation requires
//! (nothing for native atomics, a simulated
//! [`Processor`](nbsp_memsim::Processor) or CAS accessor for the
//! simulated and emulated machines, the private slot/queue state for the
//! bounded construction, a bare [`ProcId`] for the lock baseline).
//!
//! The `Keep` is the caller-held word of the paper's interface change:
//! `Default` means "no sequence", `ll` begins a sequence (silently
//! aborting any previous one held by the same keep, releasing its
//! resources), and `sc` and `cl` finish it, leaving the keep at its
//! default. For Figure 4 and Figure 5 that is their own [`Keep`], whose
//! default holds no word. The keep-search ablations
//! ([`keep_search`](crate::keep_search)) keep one link per (process,
//! variable) instead, so they do not implement the trait (see
//! [`LlScVar`]).

use nbsp_memsim::{ProcId, Processor};

use crate::bounded::{BoundedKeep, BoundedProc, BoundedVar};
use crate::constant_llsc::{ConstantKeep, ConstantProc, ConstantVar};
use crate::lock_baseline::LockLlSc;
use crate::{CasFamily, CasLlSc, Keep, Native, RllLlSc};

/// A shared variable supporting LL/VL/SC, usable from many threads, with
/// per-thread context `Ctx` and per-sequence state `Keep`.
///
/// `vl`/`sc`/`cl` on a keep with no sequence in progress return `false` /
/// `false` / nothing — mirroring hardware, where SC without LL simply
/// fails. (The paper leaves this case undefined; total behaviour is easier
/// to compose generically.)
///
/// **Independent keeps.** Every keep is its own LL–SC sequence: an `ll`
/// on one keep leaves every other open keep on the same variable exactly
/// as it was. The paper's caller-held keeps (Figure 4 and everything
/// built like it) have this property. A construction that stores one
/// link per (process, variable) does not: a second `ll` by the same
/// process revalidates the first sequence, whose `sc` can then commit
/// against a stale read. Such constructions (the E3/E8 keep-search
/// ablations) do not implement this trait, so multi-word LLX/SCX, which
/// holds several keeps on one word at once, cannot be built over them.
///
/// ```
/// use nbsp_core::{CasLlSc, LlScVar, Native, TagLayout};
///
/// // Algorithms written against the trait run on every construction:
/// fn fetch_add<V: LlScVar>(var: &V, ctx: &mut V::Ctx<'_>, delta: u64) -> u64 {
///     let mut keep = V::Keep::default();
///     loop {
///         let v = var.ll(ctx, &mut keep);
///         if var.sc(ctx, &mut keep, v + delta) {
///             return v;
///         }
///     }
/// }
///
/// let var = CasLlSc::new_native(TagLayout::half(), 5)?;
/// assert_eq!(fetch_add(&var, &mut Native, 3), 5);
/// assert_eq!(LlScVar::read(&var, &mut Native), 8);
/// # Ok::<(), nbsp_core::Error>(())
/// ```
pub trait LlScVar: Send + Sync {
    /// Per-sequence private state; `Default` is "no sequence in progress".
    type Keep: Default + Send;

    /// Per-thread context (processor handle, private bounded-tag state, …).
    type Ctx<'a>
    where
        Self: 'a;

    /// Starts an LL–SC sequence, returning the value read. Any sequence
    /// previously tracked by `keep` is aborted first.
    fn ll(&self, ctx: &mut Self::Ctx<'_>, keep: &mut Self::Keep) -> u64;

    /// Validates the sequence: true iff an SC at this point could succeed.
    fn vl(&self, ctx: &mut Self::Ctx<'_>, keep: &Self::Keep) -> bool;

    /// Finishes the sequence with a store-conditional of `new`.
    fn sc(&self, ctx: &mut Self::Ctx<'_>, keep: &mut Self::Keep, new: u64) -> bool;

    /// Aborts the sequence without storing.
    fn cl(&self, ctx: &mut Self::Ctx<'_>, keep: &mut Self::Keep);

    /// Reads the current value (a sequence-free load).
    fn read(&self, ctx: &mut Self::Ctx<'_>) -> u64;

    /// Largest value this variable can store.
    fn max_val(&self) -> u64;
}

// ---------------------------------------------------------------------------
// Figure 4 over any CAS family.
// ---------------------------------------------------------------------------

/// One impl for every family: native CAS, the simulated CAS machine,
/// Figure 3's emulation, and the swap/fetch-and-add and NB-FEB CASes. The
/// context is the family's accessor ([`CasFamily::Mem`]).
impl<F: CasFamily> LlScVar for CasLlSc<F> {
    type Keep = Keep;
    type Ctx<'a>
        = F::Mem<'a>
    where
        Self: 'a;

    fn ll(&self, ctx: &mut F::Mem<'_>, keep: &mut Keep) -> u64 {
        CasLlSc::ll(self, ctx, keep)
    }

    fn vl(&self, ctx: &mut F::Mem<'_>, keep: &Keep) -> bool {
        CasLlSc::vl(self, ctx, keep)
    }

    fn sc(&self, ctx: &mut F::Mem<'_>, keep: &mut Keep, new: u64) -> bool {
        CasLlSc::sc(self, ctx, &std::mem::take(keep), new)
    }

    fn cl(&self, _ctx: &mut F::Mem<'_>, keep: &mut Keep) {
        *keep = Keep::default();
    }

    fn read(&self, ctx: &mut F::Mem<'_>) -> u64 {
        CasLlSc::read(self, ctx)
    }

    fn max_val(&self) -> u64 {
        self.layout().max_val()
    }
}

// ---------------------------------------------------------------------------
// Figure 5 (direct RLL/RSC).
// ---------------------------------------------------------------------------

impl LlScVar for RllLlSc {
    type Keep = Keep;
    type Ctx<'a> = &'a Processor;

    fn ll(&self, ctx: &mut &Processor, keep: &mut Keep) -> u64 {
        RllLlSc::ll(self, ctx, keep)
    }

    fn vl(&self, ctx: &mut &Processor, keep: &Keep) -> bool {
        RllLlSc::vl(self, ctx, keep)
    }

    fn sc(&self, ctx: &mut &Processor, keep: &mut Keep, new: u64) -> bool {
        RllLlSc::sc(self, ctx, &std::mem::take(keep), new)
    }

    fn cl(&self, _ctx: &mut &Processor, keep: &mut Keep) {
        *keep = Keep::default();
    }

    fn read(&self, ctx: &mut &Processor) -> u64 {
        RllLlSc::read(self, ctx)
    }

    fn max_val(&self) -> u64 {
        self.layout().max_val()
    }
}

// ---------------------------------------------------------------------------
// Figure 7 (bounded tags) over native CAS.
// ---------------------------------------------------------------------------

impl LlScVar for BoundedVar<Native> {
    type Keep = Option<BoundedKeep>;
    type Ctx<'a> = BoundedProc<Native>;

    fn ll(&self, ctx: &mut BoundedProc<Native>, keep: &mut Option<BoundedKeep>) -> u64 {
        if let Some(old) = keep.take() {
            ctx.cl(old); // abandoning a sequence must release its slot
        }
        let (v, k) = BoundedVar::ll(self, &Native, ctx);
        *keep = Some(k);
        v
    }

    fn vl(&self, ctx: &mut BoundedProc<Native>, keep: &Option<BoundedKeep>) -> bool {
        keep.as_ref()
            .is_some_and(|k| BoundedVar::vl(self, &Native, ctx, k))
    }

    fn sc(&self, ctx: &mut BoundedProc<Native>, keep: &mut Option<BoundedKeep>, new: u64) -> bool {
        keep.take()
            .is_some_and(|k| BoundedVar::sc(self, &Native, ctx, k, new))
    }

    fn cl(&self, ctx: &mut BoundedProc<Native>, keep: &mut Option<BoundedKeep>) {
        if let Some(k) = keep.take() {
            ctx.cl(k);
        }
    }

    fn read(&self, _ctx: &mut BoundedProc<Native>) -> u64 {
        BoundedVar::peek(self, &Native)
    }

    fn max_val(&self) -> u64 {
        self.domain().max_val()
    }
}

// ---------------------------------------------------------------------------
// Blelloch–Wei constant-time construction over native CAS.
// ---------------------------------------------------------------------------

impl LlScVar for ConstantVar<Native> {
    type Keep = Option<ConstantKeep>;
    type Ctx<'a> = ConstantProc<Native>;

    fn ll(&self, ctx: &mut ConstantProc<Native>, keep: &mut Option<ConstantKeep>) -> u64 {
        if let Some(old) = keep.take() {
            ctx.cl(&Native, old); // abandoning a sequence releases slot + pin
        }
        let (v, k) = ConstantVar::ll(self, &Native, ctx);
        *keep = Some(k);
        v
    }

    fn vl(&self, ctx: &mut ConstantProc<Native>, keep: &Option<ConstantKeep>) -> bool {
        keep.as_ref()
            .is_some_and(|k| ConstantVar::vl(self, &Native, ctx, k))
    }

    fn sc(&self, ctx: &mut ConstantProc<Native>, keep: &mut Option<ConstantKeep>, new: u64) -> bool {
        keep.take()
            .is_some_and(|k| ConstantVar::sc(self, &Native, ctx, k, new))
    }

    fn cl(&self, ctx: &mut ConstantProc<Native>, keep: &mut Option<ConstantKeep>) {
        if let Some(k) = keep.take() {
            ctx.cl(&Native, k);
        }
    }

    fn read(&self, ctx: &mut ConstantProc<Native>) -> u64 {
        ConstantVar::read(self, &Native, ctx)
    }

    fn max_val(&self) -> u64 {
        self.domain().max_val()
    }
}

// ---------------------------------------------------------------------------
// Figure 2 lock baseline.
// ---------------------------------------------------------------------------

/// Each keep is its own sequence ([`LockLlSc::ll_keep`]), not Figure 2's
/// per-process `valid` bit.
impl LlScVar for LockLlSc {
    type Keep = Option<u64>;
    type Ctx<'a> = ProcId;

    fn ll(&self, _ctx: &mut ProcId, keep: &mut Option<u64>) -> u64 {
        let (value, k) = self.ll_keep();
        *keep = Some(k);
        value
    }

    fn vl(&self, _ctx: &mut ProcId, keep: &Option<u64>) -> bool {
        keep.is_some_and(|k| self.vl_keep(k))
    }

    fn sc(&self, _ctx: &mut ProcId, keep: &mut Option<u64>, new: u64) -> bool {
        keep.take().is_some_and(|k| self.sc_keep(k, new))
    }

    fn cl(&self, _ctx: &mut ProcId, keep: &mut Option<u64>) {
        *keep = None;
    }

    fn read(&self, _ctx: &mut ProcId) -> u64 {
        LockLlSc::read(self)
    }

    fn max_val(&self) -> u64 {
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounded::BoundedDomain;
    use crate::TagLayout;

    /// The generic increment loop every implementation must support.
    fn increment_n_times<V: LlScVar>(var: &V, ctx: &mut V::Ctx<'_>, times: u64) {
        for _ in 0..times {
            let mut keep = V::Keep::default();
            loop {
                let v = var.ll(ctx, &mut keep);
                if var.sc(ctx, &mut keep, v + 1) {
                    break;
                }
            }
        }
    }

    #[test]
    fn generic_loop_on_cas_llsc() {
        let v = CasLlSc::new_native(TagLayout::half(), 0).unwrap();
        increment_n_times(&v, &mut Native, 100);
        assert_eq!(LlScVar::read(&v, &mut Native), 100);
    }

    #[test]
    fn generic_loop_on_bounded() {
        let d = BoundedDomain::<Native>::new(2, 2).unwrap();
        let v = d.var(0).unwrap();
        let mut me = d.proc(0);
        increment_n_times(&v, &mut me, 100);
        assert_eq!(LlScVar::read(&v, &mut me), 100);
        assert_eq!(me.free_slots(), 2, "all slots must be returned");
    }

    #[test]
    fn generic_loop_on_constant() {
        let d = crate::ConstantDomain::<Native>::new(2, 2, 4).unwrap();
        let v = d.var(&Native, 0).unwrap();
        let mut me = d.proc(0);
        increment_n_times(&v, &mut me, 100);
        assert_eq!(LlScVar::read(&v, &mut me), 100);
        assert_eq!(me.free_slots(), 2, "all slots must be returned");
    }

    #[test]
    fn restarting_ll_on_constant_releases_old_slot_and_pin() {
        let d = crate::ConstantDomain::<Native>::new(1, 1, 2).unwrap();
        let v = d.var(&Native, 0).unwrap();
        let mut me = d.proc(0);
        let mut keep = <ConstantVar<Native> as LlScVar>::Keep::default();
        // Two lls back-to-back on k = 1: the second must recycle the
        // first sequence's slot instead of panicking.
        let _ = LlScVar::ll(&v, &mut me, &mut keep);
        let _ = LlScVar::ll(&v, &mut me, &mut keep);
        assert!(LlScVar::sc(&v, &mut me, &mut keep, 1));
        assert_eq!(LlScVar::read(&v, &mut me), 1);
    }

    #[test]
    fn generic_loop_on_lock_baseline() {
        let v = LockLlSc::new(2, 0);
        let mut ctx = ProcId::new(1);
        increment_n_times(&v, &mut ctx, 100);
        assert_eq!(LlScVar::read(&v, &mut ctx), 100);
    }

    #[test]
    fn generic_loop_on_rll_llsc() {
        let m = nbsp_memsim::Machine::builder(1)
            .instruction_set(nbsp_memsim::InstructionSet::RllRscOnly)
            .build();
        let p = m.processor(0);
        let v = RllLlSc::new(TagLayout::half(), 0).unwrap();
        let mut ctx: &Processor = &p;
        increment_n_times(&v, &mut ctx, 100);
        assert_eq!(LlScVar::read(&v, &mut ctx), 100);
    }

    #[test]
    fn sc_without_ll_is_false_not_panic() {
        let v = CasLlSc::new_native(TagLayout::half(), 0).unwrap();
        let mut keep = <CasLlSc<Native> as LlScVar>::Keep::default();
        assert!(!LlScVar::sc(&v, &mut Native, &mut keep, 1));
        assert!(!LlScVar::vl(&v, &mut Native, &keep));
    }

    #[test]
    fn restarting_ll_on_bounded_releases_old_slot() {
        let d = BoundedDomain::<Native>::new(1, 1).unwrap();
        let v = d.var(0).unwrap();
        let mut me = d.proc(0);
        let mut keep = <BoundedVar<Native> as LlScVar>::Keep::default();
        // Two consecutive lls through the generic interface with k = 1:
        // without the auto-cl this would panic on slot exhaustion.
        let _ = LlScVar::ll(&v, &mut me, &mut keep);
        let _ = LlScVar::ll(&v, &mut me, &mut keep);
        assert!(LlScVar::sc(&v, &mut me, &mut keep, 7));
        assert_eq!(BoundedVar::peek(&v, &Native), 7);
    }

    #[test]
    fn trait_objects_are_not_needed_but_dyn_compatibility_holds_for_ctxless() {
        // Generic use across two implementations in one function:
        fn bump_twice<A: LlScVar, B: LlScVar>(
            a: &A,
            ca: &mut A::Ctx<'_>,
            b: &B,
            cb: &mut B::Ctx<'_>,
        ) {
            increment_n_times(a, ca, 2);
            increment_n_times(b, cb, 2);
        }
        let x = CasLlSc::new_native(TagLayout::half(), 0).unwrap();
        let y = LockLlSc::new(1, 0);
        let mut cy = ProcId::new(0);
        bump_twice(&x, &mut Native, &y, &mut cy);
        assert_eq!(LlScVar::read(&x, &mut Native), 2);
        assert_eq!(LlScVar::read(&y, &mut cy), 2);
    }
}
