//! The provider registry: every LL/VL/SC construction in one place.
//!
//! Before this module, each consumer (the contention sweep, E7, E9, the
//! serve crate, the integration tests) kept its own private list of
//! constructions — a `BenchVar` trait here, a `nat()` helper there — so
//! adding a provider meant editing five call sites. The registry inverts
//! that: [`ProviderId`] enumerates the constructions, [`ProviderMeta`]
//! carries their reporting metadata, the [`Provider`] trait packages
//! "how to build the environment / a variable / a per-thread context",
//! and the [`for_each_provider!`](crate::for_each_provider) / [`with_provider!`](crate::with_provider) macros let
//! monomorphized generic code run per provider — either statically (one
//! instantiation per entry) or dispatched from a runtime [`ProviderId`].
//!
//! This is the registry's *only* enumeration: consumers must not keep
//! their own `match`es over constructions (the PR's grep-proof criterion).
//!
//! ## Environments and thread contexts
//!
//! Constructions differ in what they need around a variable: native
//! atomics need nothing, the simulated machines need a [`Machine`] and a
//! per-thread `Processor`, Figure 7 and the constant-time construction
//! need a claimed per-process state from a shared domain. [`Provider`]
//! normalizes this to three steps:
//!
//! 1. [`Provider::env`]`(n)` — one shared environment sized for `n`
//!    per-thread contexts. Callers that also need a setup or reader
//!    context (structure construction does LL/SC work too) should request
//!    `env(threads + 1)` and use index `threads` for it.
//! 2. [`Provider::thread_ctx`]`(&env, p)` — the `Send` per-thread state
//!    for process `p < n`, claimed **once** per `(env, p)` for the
//!    domain-based providers (claiming twice panics, as in the paper:
//!    private variables are private).
//! 3. [`Provider::ctx`]`(&mut tc)` — the [`LlScVar::Ctx`] view used for
//!    operations. For the domain-based providers this *moves* the claimed
//!    state out of the thread context, so it may be called only once per
//!    `thread_ctx` result; call it once per session and reuse the result.

use std::borrow::Borrow;
use std::marker::PhantomData;
use std::sync::Arc;

use nbsp_memsim::{Capability, InstructionSet, Machine, ProcId, Processor};

use nbsp_memsim::{PWord, VWord};

use crate::bounded::{BoundedDomain, BoundedProc, BoundedVar, QueuePolicy};
use crate::constant_llsc::{ConstantDomain, ConstantProc, ConstantVar};
use crate::dynamic_llsc::{DynProc, DynamicDomain, DynamicVar};
use crate::lock_baseline::LockLlSc;
use crate::{
    CasFamily, CasLlSc, CasMemory, EmuCas, EmuFamily, Error, FebCas, FebFamily, Keep, KwCas,
    KwFamily, LlScVar, Native, Result, RllLlSc, SimCas, SimFamily, TagLayout, TagQueue,
};

/// Concurrent LL–SC sequences per process (`k`) used by the registry's
/// domain-based entries.
///
/// Sizing audit (the deepest nesting any registered consumer reaches):
///
/// | consumer                      | keeps held at once                  |
/// |-------------------------------|-------------------------------------|
/// | `Queue::dequeue`              | 3 (head, tail, a link)              |
/// | `Set` traversal               | 1 + a nested `read` (an LL/CL pair) |
/// | `OrdMap` delete via LLX/SCX   | 4 linked handles (gp, p, leaf, and  |
/// |                               | the sibling being copied)           |
/// | SCX announce / freeze / help  | +1 transient (strictly one at a     |
/// |                               | time: each LL is SC'd or CL'd       |
/// |                               | before the next one opens)          |
///
/// The LLX/SCX worst case is therefore 4 held handles + 1 transient = 5
/// concurrent sequences — one past the old `k = 4`, which the deepest
/// pre-LLX consumer (`Queue::dequeue`) already met with *zero* margin.
/// The registry provisions exactly the deepest audited nesting; a future
/// consumer adding a nesting level fails loudly in review (and in the
/// keep-exhaustion conformance test) rather than silently at the
/// boundary. Exhausting all `k` slots anyway is a documented panic (slot
/// exhaustion in the Figure-7/constant domains), asserted by that test —
/// never UB.
pub const PROVIDER_K: usize = 5;

/// Variable budget for the registry's constant-time domain (its node pool
/// seeds one node per variable up front).
pub const PROVIDER_MAX_VARS: usize = 256;

/// Tag bits of the registry's Figure-3 emulated-CAS entry.
pub const PROVIDER_EMU_TAG_BITS: u32 = 16;

/// LL/SC tag bits of the registry's weak-primitive entries (CAS-from-swap
/// and NB-FEB). Their emulated CAS words carry 48 value bits (16 go to
/// the round counter), split 16 tag + 32 value exactly like the
/// Figure-3 entry — wide enough for every structure layered above and
/// for the differential fuzzer's tag churn not to wrap inside a window.
pub const PROVIDER_WEAK_TAG_BITS: u32 = 16;

#[inline]
fn native_base(initial: u64) -> Result<CasLlSc<Native>> {
    CasLlSc::new_native(TagLayout::half(), initial)
}

// ---------------------------------------------------------------------------
// Identity + metadata.
// ---------------------------------------------------------------------------

/// Runtime identity of a registered construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProviderId {
    /// Figure 4 over native CAS, acquire/release orderings, unpadded.
    Fig4Native,
    /// Figure 4 over a simulated CAS-only machine.
    Fig4Sim,
    /// Figure 4 over Figure 3's CAS-from-RLL/RSC emulation.
    Fig4Emu,
    /// Figure 5: LL/SC directly from RLL/RSC on a simulated machine.
    Fig5Rll,
    /// Figure 7: bounded tags, indexed (constant-time) tag queue.
    Fig7Bounded,
    /// The Blelloch–Wei constant-time, bounded-space construction.
    ConstantTime,
    /// Figure 2: the lock-based reference semantics.
    LockBaseline,
    /// Writable LL/SC with dynamic joining (arXiv:2302.00135), volatile.
    Dynamic,
    /// The dynamic-joining construction over the persistent-memory model
    /// (durably linearizable, crash–recovery tested).
    DynamicDurable,
    /// Figure 4 over CAS emulated from swap + fetch-and-add
    /// (arXiv:1802.03844) — the consensus-hierarchy ablation's first rung.
    CasFromSwap,
    /// Figure 4 over CAS emulated from NB-FEB test-flag-and-set
    /// (arXiv:0811.1304) — the consensus-hierarchy ablation's second rung.
    FebLlSc,
}

impl ProviderId {
    /// Every registered construction, in registry order.
    pub const ALL: [ProviderId; 11] = [
        ProviderId::Fig4Native,
        ProviderId::Fig4Sim,
        ProviderId::Fig4Emu,
        ProviderId::Fig5Rll,
        ProviderId::Fig7Bounded,
        ProviderId::ConstantTime,
        ProviderId::LockBaseline,
        ProviderId::Dynamic,
        ProviderId::DynamicDurable,
        ProviderId::CasFromSwap,
        ProviderId::FebLlSc,
    ];

    /// The stable CLI/JSON name (`--provider` flags, BENCH output).
    #[must_use]
    pub fn name(self) -> &'static str {
        self.meta().name
    }

    /// Parses a CLI/JSON name back to an id — the single `--provider`
    /// parser every experiment binary routes through.
    ///
    /// # Errors
    ///
    /// Returns a message listing all valid names on no match.
    pub fn parse(s: &str) -> std::result::Result<ProviderId, String> {
        ProviderId::ALL
            .iter()
            .copied()
            .find(|id| id.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = ProviderId::ALL.iter().map(|id| id.name()).collect();
                format!("unknown provider {s:?}; valid: {}", names.join(", "))
            })
    }

    /// Reporting metadata for this construction.
    #[must_use]
    pub fn meta(self) -> ProviderMeta {
        match self {
            ProviderId::Fig4Native => ProviderMeta {
                id: self,
                name: "fig4-native",
                capability: Capability::CAS,
                tier: Tier::FixedN,
            },
            ProviderId::Fig4Sim => ProviderMeta {
                id: self,
                name: "fig4-sim",
                capability: Capability::CAS,
                tier: Tier::FixedN,
            },
            ProviderId::Fig4Emu => ProviderMeta {
                id: self,
                name: "fig4-emu",
                capability: Capability::RLL_RSC,
                tier: Tier::FixedN,
            },
            ProviderId::Fig5Rll => ProviderMeta {
                id: self,
                name: "fig5-rll",
                capability: Capability::RLL_RSC,
                tier: Tier::FixedN,
            },
            ProviderId::Fig7Bounded => ProviderMeta {
                id: self,
                name: "fig7-bounded",
                capability: Capability::CAS,
                tier: Tier::FixedN,
            },
            ProviderId::ConstantTime => ProviderMeta {
                id: self,
                name: "constant",
                capability: Capability::CAS,
                tier: Tier::FixedN,
            },
            ProviderId::LockBaseline => ProviderMeta {
                id: self,
                name: "lock",
                capability: Capability::CAS,
                tier: Tier::FixedN,
            },
            ProviderId::Dynamic => ProviderMeta {
                id: self,
                name: "dynamic",
                capability: Capability::CAS,
                tier: Tier::Dynamic,
            },
            ProviderId::DynamicDurable => ProviderMeta {
                id: self,
                name: "dynamic-durable",
                capability: Capability::CAS,
                tier: Tier::Dynamic,
            },
            ProviderId::CasFromSwap => ProviderMeta {
                id: self,
                name: "cas-from-swap",
                capability: Capability::SWAP | Capability::FETCH_ADD,
                tier: Tier::WeakPrimitive,
            },
            ProviderId::FebLlSc => ProviderMeta {
                id: self,
                name: "feb-llsc",
                capability: Capability::FEB,
                tier: Tier::WeakPrimitive,
            },
        }
    }
}

impl std::fmt::Display for ProviderId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Process-model tier of a construction — how its process set is sized
/// and what primitive strength it assumes. Queryable so sweeps can slice
/// the registry (`--provider tier:dynamic`) without naming providers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tier {
    /// The process set is sealed at `env(n)` time (the paper's model).
    FixedN,
    /// Processes join and retire at runtime (arXiv:2302.00135).
    Dynamic,
    /// Built on primitives strictly weaker than CAS (the
    /// consensus-hierarchy ablation: swap/fetch-and-add, NB-FEB).
    WeakPrimitive,
}

impl Tier {
    /// Every tier, in registry order.
    pub const ALL: [Tier; 3] = [Tier::FixedN, Tier::Dynamic, Tier::WeakPrimitive];

    /// The stable CLI name used by `--provider tier:` filters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Tier::FixedN => "fixed-n",
            Tier::Dynamic => "dynamic",
            Tier::WeakPrimitive => "weak-primitive",
        }
    }

    /// Parses a CLI tier name (the `tier:` filter payload).
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid names on an unknown tier.
    pub fn parse(s: &str) -> std::result::Result<Tier, String> {
        Tier::ALL
            .iter()
            .copied()
            .find(|t| t.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Tier::ALL.iter().map(|t| t.name()).collect();
                format!("unknown tier {s:?}; valid: {}", names.join(", "))
            })
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Reporting metadata of a registered construction: everything a sweep or
/// report needs without hardcoding per-provider knowledge.
#[derive(Clone, Copy, Debug)]
pub struct ProviderMeta {
    /// The construction's identity.
    pub id: ProviderId,
    /// Stable CLI/JSON name.
    pub name: &'static str,
    /// The instruction-set capabilities the construction requires of its
    /// memory (what a [`Machine`] must grant for `env` to make sense).
    /// Native entries require `CAS` — hardware grants the rest for free,
    /// but CAS is what their hot path issues.
    pub capability: Capability,
    /// Which process-model/primitive tier the construction belongs to.
    pub tier: Tier,
}

// ---------------------------------------------------------------------------
// The factory trait.
// ---------------------------------------------------------------------------

/// A registered construction: how to build its environment, variables and
/// per-thread contexts. See the module docs for the three-step protocol.
pub trait Provider: 'static {
    /// This provider's registry identity.
    const ID: ProviderId;

    /// The variable type (its `LlScVar` impl is what consumers run).
    type Var: LlScVar + 'static;

    /// Shared environment: sizing info, a simulated machine, or a domain.
    type Env: Send + Sync + 'static;

    /// Per-thread state from which an operation context is made.
    type ThreadCtx: Send;

    /// Builds an environment sized for `n` thread contexts.
    ///
    /// # Errors
    ///
    /// Propagates the construction's domain/layout errors (e.g. a Figure-7
    /// layout with no value bits left).
    fn env(n: usize) -> Result<Self::Env>;

    /// Creates a variable holding `initial`.
    ///
    /// # Errors
    ///
    /// Propagates the construction's value/budget errors.
    fn var(env: &Self::Env, initial: u64) -> Result<Self::Var>;

    /// Claims the per-thread state for process `p`.
    ///
    /// # Errors
    ///
    /// [`Error::PoolExhausted`] when `p` is at or past the environment's
    /// process capacity (every provider knows its `n`), or — for the
    /// dynamic providers — names a slot that is not currently admitted.
    fn try_thread_ctx(env: &Self::Env, p: usize) -> Result<Self::ThreadCtx>;

    /// Claims the per-thread state for process `p < n`, panicking where
    /// [`Provider::try_thread_ctx`] would error.
    ///
    /// # Panics
    ///
    /// If `p` is rejected; for domain-based providers, also if `(env, p)`
    /// is claimed twice.
    fn thread_ctx(env: &Self::Env, p: usize) -> Self::ThreadCtx {
        match Self::try_thread_ctx(env, p) {
            Ok(tc) => tc,
            Err(e) => panic!("thread_ctx({p}): {e}"),
        }
    }

    /// Admits a late-arriving process, returning a fresh id usable with
    /// [`Provider::try_thread_ctx`]. The default is the fixed-N answer:
    /// the process set was sealed at [`Provider::env`] time, so there are
    /// no dynamically joinable slots.
    ///
    /// # Errors
    ///
    /// [`Error::PoolExhausted`] when no slot is free — always, for
    /// fixed-N providers (reported capacity 0: the *joinable* pool is
    /// empty, whatever `n` was).
    fn join(env: &Self::Env) -> Result<usize> {
        let _ = env;
        Err(Error::PoolExhausted { capacity: 0 })
    }

    /// Retires a process id, returning its slot (and per-process
    /// resources) to the pool for future joiners. A no-op for fixed-N
    /// providers: their slots were never joinable, so there is nothing to
    /// return.
    fn retire(env: &Self::Env, p: usize) {
        let _ = (env, p);
    }

    /// Makes the operation context. For domain-based providers this moves
    /// the claimed state out of `tc` — call once per [`Provider::thread_ctx`]
    /// result (a second call panics) and reuse the returned context.
    fn ctx<'a>(tc: &'a mut Self::ThreadCtx) -> <Self::Var as LlScVar>::Ctx<'a>;
}

fn check_pid(n: usize, p: usize) -> Result<()> {
    if p < n {
        Ok(())
    } else {
        Err(Error::PoolExhausted { capacity: n })
    }
}

fn machine(n: usize, set: InstructionSet) -> Machine {
    Machine::builder(n).instruction_set(set).build()
}

/// Figure 4 over native CAS (acquire/release, unpadded): the default
/// provider real structures use.
#[derive(Debug)]
pub struct Fig4Native;

impl Provider for Fig4Native {
    const ID: ProviderId = ProviderId::Fig4Native;
    type Var = CasLlSc<Native>;
    type Env = usize;
    type ThreadCtx = Native;

    fn env(n: usize) -> Result<usize> {
        Ok(n)
    }

    #[inline]
    fn var(_env: &usize, initial: u64) -> Result<CasLlSc<Native>> {
        native_base(initial)
    }

    fn try_thread_ctx(env: &usize, p: usize) -> Result<Native> {
        check_pid(*env, p)?;
        Ok(Native)
    }

    fn ctx(tc: &mut Native) -> Native {
        *tc
    }
}

/// Figure 4 over native CAS at one corner of the ordering × layout
/// ablation (`exp_contention`'s E7b sweep). `O` is the memory the hot path
/// runs through: [`Native`] (acquire/release) or [`NativeSeqCst`](crate::NativeSeqCst) (every
/// operation `SeqCst`). `L` is the variable's layout: `CasLlSc<Native>`
/// (packed) or `CachePadded<CasLlSc<Native>>` (one line each).
///
/// Not a registry entry: padding and ordering are settings of the one
/// Figure-4 construction, so its identity is [`ProviderId::Fig4Native`],
/// and the registry's own acquire/release, packed corner is [`Fig4Native`].
#[derive(Debug)]
pub struct Fig4NativeAblation<O, L>(PhantomData<fn() -> (O, L)>);

/// A [`Fig4NativeAblation`] variable: a Figure-4 word laid out as `L`,
/// operated through the memory `O`.
#[derive(Debug)]
pub struct AblationVar<O, L> {
    var: L,
    _ordering: PhantomData<fn() -> O>,
}

impl<O, L> LlScVar for AblationVar<O, L>
where
    O: CasMemory<Family = Native> + Send + Sync + 'static,
    L: Borrow<CasLlSc<Native>> + Send + Sync,
{
    type Keep = Keep;
    type Ctx<'a>
        = O
    where
        Self: 'a;

    fn ll(&self, ctx: &mut O, keep: &mut Keep) -> u64 {
        self.var.borrow().ll(ctx, keep)
    }

    fn vl(&self, ctx: &mut O, keep: &Keep) -> bool {
        self.var.borrow().vl(ctx, keep)
    }

    fn sc(&self, ctx: &mut O, keep: &mut Keep, new: u64) -> bool {
        self.var.borrow().sc(ctx, &std::mem::take(keep), new)
    }

    fn cl(&self, _ctx: &mut O, keep: &mut Keep) {
        *keep = Keep::default();
    }

    fn read(&self, ctx: &mut O) -> u64 {
        self.var.borrow().read(ctx)
    }

    fn max_val(&self) -> u64 {
        self.var.borrow().layout().max_val()
    }
}

impl<O, L> Provider for Fig4NativeAblation<O, L>
where
    O: CasMemory<Family = Native> + Copy + Default + Send + Sync + 'static,
    L: Borrow<CasLlSc<Native>> + From<CasLlSc<Native>> + Send + Sync + 'static,
{
    const ID: ProviderId = ProviderId::Fig4Native;
    type Var = AblationVar<O, L>;
    type Env = usize;
    type ThreadCtx = O;

    fn env(n: usize) -> Result<usize> {
        Ok(n)
    }

    fn var(_env: &usize, initial: u64) -> Result<AblationVar<O, L>> {
        Ok(AblationVar {
            var: L::from(native_base(initial)?),
            _ordering: PhantomData,
        })
    }

    fn try_thread_ctx(env: &usize, p: usize) -> Result<O> {
        check_pid(*env, p)?;
        Ok(O::default())
    }

    fn ctx(tc: &mut O) -> O {
        *tc
    }
}

/// Figure 4 over a simulated CAS-only machine.
#[derive(Debug)]
pub struct Fig4Sim;

impl Provider for Fig4Sim {
    const ID: ProviderId = ProviderId::Fig4Sim;
    type Var = CasLlSc<SimFamily>;
    type Env = Machine;
    type ThreadCtx = Processor;

    fn env(n: usize) -> Result<Machine> {
        Ok(machine(n, InstructionSet::CasOnly))
    }

    fn var(_env: &Machine, initial: u64) -> Result<CasLlSc<SimFamily>> {
        CasLlSc::new(TagLayout::half(), initial)
    }

    fn try_thread_ctx(env: &Machine, p: usize) -> Result<Processor> {
        check_pid(env.n(), p)?;
        Ok(env.processor(p))
    }

    fn ctx<'a>(tc: &'a mut Processor) -> SimCas<'a> {
        SimCas::new(&*tc)
    }
}

/// Figure 4 over Figure 3's CAS-from-RLL/RSC emulation.
#[derive(Debug)]
pub struct Fig4Emu;

impl Provider for Fig4Emu {
    const ID: ProviderId = ProviderId::Fig4Emu;
    type Var = CasLlSc<EmuFamily<PROVIDER_EMU_TAG_BITS>>;
    type Env = Machine;
    type ThreadCtx = Processor;

    fn env(n: usize) -> Result<Machine> {
        Ok(machine(n, InstructionSet::RllRscOnly))
    }

    #[inline]
    fn var(_env: &Machine, initial: u64) -> Result<Self::Var> {
        // 16 LL/SC tag bits + 32 value bits inside the emulation's 48
        // value bits (64 minus its own 16 emulation-tag bits).
        CasLlSc::new(
            TagLayout::for_width(
                PROVIDER_EMU_TAG_BITS,
                32,
                EmuFamily::<PROVIDER_EMU_TAG_BITS>::VALUE_BITS,
            )?,
            initial,
        )
    }

    fn try_thread_ctx(env: &Machine, p: usize) -> Result<Processor> {
        check_pid(env.n(), p)?;
        Ok(env.processor(p))
    }

    fn ctx<'a>(tc: &'a mut Processor) -> EmuCas<'a, PROVIDER_EMU_TAG_BITS> {
        EmuCas::new(&*tc)
    }
}

/// Figure 5: LL/SC directly from RLL/RSC on a simulated machine.
#[derive(Debug)]
pub struct Fig5Rll;

impl Provider for Fig5Rll {
    const ID: ProviderId = ProviderId::Fig5Rll;
    type Var = RllLlSc;
    type Env = Machine;
    type ThreadCtx = Processor;

    fn env(n: usize) -> Result<Machine> {
        Ok(machine(n, InstructionSet::RllRscOnly))
    }

    #[inline]
    fn var(_env: &Machine, initial: u64) -> Result<RllLlSc> {
        RllLlSc::new(TagLayout::half(), initial)
    }

    fn try_thread_ctx(env: &Machine, p: usize) -> Result<Processor> {
        check_pid(env.n(), p)?;
        Ok(env.processor(p))
    }

    fn ctx(tc: &mut Processor) -> &Processor {
        &*tc
    }
}

/// Figure 7: bounded tags. `Q` is the tag queue each process keeps
/// (Figure 7's `Q`): the indexed, constant-time [`TagQueue`] by default,
/// or the paper-literal O(Nk) [`ScanQueue`](crate::ScanQueue) for E9's ablation, which keeps
/// this entry's identity.
#[derive(Debug)]
pub struct Fig7Bounded<Q = TagQueue>(PhantomData<fn() -> Q>);

impl<Q: QueuePolicy> Provider for Fig7Bounded<Q> {
    const ID: ProviderId = ProviderId::Fig7Bounded;
    type Var = BoundedVar<Native>;
    type Env = Arc<BoundedDomain<Native>>;
    type ThreadCtx = Option<BoundedProc<Native>>;

    fn env(n: usize) -> Result<Arc<BoundedDomain<Native>>> {
        BoundedDomain::new_with_policy(n, PROVIDER_K, Q::POLICY)
    }

    fn var(env: &Arc<BoundedDomain<Native>>, initial: u64) -> Result<BoundedVar<Native>> {
        env.var(initial)
    }

    fn try_thread_ctx(
        env: &Arc<BoundedDomain<Native>>,
        p: usize,
    ) -> Result<Option<BoundedProc<Native>>> {
        check_pid(env.n(), p)?;
        Ok(Some(env.proc(p)))
    }

    fn ctx(tc: &mut Option<BoundedProc<Native>>) -> BoundedProc<Native> {
        tc.take().expect("ctx() already taken from this thread_ctx")
    }
}

/// The Blelloch–Wei constant-time, bounded-space construction.
#[derive(Debug)]
pub struct ConstantTime;

impl Provider for ConstantTime {
    const ID: ProviderId = ProviderId::ConstantTime;
    type Var = ConstantVar<Native>;
    type Env = Arc<ConstantDomain<Native>>;
    type ThreadCtx = Option<ConstantProc<Native>>;

    fn env(n: usize) -> Result<Arc<ConstantDomain<Native>>> {
        ConstantDomain::new(n, PROVIDER_K, PROVIDER_MAX_VARS)
    }

    #[inline]
    fn var(env: &Arc<ConstantDomain<Native>>, initial: u64) -> Result<ConstantVar<Native>> {
        env.var(&Native, initial)
    }

    fn try_thread_ctx(
        env: &Arc<ConstantDomain<Native>>,
        p: usize,
    ) -> Result<Option<ConstantProc<Native>>> {
        check_pid(env.n(), p)?;
        Ok(Some(env.proc(p)))
    }

    fn ctx(tc: &mut Option<ConstantProc<Native>>) -> ConstantProc<Native> {
        tc.take().expect("ctx() already taken from this thread_ctx")
    }
}

/// Figure 2: the lock-based reference semantics.
#[derive(Debug)]
pub struct LockBaseline;

impl Provider for LockBaseline {
    const ID: ProviderId = ProviderId::LockBaseline;
    type Var = LockLlSc;
    type Env = usize;
    type ThreadCtx = ProcId;

    fn env(n: usize) -> Result<usize> {
        Ok(n)
    }

    fn var(env: &usize, initial: u64) -> Result<LockLlSc> {
        Ok(LockLlSc::new(*env, initial))
    }

    fn try_thread_ctx(env: &usize, p: usize) -> Result<ProcId> {
        check_pid(*env, p)?;
        Ok(ProcId::new(p))
    }

    fn ctx(tc: &mut ProcId) -> ProcId {
        *tc
    }
}

/// Writable LL/SC with dynamic joining (arXiv:2302.00135), volatile
/// words: the provider whose process set grows and shrinks at runtime.
#[derive(Debug)]
pub struct Dynamic;

impl Provider for Dynamic {
    const ID: ProviderId = ProviderId::Dynamic;
    type Var = DynamicVar<VWord>;
    type Env = Arc<DynamicDomain>;
    type ThreadCtx = DynProc;

    fn env(n: usize) -> Result<Arc<DynamicDomain>> {
        DynamicDomain::with_preadmitted(n)
    }

    #[inline]
    fn var(env: &Arc<DynamicDomain>, initial: u64) -> Result<DynamicVar<VWord>> {
        DynamicVar::new(env.capacity(), initial)
    }

    fn try_thread_ctx(env: &Arc<DynamicDomain>, p: usize) -> Result<DynProc> {
        env.claim(p)
    }

    fn join(env: &Arc<DynamicDomain>) -> Result<usize> {
        env.join()
    }

    fn retire(env: &Arc<DynamicDomain>, p: usize) {
        env.retire(p);
    }

    fn ctx(tc: &mut DynProc) -> DynProc {
        *tc
    }
}

/// The dynamic-joining construction over the persistent-memory model:
/// durably linearizable, gated by kill-at-schedule-point crash–recovery.
#[derive(Debug)]
pub struct DynamicDurable;

impl Provider for DynamicDurable {
    const ID: ProviderId = ProviderId::DynamicDurable;
    type Var = DynamicVar<PWord>;
    type Env = Arc<DynamicDomain>;
    type ThreadCtx = DynProc;

    fn env(n: usize) -> Result<Arc<DynamicDomain>> {
        DynamicDomain::with_preadmitted(n)
    }

    fn var(env: &Arc<DynamicDomain>, initial: u64) -> Result<DynamicVar<PWord>> {
        DynamicVar::new(env.capacity(), initial)
    }

    fn try_thread_ctx(env: &Arc<DynamicDomain>, p: usize) -> Result<DynProc> {
        env.claim(p)
    }

    fn join(env: &Arc<DynamicDomain>) -> Result<usize> {
        env.join()
    }

    fn retire(env: &Arc<DynamicDomain>, p: usize) {
        env.retire(p);
    }

    fn ctx(tc: &mut DynProc) -> DynProc {
        *tc
    }
}

/// Figure 4 over CAS emulated from swap + fetch-and-add
/// (arXiv:1802.03844): the consensus-hierarchy ablation's Φ/swap rung.
/// Runs on a machine that grants *only* swap and fetch-and-add.
#[derive(Debug)]
pub struct CasFromSwap;

impl Provider for CasFromSwap {
    const ID: ProviderId = ProviderId::CasFromSwap;
    type Var = CasLlSc<KwFamily>;
    type Env = Machine;
    type ThreadCtx = Processor;

    fn env(n: usize) -> Result<Machine> {
        Ok(machine(n, InstructionSet::SwapFaaOnly))
    }

    fn var(_env: &Machine, initial: u64) -> Result<Self::Var> {
        // 16 LL/SC tag bits + 32 value bits inside the emulation's 48
        // value bits (the Khanchandani–Wattenhofer word spends its top 16
        // on the round counter).
        CasLlSc::new(
            TagLayout::for_width(PROVIDER_WEAK_TAG_BITS, 32, KwFamily::VALUE_BITS)?,
            initial,
        )
    }

    fn try_thread_ctx(env: &Machine, p: usize) -> Result<Processor> {
        check_pid(env.n(), p)?;
        Ok(env.processor(p))
    }

    fn ctx<'a>(tc: &'a mut Processor) -> KwCas<'a> {
        KwCas::new(&*tc)
    }
}

/// Figure 4 over CAS emulated from NB-FEB test-flag-and-set
/// (arXiv:0811.1304): the consensus-hierarchy ablation's FEB rung.
/// Runs on a machine that grants *only* the NB-FEB operations.
#[derive(Debug)]
pub struct FebLlSc;

impl Provider for FebLlSc {
    const ID: ProviderId = ProviderId::FebLlSc;
    type Var = CasLlSc<FebFamily>;
    type Env = Machine;
    type ThreadCtx = Processor;

    fn env(n: usize) -> Result<Machine> {
        Ok(machine(n, InstructionSet::FebOnly))
    }

    fn var(_env: &Machine, initial: u64) -> Result<Self::Var> {
        // Same 16 tag + 32 value split as `CasFromSwap` — the FEB word
        // also keeps its top 16 bits for the round counter.
        CasLlSc::new(
            TagLayout::for_width(PROVIDER_WEAK_TAG_BITS, 32, FebFamily::VALUE_BITS)?,
            initial,
        )
    }

    fn try_thread_ctx(env: &Machine, p: usize) -> Result<Processor> {
        check_pid(env.n(), p)?;
        Ok(env.processor(p))
    }

    fn ctx<'a>(tc: &'a mut Processor) -> FebCas<'a> {
        FebCas::new(&*tc)
    }
}

// ---------------------------------------------------------------------------
// Dispatch macros.
// ---------------------------------------------------------------------------

/// Invokes `$body!(snake_name, ProviderType)` once per registry entry —
/// the static fan-out (e.g. the conformance suite generates one test
/// module per provider).
///
/// ```
/// macro_rules! count {
///     ($name:ident, $p:ty) => {
///         let _: nbsp_core::ProviderId = <$p as nbsp_core::Provider>::ID;
///     };
/// }
/// nbsp_core::for_each_provider!(count);
/// ```
#[macro_export]
macro_rules! for_each_provider {
    ($body:ident) => {
        $body!(fig4_native, $crate::provider::Fig4Native);
        $body!(fig4_sim, $crate::provider::Fig4Sim);
        $body!(fig4_emu, $crate::provider::Fig4Emu);
        $body!(fig5_rll, $crate::provider::Fig5Rll);
        $body!(fig7_bounded, $crate::provider::Fig7Bounded);
        $body!(constant_time, $crate::provider::ConstantTime);
        $body!(lock_baseline, $crate::provider::LockBaseline);
        $body!(dynamic, $crate::provider::Dynamic);
        $body!(dynamic_durable, $crate::provider::DynamicDurable);
        $body!(cas_from_swap, $crate::provider::CasFromSwap);
        $body!(feb_llsc, $crate::provider::FebLlSc);
    };
}

/// Dispatches a runtime [`ProviderId`] to monomorphized code:
/// `with_provider!(id, body)` expands to a match whose every arm invokes
/// `body!(ProviderType)` with the arm's concrete provider. The macro is
/// the registry's only id → type match; the whole expression takes the
/// value of the invoked arm.
///
/// Note every arm is monomorphized: `body` must *compile* for all
/// registered providers even if only some ids are ever passed.
///
/// ```
/// macro_rules! name_of {
///     ($p:ty) => {
///         <$p as nbsp_core::Provider>::ID.name()
///     };
/// }
/// let id = nbsp_core::ProviderId::ConstantTime;
/// assert_eq!(nbsp_core::with_provider!(id, name_of), "constant");
/// ```
#[macro_export]
macro_rules! with_provider {
    ($id:expr, $body:ident) => {
        match $id {
            $crate::ProviderId::Fig4Native => $body!($crate::provider::Fig4Native),
            $crate::ProviderId::Fig4Sim => $body!($crate::provider::Fig4Sim),
            $crate::ProviderId::Fig4Emu => $body!($crate::provider::Fig4Emu),
            $crate::ProviderId::Fig5Rll => $body!($crate::provider::Fig5Rll),
            $crate::ProviderId::Fig7Bounded => $body!($crate::provider::Fig7Bounded),
            $crate::ProviderId::ConstantTime => $body!($crate::provider::ConstantTime),
            $crate::ProviderId::LockBaseline => $body!($crate::provider::LockBaseline),
            $crate::ProviderId::Dynamic => $body!($crate::provider::Dynamic),
            $crate::ProviderId::DynamicDurable => $body!($crate::provider::DynamicDurable),
            $crate::ProviderId::CasFromSwap => $body!($crate::provider::CasFromSwap),
            $crate::ProviderId::FebLlSc => $body!($crate::provider::FebLlSc),
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip_through_parse() {
        for id in ProviderId::ALL {
            assert_eq!(ProviderId::parse(id.name()), Ok(id));
            assert_eq!(id.meta().id, id);
            assert_eq!(id.to_string(), id.name());
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = ProviderId::ALL.iter().map(|id| id.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ProviderId::ALL.len());
    }

    #[test]
    fn parse_error_lists_valid_names() {
        let err = ProviderId::parse("nope").unwrap_err();
        assert!(err.contains("fig4-native"));
        assert!(err.contains("constant"));
        assert!(err.contains("feb-llsc"));
    }

    #[test]
    fn tiers_partition_the_registry() {
        let dynamic: Vec<ProviderId> = ProviderId::ALL
            .iter()
            .copied()
            .filter(|id| id.meta().tier == Tier::Dynamic)
            .collect();
        assert_eq!(dynamic, [ProviderId::Dynamic, ProviderId::DynamicDurable]);
        let weak: Vec<ProviderId> = ProviderId::ALL
            .iter()
            .copied()
            .filter(|id| id.meta().tier == Tier::WeakPrimitive)
            .collect();
        assert_eq!(weak, [ProviderId::CasFromSwap, ProviderId::FebLlSc]);
        let fixed = ProviderId::ALL
            .iter()
            .filter(|id| id.meta().tier == Tier::FixedN)
            .count();
        assert_eq!(fixed, ProviderId::ALL.len() - 4);
        assert_eq!(Tier::WeakPrimitive.to_string(), "weak-primitive");
    }

    #[test]
    fn weak_providers_require_exactly_their_machines_capability() {
        assert_eq!(
            ProviderId::CasFromSwap.meta().capability,
            InstructionSet::SwapFaaOnly.capability()
        );
        assert_eq!(
            ProviderId::FebLlSc.meta().capability,
            InstructionSet::FebOnly.capability()
        );
        // Every CAS-tier entry's requirement is granted by a CAS machine.
        for id in ProviderId::ALL {
            let cap = id.meta().capability;
            if cap.contains(Capability::CAS) {
                assert!(InstructionSet::CasOnly.capability().contains(cap), "{id}");
            }
        }
    }

    #[test]
    fn with_provider_dispatches_to_the_matching_type() {
        macro_rules! id_of {
            ($p:ty) => {
                <$p as Provider>::ID
            };
        }
        for id in ProviderId::ALL {
            assert_eq!(with_provider!(id, id_of), id);
        }
    }

    #[test]
    fn for_each_provider_covers_the_whole_registry() {
        let mut seen = Vec::new();
        macro_rules! collect {
            ($name:ident, $p:ty) => {
                seen.push(<$p as Provider>::ID);
            };
        }
        for_each_provider!(collect);
        assert_eq!(seen, ProviderId::ALL.to_vec());
    }

    /// The three-step protocol works generically for every entry: build,
    /// increment a few times single-threaded, read back.
    fn smoke<P: Provider>() {
        let env = P::env(2).expect("env");
        let var = P::var(&env, 0).expect("var");
        let mut tc = P::thread_ctx(&env, 0);
        let mut ctx = P::ctx(&mut tc);
        for _ in 0..10 {
            let mut keep = <P::Var as LlScVar>::Keep::default();
            loop {
                let v = var.ll(&mut ctx, &mut keep);
                if var.sc(&mut ctx, &mut keep, v + 1) {
                    break;
                }
            }
        }
        assert_eq!(var.read(&mut ctx), 10);
    }

    #[test]
    fn every_provider_smokes() {
        macro_rules! run_smoke {
            ($name:ident, $p:ty) => {
                smoke::<$p>();
            };
        }
        for_each_provider!(run_smoke);
    }

    /// Every provider rejects an out-of-range pid with a typed error
    /// instead of a panic (the fixed-N satellite), and in-range pids
    /// succeed.
    fn pid_bounds<P: Provider>() {
        let env = P::env(2).expect("env");
        assert!(P::try_thread_ctx(&env, 0).is_ok(), "{}", P::ID);
        // Far past any headroom a dynamic pool provisions for joiners.
        match P::try_thread_ctx(&env, usize::MAX) {
            Err(Error::PoolExhausted { .. }) => {}
            Err(e) => panic!("{}: wrong error {e}", P::ID),
            Ok(_) => panic!("{}: out-of-range pid accepted", P::ID),
        }
    }

    #[test]
    fn every_provider_bounds_its_pids() {
        macro_rules! run_bounds {
            ($name:ident, $p:ty) => {
                pid_bounds::<$p>();
            };
        }
        for_each_provider!(run_bounds);
    }

    #[test]
    fn fixed_n_providers_refuse_join_and_tolerate_retire() {
        let env = Fig4Native::env(2).unwrap();
        assert_eq!(
            Fig4Native::join(&env),
            Err(Error::PoolExhausted { capacity: 0 })
        );
        Fig4Native::retire(&env, 0); // no-op, must not panic
        assert!(Fig4Native::try_thread_ctx(&env, 0).is_ok());
    }

    #[test]
    fn dynamic_providers_join_and_retire_through_the_trait() {
        fn churn<P: Provider>() {
            let env = P::env(1).expect("env");
            let var = P::var(&env, 0).expect("var");
            let late = P::join(&env).expect("join");
            assert!(late >= 1, "pre-admitted ids are 0..n");
            let mut tc = P::thread_ctx(&env, late);
            let mut ctx = P::ctx(&mut tc);
            let mut keep = <P::Var as LlScVar>::Keep::default();
            loop {
                let v = var.ll(&mut ctx, &mut keep);
                if var.sc(&mut ctx, &mut keep, v + 1) {
                    break;
                }
            }
            assert_eq!(var.read(&mut ctx), 1);
            P::retire(&env, late);
            // The retired slot is joinable again.
            assert_eq!(P::join(&env).expect("rejoin"), late);
        }
        churn::<Dynamic>();
        churn::<DynamicDurable>();
    }
}
