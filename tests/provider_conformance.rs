//! Provider-conformance suite: every entry in the `nbsp_core::provider`
//! registry must implement the same LL/VL/SC contract, checked through
//! one generic body per property and stamped out over the whole registry
//! by `for_each_provider!` — so a provider added to the registry is
//! conformance-tested by construction, and one that breaks the contract
//! fails here by name. The ablation corners of `fig4-native` and
//! `fig7-bounded`, which are not registry entries, are stamped by
//! `for_each_corner!` (`tests/corners`).
//!
//! Five properties per provider:
//!
//! * **semantics** — LL/VL/SC single-thread sequencing: an undisturbed
//!   sequence validates and commits; a sequence whose variable changed
//!   underneath (here: via a second context's committed SC) must fail
//!   both VL and SC; CL abandons a sequence without poisoning the next.
//!   Then the keep contract: on a default keep, after LL; CL, and after
//!   a successful SC, VL is false, and SC (on the first two) is false
//!   and writes nothing.
//! * **wraparound** — thousands of sequential increments force tag/stamp
//!   reuse in every bounded scheme (the registry's tag universes and
//!   version pools are all far smaller than the iteration count); values
//!   must stay exact through every recycling boundary.
//! * **linearization** — two writer threads race increments while a
//!   reader polls; the counter must end exact (lost updates would mean a
//!   falsely-successful SC) and reads must be monotone (a torn or stale
//!   read would break linearizability of `read`).
//! * **keep_budget** — the `PROVIDER_K` sizing contract: every provider
//!   must sustain `PROVIDER_K` *concurrent* open LL–SC sequences on one
//!   context (the audited LLX/SCX worst case: four held handles plus one
//!   transient — see the sizing table in `provider.rs`), with all of them
//!   still able to validate and commit. Exceeding the budget on the
//!   slot-array domains is a *documented panic* ("exceeded k"), never UB —
//!   asserted by the targeted `keep_exhaustion_*` tests below the macro.
//! * **churn** — the `join`/`retire` membership contract: fixed-N
//!   providers refuse with the typed `PoolExhausted` error and their
//!   no-op `retire` leaves preadmitted slots working; dynamic providers
//!   hand out fresh slots until their headroom is exhausted, refuse
//!   past capacity, and recycle retired slots into working contexts
//!   with no increments lost.
//!
//! The keep-search ablations (`tests/keep_search`) keep one link per
//! (process, variable) and implement no `LlScVar`; `for_each_keep_search!`
//! stamps semantics, wraparound, linearization and keep_budget on their
//! per-process API. They have no membership protocol, so no churn.
//!
//! The suite is feature-independent: CI's no-default-features matrix runs
//! the same assertions with telemetry compiled out.

use nbsp_core::{for_each_provider, Error, LlScVar, Provider};

#[macro_use]
mod corners;
#[macro_use]
mod keep_search;

use keep_search::Linked;
use nbsp_core::provider::PROVIDER_K;
use nbsp_memsim::ProcId;

/// LL/VL/SC sequencing contract, one provider.
fn semantics<P: Provider>() {
    let env = P::env(3).expect("provider env");
    let var = P::var(&env, 7).expect("provider var");

    // Context 0: an undisturbed sequence reads, validates, and commits.
    let mut tc0 = P::thread_ctx(&env, 0);
    let mut ctx0 = P::ctx(&mut tc0);
    let mut keep0 = <P::Var as LlScVar>::Keep::default();
    assert_eq!(var.ll(&mut ctx0, &mut keep0), 7, "LL reads initial value");
    assert!(var.vl(&mut ctx0, &keep0), "undisturbed VL validates");
    assert!(var.sc(&mut ctx0, &mut keep0, 8), "undisturbed SC succeeds");
    assert_eq!(var.read(&mut ctx0), 8, "committed value visible");

    // A disturbed sequence: context 1 LLs, context 2 commits an SC in
    // between, so context 1's VL and SC must both fail.
    let mut tc1 = P::thread_ctx(&env, 1);
    let mut tc2 = P::thread_ctx(&env, 2);
    let mut ctx1 = P::ctx(&mut tc1);
    let mut ctx2 = P::ctx(&mut tc2);
    let mut keep1 = <P::Var as LlScVar>::Keep::default();
    let mut keep2 = <P::Var as LlScVar>::Keep::default();
    assert_eq!(var.ll(&mut ctx1, &mut keep1), 8);
    let _ = var.ll(&mut ctx2, &mut keep2);
    assert!(var.sc(&mut ctx2, &mut keep2, 9), "interfering SC commits");
    assert!(!var.vl(&mut ctx1, &keep1), "VL must fail after interference");
    assert!(
        !var.sc(&mut ctx1, &mut keep1, 10),
        "SC must fail after interference"
    );
    assert_eq!(var.read(&mut ctx1), 9, "failed SC must not write");

    // CL abandons a sequence; the next sequence on the same context is
    // unaffected.
    let mut keep = <P::Var as LlScVar>::Keep::default();
    let _ = var.ll(&mut ctx0, &mut keep);
    var.cl(&mut ctx0, &mut keep);
    let mut keep = <P::Var as LlScVar>::Keep::default();
    let v = var.ll(&mut ctx0, &mut keep);
    assert!(var.sc(&mut ctx0, &mut keep, v + 1), "SC after CL succeeds");
    assert_eq!(var.read(&mut ctx0), 10);

    // The keep contract. A default keep holds no sequence: VL and SC fail
    // and SC writes nothing, whatever word the variable holds.
    let mut keep = <P::Var as LlScVar>::Keep::default();
    assert!(!var.vl(&mut ctx0, &keep), "VL on a default keep");
    assert!(!var.sc(&mut ctx0, &mut keep, 11), "SC on a default keep");
    assert_eq!(var.read(&mut ctx0), 10, "SC on a default keep wrote");
    // CL spends the keep: with no SC in between, a Figure-4 tag has not
    // moved, so a keep CL failed to reset would still commit.
    let _ = var.ll(&mut ctx0, &mut keep);
    var.cl(&mut ctx0, &mut keep);
    assert!(!var.vl(&mut ctx0, &keep), "VL after LL; CL");
    assert!(!var.sc(&mut ctx0, &mut keep, 11), "SC after LL; CL");
    assert_eq!(var.read(&mut ctx0), 10, "SC after LL; CL wrote");
    // A successful SC consumes its sequence.
    let v = var.ll(&mut ctx0, &mut keep);
    assert!(var.sc(&mut ctx0, &mut keep, v + 1));
    assert!(!var.vl(&mut ctx0, &keep), "VL after a successful SC");
}

/// Tag/stamp wraparound, one provider: enough sequential successful SCs
/// to cycle every tag universe and version pool in the registry several
/// times over.
fn wraparound<P: Provider>() {
    const OPS: u64 = 3_000;
    let env = P::env(2).expect("provider env");
    let var = P::var(&env, 0).expect("provider var");
    let mut tc = P::thread_ctx(&env, 0);
    let mut ctx = P::ctx(&mut tc);
    let mut keep = <P::Var as LlScVar>::Keep::default();
    // Stay within every provider's value width (the emulated-CAS entry
    // steals tag bits from the value field).
    let mask = var.max_val().min(0xFFFF);
    for i in 0..OPS {
        let v = var.ll(&mut ctx, &mut keep);
        assert_eq!(v, i & mask, "value drift at op {i}");
        assert!(
            var.sc(&mut ctx, &mut keep, (i + 1) & mask),
            "uncontended SC failed at op {i}"
        );
    }
    assert_eq!(var.read(&mut ctx), OPS & mask);
}

/// Multi-thread linearization, one provider: 2 racing writers + 1
/// polling reader.
fn linearization<P: Provider>() {
    const WRITERS: usize = 2;
    const PER_WRITER: u64 = 2_000;
    // WRITERS contexts + the polling reader + one more for the final
    // read (each thread_ctx claims its slot once).
    let env = P::env(WRITERS + 2).expect("provider env");
    let var = P::var(&env, 0).expect("provider var");
    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let var = &var;
            let mut tc = P::thread_ctx(&env, t);
            s.spawn(move || {
                let mut ctx = P::ctx(&mut tc);
                let mut keep = <P::Var as LlScVar>::Keep::default();
                for _ in 0..PER_WRITER {
                    loop {
                        let v = var.ll(&mut ctx, &mut keep);
                        if var.sc(&mut ctx, &mut keep, v + 1) {
                            break;
                        }
                    }
                }
            });
        }
        let var = &var;
        let mut tc = P::thread_ctx(&env, WRITERS);
        s.spawn(move || {
            let mut ctx = P::ctx(&mut tc);
            let mut prev = 0;
            for _ in 0..1_000 {
                let v = var.read(&mut ctx);
                assert!(v >= prev, "non-monotone read: {v} after {prev}");
                assert!(
                    v <= WRITERS as u64 * PER_WRITER,
                    "read beyond total increments: {v}"
                );
                prev = v;
            }
        });
    });
    let mut tc = P::thread_ctx(&env, WRITERS + 1);
    let mut ctx = P::ctx(&mut tc);
    assert_eq!(
        var.read(&mut ctx),
        WRITERS as u64 * PER_WRITER,
        "lost updates: some SC falsely succeeded"
    );
}

/// Membership churn, one provider: the `join`/`retire` contract. A
/// fixed-N provider must refuse with the typed `PoolExhausted` error
/// (and its no-op `retire` must not disturb the preadmitted slots); a
/// dynamic provider must hand out fresh working slots, refuse once its
/// headroom is exhausted, and reuse retired slots.
fn churn<P: Provider>() {
    let env = P::env(2).expect("provider env");
    let var = P::var(&env, 0).expect("provider var");
    match P::join(&env) {
        Err(Error::PoolExhausted { .. }) => {
            // Fixed-N: joining is always refused, retire is a no-op,
            // and neither disturbs a preadmitted slot's sequences.
            P::retire(&env, 0);
            let mut tc = P::thread_ctx(&env, 0);
            let mut ctx = P::ctx(&mut tc);
            let mut keep = <P::Var as LlScVar>::Keep::default();
            let v = var.ll(&mut ctx, &mut keep);
            assert!(var.sc(&mut ctx, &mut keep, v + 1), "SC after no-op retire");
            assert_eq!(var.read(&mut ctx), v + 1);
        }
        Err(e) => panic!("join refusal must be PoolExhausted, got: {e}"),
        Ok(first) => {
            // Dynamic: drain the headroom. Every joined slot must be a
            // working context (one committed increment each).
            let mut slots = vec![first];
            loop {
                match P::join(&env) {
                    Ok(p) => slots.push(p),
                    Err(Error::PoolExhausted { capacity }) => {
                        assert!(
                            capacity >= 2 + slots.len(),
                            "reported capacity {capacity} below the {} slots seen",
                            2 + slots.len(),
                        );
                        break;
                    }
                    Err(e) => panic!("exhausted join must be PoolExhausted, got: {e}"),
                }
                assert!(slots.len() <= 1024, "join never reported exhaustion");
            }
            let joined = slots.len() as u64;
            for &p in &slots {
                let mut tc = P::thread_ctx(&env, p);
                let mut ctx = P::ctx(&mut tc);
                let mut keep = <P::Var as LlScVar>::Keep::default();
                loop {
                    let v = var.ll(&mut ctx, &mut keep);
                    if var.sc(&mut ctx, &mut keep, v + 1) {
                        break;
                    }
                }
            }
            // Retire-then-rejoin: every retired slot becomes joinable
            // again, and the recycled contexts still commit.
            for &p in &slots {
                P::retire(&env, p);
            }
            let mut recycled = Vec::new();
            for _ in 0..slots.len() {
                recycled.push(P::join(&env).expect("retired slots must be joinable again"));
            }
            for &p in &recycled {
                let mut tc = P::thread_ctx(&env, p);
                let mut ctx = P::ctx(&mut tc);
                let mut keep = <P::Var as LlScVar>::Keep::default();
                loop {
                    let v = var.ll(&mut ctx, &mut keep);
                    if var.sc(&mut ctx, &mut keep, v + 1) {
                        break;
                    }
                }
                P::retire(&env, p);
            }
            let mut tc = P::thread_ctx(&env, 0);
            let mut ctx = P::ctx(&mut tc);
            assert_eq!(
                var.read(&mut ctx),
                2 * joined,
                "increments lost across join/retire churn"
            );
        }
    }
}

/// The `PROVIDER_K` budget, one provider: open `PROVIDER_K` concurrent
/// LL–SC sequences on distinct variables from one context (the deepest
/// nesting LLX/SCX reaches — see `provider.rs`'s sizing table), interleave
/// a validation pass, then commit every one of them.
fn keep_budget<P: Provider>() {
    let env = P::env(1).expect("provider env");
    let vars: Vec<P::Var> = (0..PROVIDER_K)
        .map(|i| P::var(&env, i as u64).expect("provider var"))
        .collect();
    let mut tc = P::thread_ctx(&env, 0);
    let mut ctx = P::ctx(&mut tc);
    let mut keeps: Vec<<P::Var as LlScVar>::Keep> = Vec::new();
    for (i, var) in vars.iter().enumerate() {
        let mut keep = <P::Var as LlScVar>::Keep::default();
        assert_eq!(var.ll(&mut ctx, &mut keep), i as u64);
        keeps.push(keep);
    }
    for (var, keep) in vars.iter().zip(&keeps) {
        assert!(var.vl(&mut ctx, keep), "held sequence must still validate");
    }
    for (i, (var, keep)) in vars.iter().zip(&mut keeps).enumerate() {
        assert!(
            var.sc(&mut ctx, keep, i as u64 + 100),
            "sequence {i} of {PROVIDER_K} must commit"
        );
        assert_eq!(var.read(&mut ctx), i as u64 + 100);
    }
}

/// One-past-the-budget, one slot-array provider: `PROVIDER_K + 1`
/// concurrent sequences must hit the *documented* failure mode — the
/// "exceeded k" panic from the domain's slot allocator — instead of UB or
/// silent corruption. (Only the domain-based entries have per-process
/// slot arrays to exhaust; the CAS-keep families allocate keeps
/// independently and have no such bound.)
fn keep_exhaustion<P: Provider>() {
    let env = P::env(1).expect("provider env");
    let vars: Vec<P::Var> = (0..=PROVIDER_K)
        .map(|_| P::var(&env, 0).expect("provider var"))
        .collect();
    let mut tc = P::thread_ctx(&env, 0);
    let mut ctx = P::ctx(&mut tc);
    let mut keeps: Vec<<P::Var as LlScVar>::Keep> = Vec::new();
    for var in &vars {
        let mut keep = <P::Var as LlScVar>::Keep::default();
        let _ = var.ll(&mut ctx, &mut keep); // the K+1th must panic
        keeps.push(keep);
    }
    unreachable!("PROVIDER_K + 1 concurrent sequences must panic");
}

#[test]
#[should_panic(expected = "exceeded k")]
fn keep_exhaustion_fig7_bounded() {
    keep_exhaustion::<nbsp_core::provider::Fig7Bounded>();
}

#[test]
#[should_panic(expected = "exceeded k")]
fn keep_exhaustion_fig7_bounded_scan() {
    keep_exhaustion::<corners::Fig7Scan>();
}

#[test]
#[should_panic(expected = "exceeded k")]
fn keep_exhaustion_constant_time() {
    keep_exhaustion::<nbsp_core::provider::ConstantTime>();
}

// The module generated per provider by `for_each_provider!`: five
// `#[test]`s per registry entry, named by the provider's snake_case slug.
macro_rules! conformance {
    ($name:ident, $provider:ty) => {
        mod $name {
            #[test]
            fn semantics() {
                super::semantics::<$provider>();
            }

            #[test]
            fn keep_budget() {
                super::keep_budget::<$provider>();
            }

            #[test]
            fn wraparound() {
                super::wraparound::<$provider>();
            }

            #[test]
            fn linearization() {
                super::linearization::<$provider>();
            }

            #[test]
            fn churn() {
                super::churn::<$provider>();
            }
        }
    };
}

for_each_provider!(conformance);
for_each_corner!(conformance);

/// The four properties on a keep-search ablation's per-process API: the
/// bodies above with a process id in place of a context and keep. A
/// second LL by a process replaces its link, which is what CL-then-LL
/// amounts to here.
mod linked {
    use super::{Linked, ProcId, PROVIDER_K};

    pub fn semantics<V: Linked>() {
        let var = V::build(3, 7);
        let (p0, p1, p2) = (ProcId::new(0), ProcId::new(1), ProcId::new(2));
        assert_eq!(var.ll(p0), 7, "LL reads initial value");
        assert!(var.vl(p0), "undisturbed VL validates");
        assert!(var.sc(p0, 8), "undisturbed SC succeeds");
        assert_eq!(var.read(), 8, "committed value visible");

        assert_eq!(var.ll(p1), 8);
        let _ = var.ll(p2);
        assert!(var.sc(p2, 9), "interfering SC commits");
        assert!(!var.vl(p1), "VL must fail after interference");
        assert!(!var.sc(p1, 10), "SC must fail after interference");
        assert_eq!(var.read(), 9, "failed SC must not write");

        let _ = var.ll(p0);
        let v = var.ll(p0);
        assert!(var.sc(p0, v + 1), "SC after a replaced link succeeds");
        assert_eq!(var.read(), 10);
    }

    pub fn wraparound<V: Linked>() {
        const OPS: u64 = 3_000;
        const MASK: u64 = 0xFFFF;
        let var = V::build(2, 0);
        let p = ProcId::new(0);
        for i in 0..OPS {
            assert_eq!(var.ll(p), i & MASK, "value drift at op {i}");
            assert!(var.sc(p, (i + 1) & MASK), "uncontended SC failed at op {i}");
        }
        assert_eq!(var.read(), OPS & MASK);
    }

    pub fn linearization<V: Linked>() {
        const WRITERS: usize = 2;
        const PER_WRITER: u64 = 2_000;
        let var = V::build(WRITERS, 0);
        std::thread::scope(|s| {
            for t in 0..WRITERS {
                let var = &var;
                s.spawn(move || {
                    let p = ProcId::new(t);
                    for _ in 0..PER_WRITER {
                        loop {
                            let v = var.ll(p);
                            if var.sc(p, v + 1) {
                                break;
                            }
                        }
                    }
                });
            }
            let var = &var;
            s.spawn(move || {
                let mut prev = 0;
                for _ in 0..1_000 {
                    let v = var.read();
                    assert!(v >= prev, "non-monotone read: {v} after {prev}");
                    assert!(
                        v <= WRITERS as u64 * PER_WRITER,
                        "read beyond total increments: {v}"
                    );
                    prev = v;
                }
            });
        });
        assert_eq!(
            var.read(),
            WRITERS as u64 * PER_WRITER,
            "lost updates: some SC falsely succeeded"
        );
    }

    pub fn keep_budget<V: Linked>() {
        let vars: Vec<V> = (0..PROVIDER_K).map(|i| V::build(1, i as u64)).collect();
        let p = ProcId::new(0);
        for (i, var) in vars.iter().enumerate() {
            assert_eq!(var.ll(p), i as u64);
        }
        for var in &vars {
            assert!(var.vl(p), "held link must still validate");
        }
        for (i, var) in vars.iter().enumerate() {
            assert!(
                var.sc(p, i as u64 + 100),
                "link {i} of {PROVIDER_K} must commit"
            );
            assert_eq!(var.read(), i as u64 + 100);
        }
    }
}

macro_rules! keep_search_conformance {
    ($name:ident, $ty:ty, $salt:expr) => {
        mod $name {
            #[test]
            fn semantics() {
                super::linked::semantics::<$ty>();
            }

            #[test]
            fn keep_budget() {
                super::linked::keep_budget::<$ty>();
            }

            #[test]
            fn wraparound() {
                super::linked::wraparound::<$ty>();
            }

            #[test]
            fn linearization() {
                super::linked::linearization::<$ty>();
            }
        }
    };
}

for_each_keep_search!(keep_search_conformance);
