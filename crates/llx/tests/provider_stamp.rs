//! LLX/SCX stamped over the whole provider registry: one generic body
//! exercising link/commit/abort/finalize, record allocation and reuse,
//! plus a cross-thread conservation race, expanded per registry entry by
//! `for_each_provider!` — a provider added to the registry gets
//! multi-word coverage by construction.

use nbsp_core::{for_each_provider, LlScVar, Provider};
use nbsp_llx::{LlxDomain, LlxOutcome};

/// Single-threaded protocol walk, one provider: roundtrip commit,
/// multi-record commit with finalization, conflict-forced abort, VLX.
fn protocol<P: Provider>() {
    let env = P::env(2).expect("provider env");
    let mut tc0 = P::thread_ctx(&env, 0);
    let mut ctx0 = P::ctx(&mut tc0);
    let d = LlxDomain::<_, 2, 1>::new(2, 8, || P::var(&env, 0).expect("provider var"), &mut ctx0);
    let a = d.alloc(&mut ctx0, 0, &[1], &[10, 20]).unwrap();
    let b = d.alloc(&mut ctx0, 0, &[2], &[30, 40]).unwrap();

    // Roundtrip: link, commit, re-read.
    let ha = d.llx(&mut ctx0, a).expect_linked("a");
    assert_eq!((ha.field(0), ha.field(1)), (10, 20));
    assert!(d.scx(&mut ctx0, 0, [ha], 0, a, 0, 11));
    assert_eq!(d.read_field(&mut ctx0, a, 0), 11);

    // Two-record SCX from the second slot, finalizing b.
    let mut tc1 = P::thread_ctx(&env, 1);
    let mut ctx1 = P::ctx(&mut tc1);
    let ha = d.llx(&mut ctx1, a).expect_linked("a");
    let hb = d.llx(&mut ctx1, b).expect_linked("b");
    assert_eq!(hb.field(0), 30);
    // A runtime-length handle list works as well as an array.
    assert!(d.scx(&mut ctx1, 1, vec![ha, hb], 0b10, a, 1, 99));
    assert!(matches!(d.llx(&mut ctx1, b), LlxOutcome::Finalized));
    assert_eq!(d.read_field(&mut ctx1, a, 1), 99);

    // Conflict: a later committed SCX must abort the stale one.
    let h0 = d.llx(&mut ctx0, a).expect_linked("p0");
    let h1 = d.llx(&mut ctx1, a).expect_linked("p1");
    assert!(d.scx(&mut ctx1, 1, [h1], 0, a, 0, 12));
    assert!(!d.scx(&mut ctx0, 0, [h0], 0, a, 0, 13));
    assert_eq!(d.read_field(&mut ctx0, a, 0), 12);

    // VLX: quiet set validates, disturbed set does not.
    let s = d.llx_snapshot(&mut ctx0, a).unwrap();
    assert!(d.vlx_snapshots(&mut ctx0, &[s]));
    let h = d.llx(&mut ctx1, a).expect_linked("writer");
    assert!(d.scx(&mut ctx1, 1, [h], 0, a, 0, 14));
    assert!(!d.vlx_snapshots(&mut ctx0, &[s]));
}

/// Every field of `rec`, read back both plainly and through a linked LLX.
fn fields_of<P: Provider>(
    d: &LlxDomain<P::Var, 2, 1>,
    ctx: &mut <P::Var as LlScVar>::Ctx<'_>,
    rec: usize,
) -> [u64; 2] {
    let plain = [d.read_field(ctx, rec, 0), d.read_field(ctx, rec, 1)];
    let h = d.llx(ctx, rec).expect_linked("unpublished record");
    let linked = [h.field(0), h.field(1)];
    d.unlink(ctx, h);
    assert_eq!(plain, linked, "plain and linked reads agree");
    plain
}

/// Allocation and reuse, one provider: fresh records with non-zero and
/// with zero fields, then `reinit` of each to other values (a zero over a
/// non-zero word and the reverse) — every field must read back exactly,
/// so a skipped store that would have changed a word shows.
fn alloc_reinit<P: Provider>() {
    let env = P::env(1).expect("provider env");
    let mut tc = P::thread_ctx(&env, 0);
    let mut ctx = P::ctx(&mut tc);
    let d = LlxDomain::<_, 2, 1>::new(1, 4, || P::var(&env, 0).expect("provider var"), &mut ctx);
    let a = d.alloc(&mut ctx, 0, &[5], &[3, 4]).unwrap();
    let b = d.alloc(&mut ctx, 0, &[6], &[0, 0]).unwrap();
    assert_eq!(fields_of::<P>(&d, &mut ctx, a), [3, 4]);
    assert_eq!(fields_of::<P>(&d, &mut ctx, b), [0, 0]);
    d.reinit(&mut ctx, a, &[7], &[0, 4]);
    d.reinit(&mut ctx, b, &[8], &[9, 0]);
    assert_eq!(fields_of::<P>(&d, &mut ctx, a), [0, 4]);
    assert_eq!(fields_of::<P>(&d, &mut ctx, b), [9, 0]);
    assert_eq!((d.meta(a, 0), d.meta(b, 0)), (7, 8));
    // A reused record commits like a fresh one.
    let h = d.llx(&mut ctx, b).expect_linked("b");
    assert!(d.scx(&mut ctx, 0, [h], 0, b, 1, 10));
    assert_eq!(fields_of::<P>(&d, &mut ctx, b), [9, 10]);
}

/// Cross-thread conservation, one provider: racing two-record SCX
/// increments must equal the number of committed SCXs — interference
/// forces helping/aborts, never lost updates.
fn conservation<P: Provider>() {
    const THREADS: usize = 2;
    const ROUNDS: usize = 300;
    let env = P::env(THREADS + 1).expect("provider env");
    let mut ctx_init_tc = P::thread_ctx(&env, THREADS);
    let mut ctx_init = P::ctx(&mut ctx_init_tc);
    let d = LlxDomain::<_, 1, 1>::new(
        THREADS,
        4,
        || P::var(&env, 0).expect("provider var"),
        &mut ctx_init,
    );
    let a = d.alloc(&mut ctx_init, 0, &[0], &[0]).unwrap();
    let b = d.alloc(&mut ctx_init, 0, &[0], &[0]).unwrap();
    let successes: u64 = std::thread::scope(|s| {
        (0..THREADS)
            .map(|p| {
                let d = &d;
                let env = &env;
                s.spawn(move || {
                    let mut tc = P::thread_ctx(env, p);
                    let mut ctx = P::ctx(&mut tc);
                    let mut ok = 0u64;
                    for i in 0..ROUNDS {
                        let ha = d.llx(&mut ctx, a).expect_linked("a");
                        let hb = d.llx(&mut ctx, b).expect_linked("b");
                        let (t, old) = if i % 2 == 0 {
                            (a, ha.field(0))
                        } else {
                            (b, hb.field(0))
                        };
                        if d.scx(&mut ctx, p, [ha, hb], 0, t, 0, old + 1) {
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
    let total = d.read_field(&mut ctx_init, a, 0) + d.read_field(&mut ctx_init, b, 0);
    assert_eq!(total, successes, "committed SCXs must conserve");
    assert!(successes > 0, "some SCX must commit");
}

macro_rules! stamp {
    ($name:ident, $provider:ty) => {
        mod $name {
            #[test]
            fn llx_scx_protocol() {
                super::protocol::<$provider>();
            }

            #[test]
            fn llx_alloc_reinit() {
                super::alloc_reinit::<$provider>();
            }

            #[test]
            fn llx_scx_conservation() {
                super::conservation::<$provider>();
            }
        }
    };
}

for_each_provider!(stamp);
