//! Sequential differential tests: each structure, driven through the
//! Figure-4 construction, must agree step-for-step with the obvious
//! std-library model on thousands of randomized programs.
//! (The linearizability tests accept any legal concurrent order; these
//! demand exact sequential equality — a finer sieve for off-by-one link
//! bugs, lost marks, or capacity accounting.) Programs come from a seeded
//! [`SplitMix64`], so failures reproduce exactly.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use nbsp::core::{for_each_provider, CasLlSc, Native, Provider, TagLayout};
use nbsp::memsim::rng::SplitMix64;
use nbsp::structures::{ordmap_capacity, OrdMap, Queue, Set, Stack};

#[macro_use]
mod corners;

fn nat() -> CasLlSc<Native> {
    CasLlSc::new_native(TagLayout::half(), 0).unwrap()
}

#[test]
fn stack_matches_vec_model() {
    let mut rng = SplitMix64::new(0x57ac_0001);
    for case in 0..200 {
        let capacity = rng.next_index(8);
        let ops: Vec<(u8, u64)> = (0..rng.next_index(200))
            .map(|_| (rng.next_index(2) as u8, rng.next_below(100)))
            .collect();
        let stack = Stack::new(capacity, nat(), nat(), &mut Native);
        let mut model: Vec<u64> = Vec::new();
        let mut ctx = Native;
        for (kind, v) in ops {
            if kind == 0 {
                let got = stack.push(&mut ctx, v).is_ok();
                let want = model.len() < capacity;
                assert_eq!(got, want, "case {case}: push({v}) full-state mismatch");
                if want {
                    model.push(v);
                }
            } else {
                assert_eq!(stack.pop(&mut ctx), model.pop(), "case {case}");
            }
        }
        assert_eq!(stack.len_quiescent(&mut ctx), model.len(), "case {case}");
    }
}

#[test]
fn queue_matches_vecdeque_model() {
    let mut rng = SplitMix64::new(0x57ac_0002);
    for case in 0..200 {
        let capacity = rng.next_index(8);
        let ops: Vec<(u8, u64)> = (0..rng.next_index(200))
            .map(|_| (rng.next_index(2) as u8, rng.next_below(100)))
            .collect();
        let queue = Queue::new(capacity, nat, &mut Native);
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut ctx = Native;
        for (kind, v) in ops {
            if kind == 0 {
                let got = queue.enqueue(&mut ctx, v).is_ok();
                let want = model.len() < capacity;
                assert_eq!(got, want, "case {case}: enqueue({v}) full-state mismatch");
                if want {
                    model.push_back(v);
                }
            } else {
                assert_eq!(queue.dequeue(&mut ctx), model.pop_front(), "case {case}");
            }
        }
        assert_eq!(queue.len_quiescent(&mut ctx), model.len(), "case {case}");
    }
}

#[test]
fn set_matches_btreeset_model() {
    let mut rng = SplitMix64::new(0x57ac_0003);
    for case in 0..200 {
        let ops: Vec<(u8, u64)> = (0..rng.next_index(150))
            .map(|_| (rng.next_index(3) as u8, rng.next_below(12)))
            .collect();
        // Lifetime capacity sized so adds never hit Full.
        let set = Set::new(512, nat, &mut Native);
        let mut model: BTreeSet<u64> = BTreeSet::new();
        let mut ctx = Native;
        for (kind, k) in ops {
            match kind {
                0 => assert_eq!(
                    set.add(&mut ctx, k).unwrap(),
                    model.insert(k),
                    "case {case}: add({k})"
                ),
                1 => assert_eq!(
                    set.remove(&mut ctx, k),
                    model.remove(&k),
                    "case {case}: remove({k})"
                ),
                _ => assert_eq!(
                    set.contains(&mut ctx, k),
                    model.contains(&k),
                    "case {case}: contains({k})"
                ),
            }
        }
        let live: Vec<u64> = model.iter().copied().collect();
        assert_eq!(set.to_vec_quiescent(&mut ctx), live, "case {case}");
    }
}

/// The ordmap against `BTreeMap`, one provider: seeded op fuzzing with
/// exact sequential equality on every return value, plus a snapshot and a
/// range scan at the end of each program. Stamped over the whole registry
/// below, so a newly registered provider gets ordered-map differential
/// coverage for free. (Sized within the constant-time provider's
/// per-domain variable budget: each record costs three LL/SC words.)
///
/// Each key has two values, `10k` drawn three times in four and `10k + 1`
/// otherwise, so inserts of a present key often rewrite the value already
/// there (insert's read-only path) and often replace it (its SCX path);
/// the share of the former is asserted to be at least a quarter.
fn ordmap_matches_btreemap<P: Provider>(seed: u64) {
    const CASES: usize = 12;
    const OPS: usize = 36;
    let mut rng = SplitMix64::new(seed);
    let (mut present, mut same) = (0u32, 0u32);
    for case in 0..CASES {
        let env = P::env(1).expect("provider env");
        let mut tc = P::thread_ctx(&env, 0);
        let mut ctx = P::ctx(&mut tc);
        let map = OrdMap::new(
            1,
            ordmap_capacity(OPS),
            || P::var(&env, 0).expect("provider var"),
            &mut ctx,
        );
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for step in 0..OPS {
            let kind = rng.next_index(4);
            let key = rng.next_below(10);
            let value = 10 * key + u64::from(rng.next_index(4) == 0);
            match kind {
                0 | 1 => {
                    let want = model.insert(key, value);
                    if let Some(old) = want {
                        present += 1;
                        same += u32::from(old == value);
                    }
                    assert_eq!(
                        map.insert(&mut ctx, 0, key, value).unwrap(),
                        want,
                        "case {case} step {step}: insert({key}, {value})"
                    );
                }
                2 => assert_eq!(
                    map.delete(&mut ctx, 0, key).unwrap(),
                    model.remove(&key),
                    "case {case} step {step}: delete({key})"
                ),
                _ => assert_eq!(
                    map.get(&mut ctx, key),
                    model.get(&key).copied(),
                    "case {case} step {step}: get({key})"
                ),
            }
        }
        let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(map.snapshot(&mut ctx), want, "case {case}: full snapshot");
        let ranged: Vec<(u64, u64)> = model.range(3..=7).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(
            map.range_snapshot(&mut ctx, 3, 7),
            ranged,
            "case {case}: range snapshot"
        );
    }
    let share = f64::from(same) / f64::from(present.max(1));
    eprintln!("ordmap: {same}/{present} inserts of a present key were same-value ({share:.2})");
    assert!(
        4 * same >= present && same > 0,
        "same-value inserts {same}/{present}: below a quarter"
    );
}

macro_rules! ordmap_differential {
    ($name:ident, $provider:ty) => {
        mod $name {
            #[test]
            fn ordmap_matches_btreemap() {
                super::ordmap_matches_btreemap::<$provider>(0x57ac_0004);
            }
        }
    };
}

for_each_provider!(ordmap_differential);
for_each_corner!(ordmap_differential);
