//! End-to-end linearizability of the data structures built on the
//! emulated primitives — closing the paper's transitive claim: the
//! LL/VL/SC emulations are linearizable, the algorithms over them were
//! proven against LL/VL/SC, so the structures should be linearizable too.
//! We don't take transitivity on faith; we check recorded histories of the
//! *structures* directly.

use nbsp::core::{for_each_provider, CasLlSc, Native, Provider, TagLayout};
use nbsp::linearize::{
    history, is_linearizable, Completed, HistoryClock, MapOp, MapRet, MapSpec, QueueOp, QueueRet,
    QueueSpec, SetOp, SetRet, SetSpec, StackOp, StackRet, StackSpec,
};
use nbsp::memsim::ProcId;
use nbsp::structures::{ordmap_capacity, OrdMap, Queue, Set, Stack};

#[macro_use]
mod corners;

const THREADS: usize = 3;
const OPS_PER_THREAD: usize = 4;
const SEEDS: u64 = 100;
const CAPACITY: usize = 3; // small, so Full outcomes appear in histories

fn nat() -> CasLlSc<Native> {
    CasLlSc::new_native(TagLayout::half(), 0).unwrap()
}

fn rng_stream(seed: u64, t: usize) -> impl FnMut() -> u64 {
    let mut x = seed
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(t as u64 + 1);
    move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x
    }
}

#[test]
fn stack_histories_are_linearizable() {
    for seed in 0..SEEDS {
        let stack = Stack::new(CAPACITY, nat(), nat(), &mut Native);
        let clock = HistoryClock::new();
        let logs: Vec<Vec<Completed<StackOp, StackRet>>> = std::thread::scope(|s| {
            (0..THREADS)
                .map(|t| {
                    let stack = &stack;
                    let mut rec = clock.recorder_for::<StackOp, StackRet>(ProcId::new(t));
                    let mut rng = rng_stream(seed, t);
                    s.spawn(move || {
                        for i in 0..OPS_PER_THREAD {
                            if rng().is_multiple_of(2) {
                                // Unique values so double-pops are visible.
                                let v = (t * OPS_PER_THREAD + i) as u64 + 1;
                                let _ = rec.record(StackOp::Push(v), || {
                                    StackRet::Pushed(stack.push(&mut Native, v).is_ok())
                                });
                            } else {
                                let _ = rec.record(StackOp::Pop, || {
                                    StackRet::Popped(stack.pop(&mut Native))
                                });
                            }
                        }
                        rec.into_events()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let h = history::merge(logs);
        assert!(
            is_linearizable(StackSpec::new(CAPACITY), &h),
            "stack seed {seed}: non-linearizable history:\n{h:#?}"
        );
    }
}

#[test]
fn queue_histories_are_linearizable() {
    for seed in 0..SEEDS {
        let queue = Queue::new(CAPACITY, nat, &mut Native);
        let clock = HistoryClock::new();
        let logs: Vec<Vec<Completed<QueueOp, QueueRet>>> = std::thread::scope(|s| {
            (0..THREADS)
                .map(|t| {
                    let queue = &queue;
                    let mut rec = clock.recorder_for::<QueueOp, QueueRet>(ProcId::new(t));
                    let mut rng = rng_stream(seed, t);
                    s.spawn(move || {
                        for i in 0..OPS_PER_THREAD {
                            if rng().is_multiple_of(2) {
                                let v = (t * OPS_PER_THREAD + i) as u64 + 1;
                                let _ = rec.record(QueueOp::Enqueue(v), || {
                                    QueueRet::Enqueued(queue.enqueue(&mut Native, v).is_ok())
                                });
                            } else {
                                let _ = rec.record(QueueOp::Dequeue, || {
                                    QueueRet::Dequeued(queue.dequeue(&mut Native))
                                });
                            }
                        }
                        rec.into_events()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let h = history::merge(logs);
        assert!(
            is_linearizable(QueueSpec::new(CAPACITY), &h),
            "queue seed {seed}: non-linearizable history:\n{h:#?}"
        );
    }
}

#[test]
fn set_histories_are_linearizable() {
    for seed in 0..SEEDS {
        // Plenty of lifetime capacity so Add never returns Full (the
        // sequential SetSpec has no capacity notion).
        let set = Set::new(64, nat, &mut Native);
        let clock = HistoryClock::new();
        let logs: Vec<Vec<Completed<SetOp, SetRet>>> = std::thread::scope(|s| {
            (0..THREADS)
                .map(|t| {
                    let set = &set;
                    let mut rec = clock.recorder_for::<SetOp, SetRet>(ProcId::new(t));
                    let mut rng = rng_stream(seed, t);
                    s.spawn(move || {
                        for _ in 0..OPS_PER_THREAD {
                            let r = rng();
                            let key = (r >> 8) % 3; // tiny key space: max conflict
                            match r % 3 {
                                0 => {
                                    let _ = rec.record(SetOp::Add(key), || {
                                        SetRet(set.add(&mut Native, key).unwrap())
                                    });
                                }
                                1 => {
                                    let _ = rec.record(SetOp::Remove(key), || {
                                        SetRet(set.remove(&mut Native, key))
                                    });
                                }
                                _ => {
                                    let _ = rec.record(SetOp::Contains(key), || {
                                        SetRet(set.contains(&mut Native, key))
                                    });
                                }
                            }
                        }
                        rec.into_events()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let h = history::merge(logs);
        assert!(
            is_linearizable(SetSpec::new(), &h),
            "set seed {seed}: non-linearizable history:\n{h:#?}"
        );
    }
}

/// The ordmap's recorded histories against [`MapSpec`], one provider —
/// multi-word LLX/SCX commits racing on a tiny key space, checked
/// end-to-end by the Wing–Gong search. Stamped over the registry below:
/// every provider's LL/SC must carry the full SCX protocol without
/// producing a non-linearizable map history.
///
/// Each key has two values, `10k` drawn three times in four and `10k + 1`
/// otherwise, so inserts of a present key often write the value already
/// there (insert's read-only path) and often a different one (its SCX
/// path). The share of the former among inserts that returned `Some` is
/// asserted to be at least a quarter.
fn ordmap_histories_are_linearizable<P: Provider>() {
    const MAP_SEEDS: u64 = 20;
    let (mut present, mut same) = (0u32, 0u32);
    for seed in 0..MAP_SEEDS {
        // One spare slot: the construction context must not collide with
        // the worker threads' claims.
        let env = P::env(THREADS + 1).expect("provider env");
        let mut tc0 = P::thread_ctx(&env, THREADS);
        let mut ctx0 = P::ctx(&mut tc0);
        // Budget for every op being a new-key insert; sized within the
        // constant-time provider's variable budget (3 words per record).
        let map = OrdMap::new(
            THREADS,
            ordmap_capacity(THREADS * OPS_PER_THREAD),
            || P::var(&env, 0).expect("provider var"),
            &mut ctx0,
        );
        drop(ctx0);
        let clock = HistoryClock::new();
        let logs: Vec<Vec<Completed<MapOp, MapRet>>> = std::thread::scope(|s| {
            (0..THREADS)
                .map(|t| {
                    let map = &map;
                    let env = &env;
                    let mut rec = clock.recorder_for::<MapOp, MapRet>(ProcId::new(t));
                    let mut rng = rng_stream(seed, t);
                    s.spawn(move || {
                        let mut tc = P::thread_ctx(env, t);
                        let mut ctx = P::ctx(&mut tc);
                        for _ in 0..OPS_PER_THREAD {
                            let r = rng();
                            let key = (r >> 8) % 3; // tiny key space: max conflict
                            match r % 3 {
                                0 => {
                                    let v = 10 * key + u64::from((r >> 32).is_multiple_of(4));
                                    let _ = rec.record(MapOp::Insert(key, v), || {
                                        MapRet(map.insert(&mut ctx, t, key, v).unwrap())
                                    });
                                }
                                1 => {
                                    let _ = rec.record(MapOp::Delete(key), || {
                                        MapRet(map.delete(&mut ctx, t, key).unwrap())
                                    });
                                }
                                _ => {
                                    let _ = rec.record(MapOp::Get(key), || {
                                        MapRet(map.get(&mut ctx, key))
                                    });
                                }
                            }
                        }
                        rec.into_events()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let h = history::merge(logs);
        assert!(
            is_linearizable(MapSpec::new(), &h),
            "ordmap seed {seed}: non-linearizable history:\n{h:#?}"
        );
        for e in &h {
            if let (MapOp::Insert(_, v), MapRet(Some(old))) = (e.op, e.ret) {
                present += 1;
                same += u32::from(old == v);
            }
        }
    }
    let share = f64::from(same) / f64::from(present.max(1));
    eprintln!("ordmap: {same}/{present} inserts of a present key were same-value ({share:.2})");
    assert!(
        4 * same >= present && same > 0,
        "same-value inserts {same}/{present}: below a quarter"
    );
}

macro_rules! ordmap_linearizability {
    ($name:ident, $provider:ty) => {
        mod $name {
            #[test]
            fn ordmap_histories_are_linearizable() {
                super::ordmap_histories_are_linearizable::<$provider>();
            }
        }
    };
}

for_each_provider!(ordmap_linearizability);
for_each_corner!(ordmap_linearizability);
