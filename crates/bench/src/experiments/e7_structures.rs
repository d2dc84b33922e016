//! **E7 — the re-enabled algorithms** (§1, §5).
//!
//! The paper's motivation: algorithms like [4, 7, 14] assume LL/VL/SC and
//! were inapplicable on real machines. Here they run — counter, Treiber
//! stack, Michael–Scott queue and a lock-free set — on registry providers
//! (the Figure-4 construction vs. the Figure-2 lock baseline, footnote 1's
//! "straightforward" alternative, plus the two weak-primitive emulations
//! as "cost of weakening the hardware" rows), and the static STM against
//! a coarse mutex heap. The LL/SC substrates come from `nbsp_core::provider`; this
//! module keeps no construction list of its own.
//!
//! Telemetry: every throughput cell runs through `nbsp_bench::sinks` —
//! worker sessions flush per-thread deltas into a run-level Figure-6 sink,
//! and the closing event table is a single-WLL snapshot of that sink
//! (never `racy_totals`, whose tearing E11 demonstrates).

use std::sync::Arc;

use nbsp_core::wide::WideDomain;
use nbsp_core::{with_provider, Native, Provider, ProviderId, WideTotals};
use nbsp_memsim::ProcId;
use nbsp_structures::stm::Stm;
use nbsp_structures::stm_orec::OrecStm;
use nbsp_structures::{Counter, Queue, Set, Stack};
use nbsp_telemetry::{AtomicTotals, Flusher};
use std::sync::Mutex;

use crate::measure::{throughput, throughput_sessions};
use crate::report::{event_table, fmt_ops, Report, Table};
use crate::sinks::session_loop;

const THREADS: [usize; 3] = [1, 2, 4];

/// The substrates this experiment compares, by registry id: the paper's
/// Figure-4 construction, the Figure-2 lock baseline, and the two
/// consensus-hierarchy emulations — LL/SC built from swap+fetch-add
/// (Khanchandani–Wattenhofer) and from NB-FEB. The weak-primitive rows
/// price "weakening the hardware": same structures, same LL/VL/SC
/// interface, strictly weaker instruction set underneath.
const E7_PROVIDERS: [ProviderId; 4] = [
    ProviderId::Fig4Native,
    ProviderId::LockBaseline,
    ProviderId::CasFromSwap,
    ProviderId::FebLlSc,
];

/// Shared-counter increments.
fn counter_tput<P: Provider>(n: usize, per_thread: u64, sink: &WideTotals, main: &mut Flusher) -> f64 {
    let env = P::env(n + 1).expect("provider env");
    let c = Counter::new(P::var(&env, 0).expect("provider var"));
    main.flush(sink);
    throughput_sessions(n, per_thread, |tid| {
        let c = &c;
        let mut tc = P::thread_ctx(&env, tid);
        move |iters: u64| {
            let mut ctx = P::ctx(&mut tc);
            session_loop(iters, sink, || {
                c.increment(&mut ctx);
            });
        }
    })
}

/// Treiber-stack push+pop pairs.
fn stack_tput<P: Provider>(n: usize, per_thread: u64, sink: &WideTotals, main: &mut Flusher) -> f64 {
    let env = P::env(n + 1).expect("provider env");
    // Construction does LL/SC work: it uses the env's extra context slot.
    let mut setup_tc = P::thread_ctx(&env, n);
    let mut setup = P::ctx(&mut setup_tc);
    let s = Stack::new(
        64,
        P::var(&env, 0).expect("provider var"),
        P::var(&env, 0).expect("provider var"),
        &mut setup,
    );
    main.flush(sink);
    throughput_sessions(n, per_thread, |tid| {
        let s = &s;
        let mut tc = P::thread_ctx(&env, tid);
        move |iters: u64| {
            let mut ctx = P::ctx(&mut tc);
            session_loop(iters, sink, || {
                let _ = s.push(&mut ctx, 1);
                let _ = s.pop(&mut ctx);
            });
        }
    })
}

/// Michael–Scott-queue enqueue+dequeue pairs.
fn queue_tput<P: Provider>(n: usize, per_thread: u64, sink: &WideTotals, main: &mut Flusher) -> f64 {
    let env = P::env(n + 1).expect("provider env");
    let mut setup_tc = P::thread_ctx(&env, n);
    let mut setup = P::ctx(&mut setup_tc);
    let q = Queue::new(64, || P::var(&env, 0).expect("provider var"), &mut setup);
    main.flush(sink);
    throughput_sessions(n, per_thread, |tid| {
        let q = &q;
        let mut tc = P::thread_ctx(&env, tid);
        move |iters: u64| {
            let mut ctx = P::ctx(&mut tc);
            session_loop(iters, sink, || {
                let _ = q.enqueue(&mut ctx, 1);
                let _ = q.dequeue(&mut ctx);
            });
        }
    })
}

/// Set add+remove pairs on per-thread key ranges. Arena sized for the
/// set's lifetime-insert budget (nodes are not recycled; see the Set
/// docs).
fn set_tput<P: Provider>(n: usize, per_thread: u64, sink: &WideTotals, main: &mut Flusher) -> f64 {
    let env = P::env(n + 1).expect("provider env");
    let mut setup_tc = P::thread_ctx(&env, n);
    let mut setup = P::ctx(&mut setup_tc);
    let capacity = (per_thread as usize) * n + 64;
    let s = Set::new(capacity, || P::var(&env, 0).expect("provider var"), &mut setup);
    main.flush(sink);
    throughput_sessions(n, per_thread, |tid| {
        let s = &s;
        let mut tc = P::thread_ctx(&env, tid);
        let key_base = tid as u64 * 1_000_000;
        move |iters: u64| {
            let mut ctx = P::ctx(&mut tc);
            let mut i = 0u64;
            session_loop(iters, sink, || {
                i += 1;
                let _ = s.add(&mut ctx, key_base + (i % 64));
                let _ = s.remove(&mut ctx, key_base + (i % 64));
            });
        }
    })
}

/// One provider's throughput cells, in the structure order the report
/// table uses.
fn provider_rows<P: Provider>(
    iters: u64,
    sink: &WideTotals,
    main: &mut Flusher,
) -> Vec<(&'static str, String)> {
    let sweep = |work: fn(usize, u64, &WideTotals, &mut Flusher) -> f64,
                 per_thread: fn(u64, usize) -> u64,
                 main: &mut Flusher| {
        THREADS
            .iter()
            .map(|&n| fmt_ops(work(n, per_thread(iters, n), sink, main)))
            .collect::<Vec<_>>()
            .join(" / ")
    };
    vec![
        ("counter", sweep(counter_tput::<P>, |i, n| i / n as u64, main)),
        ("stack push+pop", sweep(stack_tput::<P>, |i, n| i / n as u64, main)),
        ("queue enq+deq", sweep(queue_tput::<P>, |i, n| i / n as u64, main)),
        ("set add+remove", sweep(set_tput::<P>, |i, n| i / (4 * n as u64), main)),
    ]
}

/// STM transfer throughput, Figure-6 STM vs a coarse mutex heap. (Not
/// provider-backed: the wide STM runs on a `WideDomain`, not a swappable
/// single-word LL/SC variable — but its operations still flush telemetry
/// into the run sink.)
fn stm_rows(iters: u64, sink: &WideTotals, main: &mut Flusher, t: &mut Table) {
    const CELLS: usize = 8;
    let tp_stm: Vec<String> = THREADS
        .iter()
        .map(|&n| {
            let d: Arc<WideDomain<Native>> = WideDomain::new(n.max(2), CELLS, 32).unwrap();
            let stm = Stm::new(&d, &[100; CELLS]).unwrap();
            main.flush(sink);
            let tput = throughput_sessions(n, iters / n as u64, |tid| {
                let stm = &stm;
                let p = ProcId::new(tid);
                let mut x = tid as u64;
                move |iters: u64| {
                    session_loop(iters, sink, || {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let from = (x >> 33) as usize % CELLS;
                        let to = (x >> 13) as usize % CELLS;
                        stm.transact(&Native, p, |h| {
                            let amt = h[from].min(1);
                            h[from] -= amt;
                            h[to] += amt;
                        });
                    });
                }
            });
            fmt_ops(tput)
        })
        .collect();
    t.row(vec![
        "STM 2-cell transfer".into(),
        "Figure-6 STM".into(),
        tp_stm.join(" / "),
    ]);
    let tp_mutex: Vec<String> = THREADS
        .iter()
        .map(|&n| {
            let heap = Mutex::new(vec![100u64; CELLS]);
            fmt_ops(throughput(n, iters / n as u64, |tid| {
                let heap = &heap;
                let mut x = tid as u64;
                move || {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let from = (x >> 33) as usize % CELLS;
                    let to = (x >> 13) as usize % CELLS;
                    let mut h = heap.lock().unwrap();
                    let amt = h[from].min(1);
                    h[from] -= amt;
                    h[to] += amt;
                }
            }))
        })
        .collect();
    t.row(vec![
        "STM 2-cell transfer".into(),
        "mutex heap".into(),
        tp_mutex.join(" / "),
    ]);
}

/// Disjoint-footprint STM comparison: each of 4 threads transacts on its
/// own pair of cells. The wide STM serialises them (its documented cost);
/// the ownership-record baseline parallelises them (its documented
/// benefit) but is blocking. Returns (wide, orec) ops/sec.
#[must_use]
pub fn stm_disjoint_throughput(iters: u64) -> (f64, f64) {
    const THREADS: usize = 4;
    const CELLS: usize = 2 * THREADS;
    let d: Arc<WideDomain<Native>> = WideDomain::new(THREADS, CELLS, 32).unwrap();
    let wide = Stm::new(&d, &[100; CELLS]).unwrap();
    let wide_tp = throughput(THREADS, iters, |tid| {
        let stm = &wide;
        let p = ProcId::new(tid);
        let (a, b) = (2 * tid, 2 * tid + 1);
        move || {
            stm.transact(&Native, p, |h| {
                let amt = h[a].min(1);
                h[a] -= amt;
                h[b] += amt;
                h.swap(a, b);
            });
        }
    });

    let orec = OrecStm::new(&[100; CELLS]);
    let orec_tp = throughput(THREADS, iters, |tid| {
        let stm = &orec;
        let p = ProcId::new(tid);
        let (a, b) = (2 * tid, 2 * tid + 1);
        move || {
            stm.transact(p, &[a, b], |v| {
                let amt = v[0].min(1);
                v[0] -= amt;
                v[1] += amt;
                v.swap(0, 1);
            });
        }
    });
    (wide_tp, orec_tp)
}

/// Runs E7.
#[must_use]
pub fn run(iters: u64) -> Report {
    let mut report = Report::new();
    report.heading("E7 — re-enabled non-blocking algorithms");
    report.para(
        "Paper claim: algorithms assuming LL/VL/SC ([4, 7, 14] …) become \
         deployable; §5 specifically claims STM is implementable. \
         Throughput of each structure on the registry's Figure-4 provider \
         vs the Figure-2 lock baseline (and a mutex heap for the STM), at \
         1/2/4 threads. The non-blocking versions additionally survive \
         arbitrary delays and failures of individual threads, which no \
         lock can. The cas-from-swap and feb-llsc rows are the cost of \
         weakening the hardware: the same structures running unchanged on \
         LL/SC emulated from swap+fetch-add and from NB-FEB — weaker \
         instruction sets that real CAS-less machines would offer.",
    );

    let sink = WideTotals::with_all_slots().expect("telemetry sink");
    let mut main_flush = Flusher::new();
    let mut per_provider: Vec<(&'static str, Vec<(&'static str, String)>)> = Vec::new();
    for id in E7_PROVIDERS {
        macro_rules! rows_one {
            ($p:ty) => {
                per_provider.push((
                    id.meta().name,
                    provider_rows::<$p>(iters, &sink, &mut main_flush),
                ))
            };
        }
        with_provider!(id, rows_one);
    }

    let mut t = Table::new(["structure", "substrate", "throughput 1/2/4 threads"]);
    // Structure-major, provider-minor: adjacent rows compare substrates.
    for si in 0..per_provider[0].1.len() {
        for (provider, rows) in &per_provider {
            let (structure, cells) = &rows[si];
            t.row(vec![(*structure).into(), (*provider).into(), cells.clone()]);
        }
    }
    stm_rows(iters / 2, &sink, &mut main_flush, &mut t);
    report.table(&t);

    report.para(
        "The two STM axes (§5): 4 threads on *disjoint* 2-cell footprints. \
         The Figure-6 STM is non-blocking but serialises everything; the \
         ownership-record baseline (Shavit–Touitou without helping) is \
         disjoint-access parallel but blocking. The full [14] design would \
         combine both — the \"more algorithmic and experimental work\" the \
         paper calls for:",
    );
    let (wide_tp, orec_tp) = stm_disjoint_throughput(iters / 2);
    let mut t2 = Table::new(["STM design", "progress", "disjoint 4-thread throughput"]);
    t2.row([
        "Figure-6 STM (one wide var)".to_string(),
        "lock-free".to_string(),
        fmt_ops(wide_tp),
    ]);
    t2.row([
        "ownership records, no helping".to_string(),
        "blocking".to_string(),
        fmt_ops(orec_tp),
    ]);
    report.table(&t2);

    if nbsp_telemetry::enabled() {
        report.para(
            "Telemetry totals across every cell above, read from the \
             run-level Figure-6 sink with a single WLL (E11 shows why a \
             racy per-counter sum could not be trusted here):",
        );
        report.table(&event_table(&sink.totals(), None));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbsp_core::provider::{CasFromSwap, FebLlSc, Fig4Native, LockBaseline};

    fn counter_smoke<P: Provider>() {
        // Cheap correctness pass of exactly the code paths the experiment
        // times (the experiment itself only reports throughput).
        let env = P::env(2).unwrap();
        let c = Counter::new(P::var(&env, 0).unwrap());
        let mut tc = P::thread_ctx(&env, 0);
        let mut ctx = P::ctx(&mut tc);
        c.increment(&mut ctx);
        assert_eq!(c.get(&mut ctx), 1);
    }

    #[test]
    fn structures_work_on_every_swept_substrate() {
        counter_smoke::<Fig4Native>();
        counter_smoke::<LockBaseline>();
        counter_smoke::<CasFromSwap>();
        counter_smoke::<FebLlSc>();
    }

    #[test]
    fn report_smoke() {
        let md = run(2_000).to_markdown();
        assert!(md.contains("E7"));
        assert!(md.contains("Figure-6 STM"));
        assert!(md.contains("queue enq+deq"));
        assert!(md.contains("fig4-native"));
        assert!(md.contains("lock"));
        assert!(md.contains("cas-from-swap"));
        assert!(md.contains("feb-llsc"));
    }
}
