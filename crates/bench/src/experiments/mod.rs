//! One module per experiment (see `DESIGN.md` §4 for the index).
//!
//! | Module | Experiment | Paper claim |
//! |---|---|---|
//! | [`e1_time`] | E1 | Thm 1–3: constant time per op, independent of N |
//! | [`e2_wide`] | E2 | Thm 4: WLL/SC Θ(W), VL Θ(1) |
//! | [`e3_space`] | E3 | space overheads: 0 / 0 / Θ(NW) / Θ(N(k+T)) vs Θ(N²T), Θ(NWT) |
//! | [`e4_spurious`] | E4 | wait-free given finitely many spurious failures |
//! | [`e5_wraparound`] | E5 | 48-bit tag @ 10⁶ mods/s ≈ 9 years to wrap |
//! | [`e7_structures`] | E7 | previously-inapplicable algorithms now run (incl. STM) |
//! | [`e8_interface`] | E8 | keep-pointer interface avoids the search space–time tradeoff |
//! | [`e9_bounded`] | E9 | bounded tags are never prematurely reused |
//! | [`e10_disjoint`] | E10 | Figures 3/4/5 are disjoint-access parallel; 6/7 are not but contention stays moderate |
//! | [`e11_telemetry`] | E11 | telemetry is free when disabled; Figure-6 snapshots never tear, racy ones do |
//! | [`e12_serve`] | E12 | open-loop serving: latency percentiles vs intended arrivals; single-word token-bucket admission caps the tail |
//! | [`e13_modelcheck`] | E13 | the shipped Figure 3/5/6/7 types reach every certificate verdict (a 1-bit-tag Figure 5 is caught); every registry provider is linearizable under exhaustive DPOR on small configurations; DPOR prunes ≥2x vs naive DFS; a planted tag-drop bug is caught |
//! | [`e14_elastic`] | E14 | the elastic pool (dynamic joining) beats every fixed pool size on p99 under a flash crowd; the durable provider survives kill-at-schedule-point crashes |
//! | [`e15_structures`] | E15 | the LLX/SCX ordered map serves keyed traffic deterministically through the fabric and beats the lock-baseline map at 4 threads; Zipf hot keys exercise real helping |
//! | [`e16_hierarchy`] | E16 | the consensus-hierarchy portability matrix: every provider's capability/tier, conformance+differential+DPOR stamps for the weak-primitive tier, and the monotone cost of weakening the hardware |
//! | [`e17_obligations`] | E17 | static client-side certification: every keep reaches a consumer on all paths, the certified simultaneous-keep bound equals PROVIDER_K, and every Release store pairs with an Acquire load |
//!
//! (E6 — Figure 1 — is `examples/concurrent_sequences.rs` and
//! `tests/figure1.rs`.)

pub mod e10_disjoint;
pub mod e11_telemetry;
pub mod e12_serve;
pub mod e13_modelcheck;
pub mod e14_elastic;
pub mod e15_structures;
pub mod e16_hierarchy;
pub mod e17_obligations;
pub mod e1_time;
pub mod e2_wide;
pub mod e3_space;
pub mod e4_spurious;
pub mod e5_wraparound;
pub mod e7_structures;
pub mod e8_interface;
pub mod e9_bounded;
mod serving;
