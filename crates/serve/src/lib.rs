//! # nbsp-serve — an open-loop request-serving subsystem
//!
//! Every other workload in this workspace is a *closed loop*: worker
//! threads spin on a structure as fast as they can, so the only number
//! that comes out is throughput, and queueing delay is invisible — a
//! worker that stalls simply issues its next request later, silently
//! editing the arrival process (the *coordinated omission* artifact).
//! This crate is the north-star "serves heavy traffic" workload done
//! properly, as an **open-loop** harness:
//!
//! 1. **Load generation** ([`loadgen`]) — a SplitMix64-seeded arrival
//!    process (Poisson or bursty ON/OFF) on a **virtual-time clock**.
//!    Every request carries its *intended* arrival time; latency is
//!    always measured against that, never against when the system got
//!    around to it, so a backed-up run reports its real queueing delay.
//! 2. **Dispatch** ([`fabric`]) — bounded rings whose cursors are the
//!    registry's LL/SC variables ([`ShardRing`]): the producer's push is
//!    wait-free (single writer, its SC cannot lose), a consumer's claim
//!    is one LL–SC on the head cursor (lock-free: a failed SC means
//!    another consumer claimed a request), and a dry worker steals half
//!    of another ring's queue with a single SC.
//! 3. **Admission control** ([`admission`], [`fabric`]) — a token bucket
//!    whose whole state, `(tokens, refill stamp)`, is packed into **one**
//!    LL/SC word so an admit/shed decision is a single LL–SC sequence
//!    ([`TokenBucket`]); or per-worker stripes batch-refilled from one
//!    global Figure-6 wide bucket ([`StripedBucket`]), whose common path
//!    is one LL–SC on a worker-local word. Outcomes are recorded via
//!    `nbsp-telemetry` (`serve_admit` / `serve_shed` / `serve_refill`).
//! 4. **Metrics** ([`metrics`]) — log2 sojourn-time histograms plus
//!    admission counters, aggregated per *cell* in one Figure-6
//!    [`WideVar`](nbsp_core::wide::WideVar): workers publish local deltas
//!    with WLL → add → SC, and every reported block is read with a
//!    **single WLL** — the Theorem-4 consistent path, no racy sums.
//! 5. **The pipeline** ([`elastic`]) — one open-loop producer and one
//!    worker loop compose the layers. [`Pool`] picks the workers: a
//!    `Fixed` count, or an `Elastic` pool that a deterministic
//!    producer-driven autoscaler resizes by republishing the
//!    [`Directory`] word, with workers joining and retiring the provider
//!    domain per activation epoch (real membership churn on the
//!    `dynamic` providers). [`Dispatch`] picks the rings: one `Shared`
//!    ring behind the single-word bucket — the baseline whose claim
//!    cursor every worker contends on — or `Sharded` rings and admission
//!    stripes, one per worker.
//!
//! [`service`] holds the cell's configuration and result and the entry
//! points: [`run_cell`] on the registry's Figure-4 native entry and
//! [`run_cell_as`] on any provider. E12 sweeps arrival rate × structure
//! × admission on a shared ring and scales shared against sharded
//! dispatch (`BENCH_serve.json`); E14 serves one flash crowd with fixed
//! and elastic pools (`BENCH_elastic.json`); E15 routes keyed ordered-map
//! requests by key hash (`BENCH_structures.json`).
//!
//! ## Why timing is virtual
//!
//! Completion times come from a deterministic virtual `N`-server queue
//! model (each admitted request waits for its ring's claim cursor, then
//! occupies a virtual worker for its seeded service demand; see
//! [`elastic`] for the model), while the request's *work* is
//! really executed by real threads against the real non-blocking
//! structures. The split buys both halves of what the experiment needs:
//! the real execution exercises the LL/SC stack under genuine
//! multi-thread contention (feeding real telemetry), and the virtual
//! clock makes latency percentiles **reproducible** — the same seed
//! yields byte-identical per-cell counters on any host, which is what
//! lets CI gate on them. See DESIGN.md §9.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod admission;
pub mod elastic;
pub mod fabric;
pub mod loadgen;
pub mod metrics;
pub mod service;

pub use admission::{AdmissionConfig, TokenBucket};
pub use elastic::{PoolTrace, ScalerConfig};
pub use fabric::{shard_for_key, AdmitOutcome, Directory, ShardRing, StripedBucket};
pub use loadgen::{ArrivalProcess, KeyDist, LoadGen, Request};
pub use metrics::{percentile_ns, CellFlusher, CellSink, CellSnapshot, SOJOURN_BUCKETS};
pub use service::{run_cell, run_cell_as, CellConfig, CellResult, Dispatch, Pool, Workload};
