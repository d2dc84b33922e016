//! # nbsp-linearize — executable linearizability checking
//!
//! The paper defers its correctness arguments to hand proofs in the full
//! version ("we prove that each of our results yields a linearizable \[9\]
//! implementation of the stated primitives"). This crate replaces what a
//! repository cannot ship — hand proofs — with what it can: a mechanical
//! [Wing & Gong]-style checker that decides whether a recorded concurrent
//! history of LL/VL/SC/CAS operations is linearizable with respect to the
//! Figure-2 sequential specification.
//!
//! * [`history`] — concurrent history recording with a global logical
//!   clock (an operation `A` really-precedes `B` iff `A` returned before
//!   `B` was invoked).
//! * [`spec`] — the Figure-2 semantics as deterministic state machines.
//! * [`checker`] — exhaustive DFS over linearization orders with
//!   memoization.
//!
//! The checker is validated in both directions: correct implementations
//! pass on thousands of randomized schedules, and a deliberately broken
//! implementation (SC by value comparison without a tag, i.e. the ABA bug)
//! is caught.
//!
//! This crate enumerates no schedules itself: exhaustive checking of the
//! shipped constructions, including the figure certificates, is
//! `nbsp-check`'s DPOR, which judges each history with this crate's
//! specifications and checker.
//!
//! [Wing & Gong]: https://doi.org/10.1006/jpdc.1993.1015

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod checker;
pub mod history;
pub mod spec;
pub mod structures_spec;

pub use checker::is_linearizable;
pub use history::{Completed, HistoryClock, Op, Recorder, Ret};
pub use spec::{CasSpec, LlScSpec, SeqSpec};
pub use structures_spec::{
    MapOp, MapRet, MapSpec, QueueOp, QueueRet, QueueSpec, SetOp, SetRet, SetSpec, StackOp,
    StackRet, StackSpec,
};
