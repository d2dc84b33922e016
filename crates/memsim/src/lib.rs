//! # nbsp-memsim — a simulated shared-memory multiprocessor
//!
//! This crate is the hardware substrate for the constructions of Moir's
//! PODC '97 paper *Practical Implementations of Non-Blocking Synchronization
//! Primitives*. The paper targets 1997-era machines (MIPS R4000, DEC Alpha,
//! PowerPC) whose Load-Linked/Store-Conditional instructions are **much
//! weaker** than the LL/VL/SC assumed by algorithm designers. Rust (and the
//! hardware we run on) does not expose raw LL/SC at all, so this crate
//! *simulates* a multiprocessor that provides exactly the restricted pair the
//! paper calls **RLL/RSC**, plus ordinary word reads/writes and CAS:
//!
//! * one reservation ("LLBit") per processor — a new [`Processor::rll`]
//!   silently discards the previous reservation;
//! * no Validate instruction;
//! * [`Processor::rsc`] may fail *spuriously* according to a pluggable,
//!   deterministic [`SpuriousMode`];
//! * any other memory access between an RLL and the following RSC
//!   invalidates (or, in strict mode, panics on) the reservation, modelling
//!   the paper's restriction that "a process may not access memory between an
//!   RLL and the subsequent RSC";
//! * words are a single machine word (64 bits here).
//!
//! Every instruction reports the word it is about to access, and the kind
//! of access, to [`sched::yield_point`] first. That one seam carries the
//! model checker's schedules, crash injection, and any observer that needs
//! to know which words a run touched (the disjoint-access-parallelism
//! experiment installs one).
//!
//! A [`Machine`] also carries an [`InstructionSet`] capability so tests can
//! model machines that provide *either* CAS *or* RLL/RSC but not both — the
//! portability gap the paper closes.
//!
//! The [`exact`] module provides a lock-based oracle in which RSC detects
//! *any* intervening write (even one that restores the same value). The
//! default [`Processor::rsc`] implements conditional store as a
//! compare-exchange on the value observed by RLL, which is indistinguishable
//! from true RSC for every algorithm in the paper (each successful store
//! writes a fresh tag); differential tests against [`exact`] validate this.
//!
//! ## Example
//!
//! ```
//! use nbsp_memsim::{Machine, SimWord};
//!
//! let machine = Machine::builder(1).build();
//! let p = machine.processor(0);
//! let w = SimWord::new(5);
//! loop {
//!     let v = p.rll(&w);
//!     if p.rsc(&w, v + 1) {
//!         break;
//!     }
//! }
//! assert_eq!(p.read(&w), 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod cost;
pub mod exact;
mod machine;
mod pad;
pub mod pmem;
mod proc_id;
pub mod rng;
pub mod sched;
mod spurious;
mod stats;
mod word;

pub use cost::CostModel;
pub use pmem::{MemWord, PWord, VWord};
pub use machine::{
    AccessBetween, Capability, InstructionSet, Machine, MachineBuilder, Processor,
};
pub use pad::CachePadded;
pub use proc_id::ProcId;
pub use spurious::SpuriousMode;
pub use stats::ProcStats;
pub use word::SimWord;

/// The NB-FEB full/empty flag bit, stored in the top bit of a [`SimWord`].
///
/// [`Processor::feb_tfas`] refuses to install when this bit is set and sets
/// it when it installs; [`Processor::feb_sac`] clears it. Values passed to
/// the NB-FEB ops must leave this bit clear — the flag is metadata owned by
/// the instruction set, not part of the stored value.
pub const FEB_FLAG: u64 = 1 << 63;
