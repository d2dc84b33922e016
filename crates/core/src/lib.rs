//! # nbsp-core — Moir's PODC '97 synchronization-primitive constructions
//!
//! This crate implements every construction of Mark Moir, *Practical
//! Implementations of Non-Blocking Synchronization Primitives* (PODC 1997):
//!
//! | Paper artifact | Type here | Provides | From | Space overhead |
//! |---|---|---|---|---|
//! | Figure 3 / Thm 1 | [`EmuCasWord`], [`EmuCas`] | CAS | RLL/RSC | none |
//! | Figure 4 / Thm 2 | [`CasLlSc`] | LL/VL/SC | CAS | none |
//! | Figure 5 / Thm 3 | [`RllLlSc`] | LL/VL/SC | RLL/RSC | none |
//! | Figure 6 / Thm 4 | [`wide::WideVar`] | W-word WLL/VL/SC | CAS | Θ(NW) |
//! | Figure 7 / Thm 5 | [`bounded::BoundedVar`] | LL/VL/SC, bounded tags | CAS | Θ(N(k+T)) |
//! | Figure 2 | [`lock_baseline::LockLlSc`] | reference semantics | a lock | (baseline/oracle only) |
//!
//! The constructions are generic over [`CasMemory`] where the paper says
//! "using CAS": instantiate with [`Native`] on real hardware, with
//! [`SimCas`] on a simulated CAS-only machine, or with [`EmuCas`] to run the
//! whole stack on a simulated machine that has *only* RLL/RSC.
//!
//! The paper's modified LL interface — pass a pointer to a private word to
//! `LL`, hand the stored value back to `VL`/`SC` — appears here as the
//! [`Keep`] type (and [`keep_search`] measures what that interface buys).
//!
//! ## Quick start
//!
//! ```
//! use nbsp_core::{CasLlSc, Keep, Native, TagLayout};
//!
//! // A 32-bit counter with a 32-bit tag, on native atomics.
//! let counter = CasLlSc::new_native(TagLayout::half(), 0)?;
//! let mem = Native;
//!
//! let mut keep = Keep::default();
//! loop {
//!     let v = counter.ll(&mem, &mut keep);
//!     if counter.sc(&mem, &keep, v + 1) {
//!         break;
//!     }
//! }
//! assert_eq!(counter.read(&mem), 1);
//! # Ok::<(), nbsp_core::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod backoff;
pub mod bounded;
mod cas_from_rll;
mod cas_from_swap;
mod cas_provider;
pub mod constant_llsc;
pub mod dynamic_llsc;
mod error;
mod feb_llsc;
pub mod keep_search;
mod layout;
mod llsc_from_cas;
mod llsc_from_rll;
pub mod lock_baseline;
mod ops;
pub mod provider;
mod tag_queue;
pub mod telemetry;
pub mod wide;

pub use backoff::Backoff;
pub use bounded::TagPolicy;
pub use cas_from_rll::{EmuCas, EmuCasWord, EmuFamily};
pub use cas_from_swap::{KwCas, KwFamily, KwWord, KW_VALUE_BITS, ROUND_BITS};
pub use cas_provider::{
    CasFamily, CasMemory, CellOf, Native, NativeSeqCst, SimCas, SimFamily, SyncMemory,
};
pub use constant_llsc::{ConstantDomain, ConstantKeep, ConstantProc, ConstantVar};
pub use dynamic_llsc::{DurableDynamicVar, DynProc, DynamicDomain, DynamicVar, VolatileDynamicVar};
pub use error::{Error, Result};
pub use feb_llsc::{FebCas, FebFamily, FebWord, FEB_VALUE_BITS, RING};
pub use layout::TagLayout;
pub use llsc_from_cas::{CasLlSc, Keep};
pub use llsc_from_rll::RllLlSc;
pub use ops::LlScVar;
pub use provider::{Provider, ProviderId, ProviderMeta, Tier};
pub use tag_queue::{ScanQueue, TagQueue};
pub use telemetry::{WideSum, WideTotals};

// Re-exported so users of the constructions can pad their own per-process
// slots the same way the announce arrays are padded. (Defined in
// `nbsp-memsim` — the layering base — because the simulator needs it too.)
pub use nbsp_memsim::CachePadded;
