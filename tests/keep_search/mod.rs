//! The keep-search ablations of E3/E8, stamped by name in the suites that
//! cover them. Both run Figure 4's tag discipline but keep one kept word
//! per (process, variable), in the variable (`PerVarKeepVar`) or in a
//! shared registry (`RegistryKeepVar`), instead of a caller-held keep per
//! sequence. That is Figure 2's one link per process, so they implement
//! no `LlScVar`; the suites drive their inherent per-process API through
//! [`Linked`].

use std::sync::{Arc, OnceLock};

use nbsp::core::keep_search::{KeepRegistry, PerVarKeepVar, RegistryKeepVar};
use nbsp::core::TagLayout;
use nbsp::memsim::ProcId;

/// Figure 2's per-process LL/VL/SC, as the two ablations expose it.
pub trait Linked: Send + Sync + Sized {
    /// A variable for `n` processes holding `initial`.
    fn build(n: usize, initial: u64) -> Self;

    /// `p`'s LL; it replaces `p`'s previous link to this variable.
    fn ll(&self, p: ProcId) -> u64;

    /// `p`'s VL. Only defined after an `ll` by `p`.
    fn vl(&self, p: ProcId) -> bool;

    /// `p`'s SC. Only defined after an `ll` by `p` that no `sc` by `p`
    /// has consumed.
    fn sc(&self, p: ProcId, new: u64) -> bool;

    /// The current value.
    fn read(&self) -> u64;
}

impl Linked for PerVarKeepVar {
    fn build(n: usize, initial: u64) -> Self {
        PerVarKeepVar::new(n, TagLayout::half(), initial).expect("per-variable keep array")
    }

    fn ll(&self, p: ProcId) -> u64 {
        PerVarKeepVar::ll(self, p)
    }

    fn vl(&self, p: ProcId) -> bool {
        PerVarKeepVar::vl(self, p)
    }

    fn sc(&self, p: ProcId, new: u64) -> bool {
        PerVarKeepVar::sc(self, p, new)
    }

    fn read(&self) -> u64 {
        PerVarKeepVar::read(self)
    }
}

impl Linked for RegistryKeepVar {
    /// Every variable of a test binary shares one registry, as every
    /// variable of an E8 run does.
    fn build(n: usize, initial: u64) -> Self {
        static REGISTRY: OnceLock<Arc<KeepRegistry>> = OnceLock::new();
        let registry = REGISTRY.get_or_init(KeepRegistry::new);
        RegistryKeepVar::new(registry, n, TagLayout::half(), initial).expect("registry variable")
    }

    fn ll(&self, p: ProcId) -> u64 {
        RegistryKeepVar::ll(self, p)
    }

    fn vl(&self, p: ProcId) -> bool {
        RegistryKeepVar::vl(self, p)
    }

    fn sc(&self, p: ProcId, new: u64) -> bool {
        RegistryKeepVar::sc(self, p, new)
    }

    fn read(&self) -> u64 {
        RegistryKeepVar::read(self)
    }
}

/// Invokes `$body!(slug, Type, salt)` once per ablation, like
/// `for_each_provider!`; `salt` is distinct per ablation, for suites that
/// mix it into their program seeds.
macro_rules! for_each_keep_search {
    ($body:ident) => {
        $body!(keep_pervar, nbsp::core::keep_search::PerVarKeepVar, 7);
        $body!(
            keep_with_registry,
            nbsp::core::keep_search::RegistryKeepVar,
            8
        );
    };
}
