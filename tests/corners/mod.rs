//! The ablation corners of two registry entries, stamped by name in the
//! suites that cover them: Figure 4 on native CAS at the other three
//! ordering × layout settings (`exp_contention`'s E7b sweep) and Figure 7
//! over the paper-literal scan queue (E9). They are settings of
//! `fig4-native` and `fig7-bounded`, not registry entries, so
//! `for_each_provider!` does not reach them.

use nbsp::core::provider::{Fig4NativeAblation, Fig7Bounded};
use nbsp::core::{CachePadded, CasLlSc, Native, NativeSeqCst, ScanQueue};

/// Figure 4, packed, every operation `SeqCst`.
pub type Fig4SeqCst = Fig4NativeAblation<NativeSeqCst, CasLlSc<Native>>;
/// Figure 4, one variable per cache line, acquire/release.
pub type Fig4Padded = Fig4NativeAblation<Native, CachePadded<CasLlSc<Native>>>;
/// Figure 4, one variable per cache line, every operation `SeqCst`.
pub type Fig4PaddedSeqCst = Fig4NativeAblation<NativeSeqCst, CachePadded<CasLlSc<Native>>>;
/// Figure 7 with the O(Nk) scan tag queue.
pub type Fig7Scan = Fig7Bounded<ScanQueue>;

/// Invokes `$body!(slug, Type)` once per corner, like `for_each_provider!`.
macro_rules! for_each_corner {
    ($body:ident) => {
        $body!(fig4_native_seqcst, crate::corners::Fig4SeqCst);
        $body!(fig4_native_padded, crate::corners::Fig4Padded);
        $body!(fig4_native_padded_seqcst, crate::corners::Fig4PaddedSeqCst);
        $body!(fig7_bounded_scan, crate::corners::Fig7Scan);
    };
}
