//! Cache-line padding for per-process shared slots.
//!
//! Moir's constructions give each process its own announce/tag slot, and the
//! algorithms only ever have process *p* write slot *p* — but if two slots
//! share a cache line, the coherence protocol still serializes those writes
//! (false sharing). [`CachePadded`] aligns a value to 128 bytes so arrays of
//! per-process slots put each slot on its own line. 128 rather than 64
//! because modern x86 prefetches cache lines in adjacent pairs and recent
//! aarch64 parts have 128-byte lines, the same sizing rationale as
//! crossbeam's `CachePadded` — reimplemented here dependency-free so the
//! workspace builds offline.

use std::borrow::Borrow;
use std::fmt;
use std::ops::{Deref, DerefMut};

/// Aligns `T` to 128 bytes so neighbouring values in an array cannot share
/// a cache line (or an adjacent-line prefetch pair).
///
/// ```
/// use nbsp_memsim::CachePadded;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let slots: Vec<CachePadded<AtomicU64>> =
///     (0..4).map(|_| CachePadded::new(AtomicU64::new(0))).collect();
/// slots[1].store(9, Ordering::Release); // Deref passes through
/// assert_eq!(std::mem::align_of_val(&slots[0]), 128);
/// ```
#[derive(Default, PartialEq, Eq)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in a 128-byte-aligned cell.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Unwraps the inner value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

impl<T> Borrow<T> for CachePadded<T> {
    fn borrow(&self) -> &T {
        &self.value
    }
}

impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.value.fmt(f)
    }
}

impl<T: Clone> Clone for CachePadded<T> {
    fn clone(&self) -> Self {
        CachePadded::new(self.value.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn alignment_and_size_are_full_lines() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
        assert_eq!(std::mem::size_of::<CachePadded<u8>>(), 128);
        assert_eq!(std::mem::size_of::<CachePadded<[u64; 32]>>(), 256);
    }

    #[test]
    fn array_elements_never_share_a_line() {
        let v: Vec<CachePadded<AtomicU64>> =
            (0..8).map(|_| CachePadded::new(AtomicU64::new(0))).collect();
        for pair in v.windows(2) {
            let a = &*pair[0] as *const AtomicU64 as usize;
            let b = &*pair[1] as *const AtomicU64 as usize;
            assert!(b - a >= 128, "slots {a:#x} and {b:#x} share a line");
        }
    }

    #[test]
    fn deref_passes_through() {
        let c = CachePadded::new(AtomicU64::new(3));
        c.store(4, Ordering::Relaxed);
        assert_eq!(c.load(Ordering::Relaxed), 4);
        assert_eq!(c.into_inner().into_inner(), 4);
    }

    #[test]
    fn derives_work() {
        let a = CachePadded::new(5u64);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), "5");
        let d: CachePadded<u64> = CachePadded::default();
        assert_eq!(*d, 0);
        let f: CachePadded<u64> = 7.into();
        assert_eq!(*f, 7);
    }
}
