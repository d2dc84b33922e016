//! Bit layouts for tagged machine words.
//!
//! All of the paper's one-word constructions store a *tag* and a *value* in
//! a single machine word (`record tag: tagtype; val: valtype end`). The tag
//! detects changes to the value; tag arithmetic is modular (the paper's ⊕/⊖).
//! The split is the central engineering trade-off of Section 1: more tag
//! bits make wraparound (and therefore incorrect behaviour) less likely,
//! fewer tag bits leave more room for application data. Experiment E5
//! quantifies the trade-off.

use crate::{Error, Result};

/// A tag/value split of a `width`-bit word (`width ≤ 64`).
///
/// ```
/// use nbsp_core::TagLayout;
///
/// // The paper's Section-1 example: 48 tag bits and 16 value bits.
/// let layout = TagLayout::new(48, 16)?;
/// let w = layout.pack(7, 0xBEEF)?;
/// assert_eq!(layout.tag(w), 7);
/// assert_eq!(layout.val(w), 0xBEEF);
/// # Ok::<(), nbsp_core::Error>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TagLayout {
    tag_bits: u32,
    val_bits: u32,
}

/// Mask with the low `bits` bits set (`bits ≤ 64`).
#[inline]
#[must_use]
pub(crate) fn low_mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Minimum number of bits that can represent `count` distinct values
/// (at least 1 bit, so a field never has zero width).
#[inline]
#[must_use]
pub(crate) fn bits_for_count(count: u64) -> u32 {
    if count <= 2 {
        1
    } else {
        64 - (count - 1).leading_zeros()
    }
}

impl TagLayout {
    /// Creates a layout with the given tag and value widths, for a full
    /// 64-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidLayout`] if either width is zero or the sum
    /// exceeds 64 bits.
    pub fn new(tag_bits: u32, val_bits: u32) -> Result<Self> {
        Self::for_width(tag_bits, val_bits, 64)
    }

    /// Creates a layout inside a word of only `width` usable bits (used when
    /// stacking constructions, e.g. LL/VL/SC-from-CAS on top of the
    /// Figure-3 emulated CAS, whose own tag consumes part of the word —
    /// the "two tags" problem of Section 3.2).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidLayout`] if either width is zero or
    /// `tag_bits + val_bits > width` (or `width > 64`).
    #[inline]
    pub fn for_width(tag_bits: u32, val_bits: u32, width: u32) -> Result<Self> {
        if tag_bits == 0
            || val_bits == 0
            || width > 64
            || tag_bits.saturating_add(val_bits) > width
        {
            return Err(Error::InvalidLayout {
                tag_bits,
                val_bits,
                available: width.min(64),
            });
        }
        Ok(TagLayout { tag_bits, val_bits })
    }

    /// A sensible default for 64-bit words: 32 tag bits, 32 value bits.
    #[inline]
    #[must_use]
    pub fn half() -> Self {
        TagLayout {
            tag_bits: 32,
            val_bits: 32,
        }
    }

    /// Number of tag bits.
    #[inline]
    #[must_use]
    pub fn tag_bits(self) -> u32 {
        self.tag_bits
    }

    /// Number of value bits.
    #[inline]
    #[must_use]
    pub fn val_bits(self) -> u32 {
        self.val_bits
    }

    /// Total bits used by the layout.
    #[inline]
    #[must_use]
    pub fn total_bits(self) -> u32 {
        self.tag_bits + self.val_bits
    }

    /// Largest storable value.
    #[inline]
    #[must_use]
    pub fn max_val(self) -> u64 {
        low_mask(self.val_bits)
    }

    /// Largest tag; tags live in `0..=max_tag` and wrap modularly.
    #[inline]
    #[must_use]
    pub fn max_tag(self) -> u64 {
        low_mask(self.tag_bits)
    }

    /// Number of distinct tags (`max_tag + 1`), saturating at `u64::MAX`
    /// for 64-bit tags.
    #[inline]
    #[must_use]
    pub fn tag_count(self) -> u64 {
        self.max_tag().saturating_add(1)
    }

    /// Packs `tag` and `val` into a word. The tag occupies the high bits of
    /// the used region so that the value field starts at bit 0.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ValueTooLarge`] if `val` exceeds [`TagLayout::max_val`].
    /// Tags are reduced modulo the tag range rather than rejected, because
    /// all tag arithmetic in the paper is modular.
    #[inline]
    pub fn pack(self, tag: u64, val: u64) -> Result<u64> {
        if val > self.max_val() {
            return Err(Error::ValueTooLarge {
                value: val,
                max: self.max_val(),
            });
        }
        Ok(((tag & self.max_tag()) << self.val_bits) | val)
    }

    /// Packs without validating `val`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `val` does not fit.
    #[inline]
    #[must_use]
    pub(crate) fn pack_unchecked(self, tag: u64, val: u64) -> u64 {
        debug_assert!(val <= self.max_val(), "value {val} exceeds layout");
        ((tag & self.max_tag()) << self.val_bits) | val
    }

    /// Extracts the tag field.
    #[inline]
    #[must_use]
    pub fn tag(self, word: u64) -> u64 {
        (word >> self.val_bits) & self.max_tag()
    }

    /// Extracts the value field.
    #[inline]
    #[must_use]
    pub fn val(self, word: u64) -> u64 {
        word & self.max_val()
    }

    /// The paper's `tag ⊕ 1`: increment modulo the tag range.
    #[inline]
    #[must_use]
    pub fn tag_succ(self, tag: u64) -> u64 {
        tag.wrapping_add(1) & self.max_tag()
    }

    /// The paper's `tag ⊖ 1`: decrement modulo the tag range.
    #[inline]
    #[must_use]
    pub fn tag_pred(self, tag: u64) -> u64 {
        tag.wrapping_sub(1) & self.max_tag()
    }

    /// Replaces a word's tag with its successor, keeping the value —
    /// the shape of every successful store in the paper.
    #[inline]
    #[must_use]
    pub fn bump_tag(self, word: u64) -> u64 {
        self.pack_unchecked(self.tag_succ(self.tag(word)), self.val(word))
    }

    /// Seconds until a tag field wraps around at `mods_per_sec` successful
    /// modifications per second — the paper's Section-1 arithmetic ("even if
    /// a variable is modified a million times a second, this would take
    /// about nine years" for 48 tag bits). Returns `f64::INFINITY` when the
    /// rate is zero.
    #[must_use]
    pub fn seconds_to_wraparound(self, mods_per_sec: f64) -> f64 {
        if mods_per_sec <= 0.0 {
            return f64::INFINITY;
        }
        self.tag_count() as f64 / mods_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trip() {
        let l = TagLayout::new(16, 48).unwrap();
        for (t, v) in [(0u64, 0u64), (1, 1), (0xFFFF, (1 << 48) - 1), (7, 12345)] {
            let w = l.pack(t, v).unwrap();
            assert_eq!(l.tag(w), t & l.max_tag());
            assert_eq!(l.val(w), v);
        }
    }

    #[test]
    fn rejects_zero_and_oversized_layouts() {
        assert!(TagLayout::new(0, 10).is_err());
        assert!(TagLayout::new(10, 0).is_err());
        assert!(TagLayout::new(33, 32).is_err());
        assert!(TagLayout::for_width(8, 8, 15).is_err());
        assert!(TagLayout::for_width(8, 8, 65).is_err());
        assert!(TagLayout::for_width(8, 8, 16).is_ok());
    }

    #[test]
    fn value_range_is_enforced() {
        let l = TagLayout::new(60, 4).unwrap();
        assert_eq!(l.max_val(), 15);
        assert!(l.pack(0, 16).is_err());
        assert!(l.pack(0, 15).is_ok());
    }

    #[test]
    fn tag_is_reduced_modulo_range() {
        let l = TagLayout::new(4, 4).unwrap();
        let w = l.pack(0x1_0003, 1).unwrap();
        assert_eq!(l.tag(w), 3);
    }

    #[test]
    fn tag_succ_and_pred_wrap() {
        let l = TagLayout::new(4, 60).unwrap();
        assert_eq!(l.tag_succ(14), 15);
        assert_eq!(l.tag_succ(15), 0);
        assert_eq!(l.tag_pred(0), 15);
        assert_eq!(l.tag_pred(1), 0);
    }

    #[test]
    fn bump_tag_keeps_value() {
        let l = TagLayout::new(8, 8).unwrap();
        let w = l.pack(255, 42).unwrap();
        let b = l.bump_tag(w);
        assert_eq!(l.tag(b), 0);
        assert_eq!(l.val(b), 42);
    }

    #[test]
    fn paper_wraparound_arithmetic() {
        // 48-bit tag, one million modifications per second ≈ 8.9 years.
        let l = TagLayout::new(48, 16).unwrap();
        let years = l.seconds_to_wraparound(1e6) / (365.25 * 24.0 * 3600.0);
        assert!((8.0..10.0).contains(&years), "{years} years");
    }

    #[test]
    fn wraparound_is_infinite_at_zero_rate() {
        let l = TagLayout::half();
        assert!(l.seconds_to_wraparound(0.0).is_infinite());
    }

    #[test]
    fn half_layout() {
        let l = TagLayout::half();
        assert_eq!((l.tag_bits(), l.val_bits(), l.total_bits()), (32, 32, 64));
        assert_eq!(l.max_val(), u32::MAX as u64);
    }

    #[test]
    fn low_mask_extremes() {
        assert_eq!(low_mask(0), 0);
        assert_eq!(low_mask(1), 1);
        assert_eq!(low_mask(64), u64::MAX);
    }

    #[test]
    fn bits_for_count_boundaries() {
        assert_eq!(bits_for_count(0), 1);
        assert_eq!(bits_for_count(1), 1);
        assert_eq!(bits_for_count(2), 1);
        assert_eq!(bits_for_count(3), 2);
        assert_eq!(bits_for_count(4), 2);
        assert_eq!(bits_for_count(5), 3);
        assert_eq!(bits_for_count(256), 8);
        assert_eq!(bits_for_count(257), 9);
        assert_eq!(bits_for_count(u64::MAX), 64);
    }
}
