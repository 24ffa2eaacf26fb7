//! One-sparse recovery: the building block of the ℓ0-sampler \[36\].
//!
//! A one-sparse sketch summarizes a signed multiset of indices with three
//! field elements: the total count, the index-weighted count, and a
//! polynomial fingerprint `Σ δᵢ·z^{iᵢ}`. If the underlying vector has
//! exactly one nonzero coordinate, the sketch recovers it exactly; the
//! fingerprint rejects non-one-sparse vectors with probability
//! `1 − O(domain/P)`.

use crate::field::{self, PowTable};

/// Decode outcome of a [`OneSparse`] sketch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OneSparseDecode {
    /// The sketched vector is (almost surely) all zeros.
    Zero,
    /// Exactly one nonzero coordinate `(index, multiplicity)`.
    One(u64, i64),
    /// More than one nonzero coordinate (or a fingerprint mismatch).
    Many,
}

/// A linear one-sparse recovery sketch. 3 words.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
// Packed to 8-byte alignment (an `i128` forces 16: 12 bytes of padding in a
// `(u32, OneSparse)`); the compiler rejects references to its fields.
#[repr(C, packed(8))]
pub struct OneSparse {
    /// Σ δᵢ (exact, signed).
    count: i64,
    /// Σ δᵢ · indexᵢ (exact, signed; indices < 2^63/|Σδ| in practice).
    weighted: i128,
    /// Σ δᵢ · z^{indexᵢ} (mod P).
    fingerprint: u64,
}

impl OneSparse {
    /// The empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` copies of `index` (negative `delta` removes).
    ///
    /// `z` tabulates the fingerprint base shared by all sketches that will
    /// be merged together (drawn once per sketch family).
    pub fn update(&mut self, index: u64, delta: i64, z: &PowTable) {
        self.update_term(
            index,
            delta,
            field::mul(field::from_i64(delta), z.pow(index)),
        );
    }

    /// [`update`](Self::update) with the fingerprint term `δ·z^index (mod P)`
    /// already computed — a caller that adds the same index to several
    /// sketches exponentiates once.
    #[inline]
    pub fn update_term(&mut self, index: u64, delta: i64, term: u64) {
        self.count += delta;
        self.weighted += index as i128 * delta as i128;
        self.fingerprint = field::add(self.fingerprint, term);
    }

    /// Merges another sketch built with the same `z` (linearity).
    #[inline]
    pub fn merge(&mut self, other: &OneSparse) {
        self.count += other.count;
        self.weighted += other.weighted;
        self.fingerprint = field::add(self.fingerprint, other.fingerprint);
    }

    /// Batched merge of equal-length cell slices: `dst[i] += src[i]` for
    /// every cell. Asserting the lengths up front lets the compiler drop
    /// per-cell bounds checks and unroll the word-level add loop — the
    /// ℓ0-sampler merge ([`L0Sampler::merge`](crate::L0Sampler::merge))
    /// calls this once per sketch instead of bounds-checking per cell.
    pub fn merge_slices(dst: &mut [OneSparse], src: &[OneSparse]) {
        assert_eq!(dst.len(), src.len(), "cell count mismatch");
        for (a, b) in dst.iter_mut().zip(src) {
            a.merge(b);
        }
    }

    /// Attempts recovery of an index in `0..z.domain()`.
    pub fn decode(&self, z: &PowTable) -> OneSparseDecode {
        if self.count == 0 {
            return if self.weighted == 0 && self.fingerprint == 0 {
                OneSparseDecode::Zero
            } else {
                OneSparseDecode::Many
            };
        }
        if self.weighted % self.count as i128 != 0 {
            return OneSparseDecode::Many;
        }
        // A candidate outside the domain cannot be a sketched index; reject
        // it before the exponentiation rather than truncating it.
        let idx = match u64::try_from(self.weighted / self.count as i128) {
            Ok(idx) if idx < z.domain() => idx,
            _ => return OneSparseDecode::Many,
        };
        let expect = field::mul(field::from_i64(self.count), z.pow(idx));
        if expect == self.fingerprint {
            OneSparseDecode::One(idx, self.count)
        } else {
            OneSparseDecode::Many
        }
    }

    /// Whether the sketch is identically zero.
    pub fn is_zero(&self) -> bool {
        self.count == 0 && self.weighted == 0 && self.fingerprint == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static TABLE: std::sync::LazyLock<PowTable> =
        std::sync::LazyLock::new(|| PowTable::new(0x1234_5678_9ABC, 1 << 20));

    #[test]
    fn recovers_single_item() {
        let mut s = OneSparse::new();
        s.update(42, 3, &TABLE);
        assert_eq!(s.decode(&TABLE), OneSparseDecode::One(42, 3));
    }

    #[test]
    fn cancellation_yields_zero() {
        let mut s = OneSparse::new();
        s.update(7, 1, &TABLE);
        s.update(7, -1, &TABLE);
        assert!(s.is_zero());
        assert_eq!(s.decode(&TABLE), OneSparseDecode::Zero);
    }

    #[test]
    fn two_items_are_rejected() {
        let mut s = OneSparse::new();
        s.update(3, 1, &TABLE);
        s.update(11, 1, &TABLE);
        assert_eq!(s.decode(&TABLE), OneSparseDecode::Many);
    }

    #[test]
    fn adversarial_equal_weights_rejected_by_fingerprint() {
        // count=2, weighted=2*7 → candidate index 7, but the vector is
        // {6: +1, 8: +1}. The fingerprint catches it.
        let mut s = OneSparse::new();
        s.update(6, 1, &TABLE);
        s.update(8, 1, &TABLE);
        assert_eq!(s.decode(&TABLE), OneSparseDecode::Many);
    }

    #[test]
    fn merge_is_linear() {
        let mut a = OneSparse::new();
        let mut b = OneSparse::new();
        a.update(5, 2, &TABLE);
        b.update(5, -1, &TABLE);
        b.update(9, 1, &TABLE);
        a.merge(&b);
        // Vector is {5: +1, 9: +1} -> Many.
        assert_eq!(a.decode(&TABLE), OneSparseDecode::Many);
        let mut c = OneSparse::new();
        c.update(9, -1, &TABLE);
        a.merge(&c);
        assert_eq!(a.decode(&TABLE), OneSparseDecode::One(5, 1));
    }

    #[test]
    fn candidates_outside_the_domain_are_rejected() {
        // One item at index 2^64 + 5 would truncate to 5 under `as u64`.
        let small = PowTable::new(0x1234_5678_9ABC, 100);
        let mut s = OneSparse::new();
        s.update(5, 1, &small);
        s.weighted += 1i128 << 64;
        assert_eq!(s.decode(&small), OneSparseDecode::Many);
        // In range for u64 but beyond the table's domain.
        let mut s = OneSparse::new();
        s.update_term(100, 1, field::pow(0x1234_5678_9ABC, 100));
        assert_eq!(s.decode(&small), OneSparseDecode::Many);
        assert_eq!(
            s.decode(&PowTable::new(0x1234_5678_9ABC, 101)),
            OneSparseDecode::One(100, 1)
        );
    }

    /// The packed `weighted` is exact `i128` arithmetic: sums near ±2¹⁰⁰,
    /// carries and borrows across the word boundary, and decoding by exact
    /// division.
    #[test]
    fn weighted_near_two_to_the_hundred_is_exact() {
        let big = 1i128 << 100;
        let mut a = OneSparse::new();
        a.update_term(1 << 62, 1 << 38, 0);
        assert_eq!({ a.weighted }, big);
        let mut b = OneSparse::new();
        b.update_term(u64::MAX, -(1 << 36), 0);
        a.merge(&b);
        assert_eq!({ a.weighted }, big - (u64::MAX as i128) * (1 << 36));
        a.update_term(u64::MAX, 1 << 36, 0);
        assert_eq!({ a.weighted }, big);
        let mut neg = OneSparse::new();
        neg.update_term(1 << 62, -(1 << 38), 0);
        assert_eq!({ neg.weighted }, -big);
        a.merge(&neg);
        assert!(a.is_zero());
        // Low word all ones, then one more: the carry reaches the high word.
        let mut c = OneSparse::new();
        c.update_term(u64::MAX, 1, 0);
        c.update_term(1, 1, 0);
        assert_eq!({ c.weighted }, 1 << 64);
        c.update_term(1, -2, 0);
        assert_eq!({ c.weighted }, (1 << 64) - 2);

        // 2⁴⁰ copies of index 2⁶⁰ (and minus them): |weighted| = 2¹⁰⁰.
        let wide = PowTable::new(0x1234_5678_9ABC, 1 << 61);
        let z = wide.pow(1 << 60);
        for delta in [1i64 << 40, -(1 << 40)] {
            let mut s = OneSparse::new();
            s.update_term(1 << 60, delta, field::mul(field::from_i64(delta), z));
            assert_eq!({ s.weighted }, (1i128 << 60) * delta as i128);
            assert_eq!(s.decode(&wide), OneSparseDecode::One(1 << 60, delta));
            // Off by one: no longer a multiple of the count.
            s.update_term(1, 1, 0);
            s.count -= 1;
            assert_eq!(s.decode(&wide), OneSparseDecode::Many);
        }
    }

    #[test]
    fn negative_multiplicity_roundtrips() {
        let mut s = OneSparse::new();
        s.update(13, -4, &TABLE);
        assert_eq!(s.decode(&TABLE), OneSparseDecode::One(13, -4));
    }
}
