//! Arithmetic in the prime field `F_p`, `p = 2^61 − 1` (Mersenne).
//!
//! Used for polynomial (k-wise independent) hashing and fingerprinting.
//! The Mersenne modulus admits a fast reduction without division.

/// The field modulus `2^61 − 1`.
pub const P: u64 = (1 << 61) - 1;

/// Reduces a 128-bit value modulo `P`.
#[inline]
pub fn reduce128(x: u128) -> u64 {
    // Split into 61-bit limbs and fold; at most two folds are needed.
    let lo = (x & P as u128) as u64;
    let hi = x >> 61;
    let folded = lo as u128 + hi;
    let lo2 = (folded & P as u128) as u64;
    let hi2 = (folded >> 61) as u64;
    let mut r = lo2 + hi2;
    if r >= P {
        r -= P;
    }
    r
}

/// `a + b (mod P)`; inputs must be `< P`.
#[inline]
pub fn add(a: u64, b: u64) -> u64 {
    let mut r = a + b;
    if r >= P {
        r -= P;
    }
    r
}

/// `a − b (mod P)`; inputs must be `< P`.
#[inline]
pub fn sub(a: u64, b: u64) -> u64 {
    if a >= b {
        a - b
    } else {
        a + P - b
    }
}

/// `a · b (mod P)`; inputs must be `< P`.
#[inline]
pub fn mul(a: u64, b: u64) -> u64 {
    reduce128(a as u128 * b as u128)
}

/// `a · b + c` folded once at bit 61 (`2⁶¹ ≡ 1 mod P`): a value congruent to
/// it mod `P` and below `2⁶²`, for `a < 2⁶¹ + 3` and `b, c < P`.
///
/// The odd steps of the lazily reduced Horner chain
/// ([`KWiseHash::eval_lanes`](crate::hashing::KWiseHash::eval_lanes)); the
/// next step, a [`mul_add_lazy`], takes an accumulator this large.
#[inline]
pub(crate) fn mul_add_fold(a: u64, b: u64, c: u64) -> u64 {
    let t = a as u128 * b as u128 + c as u128;
    (t as u64 & P) + (t >> 61) as u64
}

/// `a · b + c` folded twice: a value congruent to it mod `P`, below
/// `2⁶¹ + 3` for `a < 2⁶²` and `b, c < P`, and at most `P` for `a ≤ P`.
///
/// The step that brings the lazily reduced chains
/// ([`KWiseHash::eval_lanes`](crate::hashing::KWiseHash::eval_lanes),
/// [`PowTable::pow`]) back below `2⁶¹ + 3`, with no comparison and no
/// conditional subtract: the first fold of `t = a·b + c < 2¹²³ + 2⁶¹`
/// leaves less than `2⁶³`, the second at most `P + 3`. Only the end of a
/// chain applies [`canonical`]. For `a ≤ P` the result is at most `P`, and
/// `P` (standing for 0) only for a nonzero multiple of `P`: the fold of a
/// nonzero residue is then already canonical.
#[inline]
pub(crate) fn mul_add_lazy(a: u64, b: u64, c: u64) -> u64 {
    let r = mul_add_fold(a, b, c);
    (r & P) + (r >> 61)
}

/// The canonical representative of `x < 2⁶¹ + 3` (as [`mul_add_lazy`]
/// leaves it).
#[inline]
pub(crate) fn canonical(x: u64) -> u64 {
    debug_assert!(x < P + 4);
    if x >= P {
        x - P
    } else {
        x
    }
}

/// `b^e (mod P)` by square-and-multiply.
pub fn pow(mut b: u64, mut e: u64) -> u64 {
    let mut acc = 1u64;
    b %= P;
    while e > 0 {
        if e & 1 == 1 {
            acc = mul(acc, b);
        }
        b = mul(b, b);
        e >>= 1;
    }
    acc
}

/// Maps a signed multiplicity into the field (`δ mod P`).
#[inline]
pub fn from_i64(x: i64) -> u64 {
    let magnitude = x.unsigned_abs() % P;
    if x >= 0 {
        magnitude
    } else {
        sub(0, magnitude)
    }
}

/// Bits per window of a [`PowTable`].
const WINDOW_BITS: u32 = 4;

/// Fixed-base exponentiation: precomputed powers of one base `z` for
/// exponents in `0..domain`.
///
/// Row `w` holds `z^(d · 16^w)` for the sixteen values `d` of the `w`-th
/// 4-bit window of the exponent, so [`pow`](PowTable::pow) costs one
/// multiplication per nonzero window instead of a square-and-multiply
/// chain. A sketch family raises the same per-phase base to an edge slot
/// for every edge it touches and every cell it decodes; the table is built
/// once per phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PowTable {
    domain: u64,
    windows: Vec<[u64; 1 << WINDOW_BITS]>,
}

impl PowTable {
    /// Tabulates the powers of `z` needed for exponents in `0..domain`.
    pub fn new(z: u64, domain: u64) -> Self {
        let bits = u64::BITS - domain.saturating_sub(1).leading_zeros();
        let mut base = z % P; // z^(16^w)
        let windows = (0..bits.div_ceil(WINDOW_BITS))
            .map(|_| {
                let mut row = [1u64; 1 << WINDOW_BITS];
                for d in 1..row.len() {
                    row[d] = mul(row[d - 1], base);
                }
                base = mul(row[row.len() - 1], base);
                row
            })
            .collect();
        PowTable { domain, windows }
    }

    /// The exclusive upper bound on exponents this table serves.
    pub fn domain(&self) -> u64 {
        self.domain
    }

    /// `z^e (mod P)`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is outside `0..domain`.
    #[inline]
    pub fn pow(&self, mut e: u64) -> u64 {
        assert!(e < self.domain, "exponent {e} outside the table's domain");
        // Each window multiplies in one tabulated power by a lazy fold. The
        // powers are canonical, so the product is zero only if the base is,
        // and a fold of a nonzero residue or of zero is already canonical:
        // there is nothing to canonicalise at the end.
        let mut acc = 1u64;
        for row in &self.windows {
            let digit = (e & ((1 << WINDOW_BITS) - 1)) as usize;
            if digit != 0 {
                acc = mul_add_lazy(acc, row[digit], 0);
            }
            e >>= WINDOW_BITS;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_matches_u128_mod() {
        for &x in &[0u128, 1, P as u128, P as u128 + 1, u128::MAX / 3, u128::MAX] {
            assert_eq!(reduce128(x) as u128, x % P as u128, "x = {x}");
        }
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = P - 3;
        let b = 7;
        assert_eq!(sub(add(a, b), b), a);
        assert_eq!(add(sub(a, b), b), a);
    }

    #[test]
    fn mul_commutes_and_distributes() {
        let (a, b, c) = (123_456_789_u64, P - 42, 987_654_321);
        assert_eq!(mul(a, b), mul(b, a));
        assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
    }

    #[test]
    fn pow_small_cases() {
        assert_eq!(pow(2, 10), 1024);
        assert_eq!(pow(5, 0), 1);
        assert_eq!(pow(P - 1, 2), 1); // (-1)^2
    }

    #[test]
    fn signed_embedding() {
        assert_eq!(from_i64(5), 5);
        assert_eq!(add(from_i64(-5), 5), 0);
        // |i64::MIN| = 2^63 = 4 · 2^61 ≡ 4 (mod P); `-x` would overflow.
        assert_eq!(from_i64(i64::MIN), P - 4);
        assert_eq!(add(from_i64(i64::MIN), from_i64(i64::MAX)), P - 1);
    }

    #[test]
    fn pow_table_matches_square_and_multiply() {
        let z = 0x1234_5678_9ABC_u64;
        for domain in [1u64, 2, 16, 17, 1536 * 1536, (1 << 48) - 1] {
            let table = PowTable::new(z, domain);
            let mut exps = vec![0, 1, domain / 2, domain - 1];
            exps.extend((0..48).map(|k| 1u64 << k));
            for e in exps.into_iter().filter(|&e| e < domain) {
                assert_eq!(table.pow(e), pow(z, e), "domain {domain}, e = {e}");
            }
        }
    }

    /// The lazy steps at the edges of their bounds: the largest
    /// accumulators each takes and factors zero, one and `P − 1`.
    #[test]
    fn lazy_steps_are_congruent_and_bounded() {
        let factors = [0, 1, 2, P - 2, P - 1];
        let canonical_step = |a: u64, b, c| add(mul((a as u128 % P as u128) as u64, b), c);
        for b in factors {
            for c in factors {
                for a in [0, 1, P - 1, P, P + 1, P + 2, P + 3] {
                    let fold = mul_add_fold(a, b, c);
                    assert!(fold < 1 << 62, "{a} · {b} + {c} folded to {fold}");
                    assert_eq!(fold % P, canonical_step(a, b, c));
                }
                for a in [0, 1, P - 1, P, P + 3, (1 << 62) - 1] {
                    let lazy = mul_add_lazy(a, b, c);
                    assert!(lazy < P + 4, "{a} · {b} + {c} folded to {lazy}");
                    assert!(a > P || lazy <= P, "{a} · {b} + {c} folded to {lazy}");
                    assert_eq!(canonical(lazy), canonical_step(a, b, c));
                }
            }
        }
    }

    /// Exponents whose every 4-bit window is the digit 15 (and the domain's
    /// largest, all 15 but the lowest) on the benchmark-sized domain
    /// `2⁴⁸ − 1`: every window multiplies, so each lazy fold feeds the next.
    #[test]
    fn pow_table_with_every_window_digit_fifteen() {
        let domain = (1u64 << 48) - 1;
        for z in [1, 2, 3, P - 2, P - 1, 0x1234_5678_9ABC] {
            let table = PowTable::new(z, domain);
            let all_fifteen = (1..=11).map(|windows| (1u64 << (4 * windows)) - 1);
            for e in all_fifteen.chain([domain - 1]) {
                assert_eq!(table.pow(e), pow(z, e), "z = {z}, e = {e:#x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the table's domain")]
    fn pow_table_rejects_out_of_domain_exponents() {
        PowTable::new(3, 100).pow(100);
    }
}
