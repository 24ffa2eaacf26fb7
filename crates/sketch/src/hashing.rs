//! `k`-wise independent polynomial hashing over `F_p`.
//!
//! The paper replaces the shared randomness assumed by \[36\] with
//! `O(log n)`-wise independence (proof of Theorem C.1): one machine draws
//! the polynomial coefficients (`O(polylog n)` bits) and disseminates them.
//! A degree-`(k−1)` polynomial with uniform coefficients is exactly
//! `k`-wise independent over `F_p`.

use crate::field;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A `k`-wise independent hash function `F_p → F_p`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KWiseHash {
    coeffs: Vec<u64>,
}

impl KWiseHash {
    /// Draws a fresh degree-`(k−1)` polynomial from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k > 0, "independence parameter must be positive");
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_CAFE_F00D_u64);
        let coeffs = (0..k).map(|_| rng.random_range(0..field::P)).collect();
        KWiseHash { coeffs }
    }

    /// Evaluates the hash at `x` (Horner's rule).
    pub fn eval(&self, x: u64) -> u64 {
        self.eval_lanes([x])[0]
    }

    /// [`eval`](Self::eval) at `L` points: `L` Horner chains advanced together
    /// a coefficient at a time, so their multiplications overlap instead of
    /// each waiting on the last.
    ///
    /// The steps are lazily reduced, two at a time: one 61-bit fold of the
    /// 128-bit `acc · x + c`, which leaves the accumulator below `2⁶²`,
    /// then one step folded twice, which brings it back below `2⁶¹ + 3`
    /// (DESIGN.md §2.3). Only the result is made canonical, so every lane
    /// returns the value of the canonical `mul` / `add` chain, bit for bit.
    pub fn eval_lanes<const L: usize>(&self, xs: [u64; L]) -> [u64; L] {
        let xs = xs.map(|x| x % field::P);
        let mut acc = [0u64; L];
        let mut pairs = self.coeffs.chunks_exact(2);
        for pair in &mut pairs {
            for (a, &x) in acc.iter_mut().zip(&xs) {
                *a = field::mul_add_lazy(field::mul_add_fold(*a, x, pair[0]), x, pair[1]);
            }
        }
        for &c in pairs.remainder() {
            for (a, &x) in acc.iter_mut().zip(&xs) {
                *a = field::mul_add_lazy(*a, x, c);
            }
        }
        acc.map(field::canonical)
    }

    /// The number of coefficients (= the independence parameter `k`).
    pub fn independence(&self) -> usize {
        self.coeffs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let a = KWiseHash::new(8, 7);
        let b = KWiseHash::new(8, 7);
        let c = KWiseHash::new(8, 8);
        assert_eq!(a.eval(12345), b.eval(12345));
        assert_ne!(a.eval(12345), c.eval(12345)); // overwhelmingly likely
    }

    /// Every lane of `eval_lanes` is Horner's rule at that lane's point,
    /// whatever the lane count and wherever the point lies (also `≥ P`).
    #[test]
    fn lanes_are_independent_horner_chains() {
        for (k, seed) in [(1, 1), (4, 2), (13, 3), (26, 4)] {
            let h = KWiseHash::new(k, seed);
            let horner = |x: u64| {
                let x = x % field::P;
                (h.coeffs.iter()).fold(0, |acc, &c| field::add(field::mul(acc, x), c))
            };
            let xs: [u64; 8] = [0, 1, 2, field::P - 1, field::P, u64::MAX, 1 << 48, 12345];
            assert_eq!(h.eval_lanes(xs), xs.map(horner));
            assert_eq!(
                h.eval_lanes([xs[3], xs[5], xs[6]]),
                [xs[3], xs[5], xs[6]].map(horner)
            );
            assert!(xs.iter().all(|&x| h.eval(x) == horner(x)));
        }
    }

    /// The lazy reduction at its extremes, against the canonical `mul` /
    /// `add` Horner at every lane count: all coefficients `P − 1`, or `0`
    /// and `P − 1` alternating, at the points `0, 1, P − 1, P` and
    /// `2⁶⁴ − 1`. At `x = P − 1` an even number of `P − 1` coefficients
    /// sums to zero, which the lazy chain holds as `P` until its end.
    #[test]
    fn lazy_reduction_matches_canonical_horner_at_the_extremes() {
        const POINTS: [u64; 5] = [0, 1, field::P - 1, field::P, u64::MAX];
        fn check<const L: usize>(h: &KWiseHash) {
            let horner = |x: u64| {
                let x = x % field::P;
                (h.coeffs.iter()).fold(0, |acc, &c| field::add(field::mul(acc, x), c))
            };
            for start in 0..POINTS.len() {
                let xs: [u64; L] = std::array::from_fn(|i| POINTS[(start + i) % POINTS.len()]);
                assert_eq!(h.eval_lanes(xs), xs.map(horner), "k = {}", h.coeffs.len());
            }
        }
        for k in [1, 13, 26, 50] {
            let all_top = vec![field::P - 1; k];
            let alternating = (0..k).map(|i| [0, field::P - 1][i % 2]).collect();
            for coeffs in [all_top, alternating] {
                let h = KWiseHash { coeffs };
                check::<1>(&h);
                check::<2>(&h);
                check::<4>(&h);
                check::<8>(&h);
            }
        }
    }

    /// The trailing zeros of a hash value are the ℓ0-sampler's geometric
    /// level: level `ℓ` keeps the items whose hash has at least `ℓ` of them,
    /// a `2^{−ℓ}` subsample.
    #[test]
    fn levels_are_geometric() {
        let h = KWiseHash::new(16, 3);
        let mut counts = [0usize; 20];
        let n = 40_000u64;
        for x in 0..n {
            counts[(h.eval(x).trailing_zeros() as usize).min(19)] += 1;
        }
        // Level 0 holds about half the items; level 3 about 1/16.
        assert!((counts[0] as f64 / n as f64 - 0.5).abs() < 0.02);
        let l3 = counts[3] as f64 / n as f64;
        assert!((l3 - 0.0625).abs() < 0.01, "level-3 fraction {l3}");
    }

    #[test]
    fn evaluation_spreads_values() {
        let h = KWiseHash::new(8, 11);
        let mut seen = std::collections::HashSet::new();
        for x in 0..1000 {
            seen.insert(h.eval(x));
        }
        assert_eq!(
            seen.len(),
            1000,
            "collisions in 1000 evals are astronomically unlikely"
        );
    }
}
