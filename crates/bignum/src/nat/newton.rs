//! Newton–Raphson reciprocal division — the iterative high-level
//! decomposition the paper's stack uses ("high-level functions are
//! decomposed to low-level operators via iterative methods … such as
//! Newton-Raphson", §II-A).
//!
//! The reciprocal `⌊2^(2k)/d⌋` is refined by `x ← x·(2 − d·x)` with
//! doubling precision, so division costs a constant number of
//! multiplications — all of which land on the fast-multiplication ladder
//! (and, via MPApca, on the accelerator).

use super::Nat;
use crate::int::Int;

impl Nat {
    /// Computes `⌊2^shift / self⌋` by Newton iteration.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    ///
    /// ```
    /// use apc_bignum::Nat;
    /// let d = Nat::from(3u64);
    /// // 2^64 / 3
    /// assert_eq!(d.reciprocal(64), Nat::from(u64::MAX / 3));
    /// ```
    pub fn reciprocal(&self, shift: u64) -> Nat {
        assert!(!self.is_zero(), "reciprocal of zero");
        if self.is_one() {
            return Nat::power_of_two(shift);
        }
        let d_bits = self.bit_len();
        if shift < d_bits {
            // 2^shift < d ⇒ quotient is 0 (d ≥ 2 here).
            if shift == d_bits - 1 && self == &Nat::power_of_two(d_bits - 1) {
                return Nat::one();
            }
            return if &Nat::power_of_two(shift) >= self {
                Nat::one()
            } else {
                Nat::zero()
            };
        }

        // Seed: x ≈ 2^(d_bits + prec)/d from the divisor's top 32 bits.
        // Truncating d to 32 bits gives relative error ≤ 2^-31, so the
        // seed is accurate to (at least) its prec = 30 stored bits — the
        // invariant every Newton step below preserves.
        let top_bits = d_bits.min(32);
        let d_top = self.shr_bits(d_bits - top_bits).low_u64();
        let mut prec = 30u64;
        let seed = (1u128 << (top_bits + prec)) / u128::from(d_top);
        let mut x = Nat::from(seed);
        // Invariant: x = (2^(d_bits + prec)/d)·(1 + ε) with |ε| ≲ 2^-prec.
        // Each step squares ε and adds ~2 ulps of truncation, so precision
        // may only grow to 2·prec − 2 per step (growing it faster, e.g.
        // doubling from an imprecise seed, leaves accuracy behind stored
        // bits and the final correction would never terminate).
        let target_prec = shift.saturating_sub(d_bits) + 4;
        while prec < target_prec {
            let next = (2 * prec - 2).min(target_prec);
            // Newton step in scaled form. With S = 2^(d_bits + prec) and
            // x = (S/d)(1 + ε):
            //   diff = 2S − d·x = S(1 − ε)
            //   x·diff = (S²/d)(1 − ε²)
            // so shifting down by (d_bits + 2·prec − next) yields the
            // iterate at precision `next` with error ε².
            let dx = self * &x;
            let two = Nat::power_of_two(d_bits + prec + 1);
            let diff = Int::from_nat(two) - Int::from_nat(dx);
            assert!(
                !diff.is_negative(),
                "Newton iterate overshot; seed invariant broken"
            );
            let correction = &x * diff.magnitude();
            x = correction.shr_bits(d_bits + 2 * prec - next);
            prec = next;
        }
        // x ≈ 2^(d_bits + prec)/d with prec ≥ target: shift to the request.
        let mut q = x.shr_bits(d_bits + prec - shift);
        // Final correction: the truncated iterate can be off by a few ulps.
        // Form q·d once and step it by ±d alongside q.
        let p2 = Nat::power_of_two(shift);
        let mut qd = &q * self;
        loop {
            let next = &qd + self;
            if next > p2 {
                break;
            }
            qd = next;
            q = q.add_limb(1);
        }
        while qd > p2 {
            qd = &qd - self;
            q = &q - &Nat::one();
        }
        q
    }

    /// Division via the Newton reciprocal: `(quotient, remainder)`.
    ///
    /// Asymptotically a constant number of multiplications — the route the
    /// MPApca runtime takes on the accelerator.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    ///
    /// ```
    /// use apc_bignum::Nat;
    /// let a = Nat::from(10u64).pow(50) + Nat::from(12345u64);
    /// let b = Nat::from(10u64).pow(21) + Nat::from(7u64);
    /// assert_eq!(a.divrem_newton(&b), a.divrem(&b));
    /// ```
    pub fn divrem_newton(&self, rhs: &Nat) -> (Nat, Nat) {
        assert!(!rhs.is_zero(), "division by zero");
        if self < rhs {
            return (Nat::zero(), self.clone());
        }
        let shift = self.bit_len() + 1;
        let recip = rhs.reciprocal(shift);
        let mut q = (self * &recip).shr_bits(shift);
        let mut r = self - &(&q * rhs);
        // The floor estimate can be short by a small constant.
        while &r >= rhs {
            r = &r - rhs;
            q = &q + &Nat::one();
        }
        (q, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(limbs: usize, seed: u64) -> Nat {
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let v: Vec<u64> = (0..limbs)
            .map(|_| {
                x ^= x << 11;
                x ^= x >> 19;
                x.wrapping_mul(2685821657736338717)
            })
            .collect();
        Nat::from_limbs(v)
    }

    #[test]
    fn reciprocal_exact_floor() {
        for (d, shift) in [(3u64, 64u64), (7, 100), (10, 40), (u64::MAX, 128)] {
            let got = Nat::from(d).reciprocal(shift);
            let p2 = Nat::power_of_two(shift);
            assert!(&got * &Nat::from(d) <= p2, "d={d}");
            assert!(&(&got + &Nat::one()) * &Nat::from(d) > p2, "d={d}");
        }
    }

    #[test]
    fn reciprocal_of_power_of_two() {
        let d = Nat::power_of_two(100);
        assert_eq!(d.reciprocal(164), Nat::power_of_two(64));
        assert_eq!(d.reciprocal(100), Nat::one());
        assert_eq!(d.reciprocal(99), Nat::zero());
    }

    #[test]
    fn reciprocal_multi_limb_divisor() {
        let d = pattern(8, 3);
        let shift = d.bit_len() * 2 + 17;
        let got = d.reciprocal(shift);
        let p2 = Nat::power_of_two(shift);
        assert!(&got * &d <= p2);
        assert!(&(&got + &Nat::one()) * &d > p2);
    }

    #[test]
    fn newton_division_matches_classical() {
        for (ul, vl) in [(10usize, 4usize), (40, 17), (120, 50), (200, 64)] {
            let u = pattern(ul, ul as u64);
            let v = pattern(vl, vl as u64 + 5);
            assert_eq!(u.divrem_newton(&v), u.divrem(&v), "{ul}/{vl}");
        }
    }

    #[test]
    fn newton_division_exact_and_offset() {
        let v = pattern(30, 9);
        let q = pattern(25, 11);
        let exact = &v * &q;
        assert_eq!(exact.divrem_newton(&v), (q.clone(), Nat::zero()));
        let off = &exact + &(&v - &Nat::one());
        assert_eq!(off.divrem_newton(&v), (q, &v - &Nat::one()));
    }

    #[test]
    fn small_dividend() {
        let v = pattern(5, 1);
        let u = Nat::from(42u64);
        assert_eq!(u.divrem_newton(&v), (Nat::zero(), u));
    }
}
