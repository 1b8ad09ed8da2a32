//! Integer square root with remainder — Zimmermann's Karatsuba square root
//! (the algorithm GMP uses, cited by the paper as [61]).

use super::Nat;

impl Nat {
    /// Returns `floor(sqrt(self))`.
    ///
    /// ```
    /// use apc_bignum::Nat;
    /// assert_eq!(Nat::from(99u64).isqrt().to_u64(), Some(9));
    /// assert_eq!(Nat::from(100u64).isqrt().to_u64(), Some(10));
    /// ```
    pub fn isqrt(&self) -> Nat {
        self.sqrt_rem().0
    }

    /// Returns `(s, r)` with `s = floor(sqrt(self))` and `r = self − s²`
    /// (so `0 <= r <= 2s`).
    ///
    /// Zimmermann's SqrtRem (Brent–Zimmermann, *Modern Computer
    /// Arithmetic*, Algorithm 1.12): every level returns its remainder, so
    /// no level squares its root to recover it. Splitting at
    /// `l = ⌊(len − 1)/4⌋` bits leaves a top part of at least `2l + 1`
    /// bits, so its root is at least `2^l` — the normalisation the
    /// algorithm needs — without a shift, and the quotient step
    /// overestimates by at most one, which one correction repairs.
    ///
    /// ```
    /// use apc_bignum::Nat;
    /// let n = Nat::from(10u64).pow(20) + Nat::from(12345u64);
    /// let (s, r) = n.sqrt_rem();
    /// assert_eq!(&(&s * &s) + &r, n);
    /// assert!(r <= &s + &s);
    /// ```
    pub fn sqrt_rem(&self) -> (Nat, Nat) {
        if let Some(v) = self.to_u128() {
            let s = isqrt_u128(v);
            return (Nat::from(s), Nat::from(v - s * s));
        }
        // self = h·2^{2l} + n1·2^l + n0 with n1, n0 < 2^l.
        let l = (self.bit_len() - 1) / 4;
        let (low, high) = self.split_at_bit(2 * l);
        let (n0, n1) = low.split_at_bit(l);

        let (s1, r1) = high.sqrt_rem();
        // (q, u) = divrem(r1·2^l + n1, 2·s1)
        let (q, u) = (&r1.shl_bits(l) + &n1).divrem(&s1.shl_bits(1));
        let s = &s1.shl_bits(l) + &q;
        // r = u·2^l + n0 − q², negative at most once: then s was one too
        // large and r + 2s − 1 is the remainder of s − 1.
        let un0 = &u.shl_bits(l) + &n0;
        let q2 = &q * &q;
        if un0 >= q2 {
            (s, un0 - q2)
        } else {
            let deficit = q2 - un0;
            let r = &(&s.shl_bits(1) - &deficit) - &Nat::one();
            (s - Nat::one(), r)
        }
    }
}

/// Integer Newton iteration started from an upper bound; the sequence
/// decreases monotonically to floor(sqrt(v)).
fn isqrt_u128(v: u128) -> u128 {
    if v < 2 {
        return v;
    }
    let bits = 128 - v.leading_zeros();
    let mut x = 1u128 << (bits / 2 + 1); // x ≥ sqrt(v)
    loop {
        let y = (x + v / x) >> 1;
        if y >= x {
            return x;
        }
        x = y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values() {
        for v in 0u64..200 {
            let (s, r) = Nat::from(v).sqrt_rem();
            let s = s.to_u64().unwrap();
            let r = r.to_u64().unwrap();
            assert_eq!(s * s + r, v);
            assert!((s + 1) * (s + 1) > v, "v={v}");
        }
    }

    #[test]
    fn perfect_squares() {
        for bits in [50u64, 100, 321, 1000] {
            let s = Nat::power_of_two(bits) - Nat::from(3u64);
            let n = &s * &s;
            let (got, r) = n.sqrt_rem();
            assert_eq!(got, s, "bits={bits}");
            assert!(r.is_zero());
        }
    }

    #[test]
    fn squares_minus_one() {
        let s = Nat::from(10u64).pow(50);
        let n = &(&s * &s) - &Nat::one();
        let (got, r) = n.sqrt_rem();
        assert_eq!(got, &s - &Nat::one());
        // r = (s²−1) − (s−1)² = 2s − 2
        assert_eq!(r, &s.shl_bits(1) - &Nat::from(2u64));
    }

    #[test]
    fn large_random_shape() {
        let n = (Nat::power_of_two(2000) - Nat::from(987654321u64)).mul_limb(123456789);
        let (s, r) = n.sqrt_rem();
        assert_eq!(&(&s * &s) + &r, n);
        let next = &s + &Nat::one();
        assert!(&next * &next > n);
    }

    /// `s² + r == n` and `0 <= r <= 2s`: exactly the floor square root.
    fn assert_sqrt_rem(n: &Nat) {
        let (s, r) = n.sqrt_rem();
        assert_eq!(&(&s * &s) + &r, *n, "s² + r != n at {} bits", n.bit_len());
        assert!(r <= s.shl_bits(1), "r > 2s at {} bits", n.bit_len());
    }

    #[test]
    fn seeded_sweep_with_edge_shapes() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0x5127_0112);
        for bits in 1..=4000u64 {
            assert_sqrt_rem(&Nat::random_exact_bits(bits, &mut rng));
            // Shapes around a square of about `bits` bits: the square
            // itself, one below it, and the largest remainder s² + 2s.
            let s = Nat::random_exact_bits(bits.div_ceil(2), &mut rng);
            let sq = &s * &s;
            assert_eq!(sq.sqrt_rem(), (s.clone(), Nat::zero()), "s² at {bits}");
            let below = &sq - &Nat::one();
            assert_sqrt_rem(&below);
            let top = &sq + &s.shl_bits(1);
            assert_eq!(
                top.sqrt_rem(),
                (s.clone(), s.shl_bits(1)),
                "s²+2s at {bits}"
            );
            // 2^k ± 1.
            let p = Nat::power_of_two(bits);
            assert_sqrt_rem(&(&p + &Nat::one()));
            assert_sqrt_rem(&(&p - &Nat::one()));
        }
    }

    #[test]
    fn million_bit_radicand() {
        // π's 200k-digit radicand is 1.33M bits; go just past it.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0x5127_1330);
        assert_sqrt_rem(&Nat::random_exact_bits(1_340_000, &mut rng));
    }

    #[test]
    fn u128_helper() {
        for v in [0u128, 1, 2, 3, 4, u128::from(u64::MAX), 1 << 100, (1 << 100) + 12345] {
            let s = isqrt_u128(v);
            assert!(s * s <= v);
            assert!((s + 1).checked_mul(s + 1).map_or(true, |sq| sq > v));
        }
    }
}
