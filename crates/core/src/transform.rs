//! The inner-product transformation (Eq. 1): a monolithic multiplication
//! rewritten as a polynomial convolution of limb vectors whose inner
//! products can run in parallel.
//!
//! ```text
//! x·y = Σ_t 2^(t·L) · IP_t,   IP_t = Σ_j x_{t−j} · y_j
//! ```

use apc_bignum::limb::{extract_bits, Limb};
use apc_bignum::Nat;

/// Splits a natural into its little-endian L-bit limb vector for the Eq. 1
/// convolution (at least one limb, so zero becomes `[0]`).
pub fn to_limb_vector(x: &Nat, limb_bits: u32) -> Vec<Nat> {
    let count = x.bit_len().div_ceil(u64::from(limb_bits)).max(1);
    let limbs = x.to_chunks(u64::from(limb_bits), crate::cast::usize_from(count));
    apc_bignum::invariants::check_chunk_widths(&limbs, u64::from(limb_bits));
    limbs
}

/// The Eq. 1 limb vector as raw machine words — the bitsliced backend's
/// view of an operand, where element `i` is the same L-bit value
/// [`to_limb_vector`] yields as a `Nat` (`limb_bits ≤ 64` required).
///
/// The scalar kernels stream these limbs bit by bit; the sliced kernels
/// consume whole words, so the decomposition itself must not round-trip
/// through per-limb big integers.
pub fn to_limb_words(x: &Nat, limb_bits: u32) -> Vec<Limb> {
    debug_assert!(limb_bits >= 1 && limb_bits <= 64, "word view needs L in 1..=64");
    let count = x.bit_len().div_ceil(u64::from(limb_bits)).max(1);
    let src = x.limbs();
    (0..count)
        .map(|i| extract_bits(src, i * u64::from(limb_bits), limb_bits))
        .collect()
}

/// [`reversed_x_slice`] over raw machine words, appended to `out`: the
/// `i`-th appended word is `x_{t − j0 − i}` (zero outside range) — the
/// §V-B2 Memory Agent selection for the bitsliced kernels, written into
/// the caller's flattened per-IPU buffer.
pub fn reversed_x_words(xs: &[Limb], t: usize, j0: usize, q: usize, out: &mut Vec<Limb>) {
    out.extend((0..q).map(|i| {
        let idx = t as i64 - j0 as i64 - i as i64;
        usize::try_from(idx)
            .ok()
            .and_then(|u| xs.get(u))
            .copied()
            .unwrap_or(0)
    }));
}

/// Computes every inner product IP_t of the Eq. 1 transformation — the
/// values the bit-indexed IPUs produce.
///
/// ```
/// use apc_bignum::Nat;
/// use cambricon_p::transform::{convolve, to_limb_vector};
///
/// let x = Nat::from(0x0302u64); // limbs (2, 3) at L = 8
/// let y = Nat::from(0x0504u64); // limbs (4, 5)
/// let ips = convolve(&to_limb_vector(&x, 8), &to_limb_vector(&y, 8));
/// let vals: Vec<u64> = ips.iter().map(|v| v.to_u64().unwrap()).collect();
/// assert_eq!(vals, [8, 22, 15]); // 2·4, 2·5+3·4, 3·5
/// ```
pub fn convolve(xs: &[Nat], ys: &[Nat]) -> Vec<Nat> {
    if xs.is_empty() || ys.is_empty() {
        return Vec::new();
    }
    let n = xs.len() + ys.len() - 1;
    let mut out = vec![Nat::zero(); n];
    for (i, x) in xs.iter().enumerate() {
        if x.is_zero() {
            continue;
        }
        for (j, y) in ys.iter().enumerate() {
            if y.is_zero() {
                continue;
            }
            out[i + j] = &out[i + j] + &(x * y.clone());
        }
    }
    out
}

/// Gathers the inner products back into the product:
/// Σ_t IP_t · 2^(t·L). This is the job the GUs and the Adder Tree perform
/// in hardware (Fig. 7).
pub fn recompose(ips: &[Nat], limb_bits: u32) -> Nat {
    Nat::from_chunks(ips, u64::from(limb_bits))
}

/// The reversed x-slice that pairs with y-limbs `[j0, j0+q)` for output
/// position `t`: element `i` is `x_{t − j0 − i}` (zero outside range).
///
/// This is how the PE Memory Agent selects "the 4 bitflows starting from
/// different positions" (§V-B2) for each IPU.
pub fn reversed_x_slice(xs: &[Nat], t: usize, j0: usize, q: usize) -> Vec<Nat> {
    (0..q)
        .map(|i| {
            let idx = t as i64 - j0 as i64 - i as i64;
            usize::try_from(idx)
                .ok()
                .and_then(|u| xs.get(u))
                .cloned()
                .unwrap_or_else(Nat::zero)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> Nat {
        Nat::from(v)
    }

    #[test]
    fn equation_one_holds() {
        // Random-ish operands: recompose(convolve(limbs)) == x·y.
        let x = Nat::from(0xDEAD_BEEF_1234_5678u64) * Nat::from(0xABCDu64);
        let y = Nat::from(0xFEED_FACE_CAFE_F00Du64);
        for l in [8u32, 16, 32] {
            let xs = to_limb_vector(&x, l);
            let ys = to_limb_vector(&y, l);
            let ips = convolve(&xs, &ys);
            assert_eq!(recompose(&ips, l), &x * &y, "L={l}");
        }
    }

    #[test]
    fn figure7_shape_five_inner_products() {
        // Figure 7(a): n_x = 4, n_y = 2 limbs → 5 inner products.
        let xs = vec![n(1), n(2), n(3), n(4)];
        let ys = vec![n(5), n(6)];
        let ips = convolve(&xs, &ys);
        assert_eq!(ips.len(), 5);
        assert_eq!(ips[0].to_u64(), Some(5)); // x0·y0
        assert_eq!(ips[1].to_u64(), Some(16)); // x1·y0 + x0·y1
        assert_eq!(ips[4].to_u64(), Some(24)); // x3·y1
    }

    #[test]
    fn zero_operand_convolution() {
        assert!(convolve(&[], &[n(1)]).is_empty());
        let ips = convolve(&[Nat::zero()], &[n(7)]);
        assert_eq!(ips.len(), 1);
        assert!(ips[0].is_zero());
    }

    #[test]
    fn limb_vector_of_zero() {
        let v = to_limb_vector(&Nat::zero(), 32);
        assert_eq!(v.len(), 1);
        assert!(v[0].is_zero());
    }

    #[test]
    fn reversed_slice_selects_matching_terms() {
        let xs = vec![n(10), n(11), n(12), n(13), n(14)];
        // Output t = 4, y-limbs starting at j0 = 1, q = 3: pairs are
        // (x3,y1),(x2,y2),(x1,y3) → slice = [x3, x2, x1].
        let s = reversed_x_slice(&xs, 4, 1, 3);
        let vals: Vec<u64> = s.iter().map(|v| v.to_u64().unwrap()).collect();
        assert_eq!(vals, [13, 12, 11]);
        // Out-of-range indices are zero.
        let s = reversed_x_slice(&xs, 0, 0, 3);
        let vals: Vec<u64> = s.iter().map(|v| v.to_u64().unwrap()).collect();
        assert_eq!(vals, [10, 0, 0]);
    }

    #[test]
    fn word_views_match_nat_limb_vectors() {
        let x = Nat::from(0xDEAD_BEEF_1234_5678u64) * Nat::from(0xABCD_EF01u64);
        for l in [8u32, 16, 30, 32, 33, 64] {
            let nats = to_limb_vector(&x, l);
            let words = to_limb_words(&x, l);
            assert_eq!(nats.len(), words.len(), "L={l}");
            for (i, (n, w)) in nats.iter().zip(&words).enumerate() {
                assert_eq!(n.to_u64(), Some(*w), "L={l} limb {i}");
            }
        }
        assert_eq!(to_limb_words(&Nat::zero(), 32), vec![0]);
    }

    #[test]
    fn reversed_words_match_reversed_slice() {
        let xs_n: Vec<Nat> = (10..15u64).map(n).collect();
        let xs_w: Vec<u64> = (10..15u64).collect();
        for t in 0..8usize {
            for j0 in [0usize, 1, 3] {
                let a = reversed_x_slice(&xs_n, t, j0, 3);
                let mut b = Vec::new();
                reversed_x_words(&xs_w, t, j0, 3, &mut b);
                for (x, w) in a.iter().zip(&b) {
                    assert_eq!(x.to_u64(), Some(*w), "t={t} j0={j0}");
                }
            }
        }
    }

    #[test]
    fn inner_products_match_reversed_slice_dot_products() {
        // IP_t computed directly equals Σ_blocks slice·y_block.
        let xs: Vec<Nat> = (1..=8u64).map(n).collect();
        let ys: Vec<Nat> = (11..=16u64).map(n).collect();
        let ips = convolve(&xs, &ys);
        let q = 3;
        for (t, ip) in ips.iter().enumerate() {
            let mut acc = Nat::zero();
            let mut j0 = 0;
            while j0 < ys.len() {
                let slice = reversed_x_slice(&xs, t, j0, q);
                for (i, xv) in slice.iter().enumerate() {
                    if j0 + i < ys.len() {
                        acc = &acc + &(xv * ys[j0 + i].clone());
                    }
                }
                j0 += q;
            }
            assert_eq!(&acc, ip, "t={t}");
        }
    }
}
