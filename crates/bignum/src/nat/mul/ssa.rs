//! Schönhage–Strassen multiplication (SSA), O(n·log n·log log n).
//!
//! The classic FFT-based algorithm over the Fermat ring Z/(2^n + 1), where
//! 2 is a 2n-th root of unity so every twiddle multiplication is a bit
//! shift. The paper's MPApca library "always pads the bitwidth of inputs to
//! the next 2^k" (§VII-B) — this implementation does the same (K = 2^k
//! pieces, a ring width rounded up to the root's granularity), which is
//! what produces the zigzag in the Figure 11 curve.
//!
//! All transform data lives in one flat limb buffer per operand: K
//! residues of `N + 1` limbs each (`n = 64·N`), every residue kept
//! normalized in [0, 2^n]. Butterflies work in place through one scratch
//! residue, so nothing is allocated below the pointwise products.

use super::{mul_dispatch, MulAlgorithm, Thresholds};
use crate::limb::{adc, bit_split, sbb, shl_step, Limb};
use crate::nat::add::add_assign_at;
use crate::nat::sub::sub_assign_at;
use crate::nat::Nat;

/// Multiplies `a * b` via Schönhage–Strassen.
///
/// Both operands are cut into pieces of `m` limbs and read as polynomials
/// with at most K coefficients in total, so their cyclic convolution of
/// length K is the plain product polynomial (nothing wraps). Each
/// coefficient is below K·2^{128m} ≤ 2^n, so it is recovered exactly from
/// its residue mod 2^n + 1 and the product is reassembled by adding the
/// coefficients at limb offsets `i·m`.
pub fn mul(a: &Nat, b: &Nat, th: &Thresholds) -> Nat {
    if a.is_zero() || b.is_zero() {
        return Nat::zero();
    }
    let total = a.limb_len() + b.limb_len();
    let plan = Plan::for_limbs(total);
    let square = a == b;
    let par = crate::par::parallel_enabled();

    let mut fa = plan.decompose(a.limbs());
    let fb = if square {
        plan.forward(&mut fa);
        None
    } else {
        let mut fb = plan.decompose(b.limbs());
        // The two forward transforms touch disjoint buffers; run them side
        // by side when the `parallel` feature is enabled.
        crate::par::join(par, || plan.forward(&mut fa), || plan.forward(&mut fb));
        Some(fb)
    };

    // K independent pointwise ring products, returned in coefficient order
    // so the inverse transform below sees exactly the sequential layout.
    let stride = plan.stride();
    let products: Vec<Vec<Limb>> = crate::par::map_indexed(plan.pieces, par, &|i| {
        let x = &fa[i * stride..(i + 1) * stride];
        let y = fb.as_ref().map(|fb| &fb[i * stride..(i + 1) * stride]);
        ring_mul(x, y, th)
    });
    for (slot, p) in fa.chunks_exact_mut(stride).zip(products) {
        slot.copy_from_slice(&p);
    }

    plan.inverse(&mut fa);
    plan.recompose(&fa, total)
}

/// FFT size and ring width chosen for a given total product length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// log2 of the number of pieces.
    pub log_k: u32,
    /// Number of pieces (and transform length) K = 2^log_k.
    pub pieces: usize,
    /// Limbs per piece (m).
    pub piece_limbs: usize,
    /// Ring width in limbs N: arithmetic is mod 2^n + 1 with n = 64·N.
    pub ring_limbs: usize,
}

impl Plan {
    /// Smallest transform length considered.
    const MIN_LOG_K: u32 = 2;
    /// Largest transform length considered.
    const MAX_LOG_K: u32 = 20;

    /// Chooses K for a product of `total_limbs` limbs (the operands' limb
    /// lengths summed) by minimising a cost estimate over the admissible
    /// transform lengths: three transforms of K·log K half-butterflies on
    /// `N + 1` limbs, plus K pointwise products of N limbs. Large K shrinks
    /// the pieces but rounds N up to a multiple of K/128, so the estimate
    /// turns back up once that padding dominates.
    pub fn for_limbs(total_limbs: usize) -> Plan {
        let mut best = Plan::with_log_k(total_limbs, Self::MIN_LOG_K);
        let mut best_cost = best.cost();
        for log_k in Self::MIN_LOG_K + 1..=Self::MAX_LOG_K {
            // Keep every piece at least one limb and the transform no
            // longer than the product.
            if (1usize << log_k) > total_limbs {
                break;
            }
            let plan = Plan::with_log_k(total_limbs, log_k);
            let cost = plan.cost();
            if cost < best_cost {
                best = plan;
                best_cost = cost;
            }
        }
        best
    }

    /// The plan with K = 2^log_k pieces: the smallest piece covering the
    /// product, and the smallest ring that holds a coefficient
    /// (n ≥ 2·64m + log_k bits) in which 2^{2n/K} exists (K/2 divides n).
    fn with_log_k(total_limbs: usize, log_k: u32) -> Plan {
        let pieces = 1usize << log_k;
        let piece_limbs = total_limbs.div_ceil(pieces).max(1);
        // n = 64·N must be a multiple of K/2, i.e. N of K/128.
        let unit = (pieces / 128).max(1);
        let min_limbs = 2 * piece_limbs + 1;
        let ring_limbs = min_limbs.div_ceil(unit) * unit;
        Plan {
            log_k,
            pieces,
            piece_limbs,
            ring_limbs,
        }
    }

    /// Cost estimate in nanoseconds (see [`Plan::for_limbs`]); the
    /// constants are fits to single-threaded timings on a 2-vCPU x86-64
    /// host and only rank transform lengths against each other.
    fn cost(&self) -> f64 {
        let k = self.pieces as f64;
        let n = self.ring_limbs as f64;
        let transforms = 3.0 * k * f64::from(self.log_k) * (n + 1.0) * 2.4;
        transforms + k * (300.0 + pointwise_cost(n))
    }

    /// Ring width n in bits.
    fn ring_bits(&self) -> u64 {
        64 * self.ring_limbs as u64
    }

    /// Exponent e of the principal K-th root of unity ω = 2^e.
    fn omega_exp(&self) -> u64 {
        2 * self.ring_bits() / self.pieces as u64
    }

    /// Limbs per residue in the flat buffers.
    fn stride(&self) -> usize {
        self.ring_limbs + 1
    }

    /// Cuts `limbs` into pieces of `m` limbs, one per residue.
    fn decompose(&self, limbs: &[Limb]) -> Vec<Limb> {
        let stride = self.stride();
        let mut buf = vec![0; self.pieces * stride];
        for (piece, slot) in limbs
            .chunks(self.piece_limbs)
            .zip(buf.chunks_exact_mut(stride))
        {
            slot[..piece.len()].copy_from_slice(piece);
        }
        buf
    }

    /// In-place forward transform with root ω (decimation in frequency:
    /// natural order in, bit-reversed order out).
    fn forward(&self, buf: &mut [Limb]) {
        let n_bits = self.ring_bits();
        let stride = self.stride();
        let mut scratch = vec![0; stride];
        let mut half = self.pieces / 2;
        let mut step = self.omega_exp();
        while half >= 1 {
            for block in buf.chunks_exact_mut(2 * half * stride) {
                let (xs, ys) = block.split_at_mut(half * stride);
                let pairs = xs.chunks_exact_mut(stride).zip(ys.chunks_exact_mut(stride));
                for (j, (x, y)) in pairs.enumerate() {
                    // (x, y) ← (x + y, (x − y)·ω^j); the exponent stays < n.
                    add_sub(x, y, &mut scratch);
                    mul_2exp(y, &scratch, j as u64 * step, n_bits);
                }
            }
            half /= 2;
            step *= 2;
        }
    }

    /// In-place inverse transform with root ω⁻¹ (decimation in time:
    /// bit-reversed order in, natural order out), leaving K times the
    /// cyclic convolution.
    fn inverse(&self, buf: &mut [Limb]) {
        let n_bits = self.ring_bits();
        let stride = self.stride();
        let mut scratch = vec![0; stride];
        let mut half = 1;
        let mut step = self.omega_exp() * (self.pieces as u64 / 2);
        while half < self.pieces {
            for block in buf.chunks_exact_mut(2 * half * stride) {
                let (xs, ys) = block.split_at_mut(half * stride);
                let pairs = xs.chunks_exact_mut(stride).zip(ys.chunks_exact_mut(stride));
                for (j, (x, y)) in pairs.enumerate() {
                    // (x, y) ← (x + y·ω^{-j}, x − y·ω^{-j}), ω^{-j} = 2^{2n − j·step}.
                    let e = (2 * n_bits - j as u64 * step) % (2 * n_bits);
                    mul_2exp(&mut scratch, y, e, n_bits);
                    add_sub(x, &scratch, y);
                }
            }
            half *= 2;
            step /= 2;
        }
    }

    /// Divides each coefficient by K and adds it into the product at limb
    /// offset `i·m`.
    fn recompose(&self, buf: &[Limb], total: usize) -> Nat {
        let n_bits = self.ring_bits();
        let stride = self.stride();
        let mut out = vec![0; (self.pieces - 1) * self.piece_limbs + stride];
        let mut coeff = vec![0; stride];
        // K⁻¹ = 2^{−k} ≡ 2^{2n − k}.
        let k_inv = 2 * n_bits - u64::from(self.log_k);
        for (i, residue) in buf.chunks_exact(stride).enumerate() {
            mul_2exp(&mut coeff, residue, k_inv, n_bits);
            let carry = add_assign_at(&mut out, &coeff, i * self.piece_limbs);
            debug_assert_eq!(carry, 0, "coefficients sum to the product");
        }
        debug_assert!(out[total..].iter().all(|&l| l == 0), "product fits");
        Nat::from_limbs(out)
    }
}

/// Time estimate (ns) of an N-limb product on the Toom ladder: quadratic
/// through the basecase and Karatsuba sizes, slope 1.6 above 96 limbs.
fn pointwise_cost(n: f64) -> f64 {
    const KNEE: f64 = 96.0;
    if n <= KNEE {
        4.5 * n * n
    } else {
        4.5 * KNEE * KNEE * (n / KNEE).powf(1.6)
    }
}

/// `x·y` mod 2^n + 1 for normalized residues (`y = None` squares `x`),
/// through the full multiply ladder and one fold (2^n ≡ −1).
fn ring_mul(x: &[Limb], y: Option<&[Limb]>, th: &Thresholds) -> Vec<Limb> {
    let top = x.len() - 1;
    let y_or_x = y.unwrap_or(x);
    let mut r = vec![0; x.len()];
    // A residue of 2^n is −1: the product is the other factor negated.
    if x[top] != 0 || y_or_x[top] != 0 {
        let other = if x[top] != 0 { y_or_x } else { x };
        r.copy_from_slice(other);
        negate(&mut r);
        return r;
    }
    let xa = Nat::from_limbs(x[..top].to_vec());
    let product = match y {
        None => mul_dispatch(&xa, &xa, MulAlgorithm::Auto, th),
        Some(y) => {
            let ya = Nat::from_limbs(y[..top].to_vec());
            mul_dispatch(&xa, &ya, MulAlgorithm::Auto, th)
        }
    };
    let p = product.limbs();
    let (low, high) = p.split_at(p.len().min(top));
    r[..low.len()].copy_from_slice(low);
    let borrow = sub_assign_at(&mut r[..top], high, 0);
    settle(&mut r, 0, borrow);
    r
}

/// Reduces a residue whose low N limbs hold `v` and whose top limb is to
/// be replaced: the value `v + (pos − neg)·2^n` (pos, neg ≤ 3) is brought
/// into [0, 2^n] using 2^n ≡ −1.
fn settle(r: &mut [Limb], pos: Limb, neg: Limb) {
    let top = r.len() - 1;
    r[top] = 0;
    let low = &mut r[..top];
    if pos > neg {
        // v − t, and + (2^n + 1) if that went negative (then v < t ≤ 3,
        // so the result is 2^n + 1 + v − t ≤ 2^n).
        if sub_assign_at(low, &[pos.wrapping_sub(neg)], 0) != 0 && add_assign_at(low, &[1], 0) != 0
        {
            r[top] = 1;
        }
    } else if neg > pos {
        // v + t, and − (2^n + 1) if that carried out (then the low part
        // is below t, and the result is it minus one, or 2^n for −1).
        if add_assign_at(low, &[neg.wrapping_sub(pos)], 0) != 0 && sub_assign_at(low, &[1], 0) != 0
        {
            low.fill(0);
            r[top] = 1;
        }
    }
}

/// `r ← −r` mod 2^n + 1.
fn negate(r: &mut [Limb]) {
    let top = r.len() - 1;
    let mut borrow = 0;
    for l in r[..top].iter_mut() {
        let (d, b) = sbb(0, *l, borrow);
        *l = d;
        borrow = b;
    }
    let neg = r[top].wrapping_add(borrow);
    settle(r, 0, neg);
}

/// Butterfly core: `diff ← x − t`, `x ← x + t`.
fn add_sub(x: &mut [Limb], t: &[Limb], diff: &mut [Limb]) {
    let top = x.len() - 1;
    let (mut carry, mut borrow) = (0, 0);
    for i in 0..top {
        let (s, c) = adc(x[i], t[i], carry);
        let (d, b) = sbb(x[i], t[i], borrow);
        x[i] = s;
        diff[i] = d;
        carry = c;
        borrow = b;
    }
    let (xt, tt) = (x[top], t[top]);
    settle(x, xt.wrapping_add(tt).wrapping_add(carry), 0);
    settle(diff, xt, tt.wrapping_add(borrow));
}

/// `dst ← src·2^e` mod 2^n + 1 for `e < 2n` — the shift-only twiddle that
/// makes SSA cheap. With 2^n ≡ −1, a shift by `e ≥ n` is a negated shift
/// by `e − n`; below that, `src = H·2^{n−e} + L` gives `L·2^e − H`.
fn mul_2exp(dst: &mut [Limb], src: &[Limb], e: u64, n_bits: u64) {
    debug_assert!(e < 2 * n_bits, "twiddle exponent reduced mod 2n");
    let top = dst.len() - 1;
    let negated = e >= n_bits;
    let e = if negated { e - n_bits } else { e };
    let (w, b) = bit_split(e);
    if src[top] != 0 {
        // src = 2^n ≡ −1, so the result is ∓2^e.
        dst.fill(0);
        dst[w] = 1 << b;
        if !negated {
            negate(dst);
        }
        return;
    }
    // A = L·2^e: the low N limbs of src shifted up by e.
    dst[..w].fill(0);
    let mut carry = 0;
    for (d, &s) in dst[w..top].iter_mut().zip(&src[..top - w]) {
        (*d, carry) = if b == 0 {
            (s, 0)
        } else {
            shl_step(s, b, carry)
        };
    }
    // H continues the same shift stream: w limbs from the top of src plus
    // the final carry. Subtract it (A − H), or subtract A from it when
    // negated (H − A).
    let mut borrow = 0;
    for (k, d) in dst[..top].iter_mut().enumerate() {
        let h = if k < w {
            let s = src[top - w + k];
            let (v, c) = if b == 0 {
                (s, 0)
            } else {
                shl_step(s, b, carry)
            };
            carry = c;
            v
        } else if k == w {
            carry
        } else if !negated && borrow == 0 {
            break;
        } else {
            0
        };
        (*d, borrow) = if negated {
            sbb(h, *d, borrow)
        } else {
            sbb(*d, h, borrow)
        };
    }
    settle(dst, 0, borrow);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nat::mul::schoolbook;

    fn pattern(limbs: usize, seed: u64) -> Nat {
        let mut x = seed.wrapping_mul(0xD1342543DE82EF95) | 1;
        let v: Vec<u64> = (0..limbs)
            .map(|_| {
                x = x
                    .wrapping_mul(0xAF251AF3B0F025B5)
                    .wrapping_add(0xB564EF22EC7AECE5);
                x.rotate_left(17)
            })
            .collect();
        Nat::from_limbs(v)
    }

    /// The residue of `x` in Z/(2^{64N} + 1) as a normalized `N + 1`-limb
    /// slot, computed with plain `Nat` division.
    fn residue(x: &Nat, ring_limbs: usize) -> Vec<Limb> {
        let modulus = Nat::power_of_two(64 * ring_limbs as u64) + Nat::one();
        let mut v = (x % &modulus).into_limbs();
        v.resize(ring_limbs + 1, 0);
        v
    }

    fn value(r: &[Limb]) -> Nat {
        Nat::from_limbs(r.to_vec())
    }

    /// Edge residues of a 2-limb ring: 0, 1, −1 = 2^n, 2^n − 1, a sparse
    /// value and a dense one.
    fn edge_residues() -> Vec<Nat> {
        let n = 128;
        vec![
            Nat::zero(),
            Nat::one(),
            Nat::power_of_two(n),
            Nat::power_of_two(n) - Nat::one(),
            Nat::power_of_two(n - 1) + Nat::one(),
            pattern(2, 5),
        ]
    }

    #[test]
    fn ring_shift_matches_naive() {
        let n_bits = 128;
        let modulus = Nat::power_of_two(n_bits) + Nat::one();
        for x in edge_residues() {
            let src = residue(&x, 2);
            for e in [
                0u64, 1, 13, 63, 64, 65, 100, 127, 128, 129, 191, 192, 200, 255,
            ] {
                let mut dst = vec![0; 3];
                mul_2exp(&mut dst, &src, e, n_bits);
                let expect = &x.shl_bits(e) % &modulus;
                assert_eq!(value(&dst), expect, "x={x:x} e={e}");
                assert!(dst[2] == 0 || dst[..2] == [0, 0], "normalized");
            }
        }
    }

    #[test]
    fn ring_shl_by_2n_is_identity() {
        // Two shifts by n make one by 2n, and 2^n ≡ −1.
        let n_bits = 192;
        let x = residue(&pattern(3, 9), 3);
        let mut shifted = vec![0; 4];
        mul_2exp(&mut shifted, &x, n_bits, n_bits);
        let mut negated = x.clone();
        negate(&mut negated);
        assert_eq!(shifted, negated);
        let mut back = vec![0; 4];
        mul_2exp(&mut back, &shifted, n_bits, n_bits);
        assert_eq!(back, x);
    }

    #[test]
    fn fold_of_modulus_is_zero() {
        // 2^128 + 1 = 59649589127497217 · 5704689200685129054721, so the
        // product of these two residues folds to exactly zero.
        let p = residue(&Nat::from(59_649_589_127_497_217u64), 2);
        let q = residue(&Nat::from(5_704_689_200_685_129_054_721u128), 2);
        assert_eq!(ring_mul(&p, Some(&q), &Thresholds::default()), vec![0; 3]);
    }

    #[test]
    fn butterflies_and_products_match_naive_mod() {
        let modulus = Nat::power_of_two(128) + Nat::one();
        let edges = edge_residues();
        for a in &edges {
            for b in &edges {
                let (ra, rb) = (residue(a, 2), residue(b, 2));
                let (mut x, mut d) = (ra.clone(), vec![0; 3]);
                add_sub(&mut x, &rb, &mut d);
                assert_eq!(value(&x), &(a + b) % &modulus, "sum {a:x} {b:x}");
                assert_eq!(value(&d), &(&(a + &modulus) - b) % &modulus, "diff");
                let th = Thresholds::default();
                let p = ring_mul(&ra, Some(&rb), &th);
                assert_eq!(value(&p), &(a * b) % &modulus, "product {a:x} {b:x}");
                let sq = ring_mul(&ra, None, &th);
                assert_eq!(value(&sq), &(a * a) % &modulus, "square {a:x}");
            }
        }
    }

    #[test]
    fn plan_invariants() {
        for total in [4usize, 5, 64, 1000, 4096, 20_000, 41_600, 100_000, 256_000] {
            let p = Plan::for_limbs(total);
            assert!(p.pieces * p.piece_limbs >= total, "total={total}");
            // Coefficients below K·2^{128m} fit the ring.
            assert!(p.ring_bits() >= 128 * p.piece_limbs as u64 + u64::from(p.log_k));
            // ω = 2^{2n/K} exists.
            assert_eq!(2 * p.ring_bits() % p.pieces as u64, 0);
            assert!(p.pieces <= total.max(4));
        }
    }

    #[test]
    fn every_transform_length_is_exact() {
        // Force each K from the clamp's bottom up, including K equal to
        // the product's limb count (one-limb pieces).
        let a = pattern(40, 3);
        let b = pattern(24, 4);
        let expect = schoolbook::mul(&a, &b);
        let total = a.limb_len() + b.limb_len();
        for log_k in Plan::MIN_LOG_K..=6 {
            let plan = Plan::with_log_k(total, log_k);
            let mut fa = plan.decompose(a.limbs());
            let mut fb = plan.decompose(b.limbs());
            plan.forward(&mut fa);
            plan.forward(&mut fb);
            let stride = plan.stride();
            for (x, y) in fa.chunks_exact_mut(stride).zip(fb.chunks_exact(stride)) {
                let p = ring_mul(x, Some(y), &Thresholds::default());
                x.copy_from_slice(&p);
            }
            plan.inverse(&mut fa);
            assert_eq!(plan.recompose(&fa, total), expect, "log_k={log_k}");
        }
    }

    #[test]
    fn plan_switch_boundaries_are_exact() {
        // The clamp's bottom (K = 4 at four limbs) and both sides of every
        // product length at which the chosen K changes.
        let th = Thresholds::default();
        let mut edges = vec![4usize];
        for total in 5..=3000 {
            if Plan::for_limbs(total).log_k != Plan::for_limbs(total - 1).log_k {
                edges.extend([total - 1, total]);
            }
        }
        assert!(
            edges.len() > 8,
            "K must change several times below 3000 limbs"
        );
        for total in edges {
            let a = pattern(total / 2, total as u64);
            let b = pattern(total - total / 2, 7);
            let expect = mul_dispatch(&a, &b, MulAlgorithm::Toom3, &th);
            assert_eq!(mul(&a, &b, &th), expect, "total={total}");
        }
    }

    #[test]
    fn matches_schoolbook_small() {
        let th = Thresholds::default();
        for n in [2usize, 3, 5, 9, 16, 40] {
            let a = pattern(n, 1);
            let b = pattern(n, 2);
            assert_eq!(mul(&a, &b, &th), schoolbook::mul(&a, &b), "n={n}");
        }
    }

    #[test]
    fn matches_auto_large() {
        let a = pattern(700, 11);
        let b = pattern(650, 13);
        assert_eq!(mul(&a, &b, &Thresholds::default()), &a * &b);
    }

    #[test]
    fn extreme_operands() {
        let th = Thresholds::default();
        let a = Nat::power_of_two(10_000) - Nat::one(); // all ones
        let b = Nat::power_of_two(9_999) + Nat::one(); // sparse
        assert_eq!(mul(&a, &b, &th), schoolbook::mul(&a, &b));
        assert_eq!(mul(&a, &a, &th), schoolbook::mul(&a, &a));
    }
}
