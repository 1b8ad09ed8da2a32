//! The bit-indexed IPU — *pattern indexing* and accumulation (BIPS stages
//! 2 and 3, Fig. 8 and Fig. 9c).
//!
//! Each IPU receives the broadcast pattern flows from the Converter plus
//! its own q index bitflows (the y⃗ limbs). At cycle t the q index bits
//! form a column of the one-hot matrix B_col: they select pattern
//! `z[s]` where s is the column value, which is accumulated at weight 2^t.
//! Zero columns are skipped (bit-sparsity); repeated sub-additions were
//! already eliminated by the Converter (repetition redundancy).

use crate::bops::BopsTally;
use crate::converter::Patterns;
use apc_bignum::limb::{bit_len, low_mask, Limb, LIMB_BITS};
use apc_bignum::Nat;

/// Output of one IPU pass (BIPS stage 3, Fig. 9c): an inner-product
/// partial sum plus accounting.
#[derive(Debug, Clone)]
pub struct IpuOutput {
    /// The inner product Σᵢ xᵢ·yᵢ.
    pub value: Nat,
    /// bops accounting for this pass.
    pub tally: BopsTally,
    /// Cycles consumed: the index stream length (1 bit of every index flow
    /// per cycle).
    pub cycles: u64,
}

/// Computes the inner product x⃗·y⃗ by BIPS (Fig. 8), given pre-generated
/// patterns of x⃗ and the index limbs y⃗ (one per pattern input, each at
/// most `index_bits` wide).
///
/// ```
/// use apc_bignum::Nat;
/// use cambricon_p::converter::generate_patterns;
/// use cambricon_p::ipu::bit_indexed_inner_product;
///
/// // x⃗ = (3, 5), y⃗ = (2, 4): inner product = 3·2 + 5·4 = 26.
/// let xs = [Nat::from(3u64), Nat::from(5u64)];
/// let ys = [Nat::from(2u64), Nat::from(4u64)];
/// let p = generate_patterns(&xs, 8).expect("2 elements of <= 8 bits");
/// let out = bit_indexed_inner_product(&p, &ys, 8);
/// assert_eq!(out.value.to_u64(), Some(26));
/// ```
///
/// # Panics
///
/// Panics if `ys.len()` does not match the pattern input count or an index
/// exceeds `index_bits`.
pub fn bit_indexed_inner_product(patterns: &Patterns, ys: &[Nat], index_bits: u64) -> IpuOutput {
    let q = crate::cast::usize_from(u64::from(patterns.len().trailing_zeros()));
    assert_eq!(ys.len(), q, "one index flow per pattern input");
    for (i, y) in ys.iter().enumerate() {
        assert!(
            y.bit_len() <= index_bits,
            "index {i} has {} bits > {index_bits}",
            y.bit_len()
        );
    }
    // The Converter's cost is attributed once per pattern set; the caller
    // merges it. Here we count indexing-side work only.
    let mut tally = BopsTally {
        bit_serial_reference: q as u64 * patterns.element_bits() * index_bits,
        ..BopsTally::default()
    };

    let mut acc = Nat::zero();
    for t in 0..index_bits {
        let mut mask = 0usize;
        for (i, y) in ys.iter().enumerate() {
            if y.bit(t) {
                mask |= 1 << i;
            }
        }
        if mask == 0 {
            tally.skipped_zero += 1;
            continue;
        }
        let selected = patterns.get(mask);
        // One shifted accumulation of a (p_x + q)-bit pattern.
        tally.weighted_gather += selected.bit_len().max(1);
        acc = &acc + &selected.shl_bits(t);
    }
    crate::invariants::check_ipu_bound(&acc, q, patterns.element_bits(), index_bits);
    IpuOutput {
        value: acc,
        tally,
        cycles: index_bits,
    }
}

/// The bitsliced form of [`bit_indexed_inner_product`]: all `index_bits`
/// bitflow steps of one IPU pass (BIPS stages 2+3, Fig. 8) collapse into
/// ~2^(q+1) word ops.
///
/// The scalar pass accumulates `V = Σ_t pattern(sel(t))·2^t`, one shifted
/// addition per cycle `t`. Regrouping by *which* pattern each column
/// selects gives `V = Σ_mask pattern[mask]·I[mask]`, where the **indicator
/// word** `I[mask] = Σ_{t: sel(t)=mask} 2^t` packs every cycle that
/// selected `mask` into one machine word. The 2^q indicators are computed
/// with a subset-split AND network over the q index words (the carry-free
/// AND/NOT half of the carry-save rewrite; the carries reappear only in
/// the final per-mask MACs, which are exact in 128-bit arithmetic under
/// the sliced-support envelope that
/// [`crate::accelerator::Accelerator::kernel`] checks).
///
/// Returns the inner product and a [`BopsTally`] **bit-identical** to the
/// scalar pass: `skipped_zero` is `popcount(I[0])`, and the per-cycle
/// `weighted_gather` charges regroup into `popcount(I[mask]) ·
/// bits(pattern[mask])` — the same multiset of u64 additions in a
/// different order.
///
/// `ind` is caller-owned scratch of `patterns.len()` words, fully
/// overwritten, so a PE pass reuses one buffer across its IPUs.
pub fn bit_indexed_inner_product_sliced(
    patterns: &[Limb],
    element_bits: u64,
    ys: &[Limb],
    index_bits: u64,
    ind: &mut [Limb],
) -> (u128, BopsTally) {
    let q = crate::cast::usize_from(u64::from(patterns.len().trailing_zeros()));
    debug_assert_eq!(ys.len(), q, "one index word per pattern input");
    debug_assert!(index_bits <= u64::from(LIMB_BITS), "index stream exceeds one word");
    let active = low_mask(u32::try_from(index_bits).unwrap_or(LIMB_BITS));

    // Indicator network: split the active cycle set by each index word in
    // turn. After processing word i, ind[m] (m < 2^(i+1)) holds the cycles
    // whose low i+1 index bits equal m. 2^(q+1) − 2 word ops total — the
    // "64 bitflow steps per u64 op" collapse.
    debug_assert_eq!(ind.len(), patterns.len(), "one indicator word per pattern");
    ind[0] = active;
    let mut half = 1usize;
    for (i, &y) in ys.iter().enumerate() {
        debug_assert_eq!(y & !active, 0, "index {i} has bits beyond {index_bits}");
        for m in 0..half {
            ind[m | half] = ind[m] & y;
            ind[m] &= !y;
        }
        half <<= 1;
    }

    let mut tally = BopsTally {
        bit_serial_reference: q as u64 * element_bits * index_bits,
        // Cycles whose index column is all zeros select z₀ ≡ 0 and are
        // skipped — popcount(I[0]) of them at once (bit-sparsity).
        skipped_zero: u64::from(ind[0].count_ones()),
        ..BopsTally::default()
    };
    let mut value = 0u128;
    for (mask, &w) in ind.iter().enumerate().skip(1) {
        if w == 0 {
            continue;
        }
        let p = patterns[mask];
        tally.weighted_gather += u64::from(w.count_ones()) * u64::from(bit_len(p)).max(1);
        value += u128::from(p) * u128::from(w);
    }
    debug_assert!(
        element_bits + index_bits >= 124
            || value < (u128::from(q as u64) << (element_bits + index_bits)),
        "sliced IPU bound (Fig. 8): V < q·2^(p_x + p_y)"
    );
    (value, tally)
}

/// The straightforward bit-serial MAC scheme of Fig. 6(b) — used as the
/// ablation baseline. Supports zero-bit skipping (`skip_zeros`) but cannot
/// eliminate repeated sub-additions across the q multiplications.
pub fn plain_bit_serial_inner_product(
    xs: &[Nat],
    ys: &[Nat],
    index_bits: u64,
    skip_zeros: bool,
) -> IpuOutput {
    assert_eq!(xs.len(), ys.len());
    let px = xs.iter().map(Nat::bit_len).max().unwrap_or(0);
    let mut tally = BopsTally::default();
    tally.bit_serial_reference = xs.len() as u64 * px * index_bits;
    let mut acc = Nat::zero();
    for (x, y) in xs.iter().zip(ys) {
        for t in 0..index_bits {
            if y.bit(t) {
                tally.weighted_gather += x.bit_len().max(1);
                acc = &acc + &x.shl_bits(t);
            } else if skip_zeros {
                tally.skipped_zero += 1;
            } else {
                // An addition of zero still burns the adder.
                tally.weighted_gather += x.bit_len().max(1);
            }
        }
    }
    IpuOutput {
        value: acc,
        tally,
        cycles: index_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::converter::generate_patterns;

    fn inner_product_oracle(xs: &[Nat], ys: &[Nat]) -> Nat {
        xs.iter()
            .zip(ys)
            .fold(Nat::zero(), |acc, (x, y)| &acc + &(x * y.clone()))
    }

    #[test]
    fn matches_oracle_q4() {
        let xs: Vec<Nat> = [0xDEADu64, 0xBEEF, 0x1234, 0xFFFF]
            .iter()
            .map(|&v| Nat::from(v))
            .collect();
        let ys: Vec<Nat> = [0xAAu64, 0x55, 0x0F, 0xF0]
            .iter()
            .map(|&v| Nat::from(v))
            .collect();
        let p = generate_patterns(&xs, 16).expect("valid inputs");
        let out = bit_indexed_inner_product(&p, &ys, 8);
        assert_eq!(out.value, inner_product_oracle(&xs, &ys));
        assert_eq!(out.cycles, 8);
    }

    #[test]
    fn paper_figure6_example() {
        // Figure 6/8 use x⃗ = (0b0101, 0b1011), y⃗ = (0b0110, 0b0111):
        // 5·6 + 11·7 = 107.
        let xs = [Nat::from(0b0101u64), Nat::from(0b1011u64)];
        let ys = [Nat::from(0b0110u64), Nat::from(0b0111u64)];
        let p = generate_patterns(&xs, 4).expect("valid inputs");
        let out = bit_indexed_inner_product(&p, &ys, 4);
        assert_eq!(out.value.to_u64(), Some(107));
        // Cycle 3 has both index bits zero → exactly one skip... bit 0:
        // (0,1)→pattern 2; bit 1: (1,1)→3; bit 2: (1,1)→3; bit 3: (0,0)→skip.
        assert_eq!(out.tally.skipped_zero, 1);
    }

    #[test]
    fn zero_index_is_free() {
        let xs = [Nat::from(123u64), Nat::from(456u64)];
        let ys = [Nat::zero(), Nat::zero()];
        let p = generate_patterns(&xs, 16).expect("valid inputs");
        let out = bit_indexed_inner_product(&p, &ys, 32);
        assert!(out.value.is_zero());
        assert_eq!(out.tally.skipped_zero, 32);
        assert_eq!(out.tally.weighted_gather, 0);
    }

    #[test]
    fn sliced_inner_product_matches_scalar_value_and_tally() {
        let words = [0xDEADu64, 0xBEEF, 0x1234, 0xFFFF];
        let index_words = [0xAAu64, 0x55, 0x0F, 0xF0];
        let xs: Vec<Nat> = words.iter().map(|&v| Nat::from(v)).collect();
        let ys: Vec<Nat> = index_words.iter().map(|&v| Nat::from(v)).collect();
        let p = generate_patterns(&xs, 16).expect("valid inputs");
        let scalar = bit_indexed_inner_product(&p, &ys, 8);
        let (sliced_patterns, _) = crate::converter::generate_patterns_sliced(&words, 16);
        let (value, tally) =
            bit_indexed_inner_product_sliced(&sliced_patterns, 16, &index_words, 8, &mut [0; 16]);
        assert_eq!(scalar.value.to_u128(), Some(value));
        assert_eq!(scalar.tally, tally);
    }

    #[test]
    fn sliced_inner_product_full_word_indexes() {
        // L = 54: the widest limb the sliced envelope admits at q = 4.
        let words = [
            (1u64 << 54) - 1,
            0x2A_AAAA_AAAA_AAAA,
            0x15_5555_5555_5555,
            1,
        ];
        let index_words = [(1u64 << 54) - 1, 0x3F_0F0F_0F0F_0F0F, 0, 1];
        let xs: Vec<Nat> = words.iter().map(|&v| Nat::from(v)).collect();
        let ys: Vec<Nat> = index_words.iter().map(|&v| Nat::from(v)).collect();
        let p = generate_patterns(&xs, 54).expect("valid inputs");
        let scalar = bit_indexed_inner_product(&p, &ys, 54);
        let (sliced_patterns, _) = crate::converter::generate_patterns_sliced(&words, 54);
        let (value, tally) =
            bit_indexed_inner_product_sliced(&sliced_patterns, 54, &index_words, 54, &mut [0; 16]);
        assert_eq!(scalar.value.to_u128(), Some(value));
        assert_eq!(scalar.tally, tally);
    }

    #[test]
    fn sliced_zero_index_skips_every_cycle() {
        let (patterns, _) = crate::converter::generate_patterns_sliced(&[123, 456], 16);
        let (value, tally) =
            bit_indexed_inner_product_sliced(&patterns, 16, &[0, 0], 32, &mut [0; 4]);
        assert_eq!(value, 0);
        assert_eq!(tally.skipped_zero, 32);
        assert_eq!(tally.weighted_gather, 0);
    }

    #[test]
    fn bips_beats_plain_bit_serial_on_dense_input() {
        let xs: Vec<Nat> = (0..4).map(|i| Nat::from(0xFFFF_FFFFu64 - i)).collect();
        let ys: Vec<Nat> = (0..4).map(|i| Nat::from(0xFFFF_FFF0u64 + i)).collect();
        let p = generate_patterns(&xs, 32).expect("valid inputs");
        let bips = bit_indexed_inner_product(&p, &ys, 32);
        let mut bips_total = bips.tally;
        bips_total.merge(p.tally());
        let plain = plain_bit_serial_inner_product(&xs, &ys, 32, true);
        assert_eq!(bips.value, plain.value);
        assert!(
            bips_total.total() < plain.tally.total(),
            "BIPS {} vs plain {}",
            bips_total.total(),
            plain.tally.total()
        );
    }

    #[test]
    fn measured_lambda_near_analytic_for_random_dense() {
        // For uniformly random 32-bit indexes, the measured ratio should
        // sit near λ(4, 32) ≈ 0.37 (columns are nonzero 15/16 of the time).
        let xs: Vec<Nat> = [0x9E3779B9u64, 0x7F4A7C15, 0xF39CC060, 0x5CEDC834]
            .iter()
            .map(|&v| Nat::from(v))
            .collect();
        let ys: Vec<Nat> = [0xDEADBEEFu64, 0xCAFEF00D, 0x8BADF00D, 0xFEEDFACE]
            .iter()
            .map(|&v| Nat::from(v))
            .collect();
        let p = generate_patterns(&xs, 32).expect("valid inputs");
        let out = bit_indexed_inner_product(&p, &ys, 32);
        let mut t = out.tally;
        t.merge(p.tally());
        let l = t.measured_lambda();
        assert!(l > 0.2 && l < 0.6, "measured λ = {l}");
    }

    #[test]
    fn plain_scheme_without_skipping_costs_more() {
        let xs = [Nat::from(1u64), Nat::from(2u64)];
        let ys = [Nat::from(0b1u64), Nat::from(0b0u64)];
        let with_skip = plain_bit_serial_inner_product(&xs, &ys, 8, true);
        let without = plain_bit_serial_inner_product(&xs, &ys, 8, false);
        assert_eq!(with_skip.value, without.value);
        assert!(without.tally.total() > with_skip.tally.total());
    }
}
