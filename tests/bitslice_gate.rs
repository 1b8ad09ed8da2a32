//! Tier-1 gate: the Sliced64 kernels must be bit-identical to the Scalar
//! oracle — results, cycle counts, stage attribution and bops tallies
//! alike.
//!
//! The Sliced64 kernels pack 64 bitflow steps into each host word op;
//! nothing about the modeled machine may change. This gate drives the
//! same randomized operands through `Accelerator::multiply` (the kernels
//! the config selects) and `Accelerator::multiply_reference` (the Scalar
//! oracle) across a width sweep, including exact powers of two and their
//! ±1 neighbours, where limb decomposition boundaries live, and compares
//! every `RunOutcome` field. `Device::mul_structural` derives its
//! `DeviceStats` from exactly these fields.

use apc_bignum::Nat;
use cambricon_p::accelerator::{Accelerator, KernelBackend, RunOutcome};
use cambricon_p::ArchConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Operand widths around every power-of-two boundary in the interesting
/// range, plus a few odd sizes that leave partial final limbs.
fn width_sweep() -> Vec<u64> {
    let mut widths = vec![1, 7, 100, 777];
    for p in [6u32, 8, 10, 12] {
        let b = 1u64 << p;
        widths.extend([b - 1, b, b + 1]);
    }
    widths
}

/// Runs `a × b` on the selected kernels and on the Scalar oracle and
/// asserts every `RunOutcome` field matches and the product is exact.
fn assert_matches_reference(acc: &Accelerator, a: &Nat, b: &Nat) -> RunOutcome {
    let v = acc.multiply(a, b);
    let s = acc.multiply_reference(a, b);
    let at = format!("{}×{} bits, q={}", a.bit_len(), b.bit_len(), acc.config().q);
    assert_eq!(v.product, s.product, "product diverged at {at}");
    assert_eq!(v.cycles, s.cycles, "cycles diverged at {at}");
    assert_eq!(v.pe_passes, s.pe_passes, "pe_passes diverged at {at}");
    assert_eq!(v.tally, s.tally, "bops tally diverged at {at}");
    assert_eq!(v.stages, s.stages, "stage cycles diverged at {at}");
    assert_eq!(v.pe_slots, s.pe_slots, "pe_slots diverged at {at}");
    assert_eq!(v.product, a * b, "kernels diverged from the oracle at {at}");
    v
}

#[test]
fn sliced_mul_structural_matches_scalar_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xB175_11CE);
    for cfg in [
        ArchConfig::default(),
        ArchConfig {
            n_pe: 4,
            n_ipu: 4,
            q: 3,
            limb_bits: 20,
            ..ArchConfig::default()
        },
        ArchConfig {
            n_pe: 2,
            n_ipu: 2,
            q: 2,
            limb_bits: 8,
            ..ArchConfig::default()
        },
    ] {
        let acc = Accelerator::new(cfg);
        assert_eq!(acc.kernel(), KernelBackend::Sliced64);
        let mut converter_busy = 0;
        for bits in width_sweep() {
            let a = Nat::random_exact_bits(bits, &mut rng);
            let b = Nat::random_exact_bits(bits.max(2) - 1, &mut rng);
            converter_busy += assert_matches_reference(&acc, &a, &b).stages.converter;
        }
        // Zero and one still go through the structural path.
        for special in [Nat::zero(), Nat::one()] {
            let x = Nat::random_exact_bits(257, &mut rng);
            assert_matches_reference(&acc, &x, &special);
        }
        assert!(converter_busy > 0, "the sweep did real work");
    }
}

#[test]
fn unsupported_envelope_is_still_exact() {
    // L = 64 with q = 4 exceeds the one-word pattern envelope: the config
    // selects the Scalar kernels, which stay bit-exact.
    let acc = Accelerator::new(ArchConfig {
        limb_bits: 64,
        ..ArchConfig::default()
    });
    assert_eq!(acc.kernel(), KernelBackend::Scalar);
    let mut rng = StdRng::seed_from_u64(7);
    let a = Nat::random_exact_bits(4096, &mut rng);
    let b = Nat::random_exact_bits(4097, &mut rng);
    assert_matches_reference(&acc, &a, &b);
}
