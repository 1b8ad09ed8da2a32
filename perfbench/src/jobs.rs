//! Seeded serve jobs with answers computed by the `apc_bignum` oracle,
//! shared by the net_rpc and serve_burst workloads.

use crate::stats::{ns, Outcome};
use apc_bignum::nat::barrett::BarrettCtx;
use apc_bignum::Nat;
use apc_serve::{Job, JobOutput};
use cambricon_p::stats::OpClass;
use cambricon_p::Device;
use rand::rngs::StdRng;
use rand::Rng;
use std::time::Instant;

/// One generated job and its expected output.
pub struct Case {
    pub job: Job,
    pub expect: JobOutput,
}

/// Fisher–Yates shuffle driven by the workload's seeded generator.
pub fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// `n` points in [0, 1), one uniformly inside each of `n` equal strata,
/// in shuffled order: the seed changes the values but not how they
/// spread, so every seed gets the same mix of sizes.
pub fn stratified(rng: &mut StdRng, n: usize) -> Vec<f64> {
    let mut u: Vec<f64> = (0..n)
        .map(|i| (i as f64 + rng.gen::<f64>()) / n as f64)
        .collect();
    shuffle(rng, &mut u);
    u
}

pub fn mul(rng: &mut StdRng, bits: u64) -> Job {
    Job::Mul {
        a: Nat::random_exact_bits(bits, rng),
        b: Nat::random_exact_bits(bits, rng),
    }
}

pub fn div(rng: &mut StdRng, bits: u64) -> Job {
    let b_bits = (bits / 2).max(1);
    Job::Div {
        a: Nat::random_exact_bits(bits, rng),
        b: Nat::random_exact_bits(b_bits, rng),
    }
}

pub fn sqrt(rng: &mut StdRng, bits: u64) -> Job {
    Job::Sqrt {
        a: Nat::random_exact_bits(bits, rng),
    }
}

/// `base^65537 mod m` for a random odd `bits`-bit modulus.
pub fn modexp(rng: &mut StdRng, bits: u64) -> Job {
    let modulus = Nat::random_exact_bits(bits, rng).with_bit(0, true);
    let base = Nat::random_below(&modulus, rng);
    Job::ModExp {
        base,
        exp: Nat::from(65_537u64),
        modulus,
    }
}

/// The expected output, computed with plain `apc_bignum` arithmetic
/// (Barrett reduction for ModExp, independent of the device's
/// Montgomery path).
pub fn case(job: Job) -> Case {
    let expect = match &job {
        Job::Mul { a, b } => JobOutput::Product(a * b),
        Job::Div { a, b } => {
            let (quotient, remainder) = a.divrem(b);
            JobOutput::DivRem {
                quotient,
                remainder,
            }
        }
        Job::Sqrt { a } => {
            let (root, remainder) = a.sqrt_rem();
            JobOutput::SqrtRem { root, remainder }
        }
        Job::ModExp { base, exp, modulus } => {
            JobOutput::PowMod(BarrettCtx::new(modulus.clone()).pow_mod(base, exp))
        }
    };
    Case { job, expect }
}

/// The op that completes set-up: the narrowest Mul of the pool, so
/// set-up time does not depend on which op the seed happens to put
/// first.
pub fn setup_case(cases: &[Case]) -> &Case {
    cases
        .iter()
        .filter(|c| matches!(c.job, Job::Mul { .. }))
        .min_by_key(|c| c.job.operand_bits())
        .expect("every pool holds a Mul")
}

/// Runs one job on `device` the way a serve worker does.
pub fn run_on_device(device: &Device, job: &Job) -> JobOutput {
    match job {
        Job::Mul { a, b } => JobOutput::Product(device.mul(a, b)),
        Job::Div { a, b } => {
            let (quotient, remainder) = device.divrem(a, b);
            JobOutput::DivRem {
                quotient,
                remainder,
            }
        }
        Job::Sqrt { a } => {
            let (root, remainder) = device.sqrt_rem(a);
            JobOutput::SqrtRem { root, remainder }
        }
        Job::ModExp { base, exp, modulus } => JobOutput::PowMod(device.pow_mod(base, exp, modulus)),
    }
}

/// Short snake-case label of a device op class for metric names.
pub fn class_label(class: OpClass) -> &'static str {
    match class {
        OpClass::Mul => "mul",
        OpClass::AddSub => "add_sub",
        OpClass::Shift => "shift",
        OpClass::Div => "div",
        OpClass::Sqrt => "sqrt",
        OpClass::InnerProduct => "inner_product",
        OpClass::Other => "other",
    }
}

/// Runs every case once on a fresh analytic `Device` and records its
/// exact statistics (analytic cycles, ops per class) in `out.model`.
/// Returns the host time of each `Device::mul` call and the total
/// analytic cycles.
pub fn device_pass(cases: &[Case], out: &mut Outcome) -> (Vec<u64>, u64) {
    let device = Device::new_default();
    let mut mul_ns = Vec::new();
    for c in cases {
        let t = Instant::now();
        let got = std::hint::black_box(run_on_device(&device, &c.job));
        if matches!(c.job, Job::Mul { .. }) {
            mul_ns.push(ns(t.elapsed()));
        }
        if got != c.expect {
            out.wrong += 1;
        }
    }
    let stats = device.stats();
    out.model_entry("device.cycles", stats.cycles);
    for class in OpClass::ALL {
        out.model_entry(
            &format!("device.ops.{}", class_label(class)),
            stats.ops_for(class),
        );
    }
    (mul_ns, stats.cycles)
}
