//! Host speed gauge: a fixed schoolbook multiply owned by the benchmark.
//!
//! The shared host runs this benchmark's vCPUs alongside other tenants,
//! and its speed moves by up to 2× for seconds to minutes at a time
//! with no counter to read it from. A fixed multiply-and-carry loop,
//! timed right next to the program's work on the same thread, slows
//! down with it: over 1 s spans its rate and that of `apc_bignum`
//! multiplication correlate at 0.96 on the reference host. Timings of
//! the single-threaded workloads are scaled by the gauge to what they
//! would read at `REFERENCE_RATE`, so a change of host speed between
//! runs cancels while a change of the program does not touch the
//! gauge.

use std::hint::black_box;
use std::time::Instant;

/// Limbs per gauge operand (4096 bits).
const LIMBS: usize = 64;
/// Multiplies per gauge reading (about 4 ms on the reference host).
const REPS: usize = 800;
/// Gauge multiplies per second that corrected timings refer to: about
/// the rate of an undisturbed vCPU of the reference host.
pub const REFERENCE_RATE: f64 = 200_000.0;

fn operand(seed: u64) -> Vec<u64> {
    let mut x = seed;
    (0..LIMBS)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x
        })
        .collect()
}

/// Schoolbook product of two `LIMBS`-limb operands into `out`.
fn multiply(a: &[u64], b: &[u64], out: &mut [u64]) {
    out.fill(0);
    for (i, &x) in a.iter().enumerate() {
        let mut carry = 0u128;
        for (j, &y) in b.iter().enumerate() {
            let t = u128::from(out[i + j]) + u128::from(x) * u128::from(y) + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        out[i + b.len()] = carry as u64;
    }
}

/// Gauge multiplies per second, measured now on the calling thread.
pub fn rate() -> f64 {
    let (a, b) = (operand(1), operand(2));
    let mut out = vec![0u64; 2 * LIMBS];
    let started = Instant::now();
    for _ in 0..REPS {
        multiply(black_box(&a), black_box(&b), black_box(&mut out));
    }
    REPS as f64 / started.elapsed().as_secs_f64()
}
