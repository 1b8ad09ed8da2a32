//! Criterion benches for the multiplication ladder (feeds Table I /
//! Figure 11 point measurements).

use apc_bignum::nat::mul::{mul_dispatch, Thresholds};
use apc_bignum::{MulAlgorithm, Nat};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn bench_mul_ladder(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("mul_ladder");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for limbs in [64usize, 256, 1024] {
        let a = Nat::random_exact_bits(limbs as u64 * 64, &mut rng);
        let b = Nat::random_exact_bits(limbs as u64 * 64, &mut rng);
        for alg in [
            MulAlgorithm::Schoolbook,
            MulAlgorithm::Karatsuba,
            MulAlgorithm::Toom3,
            MulAlgorithm::Toom4,
            MulAlgorithm::Toom6,
            MulAlgorithm::Ssa,
        ] {
            // Schoolbook above 256 limbs is too slow for CI budgets.
            if alg == MulAlgorithm::Schoolbook && limbs > 256 {
                continue;
            }
            group.bench_with_input(
                BenchmarkId::new(format!("{alg:?}"), limbs),
                &limbs,
                |bench, _| bench.iter(|| a.mul_with(&b, alg)),
            );
        }
    }
    group.finish();
}

/// Auto dispatch against both sides of the Toom-6/SSA crossover: at each
/// size the Toom-6 ladder (SSA disabled) and forced SSA, so the `ssa`
/// default in `Thresholds` can be re-measured.
fn bench_auto_dispatch(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut group = c.benchmark_group("mul_auto");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    let auto = Thresholds::default();
    let toom6_ladder = Thresholds {
        ssa: usize::MAX,
        ..auto
    };
    for limbs in [
        64usize,
        1024,
        2048,
        3072,
        auto.ssa - 1,
        auto.ssa,
        6000,
        10_000,
        16_384,
    ] {
        let a = Nat::random_exact_bits(limbs as u64 * 64, &mut rng);
        let b = Nat::random_exact_bits(limbs as u64 * 64, &mut rng);
        group.bench_with_input(BenchmarkId::new("auto", limbs), &limbs, |bench, _| {
            bench.iter(|| &a * &b)
        });
        if limbs >= auto.toom6 {
            group.bench_with_input(
                BenchmarkId::new("toom6_ladder", limbs),
                &limbs,
                |bench, _| bench.iter(|| mul_dispatch(&a, &b, MulAlgorithm::Auto, &toom6_ladder)),
            );
            group.bench_with_input(BenchmarkId::new("ssa", limbs), &limbs, |bench, _| {
                bench.iter(|| a.mul_with(&b, MulAlgorithm::Ssa))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_mul_ladder, bench_auto_dispatch);
criterion_main!(benches);
