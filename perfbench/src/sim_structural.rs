//! sim_structural: one caller running `Device::mul_structural` (the
//! Fig. 9a Converter → IPU → GU → Adder Tree pipeline on the Sliced64
//! kernels) on operand pairs of 1024–8192 bits.
//!
//! Pairs alternate between a fixed 4096-bit left operand (the
//! fixed-modulus shape, a pattern-cache hit after its first use) and a
//! fresh one (more distinct operands than the cache holds, so a miss).

use crate::host;
use crate::jobs;
use crate::stats::{median_f64, median_ns, Metric, Outcome, Plan, Setups, Timed};
use apc_bignum::Nat;
use cambricon_p::accelerator::Accelerator;
use cambricon_p::bops::BopsTally;
use cambricon_p::stats::StageCycles;
use cambricon_p::{pattern_cache, ArchConfig, Device};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

const PAIRS_PER_HALF: usize = 128;
const FIXED_BITS: u64 = 4096;
const MIN_BITS: u64 = 1024;
const MAX_BITS: u64 = 8192;

struct Pair {
    a: Nat,
    b: Nat,
    expect: Nat,
    fixed: bool,
}

fn pool(seed: u64) -> Vec<Pair> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7369_6d5f_7374_7275);
    let span = (MAX_BITS - MIN_BITS) as f64;
    let mut widths = || -> Vec<u64> {
        jobs::stratified(&mut rng, PAIRS_PER_HALF)
            .into_iter()
            .map(|u| MIN_BITS + (u * span) as u64)
            .collect()
    };
    let (fixed_b, fresh_a, fresh_b) = (widths(), widths(), widths());
    let fixed = Nat::random_exact_bits(FIXED_BITS, &mut rng);
    let mut pairs = Vec::with_capacity(2 * PAIRS_PER_HALF);
    for i in 0..PAIRS_PER_HALF {
        let b = Nat::random_exact_bits(fixed_b[i], &mut rng);
        pairs.push(Pair {
            expect: &fixed * &b,
            a: fixed.clone(),
            b,
            fixed: true,
        });
        let a = Nat::random_exact_bits(fresh_a[i], &mut rng);
        let b = Nat::random_exact_bits(fresh_b[i], &mut rng);
        pairs.push(Pair {
            expect: &a * &b,
            a,
            b,
            fixed: false,
        });
    }
    pairs
}

fn timed(device: &Device, pairs: &[Pair], seconds: f64) -> (Timed, Vec<u64>, Vec<u64>) {
    let (mut fixed_ns, mut fresh_ns) = (Vec::new(), Vec::new());
    let c0 = host::ctx_switches();
    let mut t = Timed::gauged(pairs.len());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for p in pairs.iter().cycle() {
        if Instant::now() >= deadline {
            break;
        }
        let started = Instant::now();
        let product = device.mul_structural(black_box(&p.a), black_box(&p.b));
        let elapsed = started.elapsed();
        t.add_op(elapsed, product == p.expect);
        if p.fixed {
            &mut fixed_ns
        } else {
            &mut fresh_ns
        }
        .push(crate::stats::ns(elapsed));
    }
    t.stop();
    t.ctx_switches = host::ctx_switches().saturating_sub(c0);
    (t, fixed_ns, fresh_ns)
}

/// Every pair once through `Accelerator::multiply`: correctness, the
/// exact structural statistics, and the gap to the analytic cycle model
/// (`Device::mul_cycles`, which serve, net and apps report).
fn exact_pass(pairs: &[Pair], out: &mut Outcome) {
    let accelerator = Accelerator::new(ArchConfig::default());
    let device = Device::new_default();
    let mut gaps = Vec::with_capacity(pairs.len());
    let (mut structural, mut analytic) = (0u64, 0u64);
    let (mut stages, mut tally) = (StageCycles::default(), BopsTally::default());
    let (mut pe_passes, mut pe_slots) = (0u64, 0u64);
    for p in pairs {
        let run = accelerator.multiply(&p.a, &p.b);
        if run.product != p.expect {
            out.wrong += 1;
        }
        let model = device.mul_cycles(p.a.bit_len(), p.b.bit_len());
        gaps.push((run.cycles as f64 / model as f64 - 1.0).abs());
        structural += run.cycles;
        analytic += model;
        stages.merge(&run.stages);
        tally.merge(&run.tally);
        pe_passes += run.pe_passes;
        pe_slots += run.pe_slots;
    }
    let gap = median_f64(&gaps);
    let utilization = pe_passes as f64 / pe_slots.max(1) as f64;
    for (name, value) in [
        ("structural.cycles", structural),
        ("analytic.cycles", analytic),
        ("stage_cycles.converter", stages.converter),
        ("stage_cycles.ipu", stages.ipu),
        ("stage_cycles.gu", stages.gu),
        ("stage_cycles.adder_tree", stages.adder_tree),
        ("pe_passes", pe_passes),
        ("pe_slots", pe_slots),
        ("bops.pattern_generation", tally.pattern_generation),
        ("bops.weighted_gather", tally.weighted_gather),
        ("bops.bit_serial_reference", tally.bit_serial_reference),
    ] {
        out.model_entry(name, value);
    }
    out.model_entry("model_gap", gap);
    out.layers.extend([
        Metric::new("core.accelerator.cycles", structural as f64, "cycles"),
        Metric::new(
            "core.accelerator.stage_cycles.converter",
            stages.converter as f64,
            "cycles",
        ),
        Metric::new(
            "core.accelerator.stage_cycles.ipu",
            stages.ipu as f64,
            "cycles",
        ),
        Metric::new(
            "core.accelerator.stage_cycles.gu",
            stages.gu as f64,
            "cycles",
        ),
        Metric::new(
            "core.accelerator.stage_cycles.adder_tree",
            stages.adder_tree as f64,
            "cycles",
        ),
        Metric::new("core.accelerator.pe_utilization", utilization, "ratio"),
        Metric::new(
            "core.accelerator.bops_lambda",
            tally.measured_lambda(),
            "ratio",
        ),
        Metric::new("core.model_gap", gap, "ratio"),
    ]);
}

/// Empties the pattern cache, opens a device and completes `first` on
/// it; returns the device and the elapsed seconds.
fn start(first: &Pair, wrong: &mut u64) -> (Device, f64) {
    pattern_cache::clear();
    let t0 = Instant::now();
    let device = Device::new_default();
    if device.mul_structural(&first.a, &first.b) != first.expect {
        *wrong += 1;
    }
    (device, t0.elapsed().as_secs_f64())
}

pub fn run(seed: u64, plan: &Plan) -> Outcome {
    let pairs = pool(seed);
    let mut out = Outcome::default();

    // Set-up completes one MIN_BITS × MIN_BITS product (the same size for
    // every seed) with an empty pattern cache.
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Nat::random_exact_bits(MIN_BITS, &mut rng);
    let b = Nat::random_exact_bits(MIN_BITS, &mut rng);
    let first = Pair {
        expect: &a * &b,
        a,
        b,
        fixed: false,
    };
    let mut setups = Setups::default();
    let device = setups.sample(plan.setup_reps, || start(&first, &mut out.wrong));

    exact_pass(&pairs, &mut out);

    if plan.untraced_s > 0.0 {
        out.untraced = Some(timed(&device, &pairs, plan.untraced_s).0);
    }
    if plan.traced_s > 0.0 {
        apc_trace::set_enabled(true);
        let c0 = pattern_cache::counters();
        let (traced, fixed_ns, fresh_ns) = timed(&device, &pairs, plan.traced_s);
        let c1 = pattern_cache::counters();
        apc_trace::set_enabled(false);
        let (hits, misses) = (c1.hits - c0.hits, c1.misses - c0.misses);
        out.layers.extend([
            Metric::new(
                "core.accelerator.multiply_us.fixed",
                median_ns(&fixed_ns) / 1e3,
                "us",
            ),
            Metric::new(
                "core.accelerator.multiply_us.fresh",
                median_ns(&fresh_ns) / 1e3,
                "us",
            ),
            Metric::new(
                "core.pattern_cache.hit_rate",
                hits as f64 / (hits + misses).max(1) as f64,
                "ratio",
            ),
        ]);
        out.traced = Some(traced);
    }
    setups.sample(plan.setup_reps, || start(&first, &mut out.wrong));
    out.setup_s = setups.median();
    out
}
