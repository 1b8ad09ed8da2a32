//! app_pi: `chudnovsky_pi` at 200k digits on `Session::cambricon_p()`,
//! repeated for the whole run (the paper's hardest Fig. 13 application).
//!
//! π is deterministic, so the seed only picks the operands of the bignum
//! probes. Toom/SSA multiplication, `divrem`, `sqrt_rem` and radix
//! conversion dominate; net, serve and structural code are not on this
//! path.

use crate::jobs::class_label;
use crate::stats::{median_f64, Metric, Outcome, Plan, Setups, Timed};
use apc_apps::pi::chudnovsky_pi;
use apc_apps::Session;
use apc_bignum::Nat;
use cambricon_p::stats::OpClass;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

const DIGITS: u64 = 200_000;
/// Guard digits `chudnovsky_pi` adds before its final division.
const GUARD_DIGITS: u64 = 12;
/// Digits of the small solve that completes set-up.
const SETUP_DIGITS: u64 = 1000;
const PI_HEAD: &str = "3.1415926535897932384626433832795028841971693993751058209749445923078164062862089986280348253421170679";
/// Decimal digits 993–1000 of π.
const PI_993_1000: &str = "64201989";
const PROBE_REPS: usize = 3;
/// Solves per latency window: each solve is a window of its own, so the
/// run's p50 and p99 both read the better decile of its solve times.
const WINDOW_SOLVES: usize = 1;

/// Whether `pi` starts with the digits of π held here and has `digits`
/// fraction digits.
fn pi_ok(pi: &str, digits: u64) -> bool {
    let n = PI_HEAD.len().min(pi.len());
    pi.len() as u64 == digits + 2
        && pi[..n] == PI_HEAD[..n]
        && (digits < 1000 || &pi[2 + 992..2 + 1000] == PI_993_1000)
}

fn solves(reference: &str, seconds: f64) -> Timed {
    let c0 = crate::host::ctx_switches();
    let mut t = Timed::gauged(WINDOW_SOLVES);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while t.attempted == 0 || Instant::now() < deadline {
        let session = Session::cambricon_p();
        let started = Instant::now();
        let pi = chudnovsky_pi(DIGITS, &session);
        t.add_op(started.elapsed(), pi == reference);
    }
    t.stop();
    t.ctx_switches = crate::host::ctx_switches().saturating_sub(c0);
    t
}

/// Median host time of `op` over `PROBE_REPS` calls, in ms, and its
/// last result.
fn probe<T>(mut op: impl FnMut() -> T) -> (f64, T) {
    let mut ms = Vec::with_capacity(PROBE_REPS);
    let mut last = None;
    for _ in 0..PROBE_REPS {
        let t = Instant::now();
        last = Some(black_box(op()));
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (median_f64(&ms), last.expect("PROBE_REPS > 0"))
}

/// Times the `apc_bignum` calls π's final step makes at its operand size
/// n (the scaled result's bits) and at n/2 and n/4: n×n multiply,
/// 2n/n divide, square root of 2n bits, and decimal conversion of n bits.
fn bignum_probes(seed: u64, out: &mut Outcome) {
    let final_bits = ((DIGITS + GUARD_DIGITS) as f64 * 10f64.log2()).ceil() as u64;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6170_705f_7069_0000);
    for n in [final_bits / 4, final_bits / 2, final_bits] {
        let label = format!("{}k", n / 1000);
        let a = Nat::random_exact_bits(n, &mut rng);
        let b = Nat::random_exact_bits(n, &mut rng);
        let wide = Nat::random_exact_bits(2 * n, &mut rng);

        let (mul_ms, product) = probe(|| &a * &b);
        let (div_ms, (q, r)) = probe(|| wide.divrem(&b));
        let (sqrt_ms, (s, sr)) = probe(|| wide.sqrt_rem());
        let (dec_ms, decimal) = probe(|| a.to_decimal_string());

        let correct = product.divrem(&a) == (b.clone(), Nat::zero())
            && &(&q * &b) + &r == wide
            && r < b
            && &(&s * &s) + &sr == wide
            && sr <= &s + &s
            && Nat::from_decimal_str(&decimal).is_ok_and(|v| v == a);
        if !correct {
            out.wrong += 1;
        }
        out.layers.extend([
            Metric::new(format!("bignum.mul_ms.{label}"), mul_ms, "ms"),
            Metric::new(format!("bignum.divrem_ms.{label}"), div_ms, "ms"),
            Metric::new(format!("bignum.sqrt_rem_ms.{label}"), sqrt_ms, "ms"),
            Metric::new(format!("bignum.to_decimal_ms.{label}"), dec_ms, "ms"),
        ]);
    }
}

/// Opens a session and completes a `SETUP_DIGITS` solve on it; returns
/// the elapsed seconds.
fn start(wrong: &mut u64) -> ((), f64) {
    let t0 = Instant::now();
    let session = Session::cambricon_p();
    let pi = chudnovsky_pi(SETUP_DIGITS, &session);
    let secs = t0.elapsed().as_secs_f64();
    if !pi_ok(&pi, SETUP_DIGITS) {
        *wrong += 1;
    }
    ((), secs)
}

pub fn run(seed: u64, plan: &Plan) -> Outcome {
    let mut out = Outcome::default();

    let mut setups = Setups::default();
    setups.sample(plan.setup_reps, || start(&mut out.wrong));

    // Exact pass: one solve checked against the digits held here; its
    // session report is the deterministic device-side count.
    let session = Session::cambricon_p();
    let reference = chudnovsky_pi(DIGITS, &session);
    if !pi_ok(&reference, DIGITS) {
        out.wrong += 1;
    }
    let report = session.report();
    let device = session
        .device()
        .expect("a Cambricon-P session has a device");
    out.model_entry("device.cycles", device.stats().cycles);
    out.model_entry("device_s", report.device_seconds);
    out.layers.push(Metric::new(
        "apps.device_cycles",
        device.stats().cycles as f64,
        "cycles",
    ));
    for class in OpClass::ALL {
        out.model_entry(
            &format!("ops.{}", class_label(class)),
            device.stats().ops_for(class),
        );
    }
    // The classes a π solve uses; the others stay 0 (see the model line).
    for class in [OpClass::Mul, OpClass::AddSub, OpClass::Div, OpClass::Sqrt] {
        out.layers.push(Metric::new(
            format!("apps.ops_by_class.{}", class_label(class)),
            device.stats().ops_for(class) as f64,
            "count",
        ));
    }

    if plan.untraced_s > 0.0 {
        out.untraced = Some(solves(&reference, plan.untraced_s));
    }
    if plan.traced_s > 0.0 {
        apc_trace::set_enabled(true);
        out.traced = Some(solves(&reference, plan.traced_s));
        apc_trace::set_enabled(false);
        bignum_probes(seed, &mut out);
    }
    setups.sample(plan.setup_reps, || start(&mut out.wrong));
    out.setup_s = setups.median();
    out
}
