//! serve_burst: one thread keeps 64 `ServeHandle::submit` tickets
//! outstanding (a closed loop of 64 virtual callers) against the default
//! `ServeConfig`, in process.
//!
//! Widths are log-uniform over 256–16384 bits (seven power-of-two
//! buckets); about 90% of ops are Mul and 10% Div. Two TCP connections
//! never build a queue, so this is the workload where admission,
//! bucketing and batch formation do real work. It bypasses `apc-net`.

use crate::host;
use crate::jobs::{self, Case};
use crate::stats::{Metric, Outcome, Plan, Setups, Timed};
use apc_serve::{JobSpec, JobTicket, MetricsSnapshot, ServeConfig, ServeHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

const WINDOW: usize = 64;
const POOL: usize = 1024;
const MIN_BITS: f64 = 256.0;
/// log2(16384 / 256): the width range in octaves.
const OCTAVES: f64 = 6.0;

fn pool(seed: u64) -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7365_7276_655f_6275);
    let widths = jobs::stratified(&mut rng, POOL);
    let mut cases: Vec<Case> = widths
        .iter()
        .enumerate()
        .map(|(i, u)| {
            let bits = (MIN_BITS * (OCTAVES * u).exp2()) as u64;
            let job = if i % 10 == 0 {
                jobs::div(&mut rng, bits)
            } else {
                jobs::mul(&mut rng, bits)
            };
            jobs::case(job)
        })
        .collect();
    jobs::shuffle(&mut rng, &mut cases);
    cases
}

fn start(first: &Case, wrong: &mut u64) -> (ServeHandle, f64) {
    let t0 = Instant::now();
    let serve = ServeHandle::start(ServeConfig::default());
    let report = serve
        .submit_wait(first.job.clone(), JobSpec::default())
        .expect("first job");
    if report.output != first.expect {
        *wrong += 1;
    }
    (serve, t0.elapsed().as_secs_f64())
}

/// Keeps `WINDOW` tickets outstanding, waiting on the oldest. Latency is
/// submit → report, observed in submission order. `seconds == None`
/// submits every pool job exactly once.
fn burst(serve: &ServeHandle, cases: &[Case], seconds: Option<f64>) -> Timed {
    let mut window: VecDeque<(JobTicket, Instant, usize)> = VecDeque::with_capacity(WINDOW);
    let c0 = host::ctx_switches();
    let mut t = Timed::start();
    let deadline = seconds.map(|secs| Instant::now() + Duration::from_secs_f64(secs));
    let open = |next: usize| match deadline {
        Some(d) => Instant::now() < d,
        None => next < cases.len(),
    };
    let mut next = 0usize;
    loop {
        while window.len() < WINDOW && open(next) {
            let i = next % cases.len();
            next += 1;
            let started = Instant::now();
            match serve.submit(cases[i].job.clone(), JobSpec::default()) {
                Ok(ticket) => window.push_back((ticket, started, i)),
                Err(_) => t.add_failure(),
            }
        }
        let Some((ticket, started, i)) = window.pop_front() else {
            break;
        };
        let result = ticket.wait();
        let latency = started.elapsed();
        match result {
            Ok(report) => t.add_op(latency, report.output == cases[i].expect),
            Err(_) => t.add_failure(),
        }
    }
    t.stop();
    t.ctx_switches = host::ctx_switches().saturating_sub(c0);
    t
}

/// Serve-layer metrics from the service's own counters and spans over
/// the traced pass (`after − before`).
fn serve_layers(before: &MetricsSnapshot, after: &MetricsSnapshot) -> Vec<Metric> {
    let queue_wait = after.queue_wait_ns.delta_since(&before.queue_wait_ns);
    let rejected = |s: &MetricsSnapshot| {
        s.rejected_full + s.rejected_oversized + s.rejected_shutdown + s.rejected_invalid
    };
    let rejected = rejected(after) - rejected(before);
    let admitted = after.submitted - before.submitted;
    let batches = after.batches - before.batches;
    let batched = after.batched_jobs - before.batched_jobs;
    vec![
        Metric::new(
            "serve.submit_ns",
            after.submit_ns.delta_since(&before.submit_ns).mean(),
            "ns",
        ),
        Metric::new(
            "serve.queue_wait_us.p50",
            queue_wait.quantile(0.5) as f64 / 1e3,
            "us",
        ),
        Metric::new(
            "serve.queue_wait_us.p99",
            queue_wait.quantile(0.99) as f64 / 1e3,
            "us",
        ),
        Metric::new(
            "serve.dispatch_wait_us",
            after
                .dispatch_wait_ns
                .delta_since(&before.dispatch_wait_ns)
                .mean()
                / 1e3,
            "us",
        ),
        Metric::new(
            "serve.batch_form_ns",
            after
                .batch_form_ns
                .delta_since(&before.batch_form_ns)
                .mean(),
            "ns",
        ),
        Metric::new(
            "serve.service_us",
            after.service_ns.delta_since(&before.service_ns).mean() / 1e3,
            "us",
        ),
        Metric::new(
            "serve.mean_batch_size",
            batched as f64 / batches.max(1) as f64,
            "jobs",
        ),
        Metric::new(
            "serve.max_queue_depth",
            after.max_queue_depth as f64,
            "jobs",
        ),
        Metric::new(
            "serve.rejected_frac",
            rejected as f64 / (admitted + rejected).max(1) as f64,
            "ratio",
        ),
    ]
}

pub fn run(seed: u64, plan: &Plan) -> Outcome {
    let cases = pool(seed);
    let mut out = Outcome::default();

    let first = jobs::setup_case(&cases);
    let mut setups = Setups::default();
    let serve = setups.sample(plan.setup_reps, || start(first, &mut out.wrong));

    // Exact pass: every pool job once (warm-up and full correctness
    // check), then once on a bare Device for the model counts.
    let exact = burst(&serve, &cases, None);
    out.add_untimed(&exact);
    jobs::device_pass(&cases, &mut out);

    if plan.untraced_s > 0.0 {
        out.untraced = Some(burst(&serve, &cases, Some(plan.untraced_s)));
    }
    if plan.traced_s > 0.0 {
        apc_trace::set_enabled(true);
        let before = serve.metrics();
        let traced = burst(&serve, &cases, Some(plan.traced_s));
        let after = serve.metrics();
        apc_trace::set_enabled(false);
        out.layers.extend(serve_layers(&before, &after));
        out.traced = Some(traced);
    }
    serve.shutdown();
    setups
        .sample(plan.setup_reps, || start(first, &mut out.wrong))
        .shutdown();
    out.setup_s = setups.median();
    out
}
