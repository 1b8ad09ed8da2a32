//! Seeded end-to-end and per-layer benchmark of the Cambricon-P
//! reproduction. See README.md in this directory.
//!
//! ```text
//! apc-perfbench --workload <net_rpc|serve_burst|sim_structural|app_pi>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a host header line, the exact simulated counts of the seeded
//! input set, one line per metric, and as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set, measured with tracing off; with
//! `--trace 1` they are the per-layer set of all four workloads plus the
//! tracing overhead of the named one. A wrong result exits with code 1.

mod app_pi;
mod gauge;
mod host;
mod jobs;
mod net_rpc;
mod serve_burst;
mod sim_structural;
mod stats;

use stats::{Metric, Outcome, Plan};
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["net_rpc", "serve_burst", "sim_structural", "app_pi"];
/// Fewest set-up repetitions per phase of an end-to-end run (`setup_s`
/// is the median of both phases).
const SETUP_REPS: usize = 25;
/// Seconds of the traced pass of each workload other than the named one
/// in a traced run.
const SIDE_TRACE_S: f64 = 1.0;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run_workload(name: &str, seed: u64, plan: &Plan) -> Outcome {
    match name {
        "net_rpc" => net_rpc::run(seed, plan),
        "serve_burst" => serve_burst::run(seed, plan),
        "sim_structural" => sim_structural::run(seed, plan),
        "app_pi" => app_pi::run(seed, plan),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

fn print_model(name: &str, outcome: &Outcome) {
    let fields: Vec<String> = outcome
        .model
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("# model {name} {}", fields.join(" "));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("apc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    apc_trace::set_enabled(false);
    // The first gauge reading of a process runs cold; take it here.
    gauge::rate();
    println!(
        "# host {}",
        host::header(args.workload, args.seed, args.seconds, args.trace)
    );
    let seconds = args.seconds as f64;
    let (steal0, total0) = host::cpu_jiffies();

    let mut metrics: Vec<Metric> = Vec::new();
    let (mut attempted, mut failed, mut wrong) = (0u64, 0u64, 0u64);
    if args.trace {
        for name in WORKLOADS {
            let plan = if name == args.workload {
                Plan {
                    setup_reps: 1,
                    untraced_s: seconds / 2.0,
                    traced_s: seconds / 2.0,
                }
            } else {
                Plan {
                    setup_reps: 1,
                    untraced_s: 0.0,
                    traced_s: SIDE_TRACE_S,
                }
            };
            let outcome = run_workload(name, args.seed, &plan);
            print_model(name, &outcome);
            if name == args.workload {
                let untraced = outcome
                    .untraced
                    .as_ref()
                    .expect("named workload runs untraced");
                let traced = outcome.traced.as_ref().expect("named workload runs traced");
                metrics.push(Metric::new(
                    "host.ctx_switches_per_op",
                    traced.ctx_switches as f64 / traced.completed.max(1) as f64,
                    "count",
                ));
                metrics.push(Metric::new(
                    "trace.overhead_frac",
                    untraced.ops_per_s() / traced.ops_per_s() - 1.0,
                    "ratio",
                ));
            }
            attempted += outcome.attempted();
            failed += outcome.failed();
            wrong += outcome.wrong();
            metrics.extend(outcome.layers);
        }
    } else {
        let plan = Plan {
            setup_reps: SETUP_REPS,
            untraced_s: seconds,
            traced_s: 0.0,
        };
        let outcome = run_workload(args.workload, args.seed, &plan);
        print_model(args.workload, &outcome);
        let timed = outcome.untraced.as_ref().expect("end-to-end runs untraced");
        metrics.extend(timed.end_to_end(outcome.setup_s));
        metrics.push(Metric::new("peak_rss_mb", host::peak_rss_mb(), "MB"));
        println!(
            "# failed_frac {}",
            outcome.failed() as f64 / outcome.attempted().max(1) as f64
        );
        println!("# host_speed {}", timed.host_speed());
        if args.workload == "app_pi" {
            println!("# solve_s {}", timed.latency_p50_us() / 1e6);
        }
        attempted = outcome.attempted();
        failed = outcome.failed();
        wrong = outcome.wrong();
    }

    let (steal1, total1) = host::cpu_jiffies();
    println!(
        "# steal_frac {}",
        (steal1 - steal0) as f64 / total1.saturating_sub(total0).max(1) as f64
    );
    for m in &metrics {
        println!("{:<44} {:>16} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                host::json_str(&m.name),
                host::json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        wrong == 0,
        body.join(", ")
    );
    if wrong == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("apc-perfbench: {wrong} wrong result(s)");
        ExitCode::FAILURE
    }
}
