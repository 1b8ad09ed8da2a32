//! Facts about the host and process: the header printed with every
//! result, peak memory and context switches.

use std::fs;

/// Host header as one JSON object. `compare.py` refuses to compare runs
/// whose headers differ in anything but the revision and seed.
pub fn header(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": {}, \"kernel_backend\": \"{}\", \
         \"parallel_feature\": {}, \"pool_threads\": {}, \"git_rev\": {}, \
         \"trace\": {}, \"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}}}",
        json_str(&cpu_model()),
        cambricon_p::accelerator::KernelBackend::from_env().name(),
        apc_bignum::par::parallel_enabled(),
        apc_bignum::par::pool_threads(),
        json_str(&git_rev()),
        u8::from(trace),
    )
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out revision, read from `.git` in the working directory
/// only (an export without `.git` reports "unknown").
fn git_rev() -> String {
    let Ok(head) = fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn status_field(text: &str, field: &str) -> Option<u64> {
    text.lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let text = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&text, "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Voluntary plus involuntary context switches summed over every live
/// thread of this process.
pub fn ctx_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .map(|s| {
            status_field(&s, "voluntary_ctxt_switches:").unwrap_or(0)
                + status_field(&s, "nonvoluntary_ctxt_switches:").unwrap_or(0)
        })
        .sum()
}

/// (steal, total) jiffies summed over all CPUs, from `/proc/stat`.
/// Steal is time the hypervisor ran something else on this machine's
/// virtual CPUs; it stretches every wall-clock timing taken meanwhile.
pub fn cpu_jiffies() -> (u64, u64) {
    let text = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}
