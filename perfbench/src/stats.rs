//! Metric records, sample statistics and the per-pass bookkeeping every
//! workload shares.

use crate::gauge;
use std::time::{Duration, Instant};

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// How much of a workload one invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Fewest times the layer stack is started from nothing to its first
    /// completed op, in each of the run's two set-up phases (see
    /// `Setups`).
    pub setup_reps: usize,
    /// Seconds of the timed loop with tracing off (0 skips it).
    pub untraced_s: f64,
    /// Seconds of the timed loop with tracing on (0 skips it). A traced
    /// pass also produces the workload's per-layer metrics.
    pub traced_s: f64,
}

/// A latency window closes once it spans at least this long and holds
/// at least `WINDOW_MIN_OPS` ops (so its p99 has ten samples above it).
const WINDOW_MIN: Duration = Duration::from_millis(500);
const WINDOW_MIN_OPS: usize = 1000;
/// Share of the windows of a loop without a host speed gauge that may
/// beat the value its metrics report: the better decile. The shared
/// host only ever slows a window down (steal, busy neighbours, slow
/// periods that last seconds), so the least disturbed windows are the
/// ones that repeat from run to run; a change of the program moves them
/// all. A gauged loop reports the median of its corrected windows.
const BETTER_DECILE: f64 = 0.1;

/// Summary of one closed latency window.
#[derive(Debug)]
struct Window {
    p50_ns: f64,
    p99_ns: f64,
    ops_per_s: f64,
    /// Host speed the window's timings were scaled by (1 if ungauged).
    speed: f64,
}

/// Host speed relative to `gauge::REFERENCE_RATE`, from gauge readings
/// taken at both ends of a span in which the program ran alone.
fn speed(before: f64, after: f64) -> f64 {
    (before + after) / 2.0 / gauge::REFERENCE_RATE
}

/// One timed closed loop. Latencies are summarised per window as the
/// loop runs, so the benchmark's own memory stays flat however long the
/// run is, and a stall of the host moves the windows it hits, not the
/// result.
#[derive(Debug)]
pub struct Timed {
    window_started: Instant,
    /// Latencies (ns) of the open window.
    window: Vec<u64>,
    windows: Vec<Window>,
    window_min_ops: usize,
    window_min: Duration,
    /// Gauge rate read as the open window started, in a gauged loop.
    window_gauge: Option<f64>,
    /// Closed loops that ran side by side in this one (their window
    /// rates add up).
    loops: usize,
    /// Ops that returned a correct result.
    pub completed: u64,
    pub attempted: u64,
    /// Ops refused or failed by the program (no result to check).
    pub failed: u64,
    /// Ops that returned a result different from the oracle's.
    pub wrong: u64,
    /// Voluntary + involuntary context switches of every thread that was
    /// alive across the loop.
    pub ctx_switches: u64,
}

impl Timed {
    /// Starts the clock of a loop that shares the process with busy
    /// threads of the program; its windows are taken as measured.
    pub fn start() -> Timed {
        Timed::windowed(WINDOW_MIN_OPS, WINDOW_MIN, false)
    }

    /// Starts the clock of a loop that is the only busy thread of the
    /// process, with windows of exactly `ops` ops (a pass over a fixed
    /// input set, or one long op). The gauge is read between windows,
    /// when nothing of the program runs, and each window's timings are
    /// scaled to the reference host speed.
    pub fn gauged(ops: usize) -> Timed {
        Timed::windowed(ops, Duration::ZERO, true)
    }

    fn windowed(min_ops: usize, min: Duration, gauged: bool) -> Timed {
        let window_gauge = gauged.then(gauge::rate);
        Timed {
            window_started: Instant::now(),
            window: Vec::with_capacity(min_ops),
            windows: Vec::new(),
            window_min_ops: min_ops,
            window_min: min,
            window_gauge,
            loops: 1,
            completed: 0,
            attempted: 0,
            failed: 0,
            wrong: 0,
            ctx_switches: 0,
        }
    }

    fn close_window(&mut self) {
        let elapsed = self.window_started.elapsed().as_secs_f64();
        let (speed, next_gauge) = match self.window_gauge {
            Some(before) => {
                let after = gauge::rate();
                (speed(before, after), Some(after))
            }
            None => (1.0, None),
        };
        self.window.sort_unstable();
        self.windows.push(Window {
            p50_ns: quantile(&self.window, 0.50) * speed,
            p99_ns: quantile(&self.window, 0.99) * speed,
            ops_per_s: self.window.len() as f64 / elapsed / speed,
            speed,
        });
        self.window.clear();
        self.window_gauge = next_gauge;
        self.window_started = Instant::now();
    }

    /// Quantile of the per-window values a loop metric reports, counted
    /// from the better end: the median for a gauged loop, the better
    /// decile otherwise.
    fn better(&self) -> f64 {
        if self.window_gauge.is_some() {
            0.5
        } else {
            BETTER_DECILE
        }
    }

    /// Ends the loop. A trailing partial window is dropped unless it is
    /// the only one.
    pub fn stop(&mut self) {
        if self.windows.is_empty() && !self.window.is_empty() {
            self.close_window();
        }
        self.window = Vec::new();
    }

    /// Counts one op that returned a result after `latency`.
    pub fn add_op(&mut self, latency: Duration, correct: bool) {
        self.attempted += 1;
        if !correct {
            self.wrong += 1;
            return;
        }
        self.completed += 1;
        self.window.push(ns(latency));
        if self.window.len() >= self.window_min_ops
            && self.window_started.elapsed() >= self.window_min
        {
            self.close_window();
        }
    }

    pub fn add_failure(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// Folds in another stopped loop that ran alongside this one.
    pub fn merge(&mut self, other: Timed) {
        self.windows.extend(other.windows);
        self.loops += other.loops;
        self.completed += other.completed;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.ctx_switches += other.ctx_switches;
    }

    /// The per-window values of `value`, sorted ascending.
    fn sorted(&self, value: impl Fn(&Window) -> f64) -> Vec<f64> {
        let mut v: Vec<f64> = self.windows.iter().map(value).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median host speed of the windows, relative to the gauge's
    /// reference rate (1 for a loop without a gauge).
    pub fn host_speed(&self) -> f64 {
        median_f64(&self.sorted(|w| w.speed))
    }

    /// Window throughput at the `better` quantile, times the loops run
    /// side by side.
    pub fn ops_per_s(&self) -> f64 {
        quantile_f64(&self.sorted(|w| w.ops_per_s), 1.0 - self.better()) * self.loops as f64
    }

    /// Window latency median at the `better` quantile, in µs.
    pub fn latency_p50_us(&self) -> f64 {
        quantile_f64(&self.sorted(|w| w.p50_ns), self.better()) / 1e3
    }

    /// Window p99 at the `better` quantile, in µs.
    pub fn latency_p99_us(&self) -> f64 {
        quantile_f64(&self.sorted(|w| w.p99_ns), self.better()) / 1e3
    }

    /// The end-to-end metrics of this loop (every workload reports the
    /// same set; see README.md for what one op is per workload).
    pub fn end_to_end(&self, setup_s: f64) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("ops_per_s", self.ops_per_s(), "1/s"),
            Metric::new("latency_p50_us", self.latency_p50_us(), "us"),
            Metric::new("latency_p99_us", self.latency_p99_us(), "us"),
        ]
    }
}

/// What one workload invocation produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: f64,
    pub untraced: Option<Timed>,
    pub traced: Option<Timed>,
    /// Per-layer metrics (only when the plan had a traced pass).
    pub layers: Vec<Metric>,
    /// Exact simulated counts for the seeded input set: identical on
    /// every run with the same seed unless the model changed.
    pub model: Vec<(String, String)>,
    /// Ops attempted, refused and wrong outside the timed loops (set-up
    /// and exact passes).
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl Outcome {
    fn loops(&self) -> impl Iterator<Item = &Timed> {
        self.untraced.iter().chain(self.traced.iter())
    }

    pub fn attempted(&self) -> u64 {
        self.attempted + self.loops().map(|t| t.attempted).sum::<u64>()
    }

    pub fn failed(&self) -> u64 {
        self.failed + self.loops().map(|t| t.failed).sum::<u64>()
    }

    pub fn wrong(&self) -> u64 {
        self.wrong + self.loops().map(|t| t.wrong).sum::<u64>()
    }

    /// Counts an untimed pass (its ops are checked like the timed ones).
    pub fn add_untimed(&mut self, pass: &Timed) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        self.wrong += pass.wrong;
    }

    pub fn model_entry(&mut self, name: &str, value: impl ToString) {
        self.model.push((name.to_string(), value.to_string()));
    }
}

/// Shortest span each of the two set-up phases of a run covers.
const SETUP_MIN: Duration = Duration::from_millis(500);

/// Start-up times of a layer stack, taken in two phases: before the
/// timed loop and after it, as far apart as the run allows. Each phase
/// reads the host speed gauge at both ends, while no stack is busy, and
/// scales its start-ups to the reference host speed.
#[derive(Debug, Default)]
pub struct Setups {
    seconds: Vec<f64>,
}

impl Setups {
    /// Starts a layer stack at least `reps` times and for at least
    /// `SETUP_MIN`, dropping (and so stopping) each before the next
    /// starts, records the start-up seconds `start` measured, and
    /// returns the last stack.
    pub fn sample<S>(&mut self, reps: usize, mut start: impl FnMut() -> (S, f64)) -> S {
        let before = gauge::rate();
        let began = Instant::now();
        let mut stack = None;
        let mut phase = Vec::with_capacity(reps);
        while phase.len() < reps.max(1) || began.elapsed() < SETUP_MIN {
            drop(stack.take());
            let (s, secs) = start();
            phase.push(secs);
            stack = Some(s);
        }
        let speed = speed(before, gauge::rate());
        self.seconds.extend(phase.iter().map(|secs| secs * speed));
        stack.expect("at least one start")
    }

    /// The median of every start-up recorded.
    pub fn median(&self) -> f64 {
        median_f64(&self.seconds)
    }
}

pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Nearest-rank quantile of sorted samples (0 for no samples).
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1] as f64
}

/// Nearest-rank median of unsorted samples.
pub fn median_ns(samples: &[u64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    quantile(&v, 0.5)
}

/// Linearly interpolated quantile of sorted floats (0 for none).
pub fn quantile_f64(sorted: &[f64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of floats (upper median for even counts).
pub fn median_f64(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}
