//! net_rpc: a closed loop of two authenticated `NetClient` connections
//! against a `NetServer` fronting a two-shard `Router`.
//!
//! Operands are 1024–8192 bits, so both shards get work; about 85% of
//! ops are Mul and 5% each Div, Sqrt and ModExp (exponent 65537). A
//! round trip is mostly host hops (wire, router, queue, dispatch), not
//! Device time, so wire, router and serve changes show here.

use crate::host;
use crate::jobs::{self, Case};
use crate::stats::{median_ns, ns, Metric, Outcome, Plan, Setups, Timed};
use apc_net::wire::{self, Request, Response, ResponseBody};
use apc_net::{NetClient, NetClientConfig, NetServer, NetServerConfig, Router};
use apc_serve::{JobSpec, ServeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Barrier;
use std::time::{Duration, Instant};

const WIDTHS: [u64; 4] = [1024, 2048, 4096, 8192];
/// Ops per mix group: 17 Mul, 1 Div, 1 Sqrt, 1 ModExp (85/5/5/5 %).
const GROUP: usize = 20;
/// Every (op, width) pair appears equally often for every seed.
const POOL: usize = GROUP * WIDTHS.len() * 16;
const CLIENTS: usize = 2;
const SHARDS: usize = 2;
const TOKEN: &[u8] = b"perfbench-tenant";

fn pool(seed: u64) -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6e65_745f_7270_6300);
    let mut cases: Vec<Case> = (0..POOL)
        .map(|i| {
            let bits = WIDTHS[(i / GROUP) % WIDTHS.len()];
            let job = match i % GROUP {
                17 => jobs::div(&mut rng, bits),
                18 => jobs::sqrt(&mut rng, bits),
                19 => jobs::modexp(&mut rng, bits),
                _ => jobs::mul(&mut rng, bits),
            };
            jobs::case(job)
        })
        .collect();
    jobs::shuffle(&mut rng, &mut cases);
    cases
}

fn connect(addr: SocketAddr) -> NetClient {
    let config = NetClientConfig {
        token: TOKEN.to_vec(),
        ..NetClientConfig::default()
    };
    NetClient::connect(addr, &config).expect("connect to the loopback server")
}

/// Starts the router, the server and both connections, and completes one
/// op on each connection. Returns the server and the elapsed seconds.
fn start(first: &Case, wrong: &mut u64) -> (NetServer<Router>, f64) {
    let t0 = Instant::now();
    let router = Router::start(SHARDS, ServeConfig::default());
    let config = NetServerConfig {
        tokens: vec![TOKEN.to_vec()],
        ..NetServerConfig::default()
    };
    let server = NetServer::start("127.0.0.1:0", router, config).expect("bind loopback");
    let mut clients: Vec<NetClient> = (0..CLIENTS).map(|_| connect(server.local_addr())).collect();
    for client in &mut clients {
        let out = client.request(first.job.clone()).expect("first request");
        if out != first.expect {
            *wrong += 1;
        }
    }
    (server, t0.elapsed().as_secs_f64())
}

/// Closed loop: each connection sends its next request when the previous
/// response arrives. `seconds == None` sends every pool job exactly once.
fn closed_loop(addr: SocketAddr, cases: &[Case], seconds: Option<f64>) -> Timed {
    let ready = Barrier::new(CLIENTS + 1);
    let done = Barrier::new(CLIENTS + 1);
    let release = Barrier::new(CLIENTS + 1);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|first| {
                let (ready, done, release) = (&ready, &done, &release);
                s.spawn(move || {
                    let mut client = connect(addr);
                    ready.wait();
                    let mut t = Timed::start();
                    let deadline =
                        seconds.map(|secs| Instant::now() + Duration::from_secs_f64(secs));
                    let mut i = first;
                    loop {
                        match deadline {
                            Some(d) if Instant::now() >= d => break,
                            None if i >= cases.len() => break,
                            _ => {}
                        }
                        let c = &cases[i % cases.len()];
                        i += CLIENTS;
                        let job = c.job.clone();
                        let started = Instant::now();
                        let result = client.request(job);
                        let latency = started.elapsed();
                        match result {
                            Ok(out) => t.add_op(latency, out == c.expect),
                            Err(_) => t.add_failure(),
                        }
                    }
                    t.stop();
                    done.wait();
                    release.wait();
                    t
                })
            })
            .collect();
        ready.wait();
        let c0 = host::ctx_switches();
        done.wait();
        let c1 = host::ctx_switches();
        release.wait();
        let mut loops = workers
            .into_iter()
            .map(|w| w.join().expect("client thread"));
        let mut total = loops.next().expect("CLIENTS > 0");
        for other in loops {
            total.merge(other);
        }
        total.ctx_switches = c1.saturating_sub(c0);
        total
    })
}

/// Counts the `write` calls `wire::write_frame` makes.
#[derive(Default)]
struct CountingWriter {
    calls: u64,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.calls += 1;
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Counts the `read` calls `wire::read_frame` makes.
struct CountingReader<R> {
    inner: R,
    calls: u64,
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.calls += 1;
        self.inner.read(buf)
    }
}

/// In-process layer probes on the pool: wire codec time and call counts,
/// `Router::submit_wait` time and the shard spread.
fn layer_probes(cases: &[Case], out: &mut Outcome) -> (f64, f64, f64) {
    const CODEC_ROUNDS: usize = 5;
    let mut encode_ns = Vec::with_capacity(cases.len() * CODEC_ROUNDS);
    let mut decode_ns = Vec::with_capacity(cases.len() * CODEC_ROUNDS);
    for _ in 0..CODEC_ROUNDS {
        for (i, c) in cases.iter().enumerate() {
            let request = Request {
                req_id: i as u64 + 1,
                job: c.job.clone(),
            };
            let response = Response {
                req_id: i as u64 + 1,
                body: ResponseBody::Output(c.expect.clone()),
            };
            let t = Instant::now();
            let req_bytes = black_box(wire::encode_request(black_box(&request)));
            let resp_bytes = black_box(wire::encode_response(black_box(&response)));
            encode_ns.push(ns(t.elapsed()));
            let t = Instant::now();
            let req = wire::decode_request(black_box(&req_bytes));
            let resp = wire::decode_response(black_box(&resp_bytes));
            decode_ns.push(ns(t.elapsed()));
            if req.is_err() || !resp.is_ok_and(|r| r == response) {
                out.wrong += 1;
            }
        }
    }

    let mut writer = CountingWriter::default();
    let mut frames = Vec::new();
    for (i, c) in cases.iter().enumerate() {
        let request = Request {
            req_id: i as u64 + 1,
            job: c.job.clone(),
        };
        wire::write_frame(&mut writer, &wire::encode_request(&request)).expect("in-memory write");
        let response = Response {
            req_id: i as u64 + 1,
            body: ResponseBody::Output(c.expect.clone()),
        };
        wire::write_frame(&mut frames, &wire::encode_response(&response)).expect("in-memory write");
    }
    let mut reader = CountingReader {
        inner: io::Cursor::new(frames),
        calls: 0,
    };
    for _ in cases {
        wire::read_frame(&mut reader, u64::MAX).expect("in-memory read");
    }

    let router = Router::start(SHARDS, ServeConfig::default());
    let mut per_shard = vec![0u64; router.shard_count()];
    let mut route_ns = Vec::with_capacity(cases.len());
    for c in cases {
        per_shard[router.shard_for_bits(c.job.operand_bits())] += 1;
        let job = c.job.clone();
        let t = Instant::now();
        let report = router.submit_wait(job, JobSpec::default());
        route_ns.push(ns(t.elapsed()));
        if !report.is_ok_and(|r| r.output == c.expect) {
            out.wrong += 1;
        }
    }
    router.shutdown();
    let mean = cases.len() as f64 / per_shard.len() as f64;
    let skew = per_shard.iter().copied().max().unwrap_or(0) as f64 / mean;

    let frames_n = cases.len() as f64;
    let encode = median_ns(&encode_ns);
    let decode = median_ns(&decode_ns);
    let route_us = median_ns(&route_ns) / 1e3;
    out.layers.extend([
        Metric::new("net.wire.encode_ns", encode, "ns"),
        Metric::new("net.wire.decode_ns", decode, "ns"),
        Metric::new(
            "net.wire.writes_per_frame",
            writer.calls as f64 / frames_n,
            "count",
        ),
        Metric::new(
            "net.wire.reads_per_frame",
            reader.calls as f64 / frames_n,
            "count",
        ),
        Metric::new("net.router.submit_wait_us", route_us, "us"),
        Metric::new("net.router.shard_skew", skew, "ratio"),
    ]);
    (encode, decode, route_us)
}

pub fn run(seed: u64, plan: &Plan) -> Outcome {
    let cases = pool(seed);
    let mut out = Outcome::default();

    let first = jobs::setup_case(&cases);
    let mut setups = Setups::default();
    let server = setups.sample(plan.setup_reps, || start(first, &mut out.wrong));
    let addr = server.local_addr();

    // Exact pass: every pool job once over the wire (warm-up and full
    // correctness check), then once on a bare Device for the model counts.
    let frames0 = server.metrics().frames_in.load(Ordering::Relaxed);
    let exact = closed_loop(addr, &cases, None);
    let frames = server.metrics().frames_in.load(Ordering::Relaxed) - frames0;
    out.add_untimed(&exact);
    let (mul_ns, device_cycles) = jobs::device_pass(&cases, &mut out);

    if plan.untraced_s > 0.0 {
        out.untraced = Some(closed_loop(addr, &cases, Some(plan.untraced_s)));
    }
    if plan.traced_s > 0.0 {
        apc_trace::set_enabled(true);
        let traced = closed_loop(addr, &cases, Some(plan.traced_s));
        apc_trace::set_enabled(false);
        let (encode, decode, route_us) = layer_probes(&cases, &mut out);
        let rtt_us = traced.latency_p50_us();
        let ops = exact.attempted as f64;
        out.layers.extend([
            Metric::new("net.server.frames_per_op", frames as f64 / ops, "count"),
            Metric::new(
                "net.unattributed_us",
                rtt_us - route_us - (encode + decode) / 1e3,
                "us",
            ),
            Metric::new("core.device.mul_ns", median_ns(&mul_ns), "ns"),
            Metric::new("core.device.cycles", device_cycles as f64, "cycles"),
        ]);
        out.traced = Some(traced);
    }
    server.shutdown();
    setups
        .sample(plan.setup_reps, || start(first, &mut out.wrong))
        .shutdown();
    out.setup_s = setups.median();
    out
}
