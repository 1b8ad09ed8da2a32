//! Network-layer throughput over loopback TCP, written as
//! machine-readable JSON to `BENCH_net_throughput.json` at the repo
//! root.
//!
//! Closed-loop clients drive a real `NetServer` fronting a 2-shard
//! consistent-hash `Router` (each shard its own `ServeHandle` + worker
//! `Device`s): every client holds one authenticated connection and
//! submits its next multiply only after decoding the previous response,
//! so offered load scales with the client count and every result
//! crosses the full encode → TCP → decode → route → serve → encode →
//! TCP → decode loop. An in-process `submit_wait` loop against an
//! identical single service is timed as the no-network reference, which
//! prices the wire (framing + syscalls + loopback) at this operand
//! size.
//!
//! The run finishes with a real `GET /metrics` scrape over the same
//! listener and embeds the `apc_net_*` counter values it saw — the
//! accept-time truth that frames actually flowed — plus the same
//! pool honesty fields bench_json records.

use apc_bench::{header, time_once};
use apc_bignum::Nat;
use apc_net::{NetClient, NetClientConfig, NetServer, NetServerConfig, Router};
use apc_serve::{Job, JobOutput, JobSpec, ServeConfig, ServeHandle};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::fmt::Write as _;
use std::io::{Read, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;

const OPERAND_BITS: u64 = 2048;
const JOBS_PER_CLIENT: usize = 100;
const SHARDS: usize = 2;
const WORKERS_PER_SHARD: usize = 1;
const CONN_WORKERS: usize = 8;
const CLIENT_COUNTS: [usize; 3] = [1, 2, 4];
const TOKEN: &[u8] = b"bench-tenant";

fn random_nat(rng: &mut StdRng, bits: u64) -> Nat {
    let limbs = (bits as usize).div_ceil(64).max(1);
    let mut v: Vec<u64> = (0..limbs).map(|_| rng.next_u64()).collect();
    if let Some(top) = v.last_mut() {
        *top |= 1 << 63;
    }
    Nat::from_limbs(v)
}

struct LoadPoint {
    clients: usize,
    throughput: f64,
}

fn serve_config() -> ServeConfig {
    ServeConfig { workers: WORKERS_PER_SHARD, ..ServeConfig::default() }
}

/// One closed-loop run: `clients` threads, each its own connection,
/// each `JOBS_PER_CLIENT` multiplies. Returns jobs/s.
fn run_load_point(addr: std::net::SocketAddr, clients: usize) -> f64 {
    let (done, elapsed) = time_once(|| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                std::thread::spawn(move || {
                    let cfg =
                        NetClientConfig { token: TOKEN.to_vec(), ..NetClientConfig::default() };
                    let mut client = NetClient::connect(addr, &cfg).expect("connect");
                    let mut rng = StdRng::seed_from_u64(0xBE7 + c as u64);
                    for _ in 0..JOBS_PER_CLIENT {
                        let a = random_nat(&mut rng, OPERAND_BITS);
                        let b = random_nat(&mut rng, OPERAND_BITS);
                        let expect = &a * &b;
                        match client.request(Job::Mul { a, b }).expect("request") {
                            JobOutput::Product(p) => assert_eq!(p, expect, "wire corrupted a product"),
                            other => panic!("multiply answered {other:?}"),
                        }
                    }
                    JOBS_PER_CLIENT
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).sum::<usize>()
    });
    done as f64 / elapsed
}

/// The same closed loop with no network: in-process submit_wait against
/// one identical service instance.
fn run_inprocess_reference() -> f64 {
    let serve = ServeHandle::start(serve_config());
    let mut rng = StdRng::seed_from_u64(0xBE7);
    let (done, elapsed) = time_once(|| {
        for _ in 0..JOBS_PER_CLIENT {
            let a = random_nat(&mut rng, OPERAND_BITS);
            let b = random_nat(&mut rng, OPERAND_BITS);
            serve.submit_wait(Job::Mul { a, b }, JobSpec::default()).expect("submit");
        }
        JOBS_PER_CLIENT
    });
    serve.shutdown();
    done as f64 / elapsed
}

/// Raw-HTTP scrape of `GET /metrics` on the protocol listener.
fn scrape_metrics(addr: std::net::SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect for scrape");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
        .expect("write scrape");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("read scrape");
    body
}

/// First sample value of a Prometheus counter family in a scrape body.
fn counter_value(scrape: &str, family: &str) -> u64 {
    scrape
        .lines()
        .find(|l| l.starts_with(family) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn main() {
    header("apc-net loopback throughput (closed-loop TCP clients)");
    println!(
        "{OPERAND_BITS}-bit multiplies, {SHARDS} shard(s) x {WORKERS_PER_SHARD} worker(s), \
         {CONN_WORKERS} connection worker(s), {JOBS_PER_CLIENT} jobs/client"
    );
    println!();

    let parallel_feature = cfg!(feature = "parallel");
    let pool_threads = apc_bignum::par::pool_threads();
    let parallel_effective = parallel_feature && pool_threads > 1;
    let router = Router::start(SHARDS, serve_config());
    let server = NetServer::start(
        "127.0.0.1:0",
        router,
        NetServerConfig {
            conn_workers: CONN_WORKERS,
            tokens: vec![TOKEN.to_vec()],
            ..NetServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    let inprocess = run_inprocess_reference();
    println!("in-process reference (no network): {inprocess:.1} jobs/s");

    let mut points = Vec::new();
    for &clients in &CLIENT_COUNTS {
        let throughput = run_load_point(addr, clients);
        println!("{clients:>2} client(s): {throughput:.1} jobs/s over TCP");
        points.push(LoadPoint { clients, throughput });
    }

    let scrape = scrape_metrics(addr);
    let frames_in = counter_value(&scrape, "apc_net_frames_in_total");
    let frames_out = counter_value(&scrape, "apc_net_frames_out_total");
    let jobs_ok = counter_value(&scrape, "apc_net_jobs_ok_total");
    println!();
    println!("GET /metrics scrape: frames_in {frames_in}, frames_out {frames_out}, jobs_ok {jobs_ok}");
    // The acceptance contract: a scrape over the real listener shows
    // the frames this benchmark pushed.
    let expected_jobs = (CLIENT_COUNTS.iter().sum::<usize>() * JOBS_PER_CLIENT) as u64;
    assert!(frames_in > expected_jobs, "scrape lost the benchmark's request frames");
    assert!(jobs_ok == expected_jobs, "scrape jobs_ok {jobs_ok} != {expected_jobs} submitted");

    let peak = points
        .iter()
        .map(|p| p.throughput)
        .fold(f64::NEG_INFINITY, f64::max);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"net_throughput\",");
    let _ = writeln!(json, "  \"operand_bits\": {OPERAND_BITS},");
    let _ = writeln!(json, "  \"shards\": {SHARDS},");
    let _ = writeln!(json, "  \"workers_per_shard\": {WORKERS_PER_SHARD},");
    let _ = writeln!(json, "  \"conn_workers\": {CONN_WORKERS},");
    let _ = writeln!(json, "  \"jobs_per_client\": {JOBS_PER_CLIENT},");
    let _ = writeln!(json, "  \"pool_threads\": {pool_threads},");
    let _ = writeln!(json, "  \"parallel_feature\": {parallel_feature},");
    let _ = writeln!(json, "  \"parallel_effective\": {parallel_effective},");
    let _ = writeln!(json, "  \"inprocess_jobs_per_s\": {inprocess},");
    let _ = writeln!(json, "  \"load_points\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"clients\": {}, \"jobs_per_s\": {}}}{comma}",
            p.clients, p.throughput
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"wire_overhead_vs_inprocess\": {},", inprocess / peak.max(1e-9));
    let _ = writeln!(json, "  \"metrics_scrape\": {{");
    let _ = writeln!(json, "    \"apc_net_frames_in_total\": {frames_in},");
    let _ = writeln!(json, "    \"apc_net_frames_out_total\": {frames_out},");
    let _ = writeln!(json, "    \"apc_net_jobs_ok_total\": {jobs_ok}");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    server.shutdown();

    let out: PathBuf = [env!("CARGO_MANIFEST_DIR"), "..", "..", "BENCH_net_throughput.json"]
        .iter()
        .collect();
    std::fs::write(&out, &json).expect("write BENCH_net_throughput.json");
    println!();
    println!("wrote {}", out.display());
}
