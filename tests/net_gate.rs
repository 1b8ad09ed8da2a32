//! Tier-1 gate for the network layer (`apc-net`).
//!
//! Four contracts, each load-bearing for the off-box serving story:
//!
//! 1. **Bit-exactness over the wire** — a randomized cross-bucket job
//!    mix sent through `NetClient → NetServer → Router (2 shards)` must
//!    decode to results identical to a private `Device`. TCP framing,
//!    limb encoding, consistent-hash routing, and batch scheduling may
//!    reorder *execution*, never *values*.
//! 2. **Fail-closed framing** — a frame whose length prefix exceeds the
//!    cap derived from `max_operand_bits` is answered with the typed
//!    `OversizedFrame` status before its body is read.
//! 3. **Auth at accept time** — a wrong tenant token is rejected with
//!    the typed `AuthRejected` status before any operand is sent.
//! 4. **Graceful drain** — shutdown lets in-flight connections finish:
//!    a request already accepted still receives its (bit-exact)
//!    response, and only then does the listener go away. A peer that
//!    sent part of a frame and went quiet cannot hold the drain open.

use apc_bignum::Nat;
use apc_net::{
    wire, NetClient, NetClientConfig, NetError, NetServer, NetServerConfig, Router, WireStatus,
};
use apc_serve::{Job, JobOutput, ServeConfig};
use cambricon_p::Device;
use rand::{Rng, RngCore, SeedableRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const TOKEN: &[u8] = b"tenant-alpha";

fn random_nat(rng: &mut rand::rngs::StdRng, bits: u64) -> Nat {
    let limbs = (bits as usize).div_ceil(64).max(1);
    let mut v: Vec<u64> = (0..limbs).map(|_| rng.next_u64()).collect();
    if let Some(top) = v.last_mut() {
        *top |= 1 << 63; // pin the width so the job lands in its bucket
    }
    Nat::from_limbs(v)
}

/// Like [`random_nat`] but guaranteed odd (a valid Montgomery modulus).
fn random_odd_nat(rng: &mut rand::rngs::StdRng, bits: u64) -> Nat {
    let limbs = (bits as usize).div_ceil(64).max(1);
    let mut v: Vec<u64> = (0..limbs).map(|_| rng.next_u64()).collect();
    v[0] |= 1;
    if let Some(top) = v.last_mut() {
        *top |= 1 << 63;
    }
    Nat::from_limbs(v)
}

/// The expected output of `job`, computed on a private device.
fn direct(device: &Device, job: &Job) -> JobOutput {
    match job {
        Job::Mul { a, b } => JobOutput::Product(device.mul(a, b)),
        Job::Div { a, b } => {
            let (q, r) = device.divrem(a, b);
            JobOutput::DivRem { quotient: q, remainder: r }
        }
        Job::Sqrt { a } => {
            let (root, rem) = device.sqrt_rem(a);
            JobOutput::SqrtRem { root, remainder: rem }
        }
        Job::ModExp { base, exp, modulus } => {
            JobOutput::PowMod(device.pow_mod(base, exp, modulus))
        }
    }
}

fn start_server(shards: usize) -> NetServer<Router> {
    let serve_cfg = ServeConfig { workers: 1, ..ServeConfig::default() };
    let router = Router::start(shards, serve_cfg);
    NetServer::start(
        "127.0.0.1:0",
        router,
        NetServerConfig { tokens: vec![TOKEN.to_vec()], ..NetServerConfig::default() },
    )
    .expect("bind loopback")
}

fn client_config() -> NetClientConfig {
    NetClientConfig { token: TOKEN.to_vec(), ..NetClientConfig::default() }
}

#[test]
fn loopback_round_trip_is_bit_identical_to_direct_device() {
    let server = start_server(2);
    let device = Device::new_default();
    let mut client = NetClient::connect(server.local_addr(), &client_config()).expect("connect");

    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA9C_2022);
    for i in 0..24u64 {
        let bits = [96u64, 300, 900, 2500, 7000][rng.gen_range(0usize..5)];
        let job = match i % 4 {
            0 => Job::Mul {
                a: random_nat(&mut rng, bits),
                b: random_nat(&mut rng, bits / 2 + 17),
            },
            1 => Job::Div {
                a: random_nat(&mut rng, bits),
                b: random_nat(&mut rng, bits / 3 + 13),
            },
            2 => Job::Sqrt { a: random_nat(&mut rng, bits) },
            _ => Job::ModExp {
                base: random_nat(&mut rng, bits / 2 + 5),
                exp: Nat::from(rng.gen_range(3u64..40)),
                modulus: random_odd_nat(&mut rng, bits / 2 + 5),
            },
        };
        let expected = direct(&device, &job);
        let got = client.request(job).expect("request succeeds");
        assert_eq!(got, expected, "wire result diverged from direct device at job {i}");
    }
    // The scrape-visible counters saw this traffic.
    let metrics = server.metrics();
    assert!(metrics.frames_in.load(std::sync::atomic::Ordering::Relaxed) >= 25);
    assert!(metrics.jobs_ok.load(std::sync::atomic::Ordering::Relaxed) == 24);
    server.shutdown();
}

#[test]
fn oversized_frame_is_rejected_with_the_typed_status() {
    let server = start_server(1);
    // Handshake by hand so we control the raw bytes afterwards.
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(&wire::MAGIC).expect("preamble");
    let hello = wire::encode_hello(&wire::Hello { token: TOKEN.to_vec() });
    wire::write_frame(&mut stream, &hello).expect("hello");
    let ack = wire::read_frame(&mut stream, 1 << 16).expect("ack frame");
    let ack = wire::decode_response(&ack).expect("ack decodes");
    assert_eq!(ack.body, wire::ResponseBody::Ack);

    // A length prefix far beyond the cap derived from max_operand_bits.
    // The body is never sent — the server must answer from the prefix
    // alone and close.
    stream.write_all(&u32::MAX.to_le_bytes()).expect("hostile prefix");
    let resp = wire::read_frame(&mut stream, 1 << 16).expect("rejection frame");
    let resp = wire::decode_response(&resp).expect("rejection decodes");
    assert_eq!(resp.body, wire::ResponseBody::Failed(WireStatus::OversizedFrame));
    // And the connection is closed behind it.
    let mut rest = Vec::new();
    let _ = stream.read_to_end(&mut rest);
    assert!(rest.is_empty(), "server kept talking after a framing violation");
    assert_eq!(
        server.metrics().oversized_frames.load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    server.shutdown();
}

#[test]
fn bad_auth_token_is_rejected_before_any_operand() {
    let server = start_server(1);
    let bad = NetClientConfig { token: b"wrong-tenant".to_vec(), ..NetClientConfig::default() };
    match NetClient::connect(server.local_addr(), &bad) {
        Err(NetError::Server(WireStatus::AuthRejected)) => {}
        other => panic!("expected typed AuthRejected, got {other:?}"),
    }
    assert_eq!(server.metrics().auth_rejects.load(std::sync::atomic::Ordering::Relaxed), 1);
    // The right token still works on the same listener.
    let mut ok = NetClient::connect(server.local_addr(), &client_config()).expect("good token");
    let a = Nat::from(12345u64);
    let out = ok.request(Job::Mul { a: a.clone(), b: a.clone() }).expect("request");
    assert_eq!(out, JobOutput::Product(&a * &a));
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_connections() {
    let server = start_server(2);
    let addr = server.local_addr();
    let device = Device::new_default();

    // A connected client with a request already in flight when
    // shutdown begins: big operands so service time comfortably
    // overlaps the drain.
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let a = random_nat(&mut rng, 60_000);
    let b = random_nat(&mut rng, 60_000);
    let expected = direct(&device, &Job::Mul { a: a.clone(), b: b.clone() });

    let handle = std::thread::spawn(move || {
        let mut client = NetClient::connect(addr, &client_config()).expect("connect");
        client.request(Job::Mul { a, b })
    });
    // Give the client thread time to get its request admitted, then
    // drain. (Sleeping in tests is fine; the library itself never does.)
    std::thread::sleep(Duration::from_millis(100));
    server.shutdown();

    let got = handle.join().expect("client thread").expect("in-flight request completes");
    assert_eq!(got, expected, "drained response lost bit-exactness");

    // After the drain the listener is gone: new connects fail or are
    // reset before a handshake completes.
    assert!(
        NetClient::connect(addr, &client_config()).is_err(),
        "listener survived shutdown"
    );
}

/// Runs `server.shutdown()` on a helper thread and fails unless it
/// returns within 5 s, so a drain that hangs fails the test instead of
/// hanging the suite.
fn assert_shutdown_finishes(server: NetServer<Router>) {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(5))
        .expect("shutdown() blocked behind a half-sent frame");
}

#[test]
fn shutdown_is_not_held_open_by_a_half_sent_preamble() {
    let server = start_server(1);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    // Two bytes of the four-byte `APCW` preamble, then silence.
    stream.write_all(b"AP").expect("partial preamble");
    std::thread::sleep(Duration::from_millis(100));
    assert_shutdown_finishes(server);
    drop(stream); // silent, but open, until the drain has finished
}

#[test]
fn shutdown_is_not_held_open_by_a_half_sent_request() {
    let server = start_server(1);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(&wire::MAGIC).expect("preamble");
    let hello = wire::encode_hello(&wire::Hello { token: TOKEN.to_vec() });
    wire::write_frame(&mut stream, &hello).expect("hello");
    let ack = wire::read_frame(&mut stream, 1 << 16).expect("ack frame");
    assert_eq!(wire::decode_response(&ack).expect("ack decodes").body, wire::ResponseBody::Ack);

    // A whole length prefix, then half of the payload it announces.
    let payload = wire::encode_request(&wire::Request {
        req_id: 1,
        job: Job::Mul { a: Nat::from(u64::MAX), b: Nat::from(u64::MAX) },
    });
    stream.write_all(&(payload.len() as u32).to_le_bytes()).expect("prefix");
    stream.write_all(&payload[..payload.len() / 2]).expect("half payload");
    std::thread::sleep(Duration::from_millis(100));
    assert_shutdown_finishes(server);
    drop(stream); // silent, but open, until the drain has finished
}
