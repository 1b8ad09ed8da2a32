//! Tier-1 gate for the serving layer (`apc-serve`).
//!
//! Three contracts, each load-bearing for the multi-tenant story:
//!
//! 1. **Bit-exactness** — a randomized job mix spanning several bitwidth
//!    buckets, submitted through the service, must produce results
//!    identical to running the same operators on a private `Device`.
//!    Batching and worker scheduling may reorder *execution*, never
//!    *values*.
//! 2. **Admission control** — a full queue rejects with
//!    [`apc_serve::SubmitError::QueueFull`]: no blocking, no panic, no
//!    silent drop.
//! 3. **Graceful shutdown** — every job accepted before shutdown gets
//!    exactly one terminal report; nothing leaks, nothing double-fires,
//!    also when submitters race the shutdown.
//! 4. **Batching** — a batch forms only when a worker is free, so jobs
//!    that arrive while every worker is busy leave together in batches of
//!    up to `batch_max`.

use apc_bignum::Nat;
use apc_serve::{Job, JobOutput, JobSpec, ServeConfig, ServeHandle, SubmitError};
use cambricon_p::Device;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

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

#[test]
fn randomized_job_mix_is_bit_identical_to_direct_execution() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE_2022);
    let mut jobs = Vec::new();
    for i in 0..40u64 {
        // Sizes spread across several power-of-two buckets.
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
        jobs.push(job);
    }
    let oracle = Device::new_default();
    let expected: Vec<JobOutput> = jobs.iter().map(|j| direct(&oracle, j)).collect();

    let serve = ServeHandle::start(ServeConfig { workers: 3, ..ServeConfig::default() });
    let tickets: Vec<_> = jobs
        .iter()
        .map(|j| serve.submit(j.clone(), JobSpec::default()).expect("capacity available"))
        .collect();
    let mut buckets_seen = std::collections::BTreeSet::new();
    for (ticket, want) in tickets.into_iter().zip(&expected) {
        let report = ticket.wait().expect("every accepted job reports");
        buckets_seen.insert(report.bucket_bits);
        assert_eq!(&report.output, want, "service result diverged from direct device");
    }
    serve.shutdown();
    assert!(
        buckets_seen.len() >= 3,
        "the mix must exercise several buckets, saw {buckets_seen:?}"
    );
    let m = serve.metrics();
    assert_eq!(m.completed, jobs.len() as u64);
}

#[test]
fn full_queue_rejects_with_queue_full_without_blocking_or_panicking() {
    let capacity = 3;
    let serve = ServeHandle::start(ServeConfig {
        queue_capacity: capacity,
        workers: 1,
        batch_max: 1,
        ..ServeConfig::default()
    });
    // Pin the only worker with a genuinely slow multiply...
    let big = Nat::power_of_two(600_000) - Nat::from(3u64);
    let pin = serve
        .submit(Job::Mul { a: big.clone(), b: big }, JobSpec::default())
        .expect("first job admitted");
    // ...then flood far past capacity. Every overflow submit must return
    // promptly with QueueFull (a blocking submit would hang this test).
    let mut accepted = vec![pin];
    let mut overflows = 0u64;
    let small = Nat::power_of_two(128) + Nat::from(7u64);
    for _ in 0..100 {
        match serve.submit(Job::Sqrt { a: small.clone() }, JobSpec::default()) {
            Ok(t) => accepted.push(t),
            Err(SubmitError::QueueFull { capacity: c }) => {
                assert_eq!(c, capacity);
                overflows += 1;
            }
            Err(other) => unreachable!("unexpected rejection under overload: {other}"),
        }
    }
    assert!(overflows >= 90, "flooding a pinned 3-slot queue must overflow");
    for t in accepted {
        t.wait().expect("accepted jobs still complete");
    }
    serve.shutdown();
    let m = serve.metrics();
    assert_eq!(m.rejected_full, overflows);
    assert_eq!(m.completed, m.submitted, "no accepted job may be dropped");
}

#[test]
fn graceful_shutdown_yields_exactly_one_terminal_report_per_job() {
    let serve = ServeHandle::start(ServeConfig {
        workers: 2,
        batch_max: 3,
        ..ServeConfig::default()
    });
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut tickets = Vec::new();
    // A slow head keeps most of the rest queued when shutdown begins.
    let big = Nat::power_of_two(300_000) - Nat::one();
    tickets.push(
        serve
            .submit(Job::Mul { a: big.clone(), b: big }, JobSpec::default())
            .expect("admitted"),
    );
    for _ in 0..25 {
        let bits = rng.gen_range(100u64..4000);
        tickets.push(
            serve
                .submit(Job::Sqrt { a: random_nat(&mut rng, bits) }, JobSpec::default())
                .expect("admitted"),
        );
    }
    let submitted = tickets.len() as u64;
    serve.shutdown(); // blocks until the drain finishes
    assert_eq!(serve.queue_depth(), 0, "shutdown must drain the queue");
    for ticket in tickets {
        // `wait` consumes the only receiver, and the worker sends exactly
        // once — so one report per job is structural; what we verify here
        // is that the report *exists* for every accepted job.
        ticket.wait().expect("drained job must still report");
    }
    let m = serve.metrics();
    assert_eq!(m.submitted, submitted);
    assert_eq!(m.completed, submitted, "drain must complete every accepted job");
    // And the service stays rejecting, not panicking, after the fact.
    let refused = serve.submit(
        Job::Sqrt { a: Nat::from(16u64) },
        JobSpec::default(),
    );
    assert!(matches!(refused, Err(SubmitError::Shutdown)));
}

#[test]
fn queue_conserves_every_job_across_shutdown() {
    let serve = ServeHandle::start(ServeConfig {
        queue_capacity: 64,
        workers: 3,
        batch_max: 8,
        ..ServeConfig::default()
    });
    let submitters = 6u64;
    let per_thread = 60u64;
    // Submitters pause at the halfway barrier; the shutdown thread fires
    // there, so roughly half the submissions race the drain.
    let barrier = Arc::new(Barrier::new(submitters as usize + 1));
    let reported = AtomicU64::new(0);
    let admitted_total = AtomicU64::new(0);
    thread::scope(|s| {
        for t in 0..submitters {
            let serve = serve.clone();
            let barrier = Arc::clone(&barrier);
            let reported = &reported;
            let admitted_total = &admitted_total;
            s.spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED + t);
                let mut tickets = Vec::new();
                for i in 0..per_thread {
                    if i == per_thread / 2 {
                        barrier.wait();
                    }
                    let a = random_nat(&mut rng, 300 + (i % 7) * 150);
                    let b = random_nat(&mut rng, 250);
                    match serve.submit(Job::Mul { a, b }, JobSpec::default()) {
                        Ok(ticket) => tickets.push(ticket),
                        // Backpressure and the shutdown race are the
                        // point of the test, not failures.
                        Err(_) => {}
                    }
                }
                admitted_total.fetch_add(tickets.len() as u64, Ordering::Relaxed);
                for ticket in tickets {
                    let report = ticket
                        .wait()
                        .expect("every admitted job must report, shutdown included");
                    assert!(matches!(report.output, JobOutput::Product(_)));
                    reported.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        {
            let serve = serve.clone();
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                barrier.wait();
                serve.shutdown();
            });
        }
    });
    let m = serve.metrics();
    let admitted = admitted_total.load(Ordering::Relaxed);
    assert!(admitted > 0, "some jobs must have been admitted");
    assert_eq!(m.submitted, admitted, "metrics admit count matches tickets");
    assert_eq!(m.completed, admitted, "every admitted job completed");
    assert_eq!(
        reported.load(Ordering::Relaxed),
        admitted,
        "every admitted job delivered exactly one report"
    );
    assert_eq!(serve.queue_depth(), 0, "nothing left staged after drain");
}

#[test]
fn jobs_queued_behind_a_busy_worker_leave_in_full_batches() {
    let serve = ServeHandle::start(ServeConfig {
        workers: 1,
        batch_max: 4,
        ..ServeConfig::default()
    });
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBA7C);
    // Pin the only worker with a multiply far slower than the submissions
    // below; its operands sit in a bucket of their own.
    let big = Nat::power_of_two(1_000_000) - Nat::from(3u64);
    let mut jobs = vec![Job::Mul { a: big.clone(), b: big }];
    // Twelve jobs in the 2048-bit bucket queue up behind it.
    for _ in 0..12 {
        let bits = rng.gen_range(1_100u64..2_000);
        jobs.push(Job::Mul { a: random_nat(&mut rng, bits), b: random_nat(&mut rng, 1_100) });
    }
    let tickets: Vec<_> = jobs
        .iter()
        .map(|j| serve.submit(j.clone(), JobSpec::default()).expect("capacity available"))
        .collect();
    let oracle = Device::new_default();
    for (ticket, job) in tickets.into_iter().zip(&jobs) {
        let report = ticket.wait().expect("every accepted job reports");
        assert_eq!(report.output, direct(&oracle, job), "batched result diverged");
    }
    serve.shutdown();
    let m = serve.metrics();
    // The pin alone, then 12 queued jobs in three batches of 4.
    assert_eq!(m.batches, 4, "jobs queued behind a busy worker must batch");
    assert!(m.mean_batch_size() > 1.0, "mean batch {}", m.mean_batch_size());
}
