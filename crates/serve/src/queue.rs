//! The bounded, bucket-partitioned submission queue.
//!
//! Jobs are partitioned into power-of-two operand-bitwidth buckets at
//! admission. Batches are always formed from a single bucket, so every
//! batch a worker receives holds jobs of compatible size — the host-side
//! analogue of packing same-shape work onto the PE array to keep the
//! IPUs busy (the paper's §VII utilization argument; see DESIGN.md
//! §"Serving layer" and §"Admission and table reuse").
//!
//! # One mutex, one condvar
//!
//! All queue state — the per-bucket staging deques, the queued count and
//! the shutdown flag — sits behind one `Mutex`. [`JobQueue::push`] stages
//! a job and wakes one waiting worker; each worker calls
//! [`JobQueue::next_batch`] itself when it is free, so a batch forms only
//! when a worker can run it, and it carries everything that accumulated
//! in its bucket while the workers were busy. Nobody sleep-polls: workers
//! block on the condvar (lint rule L7 enforces this for the whole crate).
//!
//! Because the flag and the count change under the same lock, a job is
//! either rejected with [`SubmitError::Shutdown`] or staged before the
//! drain can observe an empty queue — never leaked between the two.

use crate::error::{ConfigError, SubmitError};
use crate::job::{Job, JobReport};
use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// One accepted job waiting for dispatch.
#[derive(Debug)]
pub(crate) struct Pending {
    /// Monotone submission sequence number (FIFO key).
    pub id: u64,
    /// The work itself.
    pub job: Job,
    /// When the job was accepted.
    pub submitted_at: Instant,
    /// Absolute deadline, precomputed at admission.
    pub deadline_at: Option<Instant>,
    /// Where the terminal report goes.
    pub reporter: Sender<JobReport>,
}

/// A dispatched unit of work: jobs from one bitwidth bucket.
#[derive(Debug)]
pub(crate) struct Batch {
    /// The bucket ceiling (bits) the jobs were grouped under.
    pub bucket_bits: u64,
    /// The jobs, in submission order.
    pub jobs: Vec<Pending>,
    /// When batch formation finished (dispatch-wait spans start here).
    pub formed_at: Instant,
    /// Nanoseconds spent forming the batch under the queue lock.
    pub form_ns: u64,
}

/// Everything the queue lock protects.
struct State {
    /// One staging deque per bucket, indexed like the ceilings.
    staged: Vec<VecDeque<Pending>>,
    /// Jobs staged and not yet taken into a batch.
    queued: usize,
    shutdown: bool,
}

/// The queue shared by every [`crate::ServeHandle`] clone and every
/// worker; `push` and `next_batch` are safe from any number of threads.
pub(crate) struct JobQueue {
    capacity: usize,
    bucket_ceilings: Vec<u64>,
    state: Mutex<State>,
    /// Signalled on every push and on shutdown; workers wait on it.
    work: Condvar,
}

impl JobQueue {
    /// Builds the queue with power-of-two bucket ceilings spanning
    /// `min_bucket_bits ..= max_operand_bits`. Every staging deque
    /// reserves the full `capacity` (total-queue bound) up front,
    /// mirroring `Lru::new`: the queued total can never exceed
    /// `capacity`, so no bucket can either, and steady state never
    /// reallocates.
    ///
    /// Degenerate configurations are typed construction errors: a
    /// zero-capacity queue would reject every submission, a zero minimum
    /// bucket has no operands, and a minimum above the maximum spans no
    /// range at all.
    pub fn new(
        capacity: usize,
        min_bucket_bits: u64,
        max_operand_bits: u64,
    ) -> Result<JobQueue, ConfigError> {
        if capacity == 0 {
            return Err(ConfigError::ZeroCapacity);
        }
        if min_bucket_bits == 0 {
            return Err(ConfigError::ZeroMinBucketBits);
        }
        if min_bucket_bits > max_operand_bits {
            return Err(ConfigError::MinAboveMax { min_bucket_bits, max_operand_bits });
        }
        let mut ceilings = Vec::new();
        // `next_power_of_two` overflows (and panics in debug) above 2^63;
        // everything wider shares the one saturated top bucket.
        let mut c = if min_bucket_bits > 1 << 63 {
            u64::MAX
        } else {
            min_bucket_bits.next_power_of_two()
        };
        loop {
            ceilings.push(c);
            if c >= max_operand_bits {
                break;
            }
            let next = c.saturating_mul(2);
            if next == c {
                break; // saturated at u64::MAX: the ladder cannot grow
            }
            c = next;
        }
        // Saturation can only ever repeat the top rung; drop duplicates
        // so every bucket ceiling is distinct.
        ceilings.dedup();
        let staged = ceilings.iter().map(|_| VecDeque::with_capacity(capacity)).collect();
        Ok(JobQueue {
            capacity,
            bucket_ceilings: ceilings,
            state: Mutex::new(State { staged, queued: 0, shutdown: false }),
            work: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The admission ceiling: the largest bucket. Fails *closed*: if the
    /// ceiling ladder were ever empty, the ceiling is 0 and every job is
    /// oversized — never `u64::MAX`, which would wave everything through
    /// and defeat `OversizedOperand` admission control.
    pub fn max_operand_bits(&self) -> u64 {
        self.bucket_ceilings.last().copied().unwrap_or(0)
    }

    /// The bucket ceiling `bits` falls into.
    #[cfg(test)]
    pub fn bucket_for(&self, bits: u64) -> u64 {
        self.bucket_ceilings
            .iter()
            .copied()
            .find(|&c| bits <= c)
            .unwrap_or_else(|| self.max_operand_bits())
    }

    /// Admits one job or explains why not, and returns the queue depth
    /// including it. Never blocks on capacity and never drops.
    pub fn push(&self, pending: Pending) -> Result<usize, SubmitError> {
        let bits = pending.job.operand_bits();
        let Some(idx) = self.bucket_ceilings.iter().position(|&c| bits <= c) else {
            return Err(SubmitError::OversizedOperand {
                bits,
                max_bits: self.max_operand_bits(),
            });
        };
        let depth = {
            let mut state = self.lock();
            if state.shutdown {
                return Err(SubmitError::Shutdown);
            }
            if state.queued >= self.capacity {
                return Err(SubmitError::QueueFull { capacity: self.capacity });
            }
            state.staged[idx].push_back(pending);
            state.queued += 1;
            state.queued
        };
        self.work.notify_one();
        Ok(depth)
    }

    /// Current queued (not yet batched) job count.
    pub fn depth(&self) -> usize {
        self.lock().queued
    }

    /// Blocks until a batch can be formed, and forms it: up to
    /// `batch_max` jobs from the front of the bucket holding the oldest
    /// job. Returns `None` only when the queue is shut down **and**
    /// empty — the worker's termination signal.
    pub fn next_batch(&self, batch_max: usize) -> Option<Batch> {
        let mut state = self.lock();
        loop {
            if let Some(batch) = self.pop_batch(&mut state, batch_max) {
                return Some(batch);
            }
            if state.shutdown {
                return None;
            }
            state = self.work.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking batch formation: `None` when nothing is staged.
    #[cfg(test)]
    pub fn try_next_batch(&self, batch_max: usize) -> Option<Batch> {
        self.pop_batch(&mut self.lock(), batch_max)
    }

    fn pop_batch(&self, state: &mut State, batch_max: usize) -> Option<Batch> {
        let form_started = Instant::now();
        // FIFO across buckets: the bucket whose head was submitted first.
        let bucket = state
            .staged
            .iter()
            .enumerate()
            .filter_map(|(b, dq)| dq.front().map(|p| (p.id, b)))
            .min()?
            .1;
        let dq = &mut state.staged[bucket];
        let take = batch_max.max(1).min(dq.len());
        let jobs: Vec<Pending> = dq.drain(..take).collect();
        state.queued -= jobs.len();
        let formed_at = Instant::now();
        Some(Batch {
            bucket_bits: self.bucket_ceilings[bucket],
            jobs,
            formed_at,
            form_ns: apc_trace::span::duration_ns(
                formed_at.saturating_duration_since(form_started),
            ),
        })
    }

    /// Flags shutdown: no new admissions; the workers drain what is
    /// already queued.
    pub fn begin_shutdown(&self) {
        self.lock().shutdown = true;
        self.work.notify_all();
    }

    /// Whether shutdown has begun.
    pub fn is_shutdown(&self) -> bool {
        self.lock().shutdown
    }

    /// Reserved capacity of each staging deque (for the reservation
    /// regression test).
    #[cfg(test)]
    fn bucket_queue_capacities(&self) -> Vec<usize> {
        self.lock().staged.iter().map(VecDeque::capacity).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_bignum::Nat;
    use std::sync::{mpsc, Arc};
    use std::thread;

    fn pending(id: u64, bits: u64) -> (Pending, mpsc::Receiver<JobReport>) {
        let (tx, rx) = mpsc::channel();
        (
            Pending {
                id,
                job: Job::Mul { a: Nat::power_of_two(bits.saturating_sub(1)), b: Nat::one() },
                submitted_at: Instant::now(),
                deadline_at: None,
                reporter: tx,
            },
            rx,
        )
    }

    #[test]
    fn bucket_ceilings_are_powers_of_two_and_cover_the_range() {
        let q = JobQueue::new(8, 64, 1 << 20).expect("valid queue config");
        assert_eq!(q.bucket_for(1), 64);
        assert_eq!(q.bucket_for(64), 64);
        assert_eq!(q.bucket_for(65), 128);
        assert_eq!(q.bucket_for(1 << 20), 1 << 20);
        assert_eq!(q.max_operand_bits(), 1 << 20);
    }

    #[test]
    fn degenerate_configs_are_typed_construction_errors() {
        // Regression: pre-fix, all three constructions returned a live
        // queue (capacity 0 rejected everything; min > max produced an
        // inverted single-bucket ladder).
        assert_eq!(JobQueue::new(0, 64, 4096).err(), Some(ConfigError::ZeroCapacity));
        assert_eq!(JobQueue::new(4, 0, 4096).err(), Some(ConfigError::ZeroMinBucketBits));
        assert_eq!(
            JobQueue::new(4, 8192, 4096).err(),
            Some(ConfigError::MinAboveMax { min_bucket_bits: 8192, max_operand_bits: 4096 })
        );
    }

    #[test]
    fn saturated_ceiling_ladder_terminates_and_dedups() {
        // A ceiling range reaching u64::MAX must terminate (the pre-fix
        // loop relied on c >= max alone) and must not carry duplicate
        // saturated rungs.
        let q = JobQueue::new(4, u64::MAX - 1, u64::MAX).expect("valid queue config");
        assert_eq!(q.max_operand_bits(), u64::MAX);
        assert_eq!(q.bucket_for(u64::MAX), u64::MAX);
        let ladder = JobQueue::new(4, 64, u64::MAX).expect("valid queue config");
        // Distinct powers of two 64..2^63 plus the saturated top: 59 rungs.
        assert_eq!(ladder.max_operand_bits(), u64::MAX);
        assert_eq!(ladder.bucket_for(1 << 62), 1 << 62);
    }

    #[test]
    fn batches_carry_formation_spans() {
        let q = JobQueue::new(4, 64, 4096).expect("valid queue config");
        let (p, _rx) = pending(0, 100);
        q.push(p).expect("capacity available");
        let before = Instant::now();
        let b = q.try_next_batch(4).expect("work queued");
        assert!(b.formed_at >= before);
        // form_ns is a measured span, not a sentinel; it can be 0 on a
        // coarse clock but never exceeds the enclosing interval.
        assert!(b.form_ns <= apc_trace::span::duration_ns(before.elapsed()) + 1_000_000);
    }

    #[test]
    fn empty_tick_yields_no_batch() {
        let q = JobQueue::new(4, 64, 4096).expect("valid queue config");
        assert!(q.try_next_batch(8).is_none());
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn capacity_bound_is_enforced_without_blocking() {
        let q = JobQueue::new(3, 64, 4096).expect("valid queue config");
        let mut rxs = Vec::new();
        for id in 0..3 {
            let (p, rx) = pending(id, 100);
            assert!(q.push(p).is_ok());
            rxs.push(rx);
        }
        let (p, _rx) = pending(3, 100);
        assert_eq!(q.push(p), Err(SubmitError::QueueFull { capacity: 3 }));
        assert_eq!(q.depth(), 3);
    }

    #[test]
    fn batches_never_mix_buckets() {
        let q = JobQueue::new(8, 64, 4096).expect("valid queue config");
        let mut rxs = Vec::new();
        for (id, bits) in [(0u64, 60u64), (1, 3000), (2, 50), (3, 40)] {
            let (p, rx) = pending(id, bits);
            q.push(p).expect("capacity available");
            rxs.push(rx);
        }
        let b = q.try_next_batch(8).expect("work queued");
        assert_eq!(b.bucket_bits, 64);
        assert_eq!(b.jobs.iter().map(|p| p.id).collect::<Vec<_>>(), vec![0, 2, 3]);
        let b2 = q.try_next_batch(8).expect("big job left");
        assert_eq!(b2.bucket_bits, 4096);
        assert_eq!(b2.jobs.len(), 1);
        assert!(q.try_next_batch(8).is_none());
    }

    #[test]
    fn steady_state_at_capacity_never_reallocates_bucket_queues() {
        // The Lru full-capacity-reservation idiom, applied to the
        // staging deques: churn the queue at its configured capacity and
        // assert no deque ever regrows.
        let capacity = 64;
        let q = JobQueue::new(capacity, 64, 1 << 16).expect("valid config");
        let reserved = q.bucket_queue_capacities();
        assert!(reserved.iter().all(|&c| c >= capacity), "{reserved:?}");
        let mut id = 0u64;
        let mut rxs = Vec::new();
        for _round in 0..10 {
            // Fill to capacity across several buckets, then drain fully.
            loop {
                let (p, rx) = pending(id, 60 + (id % 4) * 2000);
                id += 1;
                match q.push(p) {
                    Ok(_) => rxs.push(rx),
                    Err(SubmitError::QueueFull { .. }) => break,
                    Err(e) => unreachable!("unexpected rejection: {e}"),
                }
            }
            while q.try_next_batch(7).is_some() {}
        }
        assert_eq!(
            q.bucket_queue_capacities(),
            reserved,
            "bucket queues reallocated during steady state"
        );
    }

    #[test]
    fn shutdown_rejects_new_but_drains_old() {
        let q = JobQueue::new(4, 64, 4096).expect("valid queue config");
        let (p, _rx) = pending(0, 100);
        q.push(p).expect("capacity available");
        q.begin_shutdown();
        let (p2, _rx2) = pending(1, 100);
        assert_eq!(q.push(p2), Err(SubmitError::Shutdown));
        // The queued job is still drainable...
        assert!(q.next_batch(4).is_some());
        // ...and once empty, next_batch signals termination.
        assert!(q.next_batch(4).is_none());
    }

    #[test]
    fn concurrent_submitters_conserve_every_admitted_job() {
        // The conservation law: with submitters racing the drain and a
        // shutdown landing mid-stream, every Ok(push) is either in a
        // formed batch or... there is no other place. IDs are unique, so
        // a set equality check catches both loss and duplication.
        let q = Arc::new(JobQueue::new(4096, 64, 1 << 16).expect("valid config"));
        let threads = 8u64;
        let per_thread = 200u64;
        let admitted = Arc::new(Mutex::new(Vec::<u64>::new()));
        let drained = thread::scope(|s| {
            let mut submitters = Vec::new();
            for t in 0..threads {
                let q = Arc::clone(&q);
                let admitted = Arc::clone(&admitted);
                submitters.push(s.spawn(move || {
                    let mut mine = Vec::new();
                    for i in 0..per_thread {
                        let id = t * per_thread + i;
                        let (p, _rx) = pending(id, 60 + (id % 5) * 900);
                        if q.push(p).is_ok() {
                            mine.push(id);
                        }
                    }
                    admitted
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .extend(mine);
                }));
            }
            {
                // Shut down only after every submitter finished, so the
                // drain loop's None is a true end-of-stream.
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for h in submitters {
                        let _ = h.join();
                    }
                    q.begin_shutdown();
                });
            }
            let mut drained = Vec::new();
            while let Some(b) = q.next_batch(8) {
                drained.extend(b.jobs.iter().map(|p| p.id));
            }
            drained
        });
        let mut admitted = admitted.lock().unwrap_or_else(PoisonError::into_inner).clone();
        admitted.sort_unstable();
        let mut drained = drained;
        drained.sort_unstable();
        // Every admitted job drained exactly once; jobs racing the
        // shutdown were either admitted (and so drained) or rejected.
        assert_eq!(admitted, drained);
        assert_eq!(q.depth(), 0);
    }
}
