//! The bounded admission queue and session-keyed request coalescing.
//!
//! Connection threads parse requests and submit [`Job`]s here; evaluation
//! workers pull them back out. Three properties live in this module:
//!
//! * **Admission control** — the queue holds at most `capacity` jobs.
//!   A submit against a full queue fails immediately ([`SubmitError::Full`])
//!   and the connection answers `429` + `Retry-After` instead of letting
//!   latency (and memory) grow without bound. Peak depth and shed counts
//!   are tracked for `/stats`.
//! * **Coalescing** — [`JobQueue::next_batch`] pops the oldest job and, when
//!   it is a `/simulate` job, drains every other queued `/simulate` job
//!   sharing its [`SessionKey`] (up to `max_batch`). The worker evaluates
//!   the whole batch as one `/sweep`-style pass over a single warm session
//!   ([`evaluate_scenario_batch`](gnnerator::evaluate_scenario_batch)) and
//!   fans the results back out through each job's reply channel.
//! * **The evaluation bound** — the queue owns one [`EvalSlot`] per
//!   worker, and every evaluation pass holds one. A worker takes a batch
//!   only together with a free slot; a connection thread may evaluate a
//!   warm request itself only through [`JobQueue::try_claim_idle`], which
//!   succeeds only while nothing is queued and nothing is being
//!   evaluated. So the worker count bounds concurrent evaluations on both
//!   paths, a request never overtakes queued work, and requests that
//!   overlap in time still meet in the queue, where they coalesce.
//!
//! Fairness note: coalescing pulls same-key jobs *forward* in the queue.
//! That is deliberate — those requests ride along at almost zero marginal
//! cost — while jobs of other keys keep their relative order. The
//! per-connection in-flight cap (enforced by the connection loop, not
//! here) stops any single client from monopolising the queue.

use gnnerator::{ScenarioSpec, SessionKey};
use gnnerator_faults::{lock_recover, wait_recover};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// What a worker does with a dequeued job.
#[derive(Debug)]
pub enum JobKind {
    /// Evaluate one scenario (batchable by session key).
    Simulate(Box<ScenarioSpec>),
    /// Compile one accelerator scenario without executing it.
    Compile(Box<ScenarioSpec>),
    /// Evaluate an ordered batch of scenarios (a `/sweep` body).
    Sweep(Vec<ScenarioSpec>),
}

impl JobKind {
    /// The session key this job coalesces on (`/simulate` only — `/sweep`
    /// bodies group internally and `/compile` runs solo).
    fn coalescing_key(&self) -> Option<SessionKey> {
        match self {
            JobKind::Simulate(scenario) => Some(scenario.session_key()),
            _ => None,
        }
    }
}

/// A finished response, produced by a worker and written by the
/// connection thread that owns the socket.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// JSON response body.
    pub body: String,
}

/// One queued unit of work plus everything needed to answer it.
#[derive(Debug)]
pub struct Job {
    /// What to execute.
    pub kind: JobKind,
    /// Where the response goes (the submitting connection thread blocks on
    /// the paired receiver; a dropped receiver makes the send a no-op).
    pub reply: Sender<Reply>,
    /// When the job entered the queue — queue-wait telemetry.
    pub enqueued: Instant,
    /// The client's deadline (from `X-Deadline-Ms`): a job still queued
    /// past this instant is answered `503` instead of evaluated.
    pub deadline: Option<Instant>,
    /// Whether the client opted into per-request provenance
    /// (`X-Provenance: 1`): the response then carries a stage-by-stage
    /// timing breakdown.
    pub provenance: bool,
}

impl Job {
    /// Whether the job's deadline (if any) has already passed.
    fn expired(&self) -> bool {
        self.deadline
            .is_some_and(|deadline| Instant::now() > deadline)
    }
}

/// Why a submit was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity: shed this request (`429` + `Retry-After`).
    Full,
    /// The server is shutting down (`503`).
    Closed,
}

struct QueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
    /// Evaluation slots currently held.
    busy: usize,
}

/// One of the queue's evaluation slots, held for the length of one
/// evaluation pass. Dropping it — during a panic's unwind too — frees the
/// slot and wakes a worker waiting for one.
#[must_use = "the slot is freed as soon as it is dropped"]
pub struct EvalSlot<'a> {
    queue: &'a JobQueue,
}

impl Drop for EvalSlot<'_> {
    fn drop(&mut self) {
        lock_recover(&self.queue.inner).busy -= 1;
        self.queue.ready.notify_one();
    }
}

/// The bounded, coalescing job queue shared by every connection thread and
/// evaluation worker.
pub struct JobQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    capacity: usize,
    slots: usize,
    shed: AtomicUsize,
    peak_depth: AtomicUsize,
    expired: AtomicUsize,
    idle_claims: AtomicUsize,
}

impl JobQueue {
    /// A queue admitting at most `capacity` (minimum 1) waiting jobs, with
    /// `slots` (minimum 1) concurrent evaluation passes.
    pub fn new(capacity: usize, slots: usize) -> Self {
        Self {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                closed: false,
                busy: 0,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            slots: slots.max(1),
            shed: AtomicUsize::new(0),
            peak_depth: AtomicUsize::new(0),
            expired: AtomicUsize::new(0),
            idle_claims: AtomicUsize::new(0),
        }
    }

    /// Admits `job`, or refuses it without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] when the queue is at capacity (the shed
    /// counter increments), [`SubmitError::Closed`] once the server is
    /// draining.
    pub fn submit(&self, job: Job) -> Result<(), SubmitError> {
        let mut inner = lock_recover(&self.inner);
        if inner.closed {
            return Err(SubmitError::Closed);
        }
        if inner.jobs.len() >= self.capacity {
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Full);
        }
        inner.jobs.push_back(job);
        let depth = inner.jobs.len();
        self.peak_depth.fetch_max(depth, Ordering::Relaxed);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next unit of work and a free evaluation slot to run
    /// it in: the oldest queued job plus — for `/simulate` jobs — every
    /// other queued `/simulate` job sharing its session key, oldest first,
    /// up to `max_batch` total. Returns `None` once the queue is closed
    /// *and* drained.
    ///
    /// Jobs whose [`Job::deadline`] passed while they waited are never
    /// handed to a worker: they are answered `503` here (and counted in
    /// [`JobQueue::expired_count`]) — evaluating them would burn worker
    /// time on a response the client has already given up on.
    pub fn next_batch(&self, max_batch: usize) -> Option<(Vec<Job>, EvalSlot<'_>)> {
        let max_batch = max_batch.max(1);
        let mut inner = lock_recover(&self.inner);
        loop {
            while inner.busy < self.slots {
                let Some(first) = inner.jobs.pop_front() else {
                    break;
                };
                if first.expired() {
                    self.answer_expired(first);
                    continue;
                }
                let mut batch = Vec::with_capacity(4);
                if let Some(key) = first.kind.coalescing_key() {
                    batch.push(first);
                    let mut index = 0;
                    while batch.len() < max_batch && index < inner.jobs.len() {
                        if inner.jobs[index].expired() {
                            // Expired riders found during the scan are
                            // answered now rather than rotting in place.
                            let expired = inner.jobs.remove(index).expect("indexed job exists");
                            self.answer_expired(expired);
                        } else if inner.jobs[index].kind.coalescing_key() == Some(key) {
                            // O(queue) removal; queues are small (bounded)
                            // and this runs once per evaluation pass.
                            batch.push(inner.jobs.remove(index).expect("indexed job exists"));
                        } else {
                            index += 1;
                        }
                    }
                } else {
                    batch.push(first);
                }
                inner.busy += 1;
                return Some((batch, EvalSlot { queue: self }));
            }
            if inner.closed && inner.jobs.is_empty() {
                return None;
            }
            inner = wait_recover(&self.ready, inner);
        }
    }

    /// Takes an evaluation slot for a request the caller evaluates itself,
    /// but only while the queue is open and idle — no job queued, no slot
    /// held. The caller then overtakes nobody and has nothing to coalesce
    /// with; under any overlap the request goes through the queue (`None`),
    /// where concurrent same-key requests batch. Claims count towards the
    /// slot bound like worker batches.
    pub fn try_claim_idle(&self) -> Option<EvalSlot<'_>> {
        let mut inner = lock_recover(&self.inner);
        if inner.closed || !inner.jobs.is_empty() || inner.busy > 0 {
            return None;
        }
        inner.busy += 1;
        self.idle_claims.fetch_add(1, Ordering::Relaxed);
        Some(EvalSlot { queue: self })
    }

    /// Whether nothing is queued and no evaluation pass is running — what a
    /// graceful drain waits for.
    pub fn is_idle(&self) -> bool {
        let inner = lock_recover(&self.inner);
        inner.jobs.is_empty() && inner.busy == 0
    }

    /// Answers a deadline-expired job with `503` (a dropped receiver makes
    /// the send a no-op, matching worker reply semantics).
    fn answer_expired(&self, job: Job) {
        self.expired.fetch_add(1, Ordering::Relaxed);
        let waited_ms = job.enqueued.elapsed().as_millis();
        let _ = job.reply.send(Reply {
            status: 503,
            body: format!("{{\"error\": \"deadline expired after {waited_ms}ms in the queue\"}}"),
        });
    }

    /// Marks the queue closed and wakes every waiting worker. Already
    /// queued jobs are still drained by `next_batch`; new submits fail with
    /// [`SubmitError::Closed`].
    pub fn close(&self) {
        lock_recover(&self.inner).closed = true;
        self.ready.notify_all();
    }

    /// Jobs currently waiting (not yet picked up by a worker).
    pub fn depth(&self) -> usize {
        lock_recover(&self.inner).jobs.len()
    }

    /// Maximum number of waiting jobs ever admitted.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Deepest the queue has ever been.
    pub fn peak_depth(&self) -> usize {
        self.peak_depth.load(Ordering::Relaxed)
    }

    /// Requests refused because the queue was full.
    pub fn shed_count(&self) -> usize {
        self.shed.load(Ordering::Relaxed)
    }

    /// Jobs answered `503` because their deadline expired in the queue.
    pub fn expired_count(&self) -> usize {
        self.expired.load(Ordering::Relaxed)
    }

    /// Slots taken by [`JobQueue::try_claim_idle`]: requests evaluated
    /// without entering the queue.
    pub fn idle_claim_count(&self) -> usize {
        self.idle_claims.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnerator::{DataflowConfig, GnneratorConfig};
    use gnnerator_gnn::NetworkKind;
    use gnnerator_graph::datasets::DatasetKind;
    use std::sync::mpsc::channel;

    fn scenario(kind: DatasetKind, seed: u64) -> ScenarioSpec {
        ScenarioSpec::new(
            NetworkKind::Gcn,
            kind.spec().scaled(0.03),
            seed,
            8,
            4,
            GnneratorConfig::paper_default(),
            DataflowConfig::paper_default(),
        )
    }

    fn simulate_job(kind: DatasetKind, seed: u64) -> Job {
        let (reply, _rx) = channel();
        // The receiver is dropped: sends become no-ops, which is exactly
        // the disconnect-tolerant behavior workers rely on.
        Job {
            kind: JobKind::Simulate(Box::new(scenario(kind, seed))),
            reply,
            enqueued: Instant::now(),
            deadline: None,
            provenance: false,
        }
    }

    fn sweep_job(kind: DatasetKind) -> Job {
        let (reply, _rx) = channel();
        Job {
            kind: JobKind::Sweep(vec![scenario(kind, 1)]),
            reply,
            enqueued: Instant::now(),
            deadline: None,
            provenance: false,
        }
    }

    #[test]
    fn a_full_queue_sheds_deterministically() {
        let queue = JobQueue::new(2, 4);
        queue.submit(simulate_job(DatasetKind::Cora, 1)).unwrap();
        queue.submit(simulate_job(DatasetKind::Cora, 2)).unwrap();
        assert_eq!(
            queue
                .submit(simulate_job(DatasetKind::Cora, 3))
                .unwrap_err(),
            SubmitError::Full
        );
        assert_eq!(
            queue
                .submit(simulate_job(DatasetKind::Cora, 4))
                .unwrap_err(),
            SubmitError::Full
        );
        assert_eq!(queue.shed_count(), 2);
        assert_eq!(queue.depth(), 2, "depth never exceeds capacity");
        assert_eq!(queue.peak_depth(), 2);
        // Draining one slot re-admits.
        let (batch, _slot) = queue.next_batch(1).unwrap();
        assert_eq!(batch.len(), 1);
        queue.submit(simulate_job(DatasetKind::Cora, 5)).unwrap();
    }

    #[test]
    fn same_key_simulate_jobs_coalesce_oldest_first() {
        let queue = JobQueue::new(16, 4);
        // cora/1 twice, citeseer/1 between them, cora/1 again: the batch
        // must take all three cora jobs and leave citeseer at the front.
        queue.submit(simulate_job(DatasetKind::Cora, 1)).unwrap();
        queue
            .submit(simulate_job(DatasetKind::Citeseer, 1))
            .unwrap();
        queue.submit(simulate_job(DatasetKind::Cora, 1)).unwrap();
        queue.submit(simulate_job(DatasetKind::Cora, 1)).unwrap();
        let (batch, _slot) = queue.next_batch(16).unwrap();
        assert_eq!(batch.len(), 3);
        for job in &batch {
            match &job.kind {
                JobKind::Simulate(s) => assert_eq!(s.dataset.name, "cora"),
                other => panic!("unexpected job {other:?}"),
            }
        }
        let (rest, _rest_slot) = queue.next_batch(16).unwrap();
        assert_eq!(rest.len(), 1);
        match &rest[0].kind {
            JobKind::Simulate(s) => assert_eq!(s.dataset.name, "citeseer"),
            other => panic!("unexpected job {other:?}"),
        }
    }

    #[test]
    fn different_seeds_have_different_keys_and_do_not_coalesce() {
        let queue = JobQueue::new(16, 4);
        queue.submit(simulate_job(DatasetKind::Cora, 1)).unwrap();
        queue.submit(simulate_job(DatasetKind::Cora, 2)).unwrap();
        assert_eq!(queue.next_batch(16).unwrap().0.len(), 1);
        assert_eq!(queue.next_batch(16).unwrap().0.len(), 1);
    }

    #[test]
    fn max_batch_caps_a_coalescing_pass() {
        let queue = JobQueue::new(16, 4);
        for _ in 0..5 {
            queue.submit(simulate_job(DatasetKind::Cora, 1)).unwrap();
        }
        assert_eq!(queue.next_batch(3).unwrap().0.len(), 3);
        assert_eq!(queue.next_batch(3).unwrap().0.len(), 2);
    }

    #[test]
    fn sweep_and_compile_jobs_never_coalesce() {
        let queue = JobQueue::new(16, 4);
        queue.submit(sweep_job(DatasetKind::Cora)).unwrap();
        queue.submit(sweep_job(DatasetKind::Cora)).unwrap();
        assert_eq!(queue.next_batch(16).unwrap().0.len(), 1);
        assert_eq!(queue.next_batch(16).unwrap().0.len(), 1);
    }

    #[test]
    fn closing_drains_then_stops() {
        let queue = JobQueue::new(16, 4);
        queue.submit(simulate_job(DatasetKind::Cora, 1)).unwrap();
        queue.close();
        assert_eq!(
            queue
                .submit(simulate_job(DatasetKind::Cora, 1))
                .unwrap_err(),
            SubmitError::Closed
        );
        assert_eq!(queue.next_batch(16).unwrap().0.len(), 1, "drained first");
        assert!(queue.next_batch(16).is_none(), "then workers exit");
    }

    #[test]
    fn queue_expired_jobs_are_answered_503_not_evaluated() {
        let queue = JobQueue::new(16, 4);
        // An already-expired simulate job, then a live one of a different
        // key: the expired job is answered 503 and the live one dequeues.
        let (reply, expired_rx) = channel();
        queue
            .submit(Job {
                kind: JobKind::Simulate(Box::new(scenario(DatasetKind::Cora, 1))),
                reply,
                enqueued: Instant::now(),
                deadline: Some(Instant::now() - std::time::Duration::from_millis(5)),
                provenance: false,
            })
            .unwrap();
        queue
            .submit(simulate_job(DatasetKind::Citeseer, 1))
            .unwrap();
        let (batch, _slot) = queue.next_batch(16).unwrap();
        assert_eq!(batch.len(), 1);
        match &batch[0].kind {
            JobKind::Simulate(s) => assert_eq!(s.dataset.name, "citeseer"),
            other => panic!("unexpected job {other:?}"),
        }
        let reply = expired_rx.try_recv().expect("expired job was answered");
        assert_eq!(reply.status, 503);
        assert!(reply.body.contains("deadline expired"), "{}", reply.body);
        assert_eq!(queue.expired_count(), 1);

        // An expired rider between two coalescable jobs is cleared by the
        // coalescing scan.
        let (reply, rider_rx) = channel();
        queue.submit(simulate_job(DatasetKind::Cora, 1)).unwrap();
        queue
            .submit(Job {
                kind: JobKind::Simulate(Box::new(scenario(DatasetKind::Pubmed, 1))),
                reply,
                enqueued: Instant::now(),
                deadline: Some(Instant::now() - std::time::Duration::from_millis(5)),
                provenance: false,
            })
            .unwrap();
        queue.submit(simulate_job(DatasetKind::Cora, 1)).unwrap();
        let (batch, _slot) = queue.next_batch(16).unwrap();
        assert_eq!(batch.len(), 2, "both cora jobs coalesced");
        assert_eq!(rider_rx.try_recv().expect("rider answered").status, 503);
        assert_eq!(queue.expired_count(), 2);
        assert_eq!(queue.depth(), 0);

        // Future deadlines do not expire.
        let (reply, _rx) = channel();
        queue
            .submit(Job {
                kind: JobKind::Simulate(Box::new(scenario(DatasetKind::Cora, 1))),
                reply,
                enqueued: Instant::now(),
                deadline: Some(Instant::now() + std::time::Duration::from_secs(60)),
                provenance: false,
            })
            .unwrap();
        assert_eq!(queue.next_batch(16).unwrap().0.len(), 1);
        assert_eq!(queue.expired_count(), 2);
    }

    #[test]
    fn blocked_workers_wake_on_submit() {
        let queue = std::sync::Arc::new(JobQueue::new(4, 4));
        let waiter = {
            let queue = std::sync::Arc::clone(&queue);
            std::thread::spawn(move || queue.next_batch(4).map(|(batch, _)| batch.len()))
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        queue.submit(simulate_job(DatasetKind::Cora, 1)).unwrap();
        assert_eq!(waiter.join().unwrap(), Some(1));
    }

    #[test]
    fn idle_claims_need_an_open_queue_with_nothing_queued_or_running() {
        let queue = JobQueue::new(4, 2);
        let claimed = queue.try_claim_idle().expect("an idle queue");
        assert!(!queue.is_idle(), "a held slot is work in progress");
        assert!(
            queue.try_claim_idle().is_none(),
            "an evaluation is already running"
        );
        drop(claimed);
        assert!(queue.is_idle(), "dropping the slot returns it");

        queue.submit(simulate_job(DatasetKind::Cora, 1)).unwrap();
        assert!(
            queue.try_claim_idle().is_none(),
            "a queued job is never overtaken"
        );
        // Two workers hold every slot.
        queue.submit(simulate_job(DatasetKind::Cora, 2)).unwrap();
        let (first, first_slot) = queue.next_batch(4).unwrap();
        let (second, second_slot) = queue.next_batch(4).unwrap();
        assert_eq!((first.len(), second.len()), (1, 1));
        assert!(queue.try_claim_idle().is_none(), "every slot held");
        drop((first_slot, second_slot));
        drop(queue.try_claim_idle().expect("idle again"));

        queue.close();
        assert!(queue.try_claim_idle().is_none(), "a closed queue");
        assert_eq!(queue.idle_claim_count(), 2);
    }

    #[test]
    fn next_batch_waits_for_a_free_slot() {
        let queue = std::sync::Arc::new(JobQueue::new(4, 1));
        let held = queue.try_claim_idle().expect("the only slot");
        queue.submit(simulate_job(DatasetKind::Cora, 1)).unwrap();
        let (done, waiting) = std::sync::mpsc::channel();
        let waiter = {
            let queue = std::sync::Arc::clone(&queue);
            std::thread::spawn(move || {
                let got = queue.next_batch(4).map(|(batch, _)| batch.len());
                done.send(()).unwrap();
                got
            })
        };
        assert!(
            waiting
                .recv_timeout(std::time::Duration::from_millis(100))
                .is_err(),
            "a batch was handed out while every slot was held"
        );
        assert_eq!(queue.depth(), 1, "the job still waits in the queue");
        drop(held);
        assert_eq!(
            waiter.join().unwrap(),
            Some(1),
            "release resumes the worker"
        );
        assert!(queue.is_idle(), "the worker's slot was returned");
    }
}
