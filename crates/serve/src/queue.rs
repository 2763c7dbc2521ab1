//! The bounded admission queue and the evaluation-slot bound.
//!
//! Connection threads parse requests and submit [`Job`]s here; evaluation
//! workers take them back out one at a time, oldest first. Two properties
//! live in this module:
//!
//! * **Admission control** — the queue holds at most `capacity` jobs.
//!   A submit against a full queue fails immediately ([`SubmitError::Full`])
//!   and the connection answers `429` + `Retry-After` instead of letting
//!   latency (and memory) grow without bound. Peak depth and shed counts
//!   are tracked for `/stats`.
//! * **The evaluation bound** — the queue owns one [`EvalSlot`] per
//!   worker, and every evaluation holds one. A worker takes a job only
//!   together with a free slot; a connection thread may evaluate a warm
//!   request itself only through [`JobQueue::try_claim_idle`], which
//!   succeeds only while nothing is queued and nothing is being
//!   evaluated. So the worker count bounds concurrent evaluations on both
//!   paths, and a request never overtakes queued work.
//!
//! The per-connection in-flight cap (enforced by the connection loop, not
//! here) stops any single client from monopolising the queue.

use gnnerator::ScenarioSpec;
use gnnerator_faults::{lock_recover, wait_recover};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// What a worker does with a dequeued job.
#[derive(Debug)]
pub enum JobKind {
    /// Evaluate one scenario.
    Simulate(Box<ScenarioSpec>),
    /// Compile one accelerator scenario without executing it.
    Compile(Box<ScenarioSpec>),
    /// Evaluate an ordered list of scenarios (a `/sweep` body).
    Sweep(Vec<ScenarioSpec>),
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
/// evaluation. Dropping it — during a panic's unwind too — frees the
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

/// The bounded job queue shared by every connection thread and
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
    /// `slots` (minimum 1) concurrent evaluations.
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

    /// Blocks for the oldest queued job and a free evaluation slot to run
    /// it in. Returns `None` once the queue is closed *and* drained.
    ///
    /// Jobs whose [`Job::deadline`] passed while they waited are never
    /// handed to a worker: they are answered `503` here (and counted in
    /// [`JobQueue::expired_count`]) — evaluating them would burn worker
    /// time on a response the client has already given up on.
    pub fn next_job(&self) -> Option<(Job, EvalSlot<'_>)> {
        let mut inner = lock_recover(&self.inner);
        loop {
            while inner.busy < self.slots {
                let Some(job) = inner.jobs.pop_front() else {
                    break;
                };
                if job.expired() {
                    self.answer_expired(job);
                    continue;
                }
                inner.busy += 1;
                return Some((job, EvalSlot { queue: self }));
            }
            if inner.closed && inner.jobs.is_empty() {
                return None;
            }
            inner = wait_recover(&self.ready, inner);
        }
    }

    /// Takes an evaluation slot for a request the caller evaluates itself,
    /// but only while the queue is open and idle — no job queued, no slot
    /// held — so the caller overtakes nobody. Under any overlap the request
    /// goes through the queue (`None`). Claims count towards the slot bound
    /// like worker jobs.
    pub fn try_claim_idle(&self) -> Option<EvalSlot<'_>> {
        let mut inner = lock_recover(&self.inner);
        if inner.closed || !inner.jobs.is_empty() || inner.busy > 0 {
            return None;
        }
        inner.busy += 1;
        self.idle_claims.fetch_add(1, Ordering::Relaxed);
        Some(EvalSlot { queue: self })
    }

    /// Whether nothing is queued and no evaluation is running — what a
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
    /// queued jobs are still drained by `next_job`; new submits fail with
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
    use std::sync::mpsc::{channel, Receiver};

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

    fn job(kind: JobKind, deadline: Option<Instant>) -> (Job, Receiver<Reply>) {
        let (reply, receiver) = channel();
        let job = Job {
            kind,
            reply,
            enqueued: Instant::now(),
            deadline,
            provenance: false,
        };
        (job, receiver)
    }

    fn simulate_job(kind: DatasetKind, seed: u64) -> Job {
        // The receiver is dropped: sends become no-ops, which is exactly
        // the disconnect-tolerant behavior workers rely on.
        job(JobKind::Simulate(Box::new(scenario(kind, seed))), None).0
    }

    fn dataset_of(job: &Job) -> &'static str {
        match &job.kind {
            JobKind::Simulate(s) | JobKind::Compile(s) => s.dataset.name,
            JobKind::Sweep(scenarios) => scenarios[0].dataset.name,
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
        // Draining one job re-admits.
        let _taken = queue.next_job().unwrap();
        queue.submit(simulate_job(DatasetKind::Cora, 5)).unwrap();
    }

    #[test]
    fn jobs_leave_in_arrival_order() {
        let queue = JobQueue::new(16, 4);
        // Same-key jobs with other work between them: each leaves alone,
        // in the order it arrived.
        let sweep = JobKind::Sweep(vec![scenario(DatasetKind::Pubmed, 1)]);
        queue.submit(simulate_job(DatasetKind::Cora, 1)).unwrap();
        queue
            .submit(simulate_job(DatasetKind::Citeseer, 1))
            .unwrap();
        queue.submit(job(sweep, None).0).unwrap();
        queue.submit(simulate_job(DatasetKind::Cora, 1)).unwrap();
        let order: Vec<&str> = (0..4)
            .map(|_| dataset_of(&queue.next_job().unwrap().0))
            .collect();
        assert_eq!(order, ["cora", "citeseer", "pubmed", "cora"]);
        assert_eq!(queue.depth(), 0);
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
        assert!(queue.next_job().is_some(), "drained first");
        assert!(queue.next_job().is_none(), "then workers exit");
    }

    #[test]
    fn queue_expired_jobs_are_answered_503_not_evaluated() {
        let queue = JobQueue::new(16, 4);
        let past = Some(Instant::now() - std::time::Duration::from_millis(5));
        // A live job, an already-expired one, then another live one: the
        // expired job is answered 503 when it reaches the front, and the
        // live ones dequeue around it.
        let (expired, expired_rx) = job(
            JobKind::Simulate(Box::new(scenario(DatasetKind::Pubmed, 1))),
            past,
        );
        queue.submit(simulate_job(DatasetKind::Cora, 1)).unwrap();
        queue.submit(expired).unwrap();
        queue
            .submit(simulate_job(DatasetKind::Citeseer, 1))
            .unwrap();
        assert_eq!(dataset_of(&queue.next_job().unwrap().0), "cora");
        assert!(expired_rx.try_recv().is_err(), "not reached yet");
        assert_eq!(dataset_of(&queue.next_job().unwrap().0), "citeseer");
        let reply = expired_rx.try_recv().expect("expired job was answered");
        assert_eq!(reply.status, 503);
        assert!(reply.body.contains("deadline expired"), "{}", reply.body);
        assert_eq!(queue.expired_count(), 1);
        assert_eq!(queue.depth(), 0);

        // Future deadlines do not expire.
        let future = Some(Instant::now() + std::time::Duration::from_secs(60));
        let (live, _rx) = job(
            JobKind::Simulate(Box::new(scenario(DatasetKind::Cora, 1))),
            future,
        );
        queue.submit(live).unwrap();
        assert!(queue.next_job().is_some());
        assert_eq!(queue.expired_count(), 1);
    }

    #[test]
    fn blocked_workers_wake_on_submit() {
        let queue = std::sync::Arc::new(JobQueue::new(4, 4));
        let waiter = {
            let queue = std::sync::Arc::clone(&queue);
            std::thread::spawn(move || queue.next_job().map(|(job, _)| dataset_of(&job)))
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        queue.submit(simulate_job(DatasetKind::Cora, 1)).unwrap();
        assert_eq!(waiter.join().unwrap(), Some("cora"));
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
        let (_first, first_slot) = queue.next_job().unwrap();
        let (_second, second_slot) = queue.next_job().unwrap();
        assert!(queue.try_claim_idle().is_none(), "every slot held");
        drop((first_slot, second_slot));
        drop(queue.try_claim_idle().expect("idle again"));

        queue.close();
        assert!(queue.try_claim_idle().is_none(), "a closed queue");
        assert_eq!(queue.idle_claim_count(), 2);
    }

    #[test]
    fn next_job_waits_for_a_free_slot() {
        let queue = std::sync::Arc::new(JobQueue::new(4, 1));
        let held = queue.try_claim_idle().expect("the only slot");
        queue.submit(simulate_job(DatasetKind::Cora, 1)).unwrap();
        let (done, waiting) = std::sync::mpsc::channel();
        let waiter = {
            let queue = std::sync::Arc::clone(&queue);
            std::thread::spawn(move || {
                let got = queue.next_job().map(|(job, _)| dataset_of(&job));
                done.send(()).unwrap();
                got
            })
        };
        assert!(
            waiting
                .recv_timeout(std::time::Duration::from_millis(100))
                .is_err(),
            "a job was handed out while every slot was held"
        );
        assert_eq!(queue.depth(), 1, "the job still waits in the queue");
        drop(held);
        assert_eq!(
            waiter.join().unwrap(),
            Some("cora"),
            "release resumes the worker"
        );
        assert!(queue.is_idle(), "the worker's slot was returned");
    }
}
