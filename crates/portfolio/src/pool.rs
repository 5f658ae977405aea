//! A worker pool over one shared FIFO queue: list scheduling on
//! `workers` identical machines, where each job goes to the next worker
//! that falls idle.
//!
//! The PR 2 serve front end ran one `mpsc` queue per shard with
//! round-robin dispatch. That shape has two failure modes on multi-core
//! hardware: a slow request head-of-line blocks every request behind it on
//! the same shard while other shards sit idle, and a dead shard worker
//! silently swallows whatever round-robin keeps sending it. This pool
//! replaces it:
//!
//! * **dispatch** pushes onto the bounded queue (or returns the job to the
//!   caller when the queue is full or no worker is alive — backpressure
//!   instead of a silent drop);
//! * **workers** pop the queue's front, and park on the condvar while it
//!   is empty, so an idle worker always takes the oldest waiting job;
//! * **death** is a first-class event: a worker told to die (fault
//!   injection, see [`Directive::Die`]) leaves the queue to its peers, and
//!   the last worker to die hands every queued job to the orphan callback
//!   so no client ever hangs on a request the pool has already accepted.
//!
//! The queue, the `closed` flag and the alive count live under one mutex
//! with one condvar beside it, so every decision (accept or reject, park
//! or exit, orphan or not) reads them together. Jobs start in dispatch
//! order; they may finish in any order, and clients correlate by request
//! id. No handler or orphan callback runs under the lock.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// What the handler tells its worker after one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Directive {
    /// Keep serving.
    Continue,
    /// Exit this worker thread (fault injection / controlled kill). Queued
    /// jobs stay for the other workers.
    Die,
}

/// Pool sizing.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Worker thread count (clamped to ≥ 1).
    pub workers: usize,
    /// Accepted-but-unstarted job cap; `dispatch` rejects beyond it.
    pub max_queue: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig { workers: 4, max_queue: 1024 }
    }
}

/// Why [`Pool::dispatch`] returned the job instead of queueing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Every worker has died; nothing would ever serve the job.
    NoWorkers,
    /// The backlog reached [`PoolConfig::max_queue`].
    QueueFull,
}

/// A dispatch rejection: the job comes back so the caller can answer the
/// client instead of leaving it hanging.
#[derive(Debug)]
pub struct Rejected<J> {
    /// The undelivered job.
    pub job: J,
    /// Why it was not queued.
    pub reason: RejectReason,
    /// Backlog depth when the rejection was decided (diagnostics).
    pub queued: usize,
}

/// Everything a pool decision reads, under [`Shared::state`].
struct State<J> {
    /// Accepted, unstarted jobs in dispatch order; its length is the
    /// backlog `max_queue` caps.
    queue: VecDeque<J>,
    /// Set by [`Pool::shutdown`]: workers exit once the queue is empty.
    closed: bool,
    /// Workers still running.
    alive: usize,
}

struct Shared<J> {
    state: Mutex<State<J>>,
    /// Workers park here while the queue is empty and the pool is open.
    cv: Condvar,
    max_queue: usize,
    /// Receives jobs no worker will ever run (all workers dead, or left
    /// over at shutdown); the service answers their clients with an error.
    orphan: Box<dyn Fn(J) + Send + Sync>,
}

impl<J: Send + 'static> Shared<J> {
    /// A worker is gone. If it was the last one, everything still queued
    /// is orphaned: the decrement and the drain share one lock tenure with
    /// `dispatch`'s alive check, so either a dispatch sees the death (and
    /// rejects) or its job is queued before the drain (and is orphaned).
    /// The orphan callbacks run after the lock is released: they may block
    /// on client I/O, and a blocked callback must not wedge dispatchers.
    fn on_worker_death(&self) {
        let orphans: Vec<J> = {
            let mut st = self.state.lock();
            st.alive -= 1;
            if st.alive == 0 {
                st.queue.drain(..).collect()
            } else {
                Vec::new()
            }
        };
        for job in orphans {
            (self.orphan)(job);
        }
    }
}

/// A running worker pool over jobs of type `J`. See the module docs.
pub struct Pool<J: Send + 'static> {
    shared: Arc<Shared<J>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl<J: Send + 'static> Pool<J> {
    /// Spawns `cfg.workers` threads running `handler` on claimed jobs.
    /// `orphan` is called (from whatever thread notices) for any job the
    /// pool accepted but will never run.
    pub fn start<H, O>(cfg: PoolConfig, handler: H, orphan: O) -> Pool<J>
    where
        H: Fn(usize, J) -> Directive + Send + Sync + 'static,
        O: Fn(J) + Send + Sync + 'static,
    {
        let workers = cfg.workers.max(1);
        let state = State { queue: VecDeque::new(), closed: false, alive: workers };
        let shared = Arc::new(Shared {
            state: Mutex::named("pool.queue", state),
            cv: Condvar::new(),
            max_queue: cfg.max_queue.max(1),
            orphan: Box::new(orphan),
        });
        let handler = Arc::new(handler);
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let handler = Arc::clone(&handler);
                std::thread::spawn(move || worker_loop(w, &shared, handler.as_ref()))
            })
            .collect();
        Pool { shared, handles }
    }

    /// Queues one job. Returns it with a reason when the pool cannot
    /// promise to run it (all workers dead, or the backlog is full) so the
    /// caller can answer the client instead of letting it hang.
    pub fn dispatch(&self, job: J) -> Result<(), Rejected<J>> {
        let s = &self.shared;
        let mut st = s.state.lock();
        let queued = st.queue.len();
        // Both checks are exact under the lock: the death protocol runs
        // under it, and every push goes through here, so concurrent
        // dispatchers cannot overshoot `max_queue`.
        if st.alive == 0 {
            return Err(Rejected { job, reason: RejectReason::NoWorkers, queued });
        }
        if queued >= s.max_queue {
            return Err(Rejected { job, reason: RejectReason::QueueFull, queued });
        }
        st.queue.push_back(job);
        // One new job: waking one parked worker suffices, and avoids a
        // thundering herd of N workers re-taking this mutex per dispatch.
        s.cv.notify_one();
        Ok(())
    }

    /// Workers still running.
    pub fn alive(&self) -> usize {
        self.shared.state.lock().alive
    }

    /// Jobs accepted but not yet started.
    pub fn queued(&self) -> usize {
        self.shared.state.lock().queue.len()
    }

    /// Closes the pool: workers drain the queue, then exit; any job no
    /// worker can run goes to the orphan callback.
    pub fn shutdown(self) {
        self.shared.state.lock().closed = true;
        self.shared.cv.notify_all();
        for h in self.handles {
            let _ = h.join();
        }
        // All workers are gone; anything left must still be answered.
        let orphans: Vec<J> = self.shared.state.lock().queue.drain(..).collect();
        for job in orphans {
            (self.shared.orphan)(job);
        }
    }
}

fn worker_loop<J: Send + 'static>(
    w: usize,
    shared: &Shared<J>,
    handler: &(dyn Fn(usize, J) -> Directive + Send + Sync),
) {
    /// Runs the death protocol on every exit path — including a panicking
    /// handler — so a lost worker never strands queued jobs or leaves
    /// `dispatch` believing capacity exists.
    struct DeathWatch<'a, J: Send + 'static>(&'a Shared<J>);
    impl<J: Send + 'static> Drop for DeathWatch<'_, J> {
        fn drop(&mut self) {
            self.0.on_worker_death();
        }
    }
    let _watch = DeathWatch(shared);
    loop {
        let job = {
            let mut st = shared.state.lock();
            loop {
                if let Some(job) = st.queue.pop_front() {
                    break job;
                }
                if st.closed {
                    return;
                }
                // The empty check and the wait share this lock tenure with
                // `dispatch`'s push and notify, so no wakeup is lost.
                shared.cv.wait(&mut st);
            }
        };
        if handler(w, job) == Directive::Die {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Jobs for the tests: record `Run(i)`, park on `Block` until released,
    /// record `Gated(i, ..)` and then park until released, or kill the
    /// worker.
    #[derive(Debug)]
    enum TestJob {
        Run(usize),
        Block(mpsc::Receiver<()>),
        Gated(usize, mpsc::Receiver<()>),
        Kill,
    }

    fn record_pool(
        cfg: PoolConfig,
    ) -> (Pool<TestJob>, mpsc::Receiver<usize>, mpsc::Receiver<usize>) {
        let (done_tx, done_rx) = mpsc::channel::<usize>();
        let (orphan_tx, orphan_rx) = mpsc::channel::<usize>();
        let pool = Pool::start(
            cfg,
            move |_w, job: TestJob| match job {
                TestJob::Run(i) => {
                    done_tx.send(i).unwrap();
                    Directive::Continue
                }
                TestJob::Block(gate) => {
                    let _ = gate.recv_timeout(Duration::from_secs(10));
                    Directive::Continue
                }
                TestJob::Gated(i, gate) => {
                    done_tx.send(i).unwrap();
                    let _ = gate.recv_timeout(Duration::from_secs(10));
                    Directive::Continue
                }
                TestJob::Kill => Directive::Die,
            },
            move |job: TestJob| {
                if let TestJob::Run(i) = job {
                    orphan_tx.send(i).unwrap();
                }
            },
        );
        (pool, done_rx, orphan_rx)
    }

    #[test]
    fn runs_every_job() {
        let (pool, done, _orphans) = record_pool(PoolConfig { workers: 3, ..Default::default() });
        for i in 0..50 {
            pool.dispatch(TestJob::Run(i)).unwrap();
        }
        pool.shutdown();
        let mut got: Vec<usize> = done.try_iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_start_in_dispatch_order() {
        // One worker: the start order is the dispatch order, exactly.
        let (pool, done, _orphans) = record_pool(PoolConfig { workers: 1, ..Default::default() });
        for i in 0..50 {
            pool.dispatch(TestJob::Run(i)).unwrap();
        }
        pool.shutdown();
        assert_eq!(done.try_iter().collect::<Vec<_>>(), (0..50).collect::<Vec<_>>());

        // Three workers: every job reports its start, then holds its
        // worker until its gate opens. Occupy all three workers, queue the
        // rest, then free one worker at a time: the freed worker is the
        // only idle one, so the job it starts must be the oldest queued.
        let (pool, started, _orphans) =
            record_pool(PoolConfig { workers: 3, ..Default::default() });
        let mut gates = Vec::new();
        let mut gated = |i| {
            let (open, gate) = mpsc::channel();
            gates.push(open);
            TestJob::Gated(i, gate)
        };
        let wait = Duration::from_secs(10);
        for i in 0..3 {
            pool.dispatch(gated(i)).unwrap();
            assert_eq!(started.recv_timeout(wait), Ok(i));
        }
        let jobs: Vec<TestJob> = (3..40).map(&mut gated).collect();
        for job in jobs {
            pool.dispatch(job).unwrap();
        }
        for i in 3..40 {
            gates[i - 3].send(()).unwrap();
            assert_eq!(started.recv_timeout(wait), Ok(i), "the freed worker starts job {i}");
        }
        for open in &gates[37..] {
            open.send(()).unwrap();
        }
        pool.shutdown();
    }

    #[test]
    fn idle_worker_serves_past_a_blocked_peer() {
        let (pool, done, _orphans) = record_pool(PoolConfig { workers: 2, ..Default::default() });
        let (release_tx, release_rx) = mpsc::channel();
        pool.dispatch(TestJob::Block(release_rx)).unwrap();
        for i in 0..20 {
            pool.dispatch(TestJob::Run(i)).unwrap();
        }
        // The second worker must drain all 20 while the first is blocked.
        let mut got = Vec::new();
        for _ in 0..20 {
            got.push(done.recv_timeout(Duration::from_secs(10)).expect("served by the peer"));
        }
        got.sort_unstable();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
        release_tx.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn killed_worker_requeues_and_peers_take_over() {
        let (pool, done, _orphans) = record_pool(PoolConfig { workers: 2, ..Default::default() });
        pool.dispatch(TestJob::Kill).unwrap();
        for i in 0..30 {
            pool.dispatch(TestJob::Run(i)).unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..30 {
            got.push(done.recv_timeout(Duration::from_secs(10)).expect("survivor serves"));
        }
        got.sort_unstable();
        assert_eq!(got, (0..30).collect::<Vec<_>>());
        assert_eq!(pool.alive(), 1);
        pool.shutdown();
    }

    #[test]
    fn all_workers_dead_orphans_queue_and_rejects_dispatch() {
        let (pool, done, orphans) = record_pool(PoolConfig { workers: 1, ..Default::default() });
        let (release_tx, release_rx) = mpsc::channel();
        pool.dispatch(TestJob::Block(release_rx)).unwrap();
        for i in 0..5 {
            pool.dispatch(TestJob::Run(i)).unwrap();
        }
        pool.dispatch(TestJob::Kill).unwrap();
        for i in 5..8 {
            pool.dispatch(TestJob::Run(i)).unwrap();
        }
        release_tx.send(()).unwrap();
        // Everything before the kill runs; everything behind it is
        // orphaned by the dying last worker. Nothing hangs.
        let wait = Duration::from_secs(10);
        let served: Vec<usize> =
            (0..5).map(|_| done.recv_timeout(wait).expect("ran before kill")).collect();
        assert_eq!(served, (0..5).collect::<Vec<_>>());
        let orphaned: Vec<usize> =
            (5..8).map(|_| orphans.recv_timeout(wait).expect("orphaned at death")).collect();
        assert_eq!(orphaned, (5..8).collect::<Vec<_>>());
        // Wait for death to be observable, then dispatch must reject.
        for _ in 0..1000 {
            if pool.alive() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(pool.alive(), 0);
        let err = pool.dispatch(TestJob::Run(99)).unwrap_err();
        assert_eq!(err.reason, RejectReason::NoWorkers);
        assert!(matches!(err.job, TestJob::Run(99)));
        pool.shutdown();
        assert!(orphans.try_iter().next().is_none(), "each job orphaned once");
        assert!(done.try_iter().next().is_none(), "no job ran after the kill");
    }

    #[test]
    fn queue_full_rejects_with_backpressure() {
        let (pool, _done, _orphans) = record_pool(PoolConfig { workers: 1, max_queue: 3 });
        let (release_tx, release_rx) = mpsc::channel();
        pool.dispatch(TestJob::Block(release_rx)).unwrap();
        // The worker may or may not have claimed the blocker yet; fill
        // until rejection, which must come by max_queue + 1 dispatches.
        let mut accepted = 0;
        let mut rejected = None;
        for i in 0..10 {
            match pool.dispatch(TestJob::Run(i)) {
                Ok(()) => accepted += 1,
                Err(r) => {
                    rejected = Some(r.reason);
                    break;
                }
            }
        }
        assert_eq!(rejected, Some(RejectReason::QueueFull), "accepted {accepted}");
        assert!(accepted <= 4);
        release_tx.send(()).unwrap();
        pool.shutdown();
    }
}
