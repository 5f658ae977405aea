//! A work-stealing worker pool: one shared injector queue, per-worker
//! deques, and idle-time stealing.
//!
//! The PR 2 serve front end ran one `mpsc` queue per shard with
//! round-robin dispatch. That shape has two failure modes on multi-core
//! hardware: a slow request head-of-line blocks every request behind it on
//! the same shard while other shards sit idle, and a dead shard worker
//! silently swallows whatever round-robin keeps sending it. This pool
//! replaces it:
//!
//! * **dispatch** pushes onto a single bounded injector queue (or returns
//!   the job to the caller when the queue is full or no worker is alive —
//!   backpressure instead of a silent drop);
//! * **workers** pop their own deque first, then grab a small batch from
//!   the injector, then steal the back half of a peer's deque; only when
//!   all three are empty do they park on a condvar;
//! * **death** is a first-class event: a worker told to die (fault
//!   injection, see [`Directive::Die`]) drains its deque back to the
//!   injector so peers pick the work up, and the last worker to die hands
//!   every queued job to the orphan callback so no client ever hangs on a
//!   request the pool has already accepted.
//!
//! FIFO order is exact per worker queue and approximate globally: a steal
//! moves the *back* half of a peer's deque, so stolen jobs keep their
//! relative order but may finish before older jobs still in flight
//! elsewhere. Clients correlate by request id, so the serve protocol is
//! indifferent to completion order.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// What the handler tells its worker after one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Directive {
    /// Keep serving.
    Continue,
    /// Exit this worker thread (fault injection / controlled kill). The
    /// worker re-queues its remaining local jobs before exiting.
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
    /// Backlog depth observed when the rejection was decided (diagnostics;
    /// re-reading the live counter later could contradict the reason).
    pub queued: usize,
}

/// Jobs a worker pulls from the injector into its own deque in one lock
/// acquisition, beyond the one it runs immediately (small, so a burst
/// spreads across workers instead of being claimed by the first one awake).
const INJECTOR_BATCH_EXTRA: usize = 3;

struct Shared<J> {
    injector: Mutex<VecDeque<J>>,
    locals: Vec<Mutex<VecDeque<J>>>,
    /// Pairs with `cv`. `dispatch` pushes while holding it, workers
    /// re-check for claimable work while holding it before parking (no
    /// lost wakeups), and the death protocol runs entirely under it — so a
    /// dispatch can never slip a job past the last worker's final drain.
    sleep: Mutex<()>,
    cv: Condvar,
    closed: AtomicBool,
    alive: AtomicUsize,
    queued: AtomicUsize,
    max_queue: usize,
    /// Receives jobs no worker will ever run (all workers dead, or left
    /// over at shutdown); the service answers their clients with an error.
    orphan: Box<dyn Fn(J) + Send + Sync>,
}

impl<J: Send + 'static> Shared<J> {
    /// Work worker `w` could claim: its own deque, the injector, or a
    /// peer's deque to steal from.
    fn has_claimable_work(&self, w: usize) -> bool {
        // One queue lock at a time (a `||` chain would hold the first
        // guard while acquiring the next).
        let own = !self.locals[w].lock().is_empty();
        if own {
            return true;
        }
        let injector = !self.injector.lock().is_empty();
        if injector {
            return true;
        }
        self.locals.iter().enumerate().any(|(p, q)| p != w && !q.lock().is_empty())
    }

    /// Claims the next job for worker `w`: own deque, then injector
    /// (+ batch), then the back half of a peer's deque.
    fn next_job(&self, w: usize) -> Option<J> {
        if let Some(job) = self.locals[w].lock().pop_front() {
            return Some(job);
        }
        {
            let mut inj = self.injector.lock();
            if let Some(job) = inj.pop_front() {
                let extra =
                    (inj.len() / self.locals.len()).min(INJECTOR_BATCH_EXTRA).min(inj.len());
                if extra > 0 {
                    let mut local = self.locals[w].lock();
                    local.extend(inj.drain(..extra));
                }
                return Some(job);
            }
        }
        for p in (0..self.locals.len()).filter(|&p| p != w) {
            let stolen: Vec<J> = {
                let mut peer = self.locals[p].lock();
                let keep = peer.len() / 2;
                peer.split_off(keep).into()
            };
            if !stolen.is_empty() {
                let mut local = self.locals[w].lock();
                local.extend(stolen);
                return local.pop_front();
            }
        }
        None
    }

    /// Worker `w` is gone: re-queue its deque, and if it was the last one,
    /// orphan everything still queued so no client hangs. The bookkeeping
    /// runs under the sleep lock to serialize against `dispatch` — either a
    /// dispatch's alive re-check sees the death (and rejects), or its push
    /// lands before the final collection here (and the job is orphaned) —
    /// but the orphan callbacks themselves run *after* the lock is
    /// released: they may block on client I/O, and a blocked callback must
    /// not wedge every other dispatcher.
    fn on_worker_death(&self, w: usize) {
        let orphans: Vec<J> = {
            let _g = self.sleep.lock();
            let leftovers: Vec<J> = {
                let mut local = self.locals[w].lock();
                local.drain(..).collect()
            };
            if !leftovers.is_empty() {
                let mut inj = self.injector.lock();
                for job in leftovers.into_iter().rev() {
                    inj.push_front(job);
                }
            }
            // ordering: AcqRel — the Release half publishes this worker's
            // re-queueing to whoever reads `alive` with Acquire; the Acquire
            // half makes the last decrementer see every earlier death's
            // re-queueing before it collects orphans.
            let orphans = if self.alive.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.collect_orphans()
            } else {
                Vec::new()
            };
            self.cv.notify_all();
            orphans
        };
        for job in orphans {
            (self.orphan)(job);
        }
    }

    /// Empties every queue, returning the jobs for the caller to orphan
    /// (outside any pool lock).
    fn collect_orphans(&self) -> Vec<J> {
        let mut orphans = Vec::new();
        loop {
            let job = { self.injector.lock().pop_front() };
            let job = job.or_else(|| self.locals.iter().find_map(|q| q.lock().pop_front()));
            match job {
                Some(job) => {
                    self.queued.fetch_sub(1, Ordering::Relaxed);
                    orphans.push(job);
                }
                None => break,
            }
        }
        orphans
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
        let shared = Arc::new(Shared {
            injector: Mutex::named("pool.injector", VecDeque::new()),
            locals: (0..workers).map(|_| Mutex::named("pool.local", VecDeque::new())).collect(),
            sleep: Mutex::named("pool.sleep", ()),
            cv: Condvar::new(),
            closed: AtomicBool::new(false),
            alive: AtomicUsize::new(workers),
            queued: AtomicUsize::new(0),
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
        // Fast-path rejection without the lock; both conditions are
        // re-checked under the sleep lock below, where they are exact.
        // ordering: Acquire pairs with the AcqRel decrement in
        // `on_worker_death` so a zero read implies the queues were drained.
        if s.alive.load(Ordering::Acquire) == 0 {
            let queued = s.queued.load(Ordering::Relaxed);
            return Err(Rejected { job, reason: RejectReason::NoWorkers, queued });
        }
        let _g = s.sleep.lock();
        // The last worker may have died between the check above and here,
        // after which nothing would ever drain the queue; the death
        // protocol runs under this lock, so the re-check is exact.
        // ordering: Acquire, same pairing as the fast-path check above.
        if s.alive.load(Ordering::Acquire) == 0 {
            let queued = s.queued.load(Ordering::Relaxed);
            return Err(Rejected { job, reason: RejectReason::NoWorkers, queued });
        }
        // Backlog cap, also under the lock: every push goes through here,
        // so concurrent dispatchers cannot overshoot `max_queue`.
        if s.queued.load(Ordering::Relaxed) >= s.max_queue {
            let queued = s.queued.load(Ordering::Relaxed);
            return Err(Rejected { job, reason: RejectReason::QueueFull, queued });
        }
        s.injector.lock().push_back(job);
        s.queued.fetch_add(1, Ordering::Relaxed);
        // One new claimable-by-anyone job: waking one parked worker
        // suffices, and avoids a thundering herd of N workers re-taking
        // this mutex per dispatch.
        s.cv.notify_one();
        Ok(())
    }

    /// Workers still running.
    pub fn alive(&self) -> usize {
        // ordering: Acquire pairs with the AcqRel decrement in
        // `on_worker_death`; a caller reading 0 sees the final drain.
        self.shared.alive.load(Ordering::Acquire)
    }

    /// Jobs accepted but not yet started.
    pub fn queued(&self) -> usize {
        self.shared.queued.load(Ordering::Relaxed)
    }

    /// Closes the pool: workers drain all queues, then exit; any job no
    /// worker can run goes to the orphan callback.
    pub fn shutdown(self) {
        // ordering: Release pairs with the Acquire load in `worker_loop`'s
        // park path — a worker that observes `closed` also observes every
        // job dispatched before shutdown began.
        self.shared.closed.store(true, Ordering::Release);
        {
            let _g = self.shared.sleep.lock();
            self.shared.cv.notify_all();
        }
        for h in self.handles {
            let _ = h.join();
        }
        // All workers are gone; anything left (every worker died before
        // shutdown) must still be answered.
        for job in self.shared.collect_orphans() {
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
    struct DeathWatch<'a, J: Send + 'static> {
        shared: &'a Shared<J>,
        w: usize,
    }
    impl<J: Send + 'static> Drop for DeathWatch<'_, J> {
        fn drop(&mut self) {
            self.shared.on_worker_death(self.w);
        }
    }
    let _watch = DeathWatch { shared, w };
    loop {
        match shared.next_job(w) {
            Some(job) => {
                shared.queued.fetch_sub(1, Ordering::Relaxed);
                match handler(w, job) {
                    Directive::Continue => {}
                    Directive::Die => return,
                }
            }
            None => {
                let mut guard = shared.sleep.lock();
                if shared.has_claimable_work(w) {
                    continue;
                }
                // ordering: Acquire pairs with the Release store in
                // `shutdown`; seeing `closed` here implies seeing every
                // dispatch that preceded it.
                if shared.closed.load(Ordering::Acquire) {
                    return;
                }
                shared.cv.wait(&mut guard);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Jobs for the tests: record `Run(i)`, park on `Block` until released,
    /// or kill the worker.
    #[derive(Debug)]
    enum TestJob {
        Run(usize),
        Block(mpsc::Receiver<()>),
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
    fn idle_workers_steal_past_a_blocked_peer() {
        let (pool, done, _orphans) = record_pool(PoolConfig { workers: 2, ..Default::default() });
        let (release_tx, release_rx) = mpsc::channel();
        pool.dispatch(TestJob::Block(release_rx)).unwrap();
        for i in 0..20 {
            pool.dispatch(TestJob::Run(i)).unwrap();
        }
        // The second worker must drain all 20 while the first is blocked.
        let mut got = Vec::new();
        for _ in 0..20 {
            got.push(done.recv_timeout(Duration::from_secs(10)).expect("stolen and run"));
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
        release_tx.send(()).unwrap();
        // After the kill drains, 0..5 run or orphan depending on queue
        // position: everything before the kill runs, nothing hangs.
        let mut served: Vec<usize> = Vec::new();
        for _ in 0..5 {
            served.push(done.recv_timeout(Duration::from_secs(10)).expect("ran before kill"));
        }
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
        assert!(orphans.try_iter().next().is_none(), "nothing queued was stranded");
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
