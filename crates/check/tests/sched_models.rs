//! Deterministic interleaving models of the riskiest serve-path
//! protocols, explored with `sst_check::sched` (loom-style). Each model is
//! a few virtual threads with explicit yield points; the exhaustive runs
//! enumerate *every* schedule, so a passing test is a proof over the model,
//! not a lucky run. Each protocol also has a deliberately broken variant
//! that the explorer must catch — that pins *why* the production code is
//! shaped the way it is.
//!
//! The three full enumerations that take tens of seconds to minutes in a
//! debug build are `#[ignore]`d; run them with
//! `cargo test -p sst-check --features lockdep --release -- --include-ignored`.

use std::sync::Arc;

use sst_check::sched::{explore, yield_now, FailureKind, Strategy, VCell, VCondvar, VMutex};

// ---------------------------------------------------------------------------
// Model 1: dispatch vs. the last worker's death vs. shutdown (pool.rs). One
// queue, one `closed` flag and one alive count share a mutex. The lone
// worker takes one job, runs it outside the lock and dies (the kill probe);
// the dying last worker drains the queue to the orphan path; shutdown
// closes the pool, joins the worker and orphans whatever is left. The
// dispatcher is not ordered against shutdown here, a stronger setting than
// the service's, where shutdown takes the pool by value. Property: every
// dispatched job is run, orphaned or rejected, exactly once. The broken
// variant reads the alive count in its own lock tenure before pushing: the
// worker can die and shutdown can finish in the gap, and the pushed job is
// stranded.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct PoolSt {
    queue: Vec<u32>,
    closed: bool,
    alive: u32,
    /// The worker thread has returned (what `shutdown`'s join waits for).
    exited: bool,
    ran: Vec<u32>,
    orphaned: Vec<u32>,
    rejected: Vec<u32>,
    exits: u32,
}

/// Counts a model thread's exit (inside its last lock tenure); the last
/// one checks the property.
fn pool_finish(g: &mut PoolSt) {
    g.exits += 1;
    if g.exits == 3 {
        let mut seen = [g.ran.clone(), g.orphaned.clone(), g.rejected.clone()].concat();
        seen.sort_unstable();
        assert_eq!(
            seen,
            vec![1, 2],
            "each job run, orphaned or rejected exactly once: ran {:?}, orphaned {:?}, \
             rejected {:?}",
            g.ran,
            g.orphaned,
            g.rejected
        );
    }
}

fn pool_model(
    alive_check_under_push_lock: bool,
) -> Result<sst_check::sched::Stats, Box<sst_check::sched::Failure>> {
    explore(Strategy::Exhaustive { max_executions: 500_000 }, move |run| {
        let st = Arc::new(VMutex::new(PoolSt { alive: 1, ..PoolSt::default() }));
        let cv = Arc::new(VCondvar::new()); // work queued or pool closed
        let joined = Arc::new(VCondvar::new()); // worker exit → shutdown's join
        {
            let (st, cv) = (Arc::clone(&st), Arc::clone(&cv));
            run.spawn("dispatcher", move || {
                for job in [1u32, 2] {
                    let (alive, mut g) = if alive_check_under_push_lock {
                        let g = st.lock();
                        (g.alive, g)
                    } else {
                        // Broken: the check has a lock tenure of its own.
                        let alive = st.lock().alive;
                        (alive, st.lock())
                    };
                    if alive == 0 {
                        g.rejected.push(job);
                    } else {
                        g.queue.push(job);
                        cv.notify_one();
                    }
                    if job == 2 {
                        pool_finish(&mut g);
                    }
                }
            });
        }
        {
            let (st, cv, joined) = (Arc::clone(&st), Arc::clone(&cv), Arc::clone(&joined));
            run.spawn("worker", move || {
                let job = {
                    let mut g = st.lock();
                    loop {
                        if !g.queue.is_empty() {
                            break Some(g.queue.remove(0));
                        }
                        if g.closed {
                            break None;
                        }
                        cv.wait(&mut g);
                    }
                };
                // The handler ran outside the lock (its result is recorded
                // in this tenure); then the worker dies and, as the last
                // one, drains the queue to the orphan path.
                let mut g = st.lock();
                g.ran.extend(job);
                g.alive -= 1;
                if g.alive == 0 {
                    let orphans = std::mem::take(&mut g.queue);
                    g.orphaned.extend(orphans);
                }
                g.exited = true;
                joined.notify_all();
                pool_finish(&mut g);
            });
        }
        {
            let (st, cv, joined) = (Arc::clone(&st), Arc::clone(&cv), Arc::clone(&joined));
            run.spawn("shutdown", move || {
                let mut g = st.lock();
                g.closed = true;
                cv.notify_all();
                while !g.exited {
                    joined.wait(&mut g);
                }
                let leftovers = std::mem::take(&mut g.queue);
                g.orphaned.extend(leftovers);
                pool_finish(&mut g);
            });
        }
    })
}

#[test]
fn pool_death_and_shutdown_answer_every_dispatch_once() {
    let stats = pool_model(true).expect("no schedule may lose or duplicate a job");
    assert!(stats.complete, "exhaustive space must be fully enumerated");
}

#[test]
fn alive_check_outside_the_push_lock_strands_a_job() {
    let failure = pool_model(false).expect_err("some schedule must strand a pushed job");
    match &failure.kind {
        FailureKind::Panic { message, .. } => {
            assert!(message.contains("exactly once"), "{failure}")
        }
        other => panic!("expected the exactly-once assert, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Model 2: condvar park vs. wake (pool.rs `worker_loop`, whose empty check
// and wait share the queue lock's tenure with `dispatch`'s push and
// notify). The fixed protocol keeps the work flag inside the mutex and
// re-checks it before waiting; the buggy variant checks a racy flag outside the lock
// and then parks — the dispatcher's notify can land in the gap and the
// worker sleeps forever. The explorer must find that deadlock.
// ---------------------------------------------------------------------------

#[test]
fn condvar_recheck_under_lock_prevents_lost_wakeup() {
    let stats = explore(Strategy::Exhaustive { max_executions: 100_000 }, |run| {
        let sleep = Arc::new(VMutex::new(false)); // work flag inside the mutex
        let cv = Arc::new(VCondvar::new());
        {
            let (sleep, cv) = (Arc::clone(&sleep), Arc::clone(&cv));
            run.spawn("worker", move || {
                let mut has_work = sleep.lock();
                while !*has_work {
                    cv.wait(&mut has_work);
                }
            });
        }
        {
            let (sleep, cv) = (Arc::clone(&sleep), Arc::clone(&cv));
            run.spawn("dispatcher", move || {
                // Set-and-notify under the same lock (pool.rs dispatch).
                let mut has_work = sleep.lock();
                *has_work = true;
                cv.notify_one();
            });
        }
    })
    .expect("recheck-under-lock never hangs");
    assert!(stats.complete);
}

#[test]
fn racy_flag_check_outside_lock_is_a_lost_wakeup() {
    let result = explore(Strategy::Exhaustive { max_executions: 100_000 }, |run| {
        let flag = Arc::new(VCell::new(false)); // racy: outside the mutex
        let sleep = Arc::new(VMutex::new(()));
        let cv = Arc::new(VCondvar::new());
        {
            let (flag, sleep, cv) = (Arc::clone(&flag), Arc::clone(&sleep), Arc::clone(&cv));
            run.spawn("worker", move || {
                if !flag.get() {
                    // Gap: the dispatcher can set + notify right here.
                    let mut g = sleep.lock();
                    cv.wait(&mut g);
                }
            });
        }
        {
            let (flag, cv) = (Arc::clone(&flag), Arc::clone(&cv));
            run.spawn("dispatcher", move || {
                flag.set(true);
                cv.notify_one(); // lost if the worker has not parked yet
            });
        }
    });
    let failure = result.expect_err("some schedule must lose the wakeup");
    match &failure.kind {
        FailureKind::Deadlock { blocked } => {
            assert_eq!(blocked, &["worker"], "the worker parks forever: {failure}")
        }
        other => panic!("expected a deadlock, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Model 3: SessionStore spill → cold-reload → revalidation (durable.rs).
// The spiller snapshots a resident session, writes the snapshot outside
// the lock, then must revalidate (stamp + identity, modelling the
// dirty-stamp / Arc::ptr_eq check) before evicting — an updater may have
// replaced the session in the gap. Property: the latest version is never
// lost, whether it lives in memory or on disk.
// ---------------------------------------------------------------------------

struct SpillSt {
    /// `(stamp, version)` of the resident session, `None` when spilled.
    resident: Option<(u64, u32)>,
    /// Version of the on-disk snapshot (0 = none).
    disk: u32,
    exits: u32,
}

fn spill_model(
    revalidate: bool,
) -> Result<sst_check::sched::Stats, Box<sst_check::sched::Failure>> {
    explore(Strategy::Exhaustive { max_executions: 100_000 }, move |run| {
        let st = Arc::new(VMutex::new(SpillSt { resident: Some((1, 1)), disk: 0, exits: 0 }));
        let finish = |st: &Arc<VMutex<SpillSt>>| {
            let mut g = st.lock();
            g.exits += 1;
            if g.exits == 2 {
                let visible = g.resident.map(|(_, v)| v).unwrap_or(g.disk);
                assert_eq!(visible, 2, "update must never be lost to a stale spill");
            }
        };
        {
            let st = Arc::clone(&st);
            run.spawn("spiller", move || {
                let snap = st.lock().resident;
                if let Some((stamp, version)) = snap {
                    yield_now(); // serialize the snapshot outside the lock
                    let mut g = st.lock();
                    if !revalidate || g.resident == Some((stamp, version)) {
                        g.disk = version;
                        g.resident = None; // evict
                    }
                }
                finish(&st);
            });
        }
        {
            let st = Arc::clone(&st);
            run.spawn("updater", move || {
                {
                    let mut g = st.lock();
                    match g.resident {
                        // In-place update bumps the stamp (spiller's
                        // snapshot is now stale).
                        Some((stamp, _)) => g.resident = Some((stamp + 1, 2)),
                        // Already spilled: cold-reload from disk, update.
                        None => {
                            let reloaded = g.disk;
                            g.resident = Some((100, reloaded + 1));
                        }
                    }
                }
                finish(&st);
            });
        }
    })
}

#[test]
fn spill_revalidation_preserves_the_update() {
    let stats = spill_model(true).expect("revalidated spill never loses the update");
    assert!(stats.complete, "exhaustive space must be fully enumerated");
}

#[test]
fn unconditional_evict_after_snapshot_loses_the_update() {
    let failure = spill_model(false).expect_err("stale evict must lose the update somewhere");
    assert!(
        matches!(failure.kind, FailureKind::Panic { .. }),
        "loss surfaces as the model assertion: {failure}"
    );
}

// ---------------------------------------------------------------------------
// Model 4: TraceSink bounded ring — producer vs. drainer vs. close
// (telemetry.rs). Capacity-1 ring: a full ring drops (counted), close
// wakes the drainer so buffered events still flush. Property: every
// emitted event is either drained or counted as dropped — and the variant
// where close() forgets to notify deadlocks the drainer, which is exactly
// why the real `TraceSink::close` notifies under the state lock.
// ---------------------------------------------------------------------------

struct RingSt {
    buf: Option<u32>, // capacity-1 ring
    closed: bool,
    dropped: u32,
    out: Vec<u32>,
    exits: u32,
}

fn ring_model(
    strategy: Strategy,
    close_notifies: bool,
) -> Result<sst_check::sched::Stats, Box<sst_check::sched::Failure>> {
    explore(strategy, move |run| {
        let st = Arc::new(VMutex::new(RingSt {
            buf: None,
            closed: false,
            dropped: 0,
            out: Vec::new(),
            exits: 0,
        }));
        let cv = Arc::new(VCondvar::new());
        let finish = |st: &Arc<VMutex<RingSt>>| {
            let mut g = st.lock();
            g.exits += 1;
            if g.exits == 3 {
                assert!(g.buf.is_none(), "drainer flushes the ring before exiting");
                assert_eq!(
                    g.out.len() + g.dropped as usize,
                    2,
                    "every event drained or counted as dropped"
                );
            }
        };
        {
            let (st, cv) = (Arc::clone(&st), Arc::clone(&cv));
            run.spawn("producer", move || {
                for event in [1u32, 2] {
                    let mut g = st.lock();
                    if g.closed || g.buf.is_some() {
                        g.dropped += 1; // full or closed ring drops, counted
                    } else {
                        g.buf = Some(event);
                        cv.notify_one();
                    }
                }
                finish(&st);
            });
        }
        {
            let (st, cv) = (Arc::clone(&st), Arc::clone(&cv));
            run.spawn("drainer", move || {
                {
                    let mut g = st.lock();
                    loop {
                        if let Some(event) = g.buf.take() {
                            g.out.push(event);
                            continue;
                        }
                        if g.closed {
                            break;
                        }
                        cv.wait(&mut g);
                    }
                }
                finish(&st);
            });
        }
        {
            let (st, cv) = (Arc::clone(&st), Arc::clone(&cv));
            run.spawn("closer", move || {
                {
                    let mut g = st.lock();
                    g.closed = true;
                    if close_notifies {
                        cv.notify_all();
                    }
                }
                finish(&st);
            });
        }
    })
}

#[test]
#[ignore = "exhaustive, 30-250 s in debug; CI runs it in release with --include-ignored"]
fn trace_ring_accounts_for_every_event() {
    let stats = ring_model(Strategy::Exhaustive { max_executions: 500_000 }, true)
        .expect("drain + drop accounting holds in every schedule");
    assert!(stats.complete, "exhaustive space must be fully enumerated");
}

#[test]
fn trace_ring_random_walks_for_ci() {
    // The bounded, seeded sweep CI runs in addition to the exhaustive
    // pass: deterministic per seed, cheap at any model size.
    ring_model(Strategy::Random { seed: 0x5357, walks: 200 }, true)
        .expect("seeded walks agree with the exhaustive pass");
}

#[test]
fn close_without_notify_hangs_the_drainer() {
    let failure = ring_model(Strategy::Exhaustive { max_executions: 500_000 }, false)
        .expect_err("silent close must strand the drainer in some schedule");
    match &failure.kind {
        FailureKind::Deadlock { blocked } => {
            assert!(blocked.contains(&"drainer".to_string()), "{failure}")
        }
        other => panic!("expected a deadlock, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Model 5: leader/follower group commit (durable.rs `DurableStore::append`).
// Each appender enqueues its record under the state lock. With no commit in
// flight it becomes the leader: it takes up to `cap` pending records,
// writes them outside the lock, then publishes `durable` (or, on a failed
// write, poisons the store and drops what is still pending), clears its
// `committing` flag and wakes every waiter. Otherwise it waits on `done` and
// re-checks, leading the next batch itself if its record is still pending.
// Three appenders, so a leader commits its followers' records and
// leadership is handed on. Properties: (1) write-ahead — an appender is
// acknowledged only if its own record was written; (2) every appender
// returns — a stranded one shows up as a deadlock. Waiters check coverage
// (`durable`) before the poison, which is sound because a poisoned store
// never advances `durable`. The broken variants pin the shape of the code:
//   * an `if`-wait releases an appender on a foreign batch's wakeup;
//   * per-batch failure bookkeeping (remember the failed batch's last seq
//     and keep committing): a waiter that sleeps through the failure wakes
//     to a later batch's `durable`, which covers its lost record;
//   * a leader that returns its write error straight away (through `?`)
//     leaves its flag set and never wakes the followers parked on it;
//   * a leader that clears its flag but skips the wakeup strands them too.
// ---------------------------------------------------------------------------

/// Which protocol the appenders run.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Commit {
    /// durable.rs: `while`-wait, fail-stop poison, flag cleared and every
    /// waiter woken after each batch.
    Fixed,
    /// Broken: release after a single wait.
    IfWait,
    /// Broken: record `failed_batch_seq` for a failed batch and carry on.
    PerBatchSeq,
    /// Broken: a failed leader returns at once, flag set, nobody woken.
    ReturnsEarly,
    /// Broken: a failed leader clears its flag but wakes nobody.
    SkipsNotify,
}

struct CommitSt {
    assigned: u64,
    durable: u64,
    pending: Vec<u64>,
    committing: bool,
    /// Records that actually reached the file.
    written: Vec<u64>,
    poisoned: bool,
    failed_batch_seq: u64,
}

/// Runs the model with batches of at most `cap` records; the write of the
/// batch holding record `failing` (if any) fails.
fn group_commit_model(
    strategy: Strategy,
    cap: usize,
    failing: Option<u64>,
    protocol: Commit,
) -> Result<sst_check::sched::Stats, Box<sst_check::sched::Failure>> {
    explore(strategy, move |run| {
        let st = Arc::new(VMutex::new(CommitSt {
            assigned: 0,
            durable: 0,
            pending: Vec::new(),
            committing: false,
            written: Vec::new(),
            poisoned: false,
            failed_batch_seq: 0,
        }));
        let done = Arc::new(VCondvar::new());

        for name in ["appender-a", "appender-b", "appender-c"] {
            let (st, done) = (Arc::clone(&st), Arc::clone(&done));
            run.spawn(name, move || {
                let mut g = st.lock();
                if g.poisoned {
                    return; // refused before enqueueing
                }
                g.assigned += 1;
                let seq = g.assigned;
                g.pending.push(seq);
                let acked = loop {
                    if g.durable >= seq {
                        break true;
                    }
                    let refused = match protocol {
                        Commit::PerBatchSeq => g.failed_batch_seq >= seq,
                        _ => g.poisoned,
                    };
                    if refused {
                        break false;
                    }
                    if g.committing {
                        done.wait(&mut g);
                        if protocol == Commit::IfWait {
                            break true;
                        }
                        continue;
                    }
                    // Lead: this record is still pending, so the batch is
                    // never empty.
                    g.committing = true;
                    let take = g.pending.len().min(cap);
                    let batch: Vec<u64> = g.pending.drain(..take).collect();
                    let last = batch[batch.len() - 1];
                    drop(g);
                    yield_now(); // the coalesced write + flush/fsync, outside the lock
                    let failed = failing.is_some_and(|f| batch.contains(&f));
                    if failed && protocol != Commit::PerBatchSeq {
                        // `with_writer` poisons the store in its own tenure.
                        st.lock().poisoned = true;
                        if protocol == Commit::ReturnsEarly {
                            return;
                        }
                    }
                    g = st.lock();
                    if !failed {
                        g.written.extend(&batch);
                        g.durable = last;
                    } else if protocol == Commit::PerBatchSeq {
                        g.failed_batch_seq = last;
                    } else {
                        g.pending.clear();
                    }
                    g.committing = false;
                    if !(failed && protocol == Commit::SkipsNotify) {
                        done.notify_all();
                    }
                };
                if acked {
                    assert!(
                        g.written.contains(&seq),
                        "acknowledged record {seq} was never written"
                    );
                }
            });
        }
    })
}

#[test]
#[ignore = "exhaustive, 30-250 s in debug; CI runs it in release with --include-ignored"]
fn group_commit_releases_only_durable_responses() {
    let stats = group_commit_model(
        Strategy::Exhaustive { max_executions: 500_000 },
        2,
        None,
        Commit::Fixed,
    )
    .expect("write-ahead holds and every appender returns in every schedule");
    assert!(stats.complete, "exhaustive space must be fully enumerated");
}

#[test]
fn group_commit_random_walks_for_ci() {
    group_commit_model(Strategy::Random { seed: 0x5357, walks: 200 }, 2, None, Commit::Fixed)
        .expect("seeded walks agree with the exhaustive pass");
}

#[test]
fn single_wait_release_breaks_the_durable_contract() {
    let failure = group_commit_model(
        Strategy::Exhaustive { max_executions: 500_000 },
        2,
        None,
        Commit::IfWait,
    )
    .expect_err("some schedule wakes an appender on a foreign batch");
    match &failure.kind {
        FailureKind::Panic { message, .. } => {
            assert!(message.contains("never written"), "{failure}")
        }
        other => panic!("expected the acknowledgement assert, got {other:?}"),
    }
}

#[test]
#[ignore = "exhaustive, 30-250 s in debug; CI runs it in release with --include-ignored"]
fn failed_commit_is_never_acknowledged() {
    let stats = group_commit_model(
        Strategy::Exhaustive { max_executions: 500_000 },
        1,
        Some(2),
        Commit::Fixed,
    )
    .expect("fail-stop acknowledges only written records and returns every appender");
    assert!(stats.complete, "exhaustive space must be fully enumerated");
}

#[test]
fn per_batch_failure_mark_acknowledges_a_lost_record() {
    let failure = group_commit_model(
        Strategy::Exhaustive { max_executions: 500_000 },
        1,
        Some(2),
        Commit::PerBatchSeq,
    )
    .expect_err("some schedule wakes the failed appender after a later commit");
    match &failure.kind {
        FailureKind::Panic { message, .. } => {
            assert!(message.contains("never written"), "{failure}")
        }
        other => panic!("expected the acknowledgement assert, got {other:?}"),
    }
}

/// A failed leader that breaks the handoff must strand a follower.
fn assert_strands_a_follower(protocol: Commit) {
    let failure =
        group_commit_model(Strategy::Exhaustive { max_executions: 500_000 }, 1, Some(2), protocol)
            .expect_err("some follower sleeps through the failed batch");
    match &failure.kind {
        FailureKind::Deadlock { blocked } => assert!(
            blocked.iter().any(|t| t.starts_with("appender")),
            "an appender waits forever on a leader that is gone: {failure}"
        ),
        other => panic!("expected a deadlock, got {other:?}"),
    }
}

#[test]
fn leader_returning_its_write_error_strands_followers() {
    assert_strands_a_follower(Commit::ReturnsEarly);
}

#[test]
fn leader_skipping_the_wakeup_after_a_failed_write_strands_followers() {
    assert_strands_a_follower(Commit::SkipsNotify);
}
