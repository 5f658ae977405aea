//! Head-of-line blocking regression test (the PR 2 failure mode the
//! shared FIFO pool exists to fix): one long request followed by ten short
//! ones.
//!
//! * **Two workers**: the long race occupies one worker, the other takes
//!   every short request from the shared queue — all ten short responses
//!   must arrive before the long one.
//! * **One worker** (the control): FIFO forces every short request to
//!   finish behind the long race, which proves the workload really blocks
//!   a worker — so the two-worker assertion cannot pass vacuously.
//!
//! Both tests first check that the long race really ran for most of its
//! 250 ms budget (its reported `micros`), so neither can pass on a long
//! request that happened to end early.

use parking_lot::Mutex;
use sst_core::instance::{Job as CoreJob, UniformInstance};
use sst_portfolio::protocol::{parse_response, request_to_json, Request, Response};
use sst_portfolio::service::testing::writer_to;
use sst_portfolio::service::{ServeConfig, Service};
use sst_portfolio::ProblemInstance;

const LONG_ID: u64 = 999;
const SHORTS: u64 = 10;

/// Floor on the long race's reported wall clock: most of its budget.
const LONG_MIN_MICROS: u64 = 200_000;

/// An 18-job instance on five machines of distinct speeds, which the
/// selector races with branch-and-bound first. Distinct speeds defeat the
/// search's machine-symmetry pruning, so it is nowhere near done at the
/// 250 ms deadline (a release build on a 2-vCPU Xeon VM is still searching
/// after 3 s), and the race runs until the deadline in debug and release
/// builds alike.
fn long_request() -> Request {
    let jobs = (0..18).map(|j| CoreJob::new(0, 50 + (j * 37) % 101)).collect();
    let inst = UniformInstance::new(vec![2, 3, 4, 5, 6], vec![10], jobs).unwrap();
    Request {
        id: LONG_ID,
        instance: ProblemInstance::Uniform(inst),
        budget_ms: Some(250),
        top_k: Some(3),
        seed: Some(7),
    }
}

/// Tiny uniform instances: each race completes in a few milliseconds.
fn short_request(i: u64) -> Request {
    let inst = UniformInstance::identical(
        2,
        vec![2],
        (0..6).map(|x| CoreJob::new(0, 1 + (x + i) % 4)).collect(),
    )
    .unwrap();
    Request {
        id: i,
        instance: ProblemInstance::Uniform(inst),
        budget_ms: Some(10),
        top_k: Some(2),
        seed: Some(i),
    }
}

/// Runs the workload and returns response ids in completion order, after
/// checking that the long race lasted at least [`LONG_MIN_MICROS`].
fn completion_order(workers: usize) -> Vec<u64> {
    let svc = Service::start(ServeConfig { workers, ..Default::default() });
    let buffer = std::sync::Arc::new(Mutex::new(Vec::new()));
    let dispatch = |req: &Request| {
        svc.dispatch(request_to_json(req), writer_to(&buffer));
    };
    dispatch(&long_request());
    for i in 0..SHORTS {
        dispatch(&short_request(i));
    }
    let summary = svc.shutdown();
    assert_eq!(summary.count, SHORTS + 1, "every request answered ({workers} workers)");
    assert_eq!(summary.errors, 0, "({workers} workers)");
    let text = String::from_utf8(buffer.lock().clone()).unwrap();
    let mut order = Vec::new();
    for line in text.lines() {
        match parse_response(line).expect("parses") {
            Response::Ok { id, micros, .. } => {
                if id == LONG_ID {
                    assert!(
                        micros >= LONG_MIN_MICROS,
                        "the long race must run to its deadline, ran {micros} µs ({workers} workers)"
                    );
                }
                order.push(id);
            }
            other => panic!("unexpected response ({workers} workers): {other:?}"),
        }
    }
    order
}

#[test]
fn idle_worker_serves_short_requests_past_a_long_one() {
    let order = completion_order(2);
    let long_pos = order.iter().position(|&id| id == LONG_ID).expect("long answered");
    // `long_pos` equals the number of short requests that finished first.
    // Normally all 10 do; the margin of 2 absorbs scheduling noise on a
    // contended single-core CI runner (10 shorts × ~10-20 ms must fit in
    // the long race's 250 ms, which `completion_order` has checked it
    // used) without weakening the claim — the one-worker control below
    // finishes every short behind the long request.
    assert!(
        long_pos >= SHORTS as usize - 2,
        "short requests must not be blocked behind the 250 ms one: {order:?}"
    );
}

#[test]
fn one_worker_finishes_shorts_behind_the_long_request() {
    let order = completion_order(1);
    // The long request is dispatched first and the lone worker runs the
    // queue in order, so every short waits out the full race.
    assert_eq!(order.first(), Some(&LONG_ID), "FIFO must run the long race first: {order:?}");
}
