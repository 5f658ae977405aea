//! Head-of-line blocking regression test (the PR 2 failure mode the
//! work-stealing pool exists to fix): one long request followed by ten
//! short ones.
//!
//! * **Two workers**: the long race occupies one worker, the other drains
//!   every short request from the shared injector — all ten short
//!   responses must arrive before the long one.
//! * **One worker** (the control): FIFO forces every short request to
//!   finish behind the long race, which proves the workload really blocks
//!   a worker — so the two-worker assertion cannot pass vacuously.

use parking_lot::Mutex;
use sst_core::instance::{Job as CoreJob, UniformInstance};
use sst_portfolio::protocol::{parse_response, request_to_json, Request, Response};
use sst_portfolio::service::testing::writer_to;
use sst_portfolio::service::{ServeConfig, Service};
use sst_portfolio::ProblemInstance;

const LONG_ID: u64 = 999;
const SHORTS: u64 = 10;

/// A large unrelated instance whose race cannot finish quickly: big enough
/// that the selector drops LP rounding (`n·m > 6000` — one simplex solve
/// has no internal cancel poll, so it must not be raced under a tight
/// test clock), leaving descent and annealing, which poll the token and
/// run until the 250 ms deadline on an instance this size.
fn long_request() -> Request {
    let inst = sst_gen::unrelated(&sst_gen::UnrelatedParams {
        n: 1500,
        m: 30,
        k: 15,
        seed: 7,
        ..Default::default()
    });
    Request {
        id: LONG_ID,
        instance: ProblemInstance::Unrelated(inst),
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

/// Runs the workload and returns response ids in completion order.
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
    text.lines()
        .map(|line| match parse_response(line).expect("parses") {
            Response::Ok { id, .. } => id,
            other => panic!("unexpected response ({workers} workers): {other:?}"),
        })
        .collect()
}

#[test]
fn work_stealing_serves_short_requests_past_a_long_one() {
    let order = completion_order(2);
    let long_pos = order.iter().position(|&id| id == LONG_ID).expect("long answered");
    // `long_pos` equals the number of short requests that finished first.
    // Normally all 10 do; the margin of 2 absorbs scheduling noise on a
    // contended single-core CI runner (10 shorts × ~10-20 ms must fit in
    // the long race's 250 ms) without weakening the claim — the one-worker
    // control below finishes every short behind the long request.
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
