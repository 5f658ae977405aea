//! Serve-path lockdep gates: drive real traffic across every subsystem
//! that takes locks (pool dispatch, session lanes, durable journal +
//! snapshots, trace sink) and assert the recorded lock-order graph is
//! acyclic, plus the PR 7 shutdown pin — the trace sink closes LAST, after
//! the final durable checkpoint, so checkpoint events reach the file.
//!
//! `sst_check::lockdep::assert_acyclic()` is a no-op without the `lockdep`
//! feature, so this suite always runs; the CI `check` job re-runs it with
//! `--features lockdep`, where every `parking_lot::Mutex` acquisition in
//! the workspace records `held → acquired` edges and the gate bites.

use std::path::PathBuf;

use sst_core::delta::InstanceDelta;
use sst_core::instance::{Job as CoreJob, UniformInstance};
use sst_core::telemetry::TraceSink;
use sst_portfolio::protocol::{
    parse_response, request_to_json, session_request_to_json, Request, Response, SessionRequest,
    SessionVerb,
};
use sst_portfolio::service::testing::{buffer_writer, writer_to};
use sst_portfolio::service::{ServeConfig, Service};
use sst_portfolio::ProblemInstance;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sst-lockdep-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_instance(seed: u64) -> ProblemInstance {
    ProblemInstance::Uniform(
        UniformInstance::identical(
            2,
            vec![3, 2],
            (0..8).map(|i| CoreJob::new((i % 2) as usize, 1 + (i + seed) % 5)).collect(),
        )
        .unwrap(),
    )
}

fn solve_request(id: u64) -> Request {
    Request {
        id,
        instance: small_instance(id),
        budget_ms: Some(20),
        top_k: Some(2),
        seed: Some(id),
    }
}

fn session_lifecycle(sid: u64, base_id: u64) -> Vec<SessionRequest> {
    vec![
        SessionRequest {
            id: base_id,
            verb: SessionVerb::Create { sid, instance: small_instance(sid) },
        },
        SessionRequest {
            id: base_id + 1,
            verb: SessionVerb::Delta {
                sid,
                deltas: vec![
                    InstanceDelta::AddJob { class: 0, times: vec![4] },
                    InstanceDelta::RemoveJob { job: 1 },
                ],
            },
        },
        SessionRequest {
            id: base_id + 2,
            verb: SessionVerb::Solve { sid, budget_ms: Some(20), top_k: Some(2), seed: Some(sid) },
        },
    ]
}

/// Mixed traffic over every locking subsystem at once — solves racing on
/// the shared pool, durable session verbs on keyed lanes (journal +
/// spill), the metrics probe, a trace sink — then the lockdep gate.
#[test]
fn full_serve_path_lock_graph_is_acyclic() {
    let dir = tmp_dir("full");
    let (sink, _trace_buf) = TraceSink::to_shared_buffer();
    let svc = Service::start(ServeConfig {
        workers: 2,
        fault_injection: false,
        data_dir: Some(dir.clone()),
        trace: Some(sink),
        max_sessions: 2, // small cap: the third session forces an LRU spill
        ..Default::default()
    });
    let (buffer, _) = buffer_writer();
    for i in 0..4 {
        svc.dispatch(request_to_json(&solve_request(i)), writer_to(&buffer));
    }
    for sid in 0..3 {
        for req in session_lifecycle(sid, 100 + sid * 10) {
            svc.dispatch(session_request_to_json(&req), writer_to(&buffer));
        }
    }
    svc.dispatch("{\"metrics\": true}".into(), writer_to(&buffer));
    let summary = svc.shutdown();
    assert_eq!(summary.errors, 0, "traffic must be clean for the gate to be meaningful");
    let _ = std::fs::remove_dir_all(&dir);
    sst_check::lockdep::assert_acyclic();
}

/// The PR 7 shutdown pin: the trace sink must close LAST. The final
/// durable checkpoint's `snapshot` events land in the trace and the file
/// ends with a `sink_close` record reporting zero drops — reordering
/// close before the checkpoint would lose exactly those events.
#[test]
fn shutdown_closes_trace_after_final_checkpoint() {
    let dir = tmp_dir("shutdown-order");
    let (sink, trace_buf) = TraceSink::to_shared_buffer();
    let svc = Service::start(ServeConfig {
        workers: 2,
        data_dir: Some(dir.clone()),
        trace: Some(sink),
        ..Default::default()
    });
    let (buffer, _) = buffer_writer();
    // Two sessions left hot (no close): shutdown must checkpoint both.
    for sid in [7, 8] {
        for req in session_lifecycle(sid, sid * 10) {
            svc.dispatch(session_request_to_json(&req), writer_to(&buffer));
        }
    }
    let summary = svc.shutdown();
    assert_eq!(summary.errors, 0);
    assert_eq!(summary.trace_dropped, 0);

    let text = String::from_utf8(trace_buf.lock().clone()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let close_at = lines
        .iter()
        .position(|l| l.contains("\"event\": \"sink_close\""))
        .expect("trace must end with the sink_close record");
    assert_eq!(close_at, lines.len() - 1, "sink_close must be the LAST event:\n{text}");
    assert!(lines[close_at].contains("\"dropped\": 0"), "zero-drop close: {}", lines[close_at]);
    let snapshots: Vec<usize> = lines
        .iter()
        .enumerate()
        .filter_map(|(i, l)| l.contains("\"event\": \"snapshot\"").then_some(i))
        .collect();
    assert!(
        snapshots.len() >= 2,
        "shutdown checkpoint must snapshot both hot sessions into the trace:\n{text}"
    );
    assert!(
        snapshots.iter().all(|&i| i < close_at),
        "checkpoint events precede the close (close happens last)"
    );
    let _ = std::fs::remove_dir_all(&dir);
    sst_check::lockdep::assert_acyclic();
}

/// Cross-shard traffic under the sharded store + group commit: sessions
/// spread over 4 lanes/shards with a tiny capacity, so spills pick LRU
/// victims on *other* shards (shard-lock → snapshot IO → victim
/// shard-lock revalidation) while every journal append funnels through
/// the `durable.commit` / `durable.journal` locks under fsync, taken by
/// whichever lane leads the batch.
/// All shard guards share one lockdep name ("session.shard"), so holding
/// two shard locks at once would record a self-edge — a cycle — and the
/// gate would bite.
#[test]
fn cross_shard_spills_and_group_commit_keep_the_lock_graph_acyclic() {
    let dir = tmp_dir("cross-shard");
    let svc = Service::start(ServeConfig {
        workers: 2,
        session_lanes: 4, // 4 store shards too (shard-per-lane)
        max_sessions: 3,  // far fewer slots than sessions: constant spills
        data_dir: Some(dir.clone()),
        durability: sst_portfolio::Durability::Fsync,
        ..Default::default()
    });
    let (buffer, _) = buffer_writer();
    // 8 sids cover all 4 shards (splitmix64 spreads consecutive sids);
    // interleave the lifecycles so victims are usually on foreign shards.
    let sids: Vec<u64> = (1..=8).collect();
    let lifecycles: Vec<Vec<SessionRequest>> =
        sids.iter().map(|&sid| session_lifecycle(sid, 1000 + sid * 10)).collect();
    for step in 0..3 {
        for lc in &lifecycles {
            svc.dispatch(session_request_to_json(&lc[step]), writer_to(&buffer));
        }
    }
    svc.dispatch("{\"metrics\": true}".into(), writer_to(&buffer));
    let summary = svc.shutdown();
    assert_eq!(summary.errors, 0, "traffic must be clean for the gate to be meaningful");
    assert!(summary.sessions.spills >= 5, "8 sessions into 3 slots must spill: {summary:?}");
    assert!(summary.journal_batches >= 1, "group commit must have run: {summary:?}");
    let _ = std::fs::remove_dir_all(&dir);
    sst_check::lockdep::assert_acyclic();
}

/// The worker-death path (`on_worker_death` re-queues the dead worker's
/// backlog under the injector + sleep locks) holds the same global lock
/// order as normal dispatch.
#[test]
fn worker_death_requeue_keeps_the_lock_order_clean() {
    let svc =
        Service::start(ServeConfig { workers: 2, fault_injection: true, ..Default::default() });
    let (buffer, _) = buffer_writer();
    svc.dispatch("{\"kill_worker\": true}".into(), {
        let (_, out) = buffer_writer();
        out
    });
    for i in 0..6 {
        svc.dispatch(request_to_json(&solve_request(i)), writer_to(&buffer));
    }
    let summary = svc.shutdown();
    assert_eq!(summary.count, 6, "survivor serves the full backlog");
    assert_eq!(summary.errors, 0);
    let text = String::from_utf8(buffer.lock().clone()).unwrap();
    let mut answered: Vec<u64> = text
        .lines()
        .map(|l| match parse_response(l).expect("parses") {
            Response::Ok { id, .. } => id,
            other => panic!("unexpected response: {other:?}"),
        })
        .collect();
    answered.sort_unstable();
    assert_eq!(answered, (0..6).collect::<Vec<_>>());
    sst_check::lockdep::assert_acyclic();
}
