//! Kill-and-replay smoke against the **real** `sst serve --tcp` binary
//! with a durability root: the CI gate for crash recovery.
//!
//! * Sessions are created and mutated over TCP with `--durability flush`,
//!   then the server dies **non-gracefully** (SIGKILL mid-stream, or the
//!   `{"crash": true}` abort probe). No shutdown hook runs.
//! * A restart with the same `--data-dir` must recover every live session
//!   from snapshots + journal replay: each answers `solve` with a
//!   solution that is valid on the client-side replayed instance and no
//!   worse than a stateless greedy run, and keeps accepting `delta`s.
//! * A hand-truncated journal tail (torn final line, as a crash mid-write
//!   leaves behind) must not panic the server: the well-formed prefix is
//!   recovered, the torn suffix is dropped.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use sst_core::delta::InstanceDelta;
use sst_core::instance::UniformInstance;
use sst_core::model::MachineModel;
use sst_portfolio::protocol::{
    parse_response, session_request_to_json, Response, SessionRequest, SessionVerb,
};
use sst_portfolio::ProblemInstance;

fn spawn_server(data_dir: &Path, max_sessions: &str) -> (Child, String) {
    spawn_server_opts(data_dir, max_sessions, "flush")
}

fn spawn_server_opts(data_dir: &Path, max_sessions: &str, durability: &str) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sst"))
        .args([
            "serve",
            "--tcp",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--budget-ms",
            "40",
            "--max-sessions",
            max_sessions,
            "--fault-injection",
            "true",
            "--data-dir",
            data_dir.to_str().expect("utf-8 temp path"),
            "--durability",
            durability,
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sst serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("read announce line");
    let addr = line
        .trim()
        .strip_prefix("sst-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected announce line: {line:?}"))
        .to_string();
    (child, addr)
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client { reader: BufReader::new(stream.try_clone().expect("clone")), writer: stream }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send");
        self.writer.flush().expect("flush");
    }

    fn roundtrip(&mut self, line: &str) -> Response {
        self.send(line);
        let mut resp = String::new();
        assert!(self.reader.read_line(&mut resp).expect("read") > 0, "early EOF");
        parse_response(resp.trim()).unwrap_or_else(|e| panic!("bad response {resp:?}: {e}"))
    }

    fn session(&mut self, id: u64, verb: SessionVerb) -> Response {
        self.roundtrip(&session_request_to_json(&SessionRequest { id, verb }))
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sst-replay-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn base_instance(seed: u64) -> UniformInstance {
    sst_gen::uniform(&sst_gen::UniformParams { n: 12, m: 3, k: 4, seed, ..Default::default() })
}

fn deltas_for(sid: u64) -> Vec<InstanceDelta> {
    vec![
        InstanceDelta::AddJob { class: 0, times: vec![9 + sid] },
        InstanceDelta::ResizeSetup { class: 1, times: vec![3 + sid] },
    ]
}

fn apply(base: &UniformInstance, deltas: &[InstanceDelta]) -> ProblemInstance {
    let mut inst = base.clone();
    for d in deltas {
        inst = sst_core::model::Uniform::apply_delta(&inst, d).expect("valid deltas");
    }
    ProblemInstance::Uniform(inst)
}

/// Drives create + delta traffic for sids 1..=3 and returns each session's
/// client-side replayed instance (the state the recovered server must
/// still be valid against).
fn seed_sessions(client: &mut Client) -> Vec<(u64, ProblemInstance)> {
    let mut replayed = Vec::new();
    for sid in 1..=3u64 {
        let base = base_instance(sid);
        let create = client.session(
            sid * 10,
            SessionVerb::Create { sid, instance: ProblemInstance::Uniform(base.clone()) },
        );
        assert!(matches!(create, Response::Session { .. }), "{create:?}");
        let deltas = deltas_for(sid);
        let delta =
            client.session(sid * 10 + 1, SessionVerb::Delta { sid, deltas: deltas.clone() });
        assert!(matches!(delta, Response::Ok { .. }), "{delta:?}");
        replayed.push((sid, apply(&base, &deltas)));
    }
    replayed
}

/// Asserts every session in `replayed` answers a solve on the restarted
/// server with a schedule valid on the client-side instance and no worse
/// than a stateless greedy run, then still accepts another delta.
fn assert_recovered(client: &mut Client, replayed: &[(u64, ProblemInstance)]) {
    for (sid, mutated) in replayed {
        let solve = client.session(
            sid * 10 + 2,
            SessionVerb::Solve { sid: *sid, budget_ms: Some(40), top_k: Some(2), seed: Some(1) },
        );
        let Response::Ok { makespan, ref solution, .. } = solve else {
            panic!("recovered session {sid} must answer solve: {solve:?}");
        };
        let reval = mutated.evaluate(solution).expect("solution valid on replayed instance");
        assert_eq!(reval, makespan, "session {sid}: reported makespan matches re-evaluation");
        let greedy = mutated.greedy();
        assert!(
            !greedy.cost.better_than(&makespan),
            "session {sid}: recovered solve ({makespan:?}) must hold the stateless \
             greedy floor ({:?})",
            greedy.cost
        );
        // The session keeps accepting verbs after recovery.
        let extra = vec![InstanceDelta::AddJob { class: 0, times: vec![5] }];
        let delta =
            client.session(sid * 10 + 3, SessionVerb::Delta { sid: *sid, deltas: extra.clone() });
        let Response::Ok { makespan: repaired, ref solution, .. } = delta else {
            panic!("recovered session {sid} must accept deltas: {delta:?}");
        };
        let mut expect = mutated.clone();
        for d in &extra {
            expect = match expect {
                ProblemInstance::Uniform(u) => ProblemInstance::Uniform(
                    sst_core::model::Uniform::apply_delta(&u, d).expect("valid"),
                ),
                other => other,
            };
        }
        assert_eq!(expect.evaluate(solution).expect("valid after extra delta"), repaired);
    }
}

#[test]
fn sigkill_mid_stream_then_restart_replays_every_session() {
    let dir = tmp_dir("sigkill");
    let (mut child, addr) = spawn_server(&dir, "2");
    let mut client = Client::connect(&addr);
    // max-sessions 2, three sessions: one is spilled to disk during
    // traffic — recovery must bring back hot *and* spilled sessions.
    let replayed = seed_sessions(&mut client);
    // Non-graceful death mid-stream: SIGKILL, no shutdown hook, no
    // checkpoint. Only the flushed journal (+ the spill snapshot) remain.
    child.kill().expect("SIGKILL server");
    let _ = child.wait();

    let (mut child, addr) = spawn_server(&dir, "2");
    let mut client = Client::connect(&addr);
    assert_recovered(&mut client, &replayed);
    let metrics = client.roundtrip("{\"metrics\": true}");
    let Response::Metrics(m) = metrics else { panic!("{metrics:?}") };
    assert_eq!(m.sessions.recovered, 3, "all three sessions recovered");
    assert!(m.sessions.journal_appends >= 3, "post-restart deltas are journaled");
    assert!(
        m.sessions.cold_reloads >= 1,
        "the over-capacity recovered session reloads from its snapshot on touch"
    );
    child.kill().expect("kill server");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_probe_aborts_the_process_and_the_journal_replays() {
    let dir = tmp_dir("crash");
    let (mut child, addr) = spawn_server(&dir, "8");
    let mut client = Client::connect(&addr);
    let replayed = seed_sessions(&mut client);
    // The abort probe: process::abort, no response line, no flush hook.
    client.send("{\"crash\": true}");
    let status = child.wait().expect("server exits");
    assert!(!status.success(), "crash probe must end the process abnormally: {status:?}");

    let (mut child, addr) = spawn_server(&dir, "8");
    let mut client = Client::connect(&addr);
    assert_recovered(&mut client, &replayed);
    child.kill().expect("kill server");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The graceful-shutdown flush pin (SIGTERM-equivalent): stdin mode under
/// `--durability fsync`, whose appends go through group commit, closed
/// by stdin EOF.
/// Every acknowledged verb must be on the journal *before* the final
/// checkpoint runs, so a restart recovers every session — a shutdown
/// that lost a pending commit batch would lose the last verbs and fail
/// the replay assertions below.
#[test]
fn stdin_eof_shutdown_flushes_the_commit_batch_under_fsync() {
    let dir = tmp_dir("stdin-eof");
    let mut child = Command::new(env!("CARGO_BIN_EXE_sst"))
        .args([
            "serve",
            "--workers",
            "2",
            "--budget-ms",
            "40",
            "--max-sessions",
            "8",
            "--data-dir",
            dir.to_str().expect("utf-8 temp path"),
            "--durability",
            "fsync",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sst serve (stdin mode)");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));

    // create + delta for sids 1..=3, reading each response before the next
    // verb (stdin mode answers in order on stdout).
    let mut replayed = Vec::new();
    for sid in 1..=3u64 {
        let base = base_instance(sid);
        let deltas = deltas_for(sid);
        for (id, verb) in [
            (
                sid * 10,
                SessionVerb::Create { sid, instance: ProblemInstance::Uniform(base.clone()) },
            ),
            (sid * 10 + 1, SessionVerb::Delta { sid, deltas: deltas.clone() }),
        ] {
            writeln!(stdin, "{}", session_request_to_json(&SessionRequest { id, verb }))
                .expect("send verb");
            stdin.flush().expect("flush stdin");
            let mut resp = String::new();
            assert!(stdout.read_line(&mut resp).expect("read response") > 0, "early EOF");
            let resp = parse_response(resp.trim()).expect("parseable response");
            assert!(matches!(resp, Response::Session { .. } | Response::Ok { .. }), "{resp:?}");
        }
        replayed.push((sid, apply(&base, &deltas)));
    }

    // EOF is the SIGTERM-equivalent: graceful shutdown — drain the commit
    // batch, checkpoint, close the sink — then a clean exit.
    drop(stdin);
    let status = child.wait().expect("server exits");
    assert!(status.success(), "graceful EOF shutdown must exit cleanly: {status:?}");

    let (mut child, addr) = spawn_server_opts(&dir, "8", "fsync");
    let mut client = Client::connect(&addr);
    assert_recovered(&mut client, &replayed);
    let metrics = client.roundtrip("{\"metrics\": true}");
    let Response::Metrics(m) = metrics else { panic!("{metrics:?}") };
    assert_eq!(m.sessions.recovered, 3, "every session survived the graceful shutdown");
    child.kill().expect("kill server");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_journal_tail_recovers_the_prefix_without_panicking() {
    let dir = tmp_dir("torn");
    let (mut child, addr) = spawn_server(&dir, "8");
    let mut client = Client::connect(&addr);
    let base = base_instance(99);
    let create = client.session(
        0,
        SessionVerb::Create { sid: 99, instance: ProblemInstance::Uniform(base.clone()) },
    );
    assert!(matches!(create, Response::Session { .. }), "{create:?}");
    let delta = client.session(1, SessionVerb::Delta { sid: 99, deltas: deltas_for(99) });
    assert!(matches!(delta, Response::Ok { .. }), "{delta:?}");
    child.kill().expect("SIGKILL server");
    let _ = child.wait();

    // Tear the final journal line, as a crash mid-write would: the delta
    // record loses its tail. Recovery must keep the create (the prefix)
    // and drop the torn suffix — and must not panic.
    let journal = dir.join("journal.log");
    let bytes = std::fs::read(&journal).expect("journal exists");
    assert!(bytes.len() > 10, "journal holds the create + delta records");
    std::fs::write(&journal, &bytes[..bytes.len() - 10]).expect("truncate tail");

    let (mut child, addr) = spawn_server(&dir, "8");
    let mut client = Client::connect(&addr);
    // The session recovered at its pre-delta state: solve must be valid
    // on the *base* instance (the torn delta never happened).
    let pre_delta = ProblemInstance::Uniform(base);
    let solve = client.session(
        2,
        SessionVerb::Solve { sid: 99, budget_ms: Some(40), top_k: Some(2), seed: None },
    );
    let Response::Ok { makespan, ref solution, .. } = solve else {
        panic!("session must survive a torn tail: {solve:?}");
    };
    assert_eq!(
        pre_delta.evaluate(solution).expect("valid on the pre-delta instance"),
        makespan,
        "the recovered state is the journal prefix"
    );
    child.kill().expect("kill server");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
