//! Trace-output smoke against the **real** `sst` binary: the CI gate for
//! the telemetry layer.
//!
//! * `sst serve --trace-out FILE` must write a parseable NDJSON trace
//!   whose events form a complete span chain per request id — enqueue →
//!   dequeue → race_start → solver spans → respond — closed by a
//!   `sink_close` event reporting zero dropped events.
//! * `sst trace summarize FILE` must aggregate that file into non-empty
//!   per-stage rows, and its output on a fixed fixture is pinned byte for
//!   byte.
//! * A kill-and-replay run (SIGKILL with a durability root, then restart
//!   with the same `--data-dir`) must surface the recovery as a
//!   structured `recovery` event in the restarted server's trace.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use sst_core::io::json::Parser;
use sst_portfolio::protocol::{
    parse_response, request_to_json, session_request_to_json, Request, Response, SessionRequest,
    SessionVerb,
};
use sst_portfolio::ProblemInstance;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sst-trace-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Spawns `sst serve` in stdin mode with piped stdio; EOF on stdin is the
/// graceful shutdown that flushes and closes the trace sink.
fn spawn_stdin_serve(extra: &[&str]) -> Child {
    let mut args = vec!["serve", "--workers", "2", "--budget-ms", "40"];
    args.extend_from_slice(extra);
    Command::new(env!("CARGO_BIN_EXE_sst"))
        .args(&args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sst serve")
}

fn instance(seed: u64) -> ProblemInstance {
    ProblemInstance::Uniform(sst_gen::uniform(&sst_gen::UniformParams {
        n: 10,
        m: 3,
        k: 3,
        seed,
        ..Default::default()
    }))
}

/// Sends `lines` to the child's stdin, reads one response line per
/// request, closes stdin and waits for a clean exit.
fn drive(mut child: Child, lines: &[String]) -> Vec<Response> {
    let mut stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut responses = Vec::new();
    for line in lines {
        writeln!(stdin, "{line}").expect("send request");
        stdin.flush().expect("flush");
        let mut resp = String::new();
        assert!(reader.read_line(&mut resp).expect("read response") > 0, "early EOF");
        responses.push(parse_response(resp.trim()).unwrap_or_else(|e| panic!("bad {resp:?}: {e}")));
    }
    drop(stdin); // EOF → graceful shutdown, trace sink closed.
    let status = child.wait().expect("server exits");
    assert!(status.success(), "graceful exit expected: {status:?}");
    responses
}

/// One trace line: its `event` kind and the text its other members are
/// read from.
struct Event {
    kind: String,
    line: String,
}

/// Reads a trace file; every line must be one object with a string
/// `event` member.
fn parse_trace(path: &std::path::Path) -> Vec<Event> {
    let text = std::fs::read_to_string(path).expect("trace file exists");
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let mut p = Parser::new(l);
            let kind = match p.fields(["event"]) {
                Ok(Some([Some(mut event)])) if p.finish().is_ok() => event.string(),
                _ => None,
            };
            let kind = kind.unwrap_or_else(|| panic!("unparseable trace line {l:?}"));
            Event { kind, line: l.to_string() }
        })
        .collect()
}

/// A parser at member `k` of `e`, when present.
fn field<'e>(e: &'e Event, k: &str) -> Option<Parser<'e>> {
    let [at] = Parser::new(&e.line).fields([k]).ok()??;
    at
}

fn uint(e: &Event, k: &str) -> u64 {
    field(e, k).and_then(|mut p| p.u64()).unwrap_or_else(|| panic!("field '{k}' must be a uint"))
}

#[test]
fn trace_out_writes_a_complete_span_chain_and_summarize_reads_it() {
    let dir = tmp_dir("span");
    let trace_path = dir.join("trace.ndjson");
    let child = spawn_stdin_serve(&["--trace-out", trace_path.to_str().expect("utf-8 path")]);

    let ids = [1u64, 2, 3];
    let requests: Vec<String> = ids
        .iter()
        .map(|&id| {
            request_to_json(&Request {
                id,
                instance: instance(id),
                budget_ms: Some(40),
                top_k: Some(2),
                seed: Some(1),
            })
        })
        .collect();
    let responses = drive(child, &requests);
    for resp in &responses {
        assert!(matches!(resp, Response::Ok { .. }), "solve must succeed: {resp:?}");
    }

    let events = parse_trace(&trace_path);
    for &id in &ids {
        let of_id: Vec<_> = events
            .iter()
            .filter(|e| field(e, "id").and_then(|mut p| p.u64()) == Some(id))
            .collect();
        let kinds: Vec<&str> = of_id.iter().map(|e| e.kind.as_str()).collect();
        for stage in ["enqueue", "dequeue", "race_start", "solver_start", "solver_end", "respond"] {
            assert!(kinds.contains(&stage), "request {id} missing '{stage}' event: {kinds:?}");
        }
        // The span chain is ordered by timestamp: enqueue first, respond last.
        let ts_of = |k: &str| {
            of_id.iter().find(|e| e.kind == k).map(|e| uint(e, "ts_us")).expect("present")
        };
        assert!(ts_of("enqueue") <= ts_of("dequeue"), "enqueue precedes dequeue");
        assert!(ts_of("race_start") <= ts_of("respond"), "race precedes respond");
        let respond = of_id.iter().find(|e| e.kind == "respond").expect("respond event");
        assert_eq!(field(respond, "ok").and_then(|mut p| p.bool()), Some(true));
    }
    let closes: Vec<_> = events.iter().filter(|e| e.kind == "sink_close").collect();
    assert_eq!(closes.len(), 1, "exactly one sink_close event");
    assert_eq!(uint(closes[0], "dropped"), 0, "no events dropped at this traffic level");

    // The offline summarizer reads the same file back.
    let out = Command::new(env!("CARGO_BIN_EXE_sst"))
        .args(["trace", "summarize", trace_path.to_str().expect("utf-8 path")])
        .output()
        .expect("run trace summarize");
    assert!(out.status.success(), "summarize exits 0: {out:?}");
    let text = String::from_utf8(out.stdout).expect("utf-8 summary");
    for needle in ["queue_wait", "total", "solver", "requests: 3 ok, 0 errors", "dropped events: 0"]
    {
        assert!(text.contains(needle), "summary missing {needle:?}:\n{text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_and_replay_restart_emits_a_recovery_event_in_the_trace() {
    let dir = tmp_dir("recovery");
    let data_dir = dir.join("data");
    let data = data_dir.to_str().expect("utf-8 path").to_string();

    // Run 1: seed a durable session, then die non-gracefully (SIGKILL, no
    // shutdown hook) — only the flushed journal survives.
    let mut child = spawn_stdin_serve(&["--data-dir", &data, "--durability", "flush"]);
    {
        let mut stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut reader = BufReader::new(stdout);
        for line in [
            session_request_to_json(&SessionRequest {
                id: 1,
                verb: SessionVerb::Create { sid: 7, instance: instance(7) },
            }),
            session_request_to_json(&SessionRequest {
                id: 2,
                verb: SessionVerb::Delta {
                    sid: 7,
                    deltas: vec![sst_core::delta::InstanceDelta::AddJob {
                        class: 0,
                        times: vec![9],
                    }],
                },
            }),
        ] {
            writeln!(stdin, "{line}").expect("send");
            stdin.flush().expect("flush");
            let mut resp = String::new();
            assert!(reader.read_line(&mut resp).expect("read") > 0, "early EOF");
            let resp = parse_response(resp.trim()).expect("parseable response");
            assert!(
                !matches!(resp, Response::Error { .. }),
                "session verb must be accepted: {resp:?}"
            );
        }
        // Both verbs are journaled before their responses; killing now
        // loses no accepted state.
        child.kill().expect("SIGKILL server");
        let _ = child.wait();
    }

    // Run 2: restart with the same --data-dir and a trace sink — the
    // replay must surface as a structured recovery event.
    let trace_path = dir.join("restart-trace.ndjson");
    let child = spawn_stdin_serve(&[
        "--data-dir",
        &data,
        "--durability",
        "flush",
        "--trace-out",
        trace_path.to_str().expect("utf-8 path"),
    ]);
    let responses = drive(child, &["{\"metrics\": true}".to_string()]);
    let Response::Metrics(m) = &responses[0] else { panic!("{responses:?}") };
    assert_eq!(m.sessions.recovered, 1, "the killed run's session is recovered");

    let events = parse_trace(&trace_path);
    let recoveries: Vec<_> = events.iter().filter(|e| e.kind == "recovery").collect();
    assert_eq!(recoveries.len(), 1, "exactly one recovery event per startup");
    assert_eq!(uint(recoveries[0], "sessions"), 1, "one session came back");
    assert!(uint(recoveries[0], "replayed") >= 2, "create + delta records replayed");
    assert_eq!(uint(recoveries[0], "dropped_bytes"), 0, "journal was clean");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fixture holds every event kind plus the lines the summarizer must
/// tolerate: a truncated object, an array, a bare string, an object with
/// trailing bytes, objects without a string `event`, floats, negatives and
/// out-of-range numbers where a uint is expected, duplicate keys (the last
/// wins), nesting past the depth limit, a bad escape, an unknown kind and
/// two `sink_close` events. The expected summary is checked in next to it.
#[test]
fn summarize_output_is_pinned_on_a_fixture_of_every_event_kind() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let out = Command::new(env!("CARGO_BIN_EXE_sst"))
        .args(["trace", "summarize"])
        .arg(fixtures.join("trace_all_kinds.ndjson"))
        .output()
        .expect("run trace summarize");
    assert!(out.status.success(), "summarize exits 0: {out:?}");
    let expected = std::fs::read_to_string(fixtures.join("trace_all_kinds.summary"))
        .expect("expected summary exists");
    assert_eq!(String::from_utf8(out.stdout).expect("utf-8 summary"), expected);
}
