//! Golden test pinning the trace-event JSON schema: one event of every
//! kind, encoded by [`sst_core::telemetry::TraceEvent::write_json`] and
//! read back through the workspace JSON parser (`sst_core::io`). The
//! exact field *sets* are asserted — adding, renaming or dropping a field
//! is a deliberate schema change and must update this test (and the
//! README "Observability" section).

use std::collections::BTreeMap;

use sst_core::io::json::Parser;
use sst_core::telemetry::TraceEvent;

fn encode(event: &TraceEvent, ts_us: u64) -> String {
    let mut out = String::new();
    event.write_json(ts_us, &mut out);
    out
}

/// An encoded event and the byte offset of each member's value.
struct Event {
    line: String,
    at: BTreeMap<String, usize>,
}

impl Event {
    /// A parser at member `k`'s value.
    fn field(&self, k: &str) -> Parser<'_> {
        let pos = self.at.get(k).unwrap_or_else(|| panic!("field '{k}' missing"));
        Parser::new(&self.line).at(*pos)
    }
}

/// Locates the members of `line`, which must be exactly one object.
fn parse_object(line: &str) -> Event {
    let mut at = BTreeMap::new();
    let mut p = Parser::new(line);
    p.object(|p, key| {
        at.insert(key.to_string(), p.pos());
        p.skip_value()
    })
    .and_then(|()| p.finish())
    .unwrap_or_else(|e| panic!("event must encode as one object {line:?}: {e}"));
    Event { line: line.to_string(), at }
}

fn keys(map: &Event) -> Vec<&str> {
    map.at.keys().map(String::as_str).collect()
}

fn uint(map: &Event, k: &str) -> u64 {
    map.field(k).u64().unwrap_or_else(|| panic!("field '{k}' must be a uint"))
}

fn str_field(map: &Event, k: &str) -> String {
    map.field(k).string().unwrap_or_else(|| panic!("field '{k}' must be a string"))
}

/// One exemplar of every event kind with its pinned field set.
fn golden() -> Vec<(TraceEvent, &'static str, Vec<&'static str>)> {
    vec![
        (TraceEvent::Enqueue { id: 7 }, "enqueue", vec!["event", "id", "ts_us"]),
        (
            TraceEvent::Dequeue { id: 7, worker: 2, queue_wait_us: 55 },
            "dequeue",
            vec!["event", "id", "queue_wait_us", "ts_us", "worker"],
        ),
        (
            TraceEvent::Decode { id: 7, codec: "binary".into(), micros: 12 },
            "decode",
            vec!["codec", "event", "id", "micros", "ts_us"],
        ),
        (
            TraceEvent::RaceStart { id: 7, members: 3 },
            "race_start",
            vec!["event", "id", "members", "ts_us"],
        ),
        (
            TraceEvent::SolverStart { id: 7, solver: "local-search".into() },
            "solver_start",
            vec!["event", "id", "solver", "ts_us"],
        ),
        (
            TraceEvent::SolverEnd {
                id: 7,
                solver: "local-search".into(),
                outcome: "completed".into(),
                micros: 1800,
                makespan: Some(152.5),
            },
            "solver_end",
            vec!["event", "id", "makespan", "micros", "outcome", "solver", "ts_us"],
        ),
        (
            TraceEvent::Incumbent { id: 7, solver: "anneal".into(), at_us: 900, makespan: 151.0 },
            "incumbent",
            vec!["at_us", "event", "id", "makespan", "solver", "ts_us"],
        ),
        (
            TraceEvent::CancelLatency { id: 7, solver: "exact-bb".into(), micros: 120 },
            "cancel",
            vec!["event", "id", "micros", "solver", "ts_us"],
        ),
        (
            TraceEvent::Respond { id: 7, ok: true, total_us: 2500 },
            "respond",
            vec!["event", "id", "ok", "total_us", "ts_us"],
        ),
        (
            TraceEvent::JournalAppend { sid: 4, bytes: 310, micros: 85, fsync: false },
            "journal_append",
            vec!["bytes", "event", "fsync", "micros", "sid", "ts_us"],
        ),
        (
            TraceEvent::JournalCommit { batch: 12, bytes: 3100, micros: 950, fsync: true },
            "journal_commit",
            vec!["batch", "bytes", "event", "fsync", "micros", "ts_us"],
        ),
        (
            TraceEvent::Snapshot { sid: 4, micros: 400 },
            "snapshot",
            vec!["event", "micros", "sid", "ts_us"],
        ),
        (TraceEvent::Spill { sid: 4 }, "spill", vec!["event", "sid", "ts_us"]),
        (TraceEvent::ColdReload { sid: 4 }, "cold_reload", vec!["event", "sid", "ts_us"]),
        (
            TraceEvent::Recovery {
                sessions: 3,
                snapshots_loaded: 2,
                replayed: 5,
                dropped_bytes: 0,
                micros: 9000,
            },
            "recovery",
            vec![
                "dropped_bytes",
                "event",
                "micros",
                "replayed",
                "sessions",
                "snapshots_loaded",
                "ts_us",
            ],
        ),
        (TraceEvent::SinkClose { dropped: 0 }, "sink_close", vec!["dropped", "event", "ts_us"]),
    ]
}

#[test]
fn every_event_kind_roundtrips_with_its_pinned_field_set() {
    for (event, kind, fields) in golden() {
        let line = encode(&event, 1234);
        let map = parse_object(&line);
        assert_eq!(event.kind(), kind);
        assert_eq!(str_field(&map, "event"), kind, "{line}");
        assert_eq!(uint(&map, "ts_us"), 1234, "{line}");
        assert_eq!(keys(&map), fields, "schema drift in '{kind}': {line}");
    }
}

#[test]
fn numeric_fields_parse_as_numbers_not_strings() {
    let map =
        parse_object(&encode(&TraceEvent::Dequeue { id: 9, worker: 1, queue_wait_us: 77 }, 5));
    assert_eq!(uint(&map, "id"), 9);
    assert_eq!(uint(&map, "worker"), 1);
    assert_eq!(uint(&map, "queue_wait_us"), 77);

    // Makespans are always JSON floats (decimal point even for integral
    // values), matching the serve protocol's float convention.
    let map = parse_object(&encode(
        &TraceEvent::Incumbent {
            id: 1,
            solver: "greedy-baseline".into(),
            at_us: 3,
            makespan: 42.0,
        },
        0,
    ));
    assert_eq!(map.field("makespan").u64(), None, "makespan must parse as a float");
    let v = map.field("makespan").f64().expect("makespan must parse as a number");
    assert!((v - 42.0).abs() < 1e-12);
}

#[test]
fn optional_and_boolean_fields_keep_their_shapes() {
    // A cancelled solver has no makespan: the field is omitted, not null.
    let map = parse_object(&encode(
        &TraceEvent::SolverEnd {
            id: 2,
            solver: "rounding".into(),
            outcome: "cancelled".into(),
            micros: 10,
            makespan: None,
        },
        0,
    ));
    assert!(!map.at.contains_key("makespan"));
    assert_eq!(str_field(&map, "outcome"), "cancelled");

    let map = parse_object(&encode(
        &TraceEvent::JournalAppend { sid: 1, bytes: 10, micros: 1, fsync: true },
        0,
    ));
    assert_eq!(map.field("fsync").bool(), Some(true));
    let map = parse_object(&encode(&TraceEvent::Respond { id: 1, ok: false, total_us: 1 }, 0));
    assert_eq!(map.field("ok").bool(), Some(false));
}

#[test]
fn solver_names_with_json_metacharacters_stay_parseable() {
    let map = parse_object(&encode(
        &TraceEvent::SolverStart { id: 1, solver: "weird \"name\"\\with\nnoise".into() },
        0,
    ));
    assert_eq!(str_field(&map, "solver"), "weird \"name\"\\with\nnoise");
}
