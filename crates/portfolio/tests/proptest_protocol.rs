//! Round-trip property tests for the NDJSON codec: arbitrary instances →
//! serialize → parse → identical, for requests and responses alike. The
//! codec reuses `sst_core::io`'s hand-rolled JSON layer, so this doubles
//! as a fuzz of that parser on machine-generated input. The shared decode
//! corpus (`sst-core`'s `tests/corpus/instances.rs`) pins the request and
//! session-create paths to the outcomes recorded for the tree-based
//! decoder they replaced; `corpus/records.rs` does the same for response
//! lines and session delta batches.

use proptest::collection::vec;
use proptest::prelude::*;
use sst_algos::splittable::{SplitSchedule, SplitShare};
use sst_core::instance::{Job, UniformInstance, UnrelatedInstance, INF};
use sst_core::io::IoError;
use sst_core::ratio::Ratio;
use sst_core::schedule::Schedule;
use sst_portfolio::protocol::{
    extract_request_id, instance_to_json, parse_incoming, parse_response, request_to_json,
    response_to_json, Incoming, Request, Response, SessionVerb, SolverLine,
};
use sst_portfolio::{Cost, ProblemInstance, Solution, SplittableInstance};

include!("../../core/tests/corpus/instances.rs");
include!("corpus/records.rs");

fn variant(e: &IoError) -> String {
    match e {
        IoError::Json(_) => "Json".into(),
        IoError::Format(_) => "Format".into(),
        IoError::Invalid(_) => "Invalid".into(),
    }
}

/// What `parse_incoming` makes of `line`, in the corpus's outcome notation
/// (`ok:` plus the decoded instance for solve and session-create lines).
fn outcome(line: &str) -> String {
    match parse_incoming(line) {
        Ok(Incoming::Solve(req)) => format!("ok:{}", instance_to_json(&req.instance, false)),
        Ok(Incoming::Session(req)) => match req.verb {
            SessionVerb::Create { instance, .. } => {
                format!("ok:{}", instance_to_json(&instance, false))
            }
            other => format!("{other:?}"),
        },
        Ok(other) => format!("{other:?}"),
        Err(e) => variant(&e),
    }
}

fn request_line(doc: &str) -> String {
    format!("{{\"id\": 7, \"budget_ms\": 5, \"instance\": {doc}}}")
}

fn create_line(doc: &str) -> String {
    format!("{{\"id\": 7, \"session\": {{\"create\": {{\"sid\": 3, \"instance\": {doc}}}}}}}")
}

#[test]
fn corpus_requests_and_session_creates_decode_as_recorded() {
    for case in corpus::cases() {
        let (_, want_request, want_create) = corpus::expected(&case.name);
        for seed in 0..8 {
            let doc = if seed == 0 { case.render() } else { case.render_scrambled(seed) };
            assert_eq!(outcome(&request_line(&doc)), want_request, "{}: {doc}", case.name);
            assert_eq!(outcome(&create_line(&doc)), want_create, "{}: {doc}", case.name);
            // The envelope itself scrambled: key order, junk keys, spacing.
            let envelope = corpus::Case {
                name: String::new(),
                kind: case.kind,
                fields: vec![
                    ("budget_ms".into(), "5".into()),
                    ("instance".into(), doc.clone()),
                    ("id".into(), "7".into()),
                ],
                raw: None,
            };
            let line = envelope.render_scrambled(seed);
            assert_eq!(outcome(&line), want_request, "{}: {line}", case.name);
        }
    }
}

#[test]
fn request_envelope_errors_keep_their_variants() {
    let base = r#"{"version": 1, "kind": "uniform", "speeds": [2], "setups": [3], "jobs": []}"#;
    let future = base.replace("\"version\": 1", "\"version\": 2");
    let cases: Vec<(String, &str)> = vec![
        (r#"{"id": 7, "instance": 5}"#.into(), "Json"),
        (r#"{"id": 7}"#.into(), "Json"),
        (format!(r#"{{"instance": {base}}}"#), "Json"),
        (format!(r#"{{"id": -1, "instance": {base}}}"#), "Json"),
        (format!(r#"{{"id": "7", "instance": {base}}}"#), "Json"),
        (format!(r#"{{"id": 7, "instance": {base}, "budget_ms": "x"}}"#), "Json"),
        (format!(r#"{{"id": 7, "instance": {base}, "top_k": 1.5}}"#), "Json"),
        (format!(r#"{{"id": 7, "instance": {future}, "budget_ms": "x"}}"#), "Format"),
        (format!(r#"{{"id": 7, "instance": {base}}} x"#), "Json"),
        (format!(r#"[{{"id": 7, "instance": {base}}}]"#), "Json"),
        (r#"{"id": 7, "session": 5}"#.into(), "Json"),
        (r#"{"id": 7, "session": {}}"#.into(), "Json"),
        (r#"{"id": 7, "session": {"create": 5}}"#.into(), "Json"),
        (r#"{"id": 7, "session": {"create": {"sid": 3}}}"#.into(), "Json"),
        (format!(r#"{{"id": 7, "session": {{"create": {{"instance": {future}}}}}}}"#), "Json"),
        (
            format!(r#"{{"id": 7, "session": {{"create": {{"sid": 3, "instance": {future}}}}}}}"#),
            "Format",
        ),
        (r#"{"id": 7, "session": {"delta": {"sid": 3}}}"#.into(), "Json"),
        (r#"{"id": 7, "session": {"solve": {"sid": 3, "seed": -1}}}"#.into(), "Json"),
    ];
    for (line, want) in cases {
        assert_eq!(outcome(&line), want, "{line}");
    }
    let ok = format!("ok:{base}");
    assert_eq!(outcome(&format!(r#"{{"id": 7, "instance": "x", "instance": {base}}}"#)), ok);
    assert_eq!(outcome(&format!(r#"{{"id": "x", "instance": {base}, "id": 7}}"#)), ok);
    assert_eq!(outcome(&format!(r#"{{"metrics": false, "id": 7, "instance": {base}}}"#)), ok);
    assert_eq!(outcome(r#"{"id": "x", "metrics": true}"#), "Metrics");
    assert_eq!(outcome(r#"{"crash": true, "kill_worker": true}"#), "KillWorker");
    assert_eq!(
        outcome(&format!(
            r#"{{"id": 7, "instance": {base}, "session": {{"close": {{"sid": 1}}}}}}"#
        )),
        "Close { sid: 1 }"
    );
    assert_eq!(
        outcome(r#"{"id": 7, "session": {"close": {"sid": 1}, "solve": {"sid": 2}}}"#),
        "Solve { sid: 2, budget_ms: None, top_k: None, seed: None }"
    );
}

#[test]
fn responses_and_session_deltas_decode_as_recorded() {
    for &(line, want) in recorded::RESPONSES {
        let got = match parse_response(line) {
            Ok(resp) => format!("ok:{}", response_to_json(&resp)),
            Err(e) => variant(&e),
        };
        assert_eq!(got, want, "{line}");
    }
    for &(deltas, want) in recorded::SESSION_DELTAS {
        let line =
            format!(r#"{{"id": 2, "session": {{"delta": {{"sid": 7, "deltas": {deltas}}}}}}}"#);
        assert_eq!(outcome(&line), want, "{line}");
    }
}

#[test]
fn request_id_is_read_from_the_top_level_object_only() {
    let cases: &[(&str, Option<u64>)] = &[
        (r#"{"id": 41, "instance": {"version": 1, "kind": "uniform", "speeds": [0]}}"#, Some(41)),
        (r#"{"instance": {"id": 3, "speeds": [[1], "x"]}, "id": 41}"#, Some(41)),
        (r#"{"id": 1, "id": 2}"#, Some(2)),
        (r#"{"id": 1, "id": "x"}"#, None),
        (r#"{"note": "\"id\": 3", "id": 4}"#, Some(4)),
        (r#"{"nested": {"id": 9}}"#, None),
        (r#"{"id": "x"}"#, None),
        (r#"{"id": -3}"#, None),
        (r#"{"id": 1.0}"#, None),
        (r#"{"id": 5"#, None),
        (r#"{"id": 5} trailing"#, None),
        (r#"[{"id": 5}]"#, None),
        (r#"{"id": 5, "junk": [1, 2"#, None),
        ("not json", None),
        ("", None),
    ];
    for &(line, want) in cases {
        assert_eq!(extract_request_id(line), want, "{line}");
    }
}

fn uniform_instance() -> impl Strategy<Value = ProblemInstance> {
    (vec(1u64..50, 1..5), vec(0u64..100, 1..5), vec((0usize..100, 1u64..500), 0..30)).prop_map(
        |(speeds, setups, raw)| {
            let k = setups.len();
            let jobs: Vec<Job> = raw.into_iter().map(|(c, p)| Job::new(c % k, p)).collect();
            ProblemInstance::Uniform(
                UniformInstance::new(speeds, setups, jobs).expect("constructed valid"),
            )
        },
    )
}

fn unrelated_instance() -> impl Strategy<Value = ProblemInstance> {
    (2usize..5, 1usize..5, vec((0usize..100, 1u64..500, 0u64..30), 1..30)).prop_map(
        |(m, k, raw)| {
            let job_class: Vec<usize> = raw.iter().map(|&(c, _, _)| c % k).collect();
            let ptimes: Vec<Vec<u64>> = raw
                .iter()
                .enumerate()
                .map(|(j, &(_, p, inf_mask))| {
                    (0..m)
                        .map(|i| {
                            // Sprinkle INFs but keep machine j % m finite so
                            // every job stays schedulable.
                            if i != j % m && (inf_mask >> i) & 1 == 1 {
                                INF
                            } else {
                                p + (i as u64) * 7 % 90
                            }
                        })
                        .collect()
                })
                .collect();
            let setups: Vec<Vec<u64>> =
                (0..k).map(|kk| (0..m).map(|i| 1 + ((kk + i) as u64 % 40)).collect()).collect();
            ProblemInstance::Unrelated(
                UnrelatedInstance::new(m, job_class, ptimes, setups).expect("constructed valid"),
            )
        },
    )
}

/// A splittable-model instance: all-finite unrelated payload (every class
/// trivially hostable whole, so the feasibility gate accepts it).
fn splittable_instance() -> impl Strategy<Value = ProblemInstance> {
    (2usize..5, 1usize..5, vec((0usize..100, 1u64..500), 1..30)).prop_map(|(m, k, raw)| {
        let job_class: Vec<usize> = raw.iter().map(|&(c, _)| c % k).collect();
        let ptimes: Vec<Vec<u64>> =
            raw.iter().map(|&(_, p)| (0..m).map(|i| p + (i as u64) * 7 % 90).collect()).collect();
        let setups: Vec<Vec<u64>> =
            (0..k).map(|kk| (0..m).map(|i| 1 + ((kk + i) as u64 % 40)).collect()).collect();
        ProblemInstance::Splittable(SplittableInstance(
            UnrelatedInstance::new(m, job_class, ptimes, setups).expect("constructed valid"),
        ))
    })
}

fn any_instance() -> impl Strategy<Value = ProblemInstance> {
    prop_oneof![uniform_instance(), unrelated_instance(), splittable_instance()]
}

fn any_cost() -> impl Strategy<Value = Cost> {
    prop_oneof![
        (0u64..u64::MAX / 2).prop_map(Cost::Time),
        (0u64..1_000_000, 1u64..1_000).prop_map(|(n, d)| Cost::Frac(Ratio::new(n, d))),
        // Both integral-valued and fractional floats: the codec must keep
        // them a distinct shape from Cost::Time on the wire.
        (0u64..1_000_000, 0u64..1_000).prop_map(|(a, b)| Cost::Real(a as f64 + b as f64 / 1000.0)),
    ]
}

/// A solution of either shape: integral assignments or split share tables
/// (fractions chosen from a finite grid; exact roundtrip is required
/// regardless because floats serialize shortest-roundtrip).
fn any_solution() -> impl Strategy<Value = Solution> {
    prop_oneof![
        vec(0usize..64, 0..50).prop_map(|a| Solution::Assignment(Schedule::new(a))),
        vec(vec((0usize..8, 1u64..=1000), 0..4), 0..6).prop_map(|rows| {
            Solution::Split(SplitSchedule::new(
                rows.into_iter()
                    .map(|row| {
                        row.into_iter()
                            .map(|(machine, millis)| SplitShare {
                                machine,
                                fraction: millis as f64 / 1000.0,
                            })
                            .collect()
                    })
                    .collect(),
            ))
        }),
    ]
}

fn opt_u64(hi: u64) -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), (0..hi).prop_map(Some)]
}

/// A solver-ish name drawn from a fixed alphabet (the compat proptest has
/// no regex strategies).
fn any_name() -> impl Strategy<Value = String> {
    const NAMES: [&str; 6] = ["greedy", "lpt", "rounding", "local-search", "anneal", "exact"];
    (0usize..NAMES.len()).prop_map(|i| NAMES[i].to_string())
}

/// An arbitrary message exercising JSON escaping: quotes, backslashes,
/// control characters, newlines, non-ASCII.
fn any_message() -> impl Strategy<Value = String> {
    const PIECES: [&str; 8] =
        ["bad \"instance\"", "a\\b", "line\nbreak", "tab\there", "\r", "µs: 42", "", "plain"];
    vec(0usize..PIECES.len(), 0..6)
        .prop_map(|idx| idx.into_iter().map(|i| PIECES[i]).collect::<Vec<_>>().join(" | "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn request_roundtrip(
        inst in any_instance(),
        id in 0u64..u64::MAX / 2,
        budget in opt_u64(100_000),
        top_k in opt_u64(10),
        seed in opt_u64(u64::MAX / 2),
    ) {
        let req = Request {
            id,
            instance: inst,
            budget_ms: budget,
            top_k: top_k.map(|k| 1 + k as usize),
            seed,
        };
        let line = request_to_json(&req);
        prop_assert!(!line.contains('\n'), "NDJSON lines must be single-line");
        prop_assert_eq!(parse_incoming(&line).expect("own output parses"), Incoming::Solve(Box::new(req)));
    }

    #[test]
    fn ok_response_roundtrip(
        id in 0u64..u64::MAX / 2,
        kind_sel in 0usize..3,
        solver in any_name(),
        micros in 0u64..u64::MAX / 2,
        makespan in any_cost(),
        solution in any_solution(),
        solvers in vec(
            (any_name(), prop_oneof![Just(None), any_cost().prop_map(Some)], 0u64..1_000_000, proptest::bool::ANY),
            0..5,
        ),
    ) {
        let resp = Response::Ok {
            id,
            kind: ["uniform", "unrelated", "splittable"][kind_sel].to_string(),
            solver,
            micros,
            makespan,
            solution,
            solvers: solvers
                .into_iter()
                .map(|(name, makespan, micros, completed)| SolverLine { name, makespan, micros, completed })
                .collect(),
        };
        let line = response_to_json(&resp);
        prop_assert!(!line.contains('\n'));
        prop_assert_eq!(parse_response(&line).expect("own output parses"), resp);
    }

    #[test]
    fn error_response_roundtrip(
        id in opt_u64(u64::MAX / 2),
        message in any_message(),
    ) {
        let resp = Response::Error { id, message };
        let line = response_to_json(&resp);
        prop_assert!(!line.contains('\n'), "escaping must keep the line single-line");
        prop_assert_eq!(parse_response(&line).expect("own output parses"), resp);
    }
}
