//! Byte-for-byte tests pinning the NDJSON encoders to the ones they
//! replaced. `old` below is a verbatim copy of those encoders (the
//! response writer with its cost and solution writers, and the request
//! writer with the instance writers and array writers under it). Every
//! response and request must encode to the same bytes on both: integers
//! at every digit count up to `u64::MAX`, all three cost shapes, both
//! solution shapes, escaped strings and the metrics summary.

use proptest::collection::vec;
use proptest::prelude::*;
use sst_algos::splittable::{SplitSchedule, SplitShare};
use sst_core::instance::{Job, UniformInstance, UnrelatedInstance, INF};
use sst_core::ratio::Ratio;
use sst_core::schedule::Schedule;
use sst_portfolio::protocol::{
    request_to_json, response_to_json, MetricsSummary, Request, Response, SolverLatencyLine,
    SolverLine, StageLine, StandingLine,
};
use sst_portfolio::{Cost, ProblemInstance, SessionStats, Solution, SplittableInstance};

#[allow(dead_code, clippy::all)]
mod old {
    use std::fmt::Write as _;

    use sst_core::instance::{UniformInstance, UnrelatedInstance};
    use sst_core::io::json::Escaped;
    use sst_core::io::FORMAT_VERSION;
    use sst_portfolio::protocol::{Request, Response};
    use sst_portfolio::{Cost, ProblemInstance, Solution};

    /// The instance writers below, under the path the request writer
    /// calls them by.
    mod io {
        pub use super::{splittable_to_json_line, uniform_to_json_line, unrelated_to_json_line};
    }

    mod json {
        use std::fmt::Write as _;

        /// Serializes a `u64` array on one line: `[1, 2, 3]`.
        pub fn write_u64_array(out: &mut String, xs: &[u64]) {
            out.push('[');
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{x}");
            }
            out.push(']');
        }

        /// Serializes a `usize` array on one line.
        pub fn write_usize_array(out: &mut String, xs: &[usize]) {
            out.push('[');
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{x}");
            }
            out.push(']');
        }
    }

    /// Shared field-by-field writer behind the pretty and NDJSON encodings —
    /// one copy of the schema per instance kind, so a field change cannot
    /// silently diverge between the two formats.
    fn uniform_json(inst: &UniformInstance, pretty: bool) -> String {
        use std::fmt::Write as _;
        let (open, sep, pad) = if pretty { ("{\n  ", ",\n  ", " ") } else { ("{", ", ", "") };
        let mut out = String::new();
        let _ = write!(out, "{open}\"version\": {FORMAT_VERSION}{sep}\"kind\": \"uniform\"{sep}");
        out.push_str("\"speeds\": ");
        json::write_u64_array(&mut out, inst.speeds());
        out.push_str(sep);
        out.push_str("\"setups\": ");
        json::write_u64_array(&mut out, inst.setups());
        out.push_str(sep);
        out.push_str("\"jobs\": [");
        for (j, job) in inst.jobs().iter().enumerate() {
            if j > 0 {
                out.push(',');
                if !pretty {
                    out.push(' ');
                }
            }
            if pretty {
                out.push_str("\n    ");
            }
            let _ = write!(out, "{{{pad}\"class\": {}, \"size\": {}{pad}}}", job.class, job.size);
        }
        if pretty && inst.n() > 0 {
            out.push_str("\n  ");
        }
        out.push_str(if pretty { "]\n}" } else { "]}" });
        out
    }

    /// Serializes a uniform instance to one compact JSON line (same schema as
    /// [`uniform_to_json`], no newlines) — the NDJSON building block.
    pub fn uniform_to_json_line(inst: &UniformInstance) -> String {
        uniform_json(inst, false)
    }

    /// Shared writer behind the unrelated-payload encodings (see
    /// [`uniform_json`]). `kind` is `"unrelated"` or `"splittable"` — the
    /// splittable model of Section 3.3 shares the unrelated instance data and
    /// differs only in its solution space, so the two kinds share one schema.
    fn unrelated_json(inst: &UnrelatedInstance, kind: &str, pretty: bool) -> String {
        use std::fmt::Write as _;
        let (open, sep) = if pretty { ("{\n  ", ",\n  ") } else { ("{", ", ") };
        let mut out = String::new();
        let _ = write!(out, "{open}\"version\": {FORMAT_VERSION}{sep}\"kind\": \"{kind}\"{sep}");
        let _ = write!(out, "\"m\": {}{sep}", inst.m());
        out.push_str("\"job_class\": ");
        json::write_usize_array(&mut out, inst.job_classes());
        out.push_str(sep);
        let matrix = |out: &mut String, name: &str, rows: &[&[u64]]| {
            let _ = write!(out, "\"{name}\": [");
            for (r, row) in rows.iter().enumerate() {
                if r > 0 {
                    out.push(',');
                    if !pretty {
                        out.push(' ');
                    }
                }
                if pretty {
                    out.push_str("\n    ");
                }
                json::write_u64_array(out, row);
            }
            if pretty && !rows.is_empty() {
                out.push_str("\n  ");
            }
            out.push(']');
        };
        let ptimes: Vec<&[u64]> = (0..inst.n()).map(|j| inst.ptimes_row(j)).collect();
        matrix(&mut out, "ptimes", &ptimes);
        out.push_str(sep);
        let setups: Vec<&[u64]> = (0..inst.num_classes()).map(|k| inst.setups_row(k)).collect();
        matrix(&mut out, "setups", &setups);
        out.push_str(if pretty { "\n}" } else { "}" });
        out
    }

    /// Serializes an unrelated instance to one compact JSON line (same schema
    /// as [`unrelated_to_json`], no newlines) — the NDJSON building block.
    pub fn unrelated_to_json_line(inst: &UnrelatedInstance) -> String {
        unrelated_json(inst, "unrelated", false)
    }

    /// Serializes a splittable-model instance to one compact JSON line.
    pub fn splittable_to_json_line(inst: &UnrelatedInstance) -> String {
        unrelated_json(inst, "splittable", false)
    }

    /// Writes an `f64` so it parses back as a float, never as an integer:
    /// integral values get a trailing `.0`. Rust's shortest-roundtrip float
    /// formatting guarantees `parse::<f64>` returns the identical bits.
    fn write_f64(out: &mut String, x: f64) {
        if x == x.trunc() && x.is_finite() {
            let _ = write!(out, "{x:.1}");
        } else {
            let _ = write!(out, "{x}");
        }
    }

    pub(crate) fn write_cost(out: &mut String, cost: &Cost) {
        match cost {
            Cost::Time(t) => {
                let _ = write!(out, "{t}");
            }
            Cost::Frac(r) => {
                let _ = write!(out, "{{\"num\": {}, \"den\": {}}}", r.numer(), r.denom());
            }
            Cost::Real(x) => write_f64(out, *x),
        }
    }

    /// Serializes an instance envelope to one JSON line (the shared encoder
    /// of the request, session, journal and snapshot paths).
    pub(crate) fn instance_to_json(instance: &ProblemInstance) -> String {
        match instance {
            ProblemInstance::Uniform(u) => io::uniform_to_json_line(u),
            ProblemInstance::Unrelated(r) => io::unrelated_to_json_line(r),
            ProblemInstance::Splittable(s) => io::splittable_to_json_line(s.inner()),
        }
    }

    /// Serializes a request to one NDJSON line.
    pub fn request_to_json(req: &Request) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"id\": {}", req.id);
        if let Some(b) = req.budget_ms {
            let _ = write!(out, ", \"budget_ms\": {b}");
        }
        if let Some(k) = req.top_k {
            let _ = write!(out, ", \"top_k\": {k}");
        }
        if let Some(s) = req.seed {
            let _ = write!(out, ", \"seed\": {s}");
        }
        out.push_str(", \"instance\": ");
        out.push_str(&instance_to_json(&req.instance));
        out.push('}');
        out
    }

    pub(crate) fn write_solution(out: &mut String, solution: &Solution) {
        match solution {
            Solution::Assignment(sched) => {
                out.push_str("\"assignment\": ");
                json::write_usize_array(out, sched.assignment());
            }
            Solution::Split(split) => {
                out.push_str("\"shares\": [");
                for (k, row) in split.shares().iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    out.push('[');
                    for (i, share) in row.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "{{\"machine\": {}, \"fraction\": ", share.machine);
                        write_f64(out, share.fraction);
                        out.push('}');
                    }
                    out.push(']');
                }
                out.push(']');
            }
        }
    }

    /// Serializes a response to one NDJSON line.
    pub fn response_to_json(resp: &Response) -> String {
        let mut out = String::new();
        match resp {
            Response::Ok { id, kind, solver, micros, makespan, solution, solvers } => {
                let _ = write!(
                out,
                "{{\"id\": {id}, \"status\": \"ok\", \"kind\": \"{kind}\", \"solver\": \"{}\", \"micros\": {micros}, \"makespan\": ",
                Escaped(solver)
            );
                write_cost(&mut out, makespan);
                out.push_str(", ");
                write_solution(&mut out, solution);
                out.push_str(", \"solvers\": [");
                for (i, s) in solvers.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{{\"name\": \"{}\", \"makespan\": ", Escaped(&s.name));
                    match &s.makespan {
                        Some(c) => write_cost(&mut out, c),
                        None => out.push_str("null"),
                    }
                    let _ =
                        write!(out, ", \"micros\": {}, \"completed\": {}}}", s.micros, s.completed);
                }
                out.push_str("]}");
            }
            Response::Error { id, message } => {
                out.push('{');
                if let Some(id) = id {
                    let _ = write!(out, "\"id\": {id}, ");
                }
                let _ =
                    write!(out, "\"status\": \"error\", \"message\": \"{}\"}}", Escaped(message));
            }
            Response::Session { id, sid, verb, live, makespan } => {
                let _ = write!(
                out,
                "{{\"id\": {id}, \"status\": \"session\", \"sid\": {sid}, \"verb\": \"{}\", \"live\": {live}",
                Escaped(verb)
            );
                if let Some(cost) = makespan {
                    out.push_str(", \"makespan\": ");
                    write_cost(&mut out, cost);
                }
                out.push('}');
            }
            Response::Metrics(m) => {
                let _ = write!(
                out,
                "{{\"status\": \"metrics\", \"count\": {}, \"errors\": {}, \"uptime_ms\": {}, \"rps_x1000\": {}",
                m.count, m.errors, m.uptime_ms, m.rps_x1000
            );
                let s = &m.sessions;
                let _ = write!(
                out,
                ", \"sessions\": {{\"live\": {}, \"evicted\": {}, \"warm_hits\": {}, \"warm_misses\": {}, \"spills\": {}, \"cold_reloads\": {}, \"recovered\": {}, \"journal_appends\": {}, \"journal_bytes\": {}, \"snapshots\": {}}}",
                s.live, s.evicted, s.warm_hits, s.warm_misses, s.spills, s.cold_reloads,
                s.recovered, s.journal_appends, s.journal_bytes, s.snapshots
            );
                let _ = write!(
                    out,
                    ", \"journal_batch\": {{\"batches\": {}, \"p50\": {}, \"max\": {}}}",
                    m.journal_batches, m.journal_batch_p50, m.journal_batch_max
                );
                out.push_str(", \"standings\": [");
                for (i, s) in m.standings.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(
                    out,
                    "{{\"family\": \"{}\", \"solver\": \"{}\", \"races\": {}, \"wins\": {}, \"score_x1000\": {}}}",
                    Escaped(&s.family),
                    Escaped(&s.solver),
                    s.races,
                    s.wins,
                    s.score_x1000
                );
                }
                out.push(']');
                out.push_str(", \"stages\": [");
                for (i, st) in m.stages.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(
                    out,
                    "{{\"stage\": \"{}\", \"count\": {}, \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
                    Escaped(&st.stage),
                    st.count,
                    st.p50_us,
                    st.p90_us,
                    st.p99_us,
                    st.max_us
                );
                }
                out.push(']');
                out.push_str(", \"solver_latency\": [");
                for (i, sl) in m.solver_latency.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(
                    out,
                    "{{\"solver\": \"{}\", \"improvements\": {}, \"wins\": {}, \"first_p50_us\": {}, \"first_p99_us\": {}}}",
                    Escaped(&sl.solver),
                    sl.improvements,
                    sl.wins,
                    sl.first_p50_us,
                    sl.first_p99_us
                );
                }
                out.push(']');
                let _ = write!(out, ", \"trace_dropped\": {}}}", m.trace_dropped);
            }
        }
        out
    }
}

/// Integers at every digit count: the digit boundaries `10^k - 1` and
/// `10^k`, and `u64::MAX`.
fn any_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..10,
        0u64..100_000,
        (0u32..20).prop_map(|k| 10u64.pow(k) - 1),
        (0u32..20).prop_map(|k| 10u64.pow(k)),
        Just(u64::MAX),
        Just(u64::MAX - 1),
        proptest::num::u64::ANY,
    ]
}

fn any_cost() -> impl Strategy<Value = Cost> {
    prop_oneof![
        any_u64().prop_map(Cost::Time),
        (any_u64(), 1u64..1_000_000).prop_map(|(n, d)| Cost::Frac(Ratio::new(n, d))),
        (0u64..1_000_000, 0u64..1_000).prop_map(|(a, b)| Cost::Real(a as f64 + b as f64 / 1000.0)),
    ]
}

fn any_solution() -> impl Strategy<Value = Solution> {
    prop_oneof![
        vec(0usize..64, 0..50).prop_map(|a| Solution::Assignment(Schedule::new(a))),
        vec(any_u64(), 0..20).prop_map(|a| {
            Solution::Assignment(Schedule::new(a.into_iter().map(|x| x as usize).collect()))
        }),
        vec(vec((any_u64(), 1u64..=1000), 0..4), 0..6).prop_map(|rows| {
            Solution::Split(SplitSchedule::new(
                rows.into_iter()
                    .map(|row| {
                        row.into_iter()
                            .map(|(machine, millis)| SplitShare {
                                machine: machine as usize,
                                fraction: millis as f64 / 1000.0,
                            })
                            .collect()
                    })
                    .collect(),
            ))
        }),
    ]
}

/// Text that needs escaping: quotes, backslashes, control characters,
/// non-ASCII.
fn any_text() -> impl Strategy<Value = String> {
    const PIECES: [&str; 9] =
        ["local-search", "say \"x\"", "a\\b", "line\nbreak", "\t", "\u{1}", "µs", "", "∞"];
    vec(0usize..PIECES.len(), 0..4).prop_map(|idx| idx.into_iter().map(|i| PIECES[i]).collect())
}

fn opt_u64() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), any_u64().prop_map(Some)]
}

fn any_instance() -> impl Strategy<Value = ProblemInstance> {
    let cell = prop_oneof![0u64..100, 0u64..1_000_000, Just(INF), any_u64()];
    prop_oneof![
        (vec(1u64..1_000, 1..4), vec((0usize..3, any_u64()), 0..8)).prop_map(|(speeds, jobs)| {
            let jobs = jobs.into_iter().map(|(k, p)| Job::new(k, p)).collect();
            ProblemInstance::Uniform(UniformInstance::new(speeds, vec![3, 0, 7], jobs).unwrap())
        }),
        (1usize..4, vec((vec(cell, 3), 0usize..2), 0..6), proptest::bool::ANY).prop_map(
            |(m, jobs, split)| {
                // Every job keeps one finite cell on machine 0.
                let (ptimes, classes) = jobs
                    .into_iter()
                    .map(|(mut row, k)| {
                        row.truncate(m);
                        row[0] = 5;
                        (row, k)
                    })
                    .unzip();
                let setups = vec![vec![1; m], vec![9; m]];
                let inst = UnrelatedInstance::new(m, classes, ptimes, setups).unwrap();
                if split {
                    ProblemInstance::Splittable(SplittableInstance(inst))
                } else {
                    ProblemInstance::Unrelated(inst)
                }
            }
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ok_responses_encode_as_before(
        id in any_u64(),
        kind_sel in 0usize..3,
        solver in any_text(),
        micros in any_u64(),
        makespan in any_cost(),
        solution in any_solution(),
        solvers in vec(
            (any_text(), prop_oneof![Just(None), any_cost().prop_map(Some)], any_u64(), proptest::bool::ANY),
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
        prop_assert_eq!(response_to_json(&resp), old::response_to_json(&resp));
    }

    #[test]
    fn error_and_session_responses_encode_as_before(
        id in any_u64(),
        maybe_id in opt_u64(),
        message in any_text(),
        sid in any_u64(),
        live in any_u64(),
        makespan in prop_oneof![Just(None), any_cost().prop_map(Some)],
    ) {
        let error = Response::Error { id: maybe_id, message: message.clone() };
        prop_assert_eq!(response_to_json(&error), old::response_to_json(&error));
        let session = Response::Session { id, sid, verb: message, live, makespan };
        prop_assert_eq!(response_to_json(&session), old::response_to_json(&session));
    }

    #[test]
    fn requests_encode_as_before(
        id in any_u64(),
        budget_ms in opt_u64(),
        top_k in opt_u64(),
        seed in opt_u64(),
        instance in any_instance(),
    ) {
        let req = Request { id, instance, budget_ms, top_k: top_k.map(|k| k as usize), seed };
        prop_assert_eq!(request_to_json(&req), old::request_to_json(&req));
    }
}

#[test]
fn metrics_responses_encode_as_before() {
    let mut m = MetricsSummary {
        count: u64::MAX,
        errors: 10,
        uptime_ms: 999,
        rps_x1000: 1_000,
        sessions: SessionStats { live: 3, journal_bytes: 12_345_678_901, ..Default::default() },
        journal_batches: 1,
        journal_batch_p50: 9,
        journal_batch_max: 10,
        standings: vec![StandingLine {
            family: "uniform|\"x\"".into(),
            solver: "lpt".into(),
            races: 19,
            wins: 0,
            score_x1000: 1000,
        }],
        stages: vec![StageLine {
            stage: "race_us".into(),
            count: 100,
            p50_us: 99,
            p90_us: 1_000,
            p99_us: 10_001,
            max_us: u64::MAX,
        }],
        solver_latency: vec![SolverLatencyLine {
            solver: "anneal".into(),
            improvements: 7,
            wins: 70,
            first_p50_us: 0,
            first_p99_us: 9,
        }],
        trace_dropped: 0,
    };
    let resp = Response::Metrics(m.clone());
    assert_eq!(response_to_json(&resp), old::response_to_json(&resp));
    m.standings.clear();
    m.stages.clear();
    let resp = Response::Metrics(m);
    assert_eq!(response_to_json(&resp), old::response_to_json(&resp));
}
