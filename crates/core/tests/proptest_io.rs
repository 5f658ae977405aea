//! Property tests for the JSON layer: arbitrary valid instances must
//! survive serialize→parse round trips bit-exactly, and parsing always
//! re-validates (no malformed instance can be smuggled in through disk).
//! The shared decode corpus (`corpus/instances.rs`) pins every kind's
//! decoder to the outcomes recorded for the tree-based decoder it
//! replaced, under any key order, whitespace and unknown keys;
//! `corpus/values.rs` does the same for the delta and schedule readers.

use proptest::collection::vec;
use proptest::prelude::*;
use sst_core::delta::{delta_at, delta_to_json, deltas_at, deltas_to_json};
use sst_core::instance::{Job, UniformInstance, UnrelatedInstance, INF};
use sst_core::io::json::Parser;
use sst_core::io::{
    schedule_from_json, schedule_to_json, uniform_to_json, unrelated_to_json, InstanceDoc, IoError,
};
use sst_core::schedule::Schedule;

include!("corpus/instances.rs");
include!("corpus/values.rs");

/// A decode result in the corpus's outcome notation: `ok:` plus the value
/// re-encoded, or the error variant.
fn notation(decoded: Result<String, IoError>) -> String {
    match decoded {
        Ok(line) => format!("ok:{line}"),
        Err(IoError::Json(_)) => "Json".into(),
        Err(IoError::Format(_)) => "Format".into(),
        Err(IoError::Invalid(_)) => "Invalid".into(),
    }
}

fn decode_uniform(text: &str) -> Result<UniformInstance, IoError> {
    InstanceDoc::parse(text)?.uniform()
}

fn decode_unrelated(text: &str, kind: &str) -> Result<UnrelatedInstance, IoError> {
    InstanceDoc::parse(text)?.unrelated(kind)
}

/// What decoding `doc` as `kind` gives, in the corpus's outcome notation.
fn outcome(kind: &str, doc: &str) -> String {
    notation(match kind {
        "uniform" => decode_uniform(doc).map(|u| uniform_to_json(&u, false)),
        _ => decode_unrelated(doc, kind).map(|u| unrelated_to_json(&u, kind, false)),
    })
}

#[test]
fn delta_and_schedule_readers_keep_the_recorded_outcomes() {
    for &(text, want) in recorded::DELTAS {
        let got = notation(delta_at(Parser::new(text)).map(|d| delta_to_json(&d)));
        assert_eq!(got, want, "{text}");
    }
    for &(text, want) in recorded::DELTA_ARRAYS {
        let got = notation(deltas_at(Parser::new(text)).map(|d| deltas_to_json(&d)));
        assert_eq!(got, want, "{text}");
    }
    for &(text, want) in recorded::SCHEDULES {
        let got = notation(schedule_from_json(text).map(|s| schedule_to_json(&s)));
        assert_eq!(got, want, "{text}");
    }
}

/// The instance as corpus fields, so it can be scrambled like a case.
fn as_case(kind: &'static str, fields: Vec<(&str, String)>) -> corpus::Case {
    let mut all =
        vec![("version".to_string(), "1".to_string()), ("kind".into(), format!("\"{kind}\""))];
    all.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    corpus::Case { name: String::new(), kind, fields: all, raw: None }
}

fn uniform_case(inst: &UniformInstance) -> corpus::Case {
    let jobs: Vec<String> = inst
        .jobs()
        .iter()
        .map(|j| format!("{{\"size\": {}, \"class\": {}}}", j.size, j.class))
        .collect();
    as_case(
        "uniform",
        vec![
            ("speeds", format!("{:?}", inst.speeds())),
            ("setups", format!("{:?}", inst.setups())),
            ("jobs", format!("[{}]", jobs.join(", "))),
        ],
    )
}

fn unrelated_case(kind: &'static str, inst: &UnrelatedInstance) -> corpus::Case {
    let ptimes: Vec<&[u64]> = (0..inst.n()).map(|j| inst.ptimes_row(j)).collect();
    let setups: Vec<&[u64]> = (0..inst.num_classes()).map(|k| inst.setups_row(k)).collect();
    as_case(
        kind,
        vec![
            ("m", inst.m().to_string()),
            ("job_class", format!("{:?}", inst.job_classes())),
            ("ptimes", format!("{ptimes:?}")),
            ("setups", format!("{setups:?}")),
        ],
    )
}

#[test]
fn every_corpus_case_decodes_as_recorded() {
    let cases = corpus::cases();
    assert_eq!(cases.len(), corpus::EXPECTED.len(), "corpus and recorded table out of step");
    for case in &cases {
        let (want, ..) = corpus::expected(&case.name);
        assert_eq!(outcome(case.kind, &case.render()), want, "{}", case.name);
    }
}

#[test]
fn corpus_outcomes_ignore_key_order_whitespace_and_unknown_keys() {
    for case in corpus::cases() {
        let (want, ..) = corpus::expected(&case.name);
        for seed in 0..24 {
            let doc = case.render_scrambled(seed);
            assert_eq!(outcome(case.kind, &doc), want, "{} (seed {seed}): {doc}", case.name);
        }
    }
}

fn uniform_instance() -> impl Strategy<Value = UniformInstance> {
    (vec(1u64..=1000, 1..=6), vec(0u64..=1000, 1..=5), vec((0usize..5, 0u64..=10_000), 0..=20))
        .prop_map(|(speeds, setups, raw)| {
            let k = setups.len();
            let jobs: Vec<Job> = raw.into_iter().map(|(c, p)| Job::new(c % k, p)).collect();
            UniformInstance::new(speeds, setups, jobs).expect("valid")
        })
}

fn unrelated_instance() -> impl Strategy<Value = UnrelatedInstance> {
    (1usize..=4, vec((0usize..3, 1u64..=100, 0u8..8), 1..=10), vec(vec(0u64..=50, 4), 3)).prop_map(
        |(m, raw, setup_rows)| {
            let ptimes: Vec<Vec<u64>> = raw
                .iter()
                .map(|&(_, p, mask)| {
                    (0..m)
                        .map(|i| {
                            // Keep machine 0 finite so every job runs.
                            if i > 0 && mask & (1 << i) != 0 {
                                INF
                            } else {
                                p + i as u64
                            }
                        })
                        .collect()
                })
                .collect();
            let classes: Vec<usize> = raw.iter().map(|&(c, _, _)| c % 3).collect();
            let setups: Vec<Vec<u64>> = setup_rows
                .into_iter()
                .map(|row| (0..m).map(|i| row[i % row.len()]).collect())
                .collect();
            UnrelatedInstance::new(m, classes, ptimes, setups).expect("valid")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn uniform_roundtrip_is_identity(inst in uniform_instance()) {
        let back = decode_uniform(&uniform_to_json(&inst, true))
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(inst, back);
    }

    #[test]
    fn unrelated_roundtrip_preserves_infinities(inst in unrelated_instance()) {
        let back = decode_unrelated(&unrelated_to_json(&inst, "unrelated", true), "unrelated")
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(inst, back);
    }

    #[test]
    fn schedule_roundtrip(asg in vec(0usize..100, 0..=30)) {
        let s = Schedule::new(asg);
        let back = schedule_from_json(&schedule_to_json(&s))
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(s, back);
    }

    #[test]
    fn scrambled_documents_decode_to_the_same_instance(
        u in uniform_instance(),
        r in unrelated_instance(),
        seed in any::<u64>(),
    ) {
        let doc = uniform_case(&u).render_scrambled(seed);
        prop_assert_eq!(decode_uniform(&doc).map_err(|e| TestCaseError::fail(e.to_string()))?, u);
        let doc = unrelated_case("unrelated", &r).render_scrambled(seed);
        prop_assert_eq!(&decode_unrelated(&doc, "unrelated").map_err(|e| TestCaseError::fail(e.to_string()))?, &r);
        let doc = unrelated_case("splittable", &r).render_scrambled(seed);
        prop_assert_eq!(decode_unrelated(&doc, "splittable").map_err(|e| TestCaseError::fail(e.to_string()))?, r);
    }

    #[test]
    fn cross_kind_parsing_always_errors(inst in uniform_instance()) {
        // A uniform file must never parse as an unrelated instance.
        prop_assert!(decode_unrelated(&uniform_to_json(&inst, true), "unrelated").is_err());
    }
}
