//! Property tests of the write-ahead journal codec (`sst_portfolio::durable`):
//! arbitrary verb records → encode → parse → identical, and — the recovery
//! contract — any torn or corrupted suffix of a journal stops the scan at
//! the damage while every record before it survives intact. The store
//! tests pin that batching never changes the journal bytes and that
//! concurrent appenders each land exactly once. `corpus/records.rs` pins
//! the line reader to the outcomes recorded for the journal's former
//! private verb codec, and a golden journal written by that codec must
//! re-encode byte for byte and recover to the recorded sessions.

use proptest::collection::vec;
use proptest::prelude::*;
use sst_core::delta::InstanceDelta;
use sst_core::instance::{Job, UniformInstance, UnrelatedInstance};
use sst_portfolio::durable::{encode_journal_line, parse_journal_line, scan_journal};
use sst_portfolio::protocol::instance_to_json;
use sst_portfolio::{
    Cost, Durability, DurableStore, JournalRecord, ProblemInstance, SessionEntry, Solution,
};

include!("corpus/records.rs");

/// A fresh scratch dir per proptest case (cases run interleaved, so the
/// name needs both pid and a counter).
fn scratch(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("sst-prop-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn append_record(store: &DurableStore, rec: &JournalRecord) -> std::io::Result<u64> {
    match rec {
        JournalRecord::Create { sid, instance } => store.append_create(*sid, instance),
        JournalRecord::Delta { sid, deltas } => store.append_delta(*sid, deltas),
        JournalRecord::Close { sid } => store.append_close(*sid),
    }
}

/// A float the way the serve tier's JSON writers print it: integral
/// values keep one decimal.
fn render_f64(x: f64) -> String {
    if x == x.trunc() && x.is_finite() {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

/// One recovered session in the JSON snapshot schema that builds before
/// packed snapshots used: `{"v": 1, "sid", "seq", "instance", "cost",
/// "assignment" | "shares", "proxy"?}`.
fn render_session(sid: u64, seq: u64, e: &SessionEntry) -> String {
    let cost = match e.cost {
        Cost::Time(t) => t.to_string(),
        Cost::Frac(r) => format!("{{\"num\": {}, \"den\": {}}}", r.numer(), r.denom()),
        Cost::Real(x) => render_f64(x),
    };
    let solution = match &e.incumbent {
        Solution::Assignment(s) => format!("\"assignment\": {:?}", s.assignment()),
        Solution::Split(split) => {
            let rows: Vec<String> = split
                .shares()
                .iter()
                .map(|row| {
                    let shares: Vec<String> = row
                        .iter()
                        .map(|sh| {
                            let fraction = render_f64(sh.fraction);
                            format!("{{\"machine\": {}, \"fraction\": {fraction}}}", sh.machine)
                        })
                        .collect();
                    format!("[{}]", shares.join(", "))
                })
                .collect();
            format!("\"shares\": [{}]", rows.join(", "))
        }
    };
    let proxy = match &e.proxy {
        Some(p) => format!(", \"proxy\": {:?}", p.assignment()),
        None => String::new(),
    };
    let instance = instance_to_json(&e.instance, false);
    format!(
        "{{\"v\": 1, \"sid\": {sid}, \"seq\": {seq}, \"instance\": {instance}, \
         \"cost\": {cost}, {solution}{proxy}}}"
    )
}

/// Canonical deep-comparable form of a recovery: the rendering is
/// deterministic, so equal strings mean equal recovered state.
fn recovered_state(store: &DurableStore) -> Vec<String> {
    let rec = store.recover().expect("recover");
    let mut lines: Vec<String> =
        rec.sessions.iter().map(|(sid, seq, e)| render_session(*sid, *seq, e)).collect();
    lines.sort();
    lines
}

#[test]
fn journal_lines_decode_as_recorded() {
    for &(line, want) in recorded::JOURNAL_LINES {
        let got = match parse_journal_line(line) {
            Ok((seq, rec)) => format!("ok:{}", encode_journal_line(seq, &rec)),
            Err(_) => "Err".into(),
        };
        assert_eq!(got, want, "{line}");
    }
}

#[test]
fn golden_journal_reencodes_byte_for_byte_and_recovers_the_recorded_sessions() {
    let golden = include_str!("corpus/golden_journal.log");
    let (records, tail) = scan_journal(golden.as_bytes());
    assert_eq!(tail, None);
    let reencoded: String =
        records.iter().map(|(seq, rec)| encode_journal_line(*seq, rec) + "\n").collect();
    assert_eq!(reencoded, golden);
    // The append path writes the same bytes.
    let dir = scratch("golden-append");
    let store = DurableStore::open(&dir, Durability::Flush).expect("open");
    for (_, rec) in &records {
        append_record(&store, rec).expect("append");
    }
    store.flush_journal().expect("flush");
    assert_eq!(std::fs::read_to_string(dir.join("journal.log")).expect("read"), golden);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    // Replaying it rebuilds the recorded sessions.
    let dir = scratch("golden-recover");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("journal.log"), golden).expect("write");
    let store = DurableStore::open(&dir, Durability::Flush).expect("open");
    assert_eq!(recovered_state(&store), recorded::GOLDEN_RECOVERED);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

fn uniform_instance() -> impl Strategy<Value = ProblemInstance> {
    (vec(1u64..50, 1..4), vec(0u64..60, 1..4), vec((0usize..100, 1u64..200), 0..12)).prop_map(
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
    (2usize..4, 1usize..4, vec((0usize..100, 1u64..200), 1..12)).prop_map(|(m, k, raw)| {
        let job_class: Vec<usize> = raw.iter().map(|&(c, _)| c % k).collect();
        let ptimes: Vec<Vec<u64>> =
            raw.iter().map(|&(_, p)| (0..m).map(|i| p + (i as u64) * 7 % 90).collect()).collect();
        let setups: Vec<Vec<u64>> =
            (0..k).map(|kk| (0..m).map(|i| 1 + ((kk + i) as u64 % 40)).collect()).collect();
        ProblemInstance::Unrelated(
            UnrelatedInstance::new(m, job_class, ptimes, setups).expect("constructed valid"),
        )
    })
}

fn any_delta() -> impl Strategy<Value = InstanceDelta> {
    prop_oneof![
        (0usize..8, vec(1u64..300, 1..4))
            .prop_map(|(class, times)| InstanceDelta::AddJob { class, times }),
        (0usize..64).prop_map(|job| InstanceDelta::RemoveJob { job }),
        (0usize..64, vec(1u64..300, 1..4))
            .prop_map(|(job, times)| InstanceDelta::ResizeJob { job, times }),
        (0usize..8, vec(1u64..300, 1..4))
            .prop_map(|(class, times)| InstanceDelta::ResizeSetup { class, times }),
    ]
}

fn any_record() -> impl Strategy<Value = JournalRecord> {
    prop_oneof![
        (0u64..1_000, prop_oneof![uniform_instance(), unrelated_instance()])
            .prop_map(|(sid, instance)| JournalRecord::Create { sid, instance }),
        (0u64..1_000, vec(any_delta(), 0..6))
            .prop_map(|(sid, deltas)| JournalRecord::Delta { sid, deltas }),
        (0u64..1_000).prop_map(|sid| JournalRecord::Close { sid }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn journal_line_roundtrip(seq in 0u64..u64::MAX / 2, rec in any_record()) {
        let line = encode_journal_line(seq, &rec);
        prop_assert!(!line.contains('\n'), "journal lines must be single-line");
        let (parsed_seq, parsed) = parse_journal_line(&line).expect("own output parses");
        prop_assert_eq!(parsed_seq, seq);
        prop_assert_eq!(parsed, rec);
    }

    #[test]
    fn truncated_journal_keeps_exactly_the_intact_prefix(
        records in vec(any_record(), 1..6),
        cut in 1usize..200,
    ) {
        let mut text = String::new();
        for (i, rec) in records.iter().enumerate() {
            text.push_str(&encode_journal_line(i as u64 + 1, rec));
            text.push('\n');
        }
        let cut = cut.min(text.len());
        let torn = &text[..text.len() - cut];
        let (kept, tail) = scan_journal(torn.as_bytes());
        // The kept prefix is byte-identical state: record i parses back to
        // records[i].
        for (i, (seq, rec)) in kept.iter().enumerate() {
            prop_assert_eq!(*seq, i as u64 + 1);
            prop_assert_eq!(rec, &records[i]);
        }
        // Cutting mid-line must both drop that record and report the tear;
        // cutting exactly at a newline boundary is a clean shorter journal.
        let on_boundary = torn.is_empty() || torn.ends_with('\n');
        if on_boundary {
            prop_assert!(tail.is_none(), "clean cut must not report a tear");
            prop_assert_eq!(kept.len(), torn.lines().count());
        } else {
            let tail = tail.expect("mid-line cut must report the torn tail");
            prop_assert!(tail.dropped_bytes > 0);
            prop_assert!(kept.len() < records.len());
        }
    }

    #[test]
    fn corrupted_byte_stops_the_scan_at_the_damaged_record(
        records in vec(any_record(), 2..6),
        victim_sel in 0usize..1000,
        flip_sel in 0usize..1000,
        flip in 1u8..=255,
    ) {
        let lines: Vec<String> = records
            .iter()
            .enumerate()
            .map(|(i, rec)| encode_journal_line(i as u64 + 1, rec))
            .collect();
        let victim = victim_sel % lines.len();
        let mut corrupted: Vec<Vec<u8>> = lines.iter().map(|l| l.clone().into_bytes()).collect();
        // Change one payload byte to any other value: the checksum (or,
        // for a byte that breaks UTF-8, the UTF-8 check) must catch it.
        let bytes = &mut corrupted[victim];
        let pos = 18 + flip_sel % (bytes.len() - 18);
        bytes[pos] ^= flip;
        let mut text = corrupted.join(&b'\n');
        text.push(b'\n');
        let (kept, tail) = scan_journal(&text);
        prop_assert_eq!(kept.len(), victim, "scan stops exactly at the damaged record");
        for (i, (_, rec)) in kept.iter().enumerate() {
            prop_assert_eq!(rec, &records[i]);
        }
        let tail = tail.expect("corruption must be reported");
        prop_assert!(tail.dropped_bytes > 0);
    }

    /// The group-commit contract: batching changes *when* bytes reach the
    /// file, never *which* bytes. The same verb sequence through a
    /// one-record-per-commit store (batch 1) and a grouped store (batch 4)
    /// must leave byte-identical journals and recover to identical state.
    #[test]
    fn grouped_journal_is_byte_identical_to_synchronous_appends(
        records in vec(any_record(), 1..7),
    ) {
        let (d1, d2) = (scratch("single"), scratch("grouped"));
        let single = DurableStore::open(&d1, Durability::Flush).unwrap().with_group_commit(1, 0);
        let grouped = DurableStore::open(&d2, Durability::Flush).unwrap().with_group_commit(4, 0);
        for rec in &records {
            let s1 = append_record(&single, rec).unwrap();
            let s2 = append_record(&grouped, rec).unwrap();
            prop_assert_eq!(s1, s2, "seq assignment must not depend on batching");
        }
        single.flush_journal().unwrap();
        grouped.flush_journal().unwrap();
        let j1 = std::fs::read(d1.join("journal.log")).unwrap();
        let j2 = std::fs::read(d2.join("journal.log")).unwrap();
        prop_assert_eq!(j1, j2, "on-disk journal must be bit-identical");
        prop_assert_eq!(recovered_state(&single), recovered_state(&grouped));
        drop(single);
        drop(grouped);
        let _ = std::fs::remove_dir_all(&d1);
        let _ = std::fs::remove_dir_all(&d2);
    }

    /// Concurrent lanes: threads released together by a barrier append
    /// to one batch-64 store, so leaders commit multi-record batches.
    /// Every acknowledged record is in the journal exactly once, under the
    /// seq its appender was given, and the seqs are exactly `1..=N`.
    #[test]
    fn concurrent_appends_land_once_each_with_contiguous_seqs(
        records in vec(any_record(), 2..12),
    ) {
        let dir = scratch("concurrent");
        let store = DurableStore::open(&dir, Durability::Flush).unwrap().with_group_commit(64, 0);
        let barrier = std::sync::Barrier::new(records.len());
        let seqs: Vec<u64> = std::thread::scope(|scope| {
            let lanes: Vec<_> = records
                .iter()
                .map(|rec| {
                    let (store, barrier) = (&store, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        append_record(store, rec).expect("append acknowledged")
                    })
                })
                .collect();
            lanes.into_iter().map(|lane| lane.join().unwrap()).collect()
        });
        store.flush_journal().unwrap();
        let text = std::fs::read(dir.join("journal.log")).unwrap();
        let (kept, tail) = scan_journal(&text);
        prop_assert!(tail.is_none(), "concurrent batches must stay line-framed");
        let on_disk: Vec<u64> = kept.iter().map(|(seq, _)| *seq).collect();
        prop_assert_eq!(on_disk, (1..=records.len() as u64).collect::<Vec<_>>());
        for (rec, seq) in records.iter().zip(&seqs) {
            prop_assert_eq!(&kept[*seq as usize - 1].1, rec, "seq {} holds another record", seq);
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A torn tail *inside* one coalesced write behaves exactly like a torn
    /// single-record journal: the batch stays line-framed on disk, so the
    /// scan keeps precisely the records whose lines survived. The journal is
    /// built by per-record appends; the byte-identity property above makes
    /// it the file any batching of the same records would have written.
    #[test]
    fn torn_tail_inside_a_coalesced_batch_keeps_the_intact_record_prefix(
        records in vec(any_record(), 1..6),
        cut in 1usize..200,
    ) {
        let dir = scratch("torn");
        let store = DurableStore::open(&dir, Durability::Flush).unwrap().with_group_commit(64, 0);
        for rec in &records {
            append_record(&store, rec).unwrap();
        }
        store.flush_journal().unwrap();
        drop(store);
        let text = std::fs::read_to_string(dir.join("journal.log")).unwrap();
        let cut = cut.min(text.len());
        let torn = &text[..text.len() - cut];
        let (kept, tail) = scan_journal(torn.as_bytes());
        for (i, (seq, rec)) in kept.iter().enumerate() {
            prop_assert_eq!(*seq, i as u64 + 1);
            prop_assert_eq!(rec, &records[i]);
        }
        let on_boundary = torn.is_empty() || torn.ends_with('\n');
        if on_boundary {
            prop_assert!(tail.is_none(), "clean cut must not report a tear");
            prop_assert_eq!(kept.len(), torn.lines().count());
        } else {
            let tail = tail.expect("mid-line cut must report the torn tail");
            prop_assert!(tail.dropped_bytes > 0);
            prop_assert!(kept.len() < records.len());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
