//! Property tests of the packed snapshot codec
//! (`sst_portfolio::durable::{encode_snapshot_packed, parse_snapshot_packed}`):
//! arbitrary session entries roundtrip bit-identically through the packed
//! frame; every torn tail and every single corrupted byte is rejected —
//! the recovery path must treat a damaged snapshot as absent, never panic.

use proptest::collection::vec;
use proptest::prelude::*;
use sst_core::instance::{Job, UniformInstance, UnrelatedInstance};
use sst_core::schedule::Schedule;
use sst_portfolio::durable::{encode_snapshot_packed, parse_snapshot_packed};
use sst_portfolio::{ProblemInstance, SessionEntry};
use std::sync::Arc;

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

fn any_entry() -> impl Strategy<Value = SessionEntry> {
    (prop_oneof![uniform_instance(), unrelated_instance()], any::<bool>()).prop_map(
        |(instance, with_proxy)| {
            let greedy = instance.greedy();
            let proxy = with_proxy.then(|| match &greedy.solution {
                sst_portfolio::Solution::Assignment(s) => s.clone(),
                _ => Schedule::new(vec![]),
            });
            SessionEntry {
                instance: Arc::new(instance),
                incumbent: greedy.solution,
                cost: greedy.cost,
                proxy,
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn packed_snapshot_roundtrips_bit_identically(
        sid in 0u64..1_000_000,
        seq in 0u64..1_000_000,
        entry in any_entry(),
    ) {
        let bytes = encode_snapshot_packed(sid, seq, &entry);
        let (got_sid, got_seq, got) = parse_snapshot_packed(&bytes).expect("own bytes parse");
        prop_assert_eq!((got_sid, got_seq), (sid, seq));
        prop_assert_eq!(got.instance.as_ref(), entry.instance.as_ref());
        prop_assert_eq!(got.cost, entry.cost);
        prop_assert_eq!(got.proxy, entry.proxy);
    }

    #[test]
    fn torn_packed_snapshot_tail_is_rejected(
        entry in any_entry(),
        cut_sel in 0usize..100_000,
    ) {
        let bytes = encode_snapshot_packed(3, 9, &entry);
        let cut = cut_sel % bytes.len();
        prop_assert!(parse_snapshot_packed(&bytes[..cut]).is_err());
    }

    #[test]
    fn corrupt_packed_snapshot_byte_is_rejected(
        entry in any_entry(),
        pos_sel in 0usize..100_000,
        flip in 1u8..=255,
    ) {
        let bytes = encode_snapshot_packed(3, 9, &entry);
        let pos = pos_sel % bytes.len();
        let mut bad = bytes.clone();
        bad[pos] ^= flip;
        prop_assert!(parse_snapshot_packed(&bad).is_err(), "flip {flip:#x} at {pos} accepted");
    }
}
