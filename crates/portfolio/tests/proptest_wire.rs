//! Property tests of the kind-tagged instance codecs of
//! [`ProblemInstance`]: the packed container (`sst_portfolio::wire`)
//! against the JSON envelope (`sst_portfolio::protocol`). For arbitrary
//! instances of all three kinds the two encodings must decode to
//! *bit-identical* values — the packed path is a perf optimisation, never
//! a semantic fork. Plus the torn/corrupt-frame contract: any strict
//! prefix and any single flipped byte of a container is rejected, never
//! panics, never allocates unbounded. The delta and schedule properties
//! live in `sst-core`'s `tests/proptest_wire.rs`.

use proptest::collection::vec;
use proptest::prelude::*;
use sst_core::instance::{Job, UniformInstance, UnrelatedInstance};
use sst_core::io::InstanceDoc;
use sst_core::wire::{decode_frame, encode_frame, FT_INSTANCE};
use sst_portfolio::protocol::{instance_from_doc, instance_to_json};
use sst_portfolio::wire::{instance_from_container, instance_to_container};
use sst_portfolio::{ProblemInstance, SplittableInstance};

fn uniform_instance() -> impl Strategy<Value = UniformInstance> {
    (vec(1u64..50, 1..5), vec(0u64..60, 1..4), vec((0usize..100, 1u64..200), 0..16)).prop_map(
        |(speeds, setups, raw)| {
            let k = setups.len();
            let jobs: Vec<Job> = raw.into_iter().map(|(c, p)| Job::new(c % k, p)).collect();
            UniformInstance::new(speeds, setups, jobs).expect("constructed valid")
        },
    )
}

/// Every cell finite, so every class is hostable whole on any machine and
/// the instance also passes the splittable gate.
fn unrelated_instance() -> impl Strategy<Value = UnrelatedInstance> {
    (2usize..5, 1usize..4, vec((0usize..100, 1u64..200), 1..16)).prop_map(|(m, k, raw)| {
        let job_class: Vec<usize> = raw.iter().map(|&(c, _)| c % k).collect();
        let ptimes: Vec<Vec<u64>> =
            raw.iter().map(|&(_, p)| (0..m).map(|i| p + (i as u64) * 7 % 90).collect()).collect();
        let setups: Vec<Vec<u64>> =
            (0..k).map(|kk| (0..m).map(|i| 1 + ((kk + i) as u64 % 40)).collect()).collect();
        UnrelatedInstance::new(m, job_class, ptimes, setups).expect("constructed valid")
    })
}

fn any_instance() -> impl Strategy<Value = ProblemInstance> {
    prop_oneof![
        uniform_instance().prop_map(ProblemInstance::Uniform),
        unrelated_instance().prop_map(ProblemInstance::Unrelated),
        unrelated_instance().prop_map(|u| ProblemInstance::Splittable(SplittableInstance(u))),
    ]
}

/// JSON roundtrip through the instance envelope, on one line and pretty.
fn json_roundtrip(inst: &ProblemInstance, pretty: bool) -> ProblemInstance {
    let text = instance_to_json(inst, pretty);
    instance_from_doc(Some(InstanceDoc::parse(&text).expect("json scans"))).expect("json roundtrip")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_and_json_decode_to_identical_instances(inst in any_instance()) {
        // Both codecs roundtrip; their decodes agree bit-for-bit.
        let via_json = json_roundtrip(&inst, false);
        prop_assert_eq!(&json_roundtrip(&inst, true), &via_json);
        let bytes = instance_to_container(&inst);
        let via_packed = instance_from_container(&bytes).expect("own container parses");
        prop_assert_eq!(&via_packed, &inst);
        prop_assert_eq!(&via_packed, &via_json);
        prop_assert_eq!(via_packed.kind(), inst.kind());
    }

    #[test]
    fn torn_container_prefix_is_rejected_not_panicking(
        inst in any_instance(),
        cut_sel in 0usize..10_000,
    ) {
        let bytes = instance_to_container(&inst);
        let cut = cut_sel % bytes.len();
        prop_assert!(instance_from_container(&bytes[..cut]).is_err());
    }

    #[test]
    fn any_single_corrupt_byte_is_rejected(
        inst in any_instance(),
        pos_sel in 0usize..10_000,
        flip in 1u8..=255,
    ) {
        let bytes = instance_to_container(&inst);
        let pos = pos_sel % bytes.len();
        let mut bad = bytes.clone();
        bad[pos] ^= flip;
        // Header validators catch the first 20 bytes; the FNV checksum
        // catches every payload flip.
        prop_assert!(instance_from_container(&bad).is_err(), "flip {flip:#x} at {pos} accepted");
    }

    #[test]
    fn trailing_garbage_after_a_frame_is_rejected(
        inst in any_instance(),
        extra in vec(0u8..255, 1..16),
    ) {
        let mut bytes = instance_to_container(&inst);
        bytes.extend_from_slice(&extra);
        prop_assert!(instance_from_container(&bytes).is_err());
    }

    #[test]
    fn corrupt_counts_never_drive_huge_allocations(payload in vec(0u8..255, 0..64)) {
        // A syntactically valid frame around garbage bytes must decode to
        // an error, not a panic or an absurd reservation: Cursor::len caps
        // claimed element counts by the bytes actually present.
        let frame = encode_frame(FT_INSTANCE, &payload);
        let (ft, body) = decode_frame(&frame).expect("frame layer accepts any payload");
        prop_assert_eq!(ft, FT_INSTANCE);
        prop_assert_eq!(body, &payload[..]);
        let _ = instance_from_container(&frame); // must return, not abort
    }
}
