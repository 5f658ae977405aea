//! Differential property tests of the packed wire codec
//! (`sst_core::wire`) against the JSON codec (`sst_core::io`): for
//! arbitrary instances of all three kinds, deltas and schedules, the two
//! encodings must decode to *bit-identical* values — the packed path is a
//! perf optimisation, never a semantic fork. Plus the torn/corrupt-frame
//! contract: any strict prefix and any single flipped byte of a container
//! is rejected, never panics, never allocates unbounded.

use proptest::collection::vec;
use proptest::prelude::*;
use sst_core::delta::InstanceDelta;
use sst_core::instance::{Job, UniformInstance, UnrelatedInstance};
use sst_core::io;
use sst_core::schedule::Schedule;
use sst_core::wire::{
    decode_frame, encode_frame, instance_from_container, instance_to_container, read_deltas,
    read_schedule, write_deltas, write_schedule, Cursor, PackedInstance, FT_INSTANCE,
};

fn uniform_instance() -> impl Strategy<Value = UniformInstance> {
    (vec(1u64..50, 1..5), vec(0u64..60, 1..4), vec((0usize..100, 1u64..200), 0..16)).prop_map(
        |(speeds, setups, raw)| {
            let k = setups.len();
            let jobs: Vec<Job> = raw.into_iter().map(|(c, p)| Job::new(c % k, p)).collect();
            UniformInstance::new(speeds, setups, jobs).expect("constructed valid")
        },
    )
}

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

fn any_packed() -> impl Strategy<Value = PackedInstance> {
    prop_oneof![
        uniform_instance().prop_map(PackedInstance::Uniform),
        unrelated_instance().prop_map(PackedInstance::Unrelated),
        unrelated_instance().prop_map(PackedInstance::Splittable),
    ]
}

fn any_delta() -> impl Strategy<Value = InstanceDelta> {
    prop_oneof![
        (0usize..8, vec(1u64..300, 1..5))
            .prop_map(|(class, times)| InstanceDelta::AddJob { class, times }),
        (0usize..64).prop_map(|job| InstanceDelta::RemoveJob { job }),
        (0usize..64, vec(1u64..300, 1..5))
            .prop_map(|(job, times)| InstanceDelta::ResizeJob { job, times }),
        (0usize..8, vec(1u64..300, 1..5))
            .prop_map(|(class, times)| InstanceDelta::ResizeSetup { class, times }),
        vec(1u64..300, 1..5).prop_map(|times| InstanceDelta::AddClass { times }),
    ]
}

/// JSON roundtrip of a kind-preserving instance, via the matching codec.
fn json_roundtrip(inst: &PackedInstance) -> PackedInstance {
    match inst {
        PackedInstance::Uniform(u) => PackedInstance::Uniform(
            io::uniform_from_json(&io::uniform_to_json_line(u)).expect("json roundtrip"),
        ),
        PackedInstance::Unrelated(u) => PackedInstance::Unrelated(
            io::unrelated_from_json(&io::unrelated_to_json_line(u)).expect("json roundtrip"),
        ),
        PackedInstance::Splittable(u) => PackedInstance::Splittable(
            io::splittable_from_json(&io::splittable_to_json_line(u)).expect("json roundtrip"),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_and_json_decode_to_identical_instances(inst in any_packed()) {
        // Both codecs roundtrip; their decodes agree bit-for-bit.
        let via_json = json_roundtrip(&inst);
        let bytes = instance_to_container(&inst);
        let via_packed = instance_from_container(&bytes).expect("own container parses");
        prop_assert_eq!(&via_packed, &inst);
        prop_assert_eq!(&via_packed, &via_json);
        prop_assert_eq!(via_packed.kind(), inst.kind());
    }

    #[test]
    fn packed_and_json_decode_to_identical_deltas(deltas in vec(any_delta(), 0..8)) {
        let text = sst_core::delta::deltas_to_json(&deltas);
        let via_json = sst_core::delta::deltas_at(io::json::Parser::new(&text)).expect("json roundtrip");
        let mut buf = Vec::new();
        write_deltas(&mut buf, &deltas);
        let mut cur = Cursor::new(&buf);
        let via_packed = read_deltas(&mut cur).expect("own bytes parse");
        cur.finish().expect("no trailing bytes");
        prop_assert_eq!(&via_packed, &deltas);
        prop_assert_eq!(via_packed, via_json);
    }

    #[test]
    fn packed_and_json_decode_to_identical_schedules(raw in vec(0usize..8, 0..32)) {
        let sched = Schedule::new(raw);
        let via_json =
            io::schedule_from_json(&io::schedule_to_json(&sched)).expect("json roundtrip");
        let mut buf = Vec::new();
        write_schedule(&mut buf, &sched);
        let mut cur = Cursor::new(&buf);
        let via_packed = read_schedule(&mut cur).expect("own bytes parse");
        cur.finish().expect("no trailing bytes");
        prop_assert_eq!(&via_packed, &sched);
        prop_assert_eq!(via_packed, via_json);
    }

    #[test]
    fn torn_container_prefix_is_rejected_not_panicking(
        inst in any_packed(),
        cut_sel in 0usize..10_000,
    ) {
        let bytes = instance_to_container(&inst);
        let cut = cut_sel % bytes.len();
        prop_assert!(instance_from_container(&bytes[..cut]).is_err());
    }

    #[test]
    fn any_single_corrupt_byte_is_rejected(
        inst in any_packed(),
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
        inst in any_packed(),
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
