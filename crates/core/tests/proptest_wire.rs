//! Differential property tests of the packed wire codec
//! (`sst_core::wire`) against the JSON codec (`sst_core::io`): for
//! arbitrary deltas and schedules, the two encodings must decode to
//! *bit-identical* values — the packed path is a perf optimisation, never
//! a semantic fork. The kind-tagged instance codec and its container
//! properties live with the instance type, in `sst-portfolio`'s
//! `tests/proptest_wire.rs`.

use proptest::collection::vec;
use proptest::prelude::*;
use sst_core::delta::InstanceDelta;
use sst_core::io;
use sst_core::schedule::Schedule;
use sst_core::wire::{read_deltas, read_schedule, write_deltas, write_schedule, Cursor};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
}
