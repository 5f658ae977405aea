//! The annealer's memory stays in proportion to its instance. A cold walk
//! on an instance with many classes and machines, where `K·m²` is far
//! above `n·m + K·m`, must allocate no more than a small multiple of the
//! instance's own time matrices: no state indexed by (class, machine,
//! machine) may appear, however few jobs there are.
//!
//! A counting global allocator measures the walk's peak. This binary holds
//! a single test, so no other test allocates beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use sst_algos::annealing::{anneal_unrelated, AnnealConfig};
use sst_core::instance::UnrelatedInstance;
use sst_core::schedule::Schedule;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(size: usize) {
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are the allocator's; the counters beside it are
// atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grow(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn a_cold_walk_on_many_classes_and_machines_allocates_like_its_instance() {
    // K·m² = 40 000 000 (class, machine, machine) cells, against
    // n·m + K·m = 200 600 times in the instance; most classes are empty.
    let (n, m, kk) = (3, 200, 1000);
    let ptimes = (0..n).map(|j| (0..m).map(|i| 1 + ((7 * i + 3 * j) % 11) as u64).collect());
    let setups = (0..kk).map(|k| (0..m).map(|i| 1 + ((i + k) % 5) as u64).collect());
    let inst =
        UnrelatedInstance::new(m, vec![0, 1, 2], ptimes.collect(), setups.collect()).unwrap();
    let start = Schedule::new(vec![0; n]);
    let cfg = AnnealConfig {
        iterations: 100_000,
        initial_temp_fraction: 1e-7,
        ..AnnealConfig::default()
    };

    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let res = anneal_unrelated(&inst, &start, &cfg);
    let peak = PEAK.load(Relaxed) - before;

    assert_eq!(res.plateau_entry, Some(0), "a cold walk starts in the plateau phase");
    assert!(res.accepted > 0, "the walk moves jobs off the loaded machine");
    let instance_bytes = 8 * (n * m + kk * m);
    assert!(
        peak <= 8 * instance_bytes,
        "the walk peaked at {peak} B against {instance_bytes} B of instance times"
    );
}
