//! Allocation gate for prefix forks.
//!
//! Campaigns fork every trial from one fault-free prefix with
//! `System::clone`, so the clone runs once per trial. The read-only
//! state a trial shares with its prefix (stage-2 tables, cell and
//! platform configs, config blobs, RAM pages) sits behind `Arc`s and
//! is copied only on a trial's first write to it. This binary installs
//! a counting global allocator and pins what the clone still
//! allocates. Counts do not move with host noise, and they are
//! the same in debug and release builds.
//!
//! Counting is per thread and only inside [`counted`], so the tests of
//! this binary can run in parallel.

use certify_core::campaign::{Campaign, Scenario};
use certify_core::system::System;
use certify_core::NullSink;
use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::cell::Cell;
use std::ops::Range;
use std::sync::Arc;

/// Allocations and requested bytes (a `realloc` counts as one
/// allocation of its new size).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Allocs {
    count: u64,
    bytes: u64,
}

thread_local! {
    static COUNTER: Cell<Option<Allocs>> = const { Cell::new(None) };
}

fn note(bytes: usize) {
    let _ = COUNTER.try_with(|counter| {
        if let Some(mut allocs) = counter.get() {
            allocs.count += 1;
            allocs.bytes += bytes as u64;
            counter.set(Some(allocs));
        }
    });
}

struct Counting;

// SAFETY: every call forwards to the system allocator unchanged; the
// counter touches only a const-initialised thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        Heap.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        Heap.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        Heap.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Heap.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its value with the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Allocs) {
    COUNTER.with(|counter| counter.set(Some(Allocs::default())));
    let value = f();
    let allocs = COUNTER.with(|counter| counter.take()).expect("counting");
    (value, allocs)
}

/// `scenario`'s shared prefix, built through public calls: the
/// fault-free testbed run to the fork step.
fn prefix(scenario: &Scenario) -> System {
    let script = Arc::new(scenario.script.clone());
    let mut system = if scenario.rtos_heartbeat {
        System::new_with_heartbeat(script)
    } else {
        System::new(script)
    };
    system.run(scenario.runner().fork_step());
    system
}

fn clone_allocs(scenario: &Scenario) -> Allocs {
    let prefix = prefix(scenario);
    let (fork, allocs) = counted(|| prefix.clone());
    drop(fork);
    allocs
}

/// Allocations per trial over `trials` of a one-worker, fixed-seed
/// `Campaign::execute`: the difference between campaigns of
/// `trials.end` and `trials.start` trials, so the one-off prefix build
/// and fork-step probe cancel out. A first uncounted run builds the
/// process-wide testbed.
fn allocs_per_trial(scenario: &Scenario, trials: Range<usize>) -> Allocs {
    let run = |trials: usize| {
        let campaign = Campaign::new(scenario.clone(), trials, 0xD5_2022);
        counted(|| campaign.execute(.., 1, &mut NullSink, None)).1
    };
    run(1);
    let (short, long) = (run(trials.start), run(trials.end));
    let len = trials.len() as u64;
    Allocs {
        count: (long.count - short.count) / len,
        bytes: (long.bytes - short.bytes) / len,
    }
}

#[test]
fn e3_prefix_clone_allocations() {
    let allocs = clone_allocs(&Scenario::e3_fig3());
    // Before the copy-on-write fork: 87 allocations, 63,393 bytes;
    // 9,081 bytes before the TCB lost its name and inheritance boost;
    // 8,705 bytes before each of the two `Cpu`s lost its mode, its
    // SPSR and its register file's four shadow trap registers; 8,657
    // before each lost its unread `id`; 42 allocations and 8,649 bytes
    // while the per-CPU and per-IRQ tables were vectors (the RAM page
    // map's one allocation grew from 84 to 144 bytes as a `BTreeMap`).
    assert_eq!(
        allocs,
        Allocs {
            count: 34,
            bytes: 6_061
        },
        "E3 System::clone"
    );
}

#[test]
fn e7_prefix_clone_allocations() {
    let allocs = clone_allocs(&Scenario::e7_mixed());
    // Before the copy-on-write fork: 92 allocations, 67,668 bytes;
    // 9,179 bytes before the TCB lost its name and inheritance boost;
    // 8,787 bytes before each of the two `Cpu`s lost its mode, its
    // SPSR and its register file's four shadow trap registers; 8,739
    // before each lost its unread `id`; 45 allocations and 8,731 bytes
    // while the per-CPU and per-IRQ tables were vectors.
    assert_eq!(
        allocs,
        Allocs {
            count: 37,
            bytes: 6_075
        },
        "E7 System::clone"
    );
}

/// Where the E3 clone's allocations remain. The machine's are the RAM
/// page map and the UART capture's three vectors; the hypervisor's are
/// its cell table and event trace; the RTOS's are mostly the boxed task
/// bodies. The system itself adds none.
#[test]
fn e3_prefix_clone_allocations_by_layer() {
    let prefix = prefix(&Scenario::e3_fig3());
    let count = |allocs: Allocs| allocs.count;
    let machine = count(counted(|| prefix.machine.clone()).1);
    let hv = count(counted(|| prefix.hv.clone()).1);
    let linux = count(counted(|| prefix.linux.clone()).1);
    let rtos = count(counted(|| prefix.rtos.clone()).1);
    // Before the copy-on-write fork: machine 12, hypervisor 22, Linux
    // 3, RTOS 49; machine 9 and hypervisor 5 while the per-CPU and
    // per-IRQ tables were vectors.
    assert_eq!((machine, hv, linux, rtos), (4, 2, 1, 27));
}

/// A whole forked trial (clone, injector install, suffix, classify),
/// bounded a little above its measured value: the suffix is not what
/// this gate is about, so small changes there need no new pin. Trials
/// 10..30 miss the campaign's fault-class cache, so each also stores
/// a copy of its result there.
#[test]
fn forked_trial_allocations_are_bounded() {
    // Measured: E3 75 allocations and 15,842 bytes per trial, E7 74 and
    // 45,973 (E7's memory faults copy the pages and tables they write);
    // E3 84 and 18,498, E7 82 and 48,653 while the per-CPU and per-IRQ
    // tables were vectors. E7 was 90 and 49,097 while each memory-injection record kept its
    // one fault in a `Vec`.
    // E3 was 80 and 18,424 before the fault-class cache, which stores a
    // boxed copy of each result it may serve; E7 stores none.
    // Before the copy-on-write fork: E3 125 and 73,162, E7 134 and
    // 84,646.
    for (scenario, max_count, max_bytes) in [
        (Scenario::e3_fig3(), 85, 20_000),
        (Scenario::e7_mixed(), 87, 51_000),
    ] {
        let allocs = allocs_per_trial(&scenario, 10..30);
        assert!(
            allocs.count <= max_count && allocs.bytes <= max_bytes,
            "{}: {allocs:?} per trial, bound {max_count} allocations and {max_bytes} bytes",
            scenario.name
        );
    }
}

/// Trials served from the fault-class cache allocate the fork, the
/// injector install, the one step to the first injection and the copy
/// of the stored result; the lookup itself allocates nothing. Most of
/// E3 trials 600..1000 are served, and the bound is their measured
/// mean (60 allocations and 12,986 bytes while the per-CPU and per-IRQ
/// tables were vectors).
#[test]
fn served_trial_allocations_are_bounded() {
    let allocs = allocs_per_trial(&Scenario::e3_fig3(), 600..1000);
    assert!(
        allocs.count <= 52 && allocs.bytes <= 10_356,
        "E3 trials 600..1000: {allocs:?} per trial, bound 52 allocations and 10,356 bytes"
    );
}
