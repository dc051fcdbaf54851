//! Cost pins: exact allocation counts of the streaming pipeline, as a
//! tier-1 ratchet.
//!
//! A counting global allocator tallies, for the thread that makes them,
//! every allocation (calls and requested bytes) and every free (bytes).
//! Per-thread counts keep the harness's parallel tests out of each
//! other's rows. Each row builds one of the benchmark's worlds (trial 0
//! of its workload's config, `seed` 1), runs window 0 uncounted (it
//! grows the simulator's path arena and compiles routes), then counts
//! windows `1..=windows` of `StreamSession::run_window` plus
//! `evaluate_epoch`: the work the benchmark's `allocs_per_window`
//! divides. Live bytes are what the row's thread still holds after its
//! last window, counted from before the world was built: the topology,
//! the faults, the session and the scratch.
//!
//! A count above its pin fails: something now allocates more. A count
//! below its pin fails too, asking for the pin to be lowered, so a cut
//! is recorded by the change that makes it. Counts are the same in
//! debug and release, but can move with the standard library: the pins
//! were taken with rustc 1.95.0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vigil::evaluate::evaluate_epoch;
use vigil::prelude::*;
use vigil_agents::ByzantineSpec;

/// One thread's allocator traffic since it started.
#[derive(Clone, Copy)]
struct Counts {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    calls: u64,
    /// Bytes those calls requested (a reallocation counts its new size).
    bytes: u64,
    /// Bytes freed (a reallocation frees its old size).
    freed: u64,
}

thread_local! {
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts {
            calls: 0,
            bytes: 0,
            freed: 0,
        })
    };
}

fn count(calls: u64, bytes: usize, freed: usize) {
    // `try_with`: a thread being torn down still frees.
    let _ = COUNTS.try_with(|c| {
        let mut n = c.get();
        n.calls += calls;
        n.bytes += bytes as u64;
        n.freed += freed as u64;
        c.set(n);
    });
}

/// Forwards to [`System`], counting on the calling thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only added work is a
// const-initialised thread-local update, which neither allocates nor
// unwinds.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size(), 0);
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, 0, layout.size());
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size(), 0);
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size, layout.size());
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn counts() -> Counts {
    COUNTS.with(Cell::get)
}

/// One pinned row: a world, the windows counted, and what they cost.
struct Pin {
    world: &'static str,
    windows: usize,
    allocations: u64,
    bytes: u64,
    live: u64,
}

/// The pins, taken with rustc 1.95.0.
const PINS: &[Pin] = &[
    Pin {
        world: "verdict-dense",
        windows: 10,
        allocations: 102_929,
        bytes: 12_116_523,
        live: 1_130_386,
    },
    Pin {
        world: "fabric-48k",
        windows: 2,
        allocations: 1_210,
        bytes: 738_927,
        live: 2_358_400,
    },
    Pin {
        world: "byzantine-aos",
        windows: 1,
        allocations: 31_148,
        bytes: 5_573_780,
        live: 4_350_984,
    },
];

/// The benchmark workload `name`'s config (`benchmark/src/workloads.rs`):
/// the §5.3 baselines off, trial 0, seed 1.
fn world(name: &str) -> ExperimentConfig {
    let (params, failures, rate) = match name {
        "verdict-dense" => (ClosParams::test_cluster(), 30, 0.05),
        "fabric-48k" | "byzantine-aos" => (ClosParams::paper_sim(), 2, 0.01),
        _ => panic!("no world {name}"),
    };
    let mut run = RunConfig {
        baselines: Baselines {
            integer: false,
            binary: false,
            ..Baselines::default()
        },
        ..RunConfig::default()
    };
    if name == "byzantine-aos" {
        run.byzantine = ByzantineSpec::flooders(0.2, 0.5);
    }
    ExperimentConfig {
        name: name.into(),
        params,
        faults: FaultPlan {
            failure_rate: RateRange::fixed(rate),
            ..FaultPlan::paper_default(failures)
        },
        run,
        epochs: 1,
        trials: 1,
        seed: 1,
    }
}

/// Builds `cfg`'s world, runs window 0, and counts windows
/// `1..=windows`: (allocations, bytes, live bytes after the last one).
fn measure(cfg: &ExperimentConfig, windows: usize) -> (u64, u64, u64) {
    let start = counts();
    let trial = cfg.trial(0).expect("a valid fabric");
    let mut scratch = EpochScratch::new();
    let mut session = StreamSession::new(
        &trial.topo,
        &cfg.run,
        StreamTuning::default(),
        RetainPolicy::EvidenceOnly,
    );
    let mut window = |w: usize| {
        let faults = trial.faults(w);
        let run = session.run_window(
            &trial.topo,
            &cfg.run,
            &faults,
            &mut trial.epoch_rng(w),
            &mut scratch,
        );
        evaluate_epoch(&run)
    };
    window(0);
    let before = counts();
    for w in 1..=windows {
        window(w);
    }
    let after = counts();
    let live = (after.bytes - start.bytes) - (after.freed - start.freed);
    (after.calls - before.calls, after.bytes - before.bytes, live)
}

#[test]
fn stream_windows_allocate_exactly_as_pinned() {
    let mut failures = Vec::new();
    for pin in PINS {
        let (allocations, bytes, live) = measure(&world(pin.world), pin.windows);
        let row = format!("{} windows 1..={}", pin.world, pin.windows);
        for (what, got, pinned) in [
            ("allocations", allocations, pin.allocations),
            ("bytes", bytes, pin.bytes),
            ("live bytes", live, pin.live),
        ] {
            if got > pinned {
                failures.push(format!(
                    "{row}: {what} {got} is {} above its pin {pinned}",
                    got - pinned
                ));
            } else if got < pinned {
                failures.push(format!(
                    "{row}: {what} {got} is {} below its pin {pinned}: lower the pin to {got}",
                    pinned - got
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
