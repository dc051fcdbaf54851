//! The four workloads: which world each one builds, how much of it one
//! run measures, and why it is in the set.
//!
//! Work per run is a pure function of `(workload, size, seed)`. The
//! contract's `--seconds` only picks a row of [`Size`]; nothing inside a
//! run is ever compared against a clock.

use vigil::{Baselines, ExperimentConfig, RunConfig};
use vigil_agents::ByzantineSpec;
use vigil_fabric::faults::{FaultPlan, RateRange};
use vigil_topology::ClosParams;

/// How a workload is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `StreamSession::run_window` in this process, one thread.
    InProcess,
    /// Recorded agent bytes replayed over two Unix-socket connections
    /// into `run_collector`.
    Collector,
}

/// The world a workload simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// `ClosParams::paper_sim()`: 800 hosts, 48 000 flows per window, 2
    /// failed links at 1 % plus the paper's noise.
    Paper,
    /// `ClosParams::test_cluster()`: 50 hosts, 3 000 flows per window, 30
    /// of its 80 links failed at 5 %.
    Cluster,
}

/// Which row of the size table a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size (`--seconds` at or above [`FULL_SECONDS`]).
    Full,
    /// A twentieth-scale run for smoke tests (`--seconds` below it).
    Smoke,
}

/// `--seconds` values from here up select [`Size::Full`]. Matches
/// `run_seconds` in `BENCHMARK.json`.
pub const FULL_SECONDS: u64 = 10;

impl Size {
    /// The size-table row a `--seconds` value selects.
    pub fn from_seconds(seconds: u64) -> Size {
        if seconds >= FULL_SECONDS {
            Size::Full
        } else {
            Size::Smoke
        }
    }
}

/// Cold set-ups timed per run (`setup_s` is their median).
pub const SETUP_REPS: usize = 50;

/// One workload: a permanent name, a world, and a fixed amount of work.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Permanent name (the `--workload` operand).
    pub name: &'static str,
    /// One line on why the workload is in the set.
    pub why: &'static str,
    /// How it is driven.
    pub driver: Driver,
    /// The world it simulates.
    pub fabric: Fabric,
    /// Whether 20 % of the hosts flood spurious evidence at rate 0.5.
    pub flooders: bool,
    full: (usize, usize),
    smoke: (usize, usize),
}

/// Every workload, in reporting order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fabric-48k",
        why: "paper-size fabric, 48 000 flows and ~70 evidence per window: fabric is ~98 % of the time, path interning grows the arena",
        driver: Driver::InProcess,
        fabric: Fabric::Paper,
        flooders: false,
        full: (4, 33),
        smoke: (1, 6),
    },
    Workload {
        name: "verdict-dense",
        why: "50-host cluster with 30 of 80 links failing: ~1 800 evidence per 3 000-flow window puts agents, hub and ledger at half the time; path space fits the caches",
        driver: Driver::InProcess,
        fabric: Fabric::Cluster,
        flooders: false,
        full: (8, 250),
        smoke: (1, 60),
    },
    Workload {
        name: "byzantine-aos",
        why: "fabric-48k's world with 20 % flooding hosts: forces the array-of-structs next_chunk pull and per-flow adversary emission, ~5 000 evidence per window",
        driver: Driver::InProcess,
        fabric: Fabric::Paper,
        flooders: true,
        full: (3, 33),
        smoke: (1, 5),
    },
    Workload {
        name: "collector-ingest",
        why: "verdict-dense's agent bytes replayed over two Unix sockets into run_collector: adds decode, admission, dedup, barrier and ack, the price of leaving the process",
        driver: Driver::Collector,
        fabric: Fabric::Cluster,
        flooders: false,
        full: (8, 200),
        smoke: (1, 40),
    },
];

impl Workload {
    /// Looks a workload up by its permanent name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Sessions per run at `size`. A session is a fresh topology seed,
    /// fault plan, `EpochScratch` and `StreamSession` (or collector).
    pub fn sessions(&self, size: Size) -> usize {
        match size {
            Size::Full => self.full.0,
            Size::Smoke => self.smoke.0,
        }
    }

    /// Timed windows per session at `size` (the cold window 0 of each
    /// session is set-up and comes on top).
    pub fn windows(&self, size: Size) -> usize {
        match size {
            Size::Full => self.full.1,
            Size::Smoke => self.smoke.1,
        }
    }

    /// The experiment one session of this workload runs: trial 0 of this
    /// config, epochs `0..=windows`, seeded exactly as `stream_trial`,
    /// `vigil-sim stream` and the agent/collector fleet seed theirs.
    pub fn config(&self, seed: u64, session: usize, windows: usize) -> ExperimentConfig {
        // The §5.3 baselines stay off: with the integer program on, one
        // byzantine window spends seconds in vigil_optim and the dense
        // cluster hits the node-budget cliff — off the serving path.
        let mut run = RunConfig {
            baselines: Baselines {
                integer: false,
                binary: false,
                ..Baselines::default()
            },
            ..RunConfig::default()
        };
        let (params, faults) = match self.fabric {
            Fabric::Paper => (
                ClosParams::paper_sim(),
                FaultPlan {
                    failure_rate: RateRange::fixed(0.01),
                    ..FaultPlan::paper_default(2)
                },
            ),
            Fabric::Cluster => (
                ClosParams::test_cluster(),
                FaultPlan {
                    failure_rate: RateRange::fixed(0.05),
                    ..FaultPlan::paper_default(30)
                },
            ),
        };
        if self.flooders {
            run.byzantine = ByzantineSpec::flooders(0.2, 0.5);
        }
        ExperimentConfig {
            name: self.name.into(),
            params,
            faults,
            run,
            epochs: windows + 1,
            trials: 1,
            seed: session_seed(seed, session),
        }
    }
}

/// The master seed of session `session` of a run seeded `seed`
/// (splitmix64 over both, so neighbouring seeds share no session).
pub fn session_seed(seed: u64, session: usize) -> u64 {
    let mut z = seed
        .wrapping_add((session as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
