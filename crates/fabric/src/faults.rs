//! Link fault models and failure injection.
//!
//! The paper's §6 simulator has "two types of links. For good links,
//! packets are dropped at a very low rate chosen uniformly from (0, 10⁻⁶)
//! to simulate noise. On the other hand, failed links have a higher drop
//! rate to simulate failures. By default, drop rates on failed links are
//! set to vary uniformly from 0.01 % to 1 %."
//!
//! [`LinkFaults`] is the dense per-link drop-rate table plus the injected
//! failure ground truth; [`FaultPlan`] describes *what to inject* so each
//! experiment can state its scenario declaratively and reproducibly.

use crate::compose::CompositeFaultPlan;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use vigil_topology::{ClosTopology, LinkId, LinkKind};

/// Inclusive-exclusive drop-rate range `(lo, hi)` sampled uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateRange {
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (exclusive, unless equal to `lo`).
    pub hi: f64,
}

impl RateRange {
    /// A fixed rate (degenerate range).
    pub const fn fixed(rate: f64) -> Self {
        Self { lo: rate, hi: rate }
    }

    /// The paper's default noise: uniform in `(0, 10⁻⁶)`.
    pub const PAPER_NOISE: RateRange = RateRange { lo: 0.0, hi: 1e-6 };

    /// The paper's default failure severity: uniform in `(0.01 %, 1 %)`.
    pub const PAPER_FAILURE: RateRange = RateRange { lo: 1e-4, hi: 1e-2 };

    /// Samples a rate from the range.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        assert!(
            self.lo <= self.hi,
            "invalid rate range ({}, {})",
            self.lo,
            self.hi
        );
        if self.lo == self.hi {
            self.lo
        } else {
            rng.gen_range(self.lo..self.hi)
        }
    }
}

/// Where to inject failures (Figure 11 sweeps the location class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultLocation {
    /// Any link, host links included.
    Any,
    /// Any switch-to-switch link (what §6 injects: "failed links" among
    /// the fabric links).
    AnySwitchLink,
    /// ToR↔T1 links, either direction — the only trafficked fabric links
    /// in a single-pod topology (level-2 links carry nothing there).
    Level1,
    /// Only links of one location class.
    Kind(LinkKind),
}

impl FaultLocation {
    /// True when a link of `kind` is eligible.
    pub fn admits(&self, kind: LinkKind) -> bool {
        match self {
            FaultLocation::Any => true,
            FaultLocation::AnySwitchLink => !kind.is_host_link(),
            FaultLocation::Level1 => kind.is_level1(),
            FaultLocation::Kind(k) => kind == *k,
        }
    }
}

/// A declarative fault-injection scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Noise drop rate applied to every link.
    pub noise: RateRange,
    /// Number of failed links to inject.
    pub failures: u32,
    /// Drop-rate range of the failed links.
    pub failure_rate: RateRange,
    /// Where failures may land.
    pub location: FaultLocation,
    /// Figure 12's "heavily skewed" variant: when set, the *first* injected
    /// failure uses this range instead (e.g. 10–100 %), the rest use
    /// `failure_rate` (e.g. 0.01–0.1 %).
    pub first_failure_rate: Option<RateRange>,
}

impl FaultPlan {
    /// The paper's §6 default scenario: noise everywhere plus `failures`
    /// fabric-link failures at 0.01–1 %.
    pub fn paper_default(failures: u32) -> Self {
        Self {
            noise: RateRange::PAPER_NOISE,
            failures,
            failure_rate: RateRange::PAPER_FAILURE,
            location: FaultLocation::AnySwitchLink,
            first_failure_rate: None,
        }
    }

    /// Builds the per-link fault table by sampling this plan: compiles its
    /// [`CompositeFaultPlan`] form, whose ingredients are all static.
    pub fn build<R: Rng + ?Sized>(&self, topo: &ClosTopology, rng: &mut R) -> LinkFaults {
        // One epoch of any length: a static plan never reads the clock.
        CompositeFaultPlan::from(self)
            .compile(topo, 1, 30.0, rng)
            .base
    }
}

/// Dense per-link drop rates plus the injected-failure ground truth.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkFaults {
    drop_rate: Vec<f64>,
    admin_down: Vec<bool>,
    failed: BTreeSet<LinkId>,
}

impl LinkFaults {
    /// A fault table with all links perfect (rate 0, up).
    pub fn new(num_links: usize) -> Self {
        Self {
            drop_rate: vec![0.0; num_links],
            admin_down: vec![false; num_links],
            failed: BTreeSet::new(),
        }
    }

    /// Number of links tracked.
    pub fn len(&self) -> usize {
        self.drop_rate.len()
    }

    /// True when tracking no links.
    pub fn is_empty(&self) -> bool {
        self.drop_rate.is_empty()
    }

    /// Samples a fresh noise rate for every link (overwrites prior rates,
    /// clears nothing else).
    pub fn set_noise<R: Rng + ?Sized>(&mut self, range: RateRange, rng: &mut R) {
        for r in &mut self.drop_rate {
            *r = range.sample(rng);
        }
    }

    /// Marks a link failed with the given drop rate and records it in the
    /// ground-truth failed set. `rate = 1.0` models a silent blackhole
    /// (packets die, BGP sessions may stay up).
    pub fn fail_link(&mut self, link: LinkId, rate: f64) {
        assert!((0.0..=1.0).contains(&rate), "drop rate must be in [0,1]");
        self.drop_rate[link.index()] = rate;
        self.failed.insert(link);
    }

    /// Administratively withdraws a link (BGP down): routing excludes it,
    /// so it drops nothing — traffic shifts instead (§9.1 rerouting).
    pub fn set_admin_down(&mut self, link: LinkId, down: bool) {
        self.admin_down[link.index()] = down;
    }

    /// True when the link is withdrawn from routing.
    pub fn is_down(&self, link: LinkId) -> bool {
        self.admin_down[link.index()]
    }

    /// The link's current per-packet drop probability.
    pub fn rate(&self, link: LinkId) -> f64 {
        self.drop_rate[link.index()]
    }

    /// The injected-failure ground truth.
    pub fn failed_set(&self) -> &BTreeSet<LinkId> {
        &self.failed
    }

    /// Clears the failure mark and restores a link to a noise rate.
    pub fn repair_link<R: Rng + ?Sized>(&mut self, link: LinkId, noise: RateRange, rng: &mut R) {
        self.drop_rate[link.index()] = noise.sample(rng);
        self.failed.remove(&link);
        self.admin_down[link.index()] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vigil_topology::ClosParams;

    fn topo() -> ClosTopology {
        ClosTopology::new(ClosParams::tiny(), 7).unwrap()
    }

    #[test]
    fn rate_range_sampling_in_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let r = RateRange { lo: 1e-4, hi: 1e-2 };
        for _ in 0..100 {
            let x = r.sample(&mut rng);
            assert!((1e-4..1e-2).contains(&x));
        }
        assert_eq!(RateRange::fixed(0.5).sample(&mut rng), 0.5);
    }

    #[test]
    fn plan_injects_exact_failure_count() {
        let topo = topo();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let faults = FaultPlan::paper_default(5).build(&topo, &mut rng);
        assert_eq!(faults.failed_set().len(), 5);
        for l in faults.failed_set() {
            assert!(faults.rate(*l) >= 1e-4);
            assert!(
                !topo.link(*l).kind.is_host_link(),
                "AnySwitchLink must not fail host links"
            );
        }
    }

    #[test]
    fn plan_noise_is_low_everywhere_else() {
        let topo = topo();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let faults = FaultPlan::paper_default(2).build(&topo, &mut rng);
        for l in topo.links() {
            if !faults.failed_set().contains(&l.id) {
                assert!(faults.rate(l.id) < 1e-6);
            }
        }
    }

    #[test]
    fn skewed_plan_first_failure_hotter() {
        let topo = topo();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let plan = FaultPlan {
            first_failure_rate: Some(RateRange { lo: 0.1, hi: 1.0 }),
            failure_rate: RateRange { lo: 1e-4, hi: 1e-3 },
            ..FaultPlan::paper_default(4)
        };
        let faults = plan.build(&topo, &mut rng);
        let rates: Vec<f64> = faults
            .failed_set()
            .iter()
            .map(|l| faults.rate(*l))
            .collect();
        let hot = rates.iter().filter(|r| **r >= 0.1).count();
        let mild = rates.iter().filter(|r| **r < 1e-3).count();
        assert_eq!(hot, 1);
        assert_eq!(mild, 3);
    }

    #[test]
    fn location_filter_respected() {
        let topo = topo();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let plan = FaultPlan {
            location: FaultLocation::Kind(LinkKind::T1ToTor),
            ..FaultPlan::paper_default(3)
        };
        let faults = plan.build(&topo, &mut rng);
        for l in faults.failed_set() {
            assert_eq!(topo.link(*l).kind, LinkKind::T1ToTor);
        }
    }

    #[test]
    fn admin_down_and_repair() {
        let topo = topo();
        let mut f = LinkFaults::new(topo.num_links());
        let l = LinkId(3);
        f.fail_link(l, 1.0);
        f.set_admin_down(l, true);
        assert!(f.is_down(l));
        assert_eq!(f.rate(l), 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        f.repair_link(l, RateRange::PAPER_NOISE, &mut rng);
        assert!(!f.is_down(l));
        assert!(f.rate(l) < 1e-6);
        assert!(f.failed_set().is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot inject")]
    fn too_many_failures_rejected() {
        let topo = topo();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let _ = FaultPlan::paper_default(10_000).build(&topo, &mut rng);
    }

    #[test]
    #[should_panic(expected = "drop rate must be in")]
    fn invalid_rate_rejected() {
        let mut f = LinkFaults::new(4);
        f.fail_link(LinkId(0), 1.5);
    }
}
