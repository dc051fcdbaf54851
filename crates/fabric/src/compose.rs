//! Composable fault scenarios for the scenario matrix.
//!
//! [`crate::faults::FaultPlan`] expresses one homogeneous failure class;
//! the paper's production sections (§8) and the related diagnosis
//! literature show faults that *compose*: a blackhole next to gray drops,
//! a flapping link during a maintenance window, a degraded spine under
//! everything. [`CompositeFaultPlan`] is a list of [`FaultKind`]
//! ingredients sampled together per trial: static ingredients land in one
//! base [`LinkFaults`] table, time-varying ingredients compile into a
//! [`FaultTimeline`], and [`CompiledFaults::epoch_faults`] materializes
//! the table any epoch of the trial should run against.
//!
//! Compilation draws from the per-trial RNG once; materialization draws
//! nothing — so a trial's fault story is a pure function of (plan,
//! topology, trial seed), independent of epoch count or thread schedule.

use crate::dynamics::FaultTimeline;
use crate::faults::{FaultLocation, FaultPlan, LinkFaults, RateRange};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use vigil_topology::{ClosTopology, DegradeSpec, LinkId};

/// Gray-failure severity: barely above the noise floor, well below the
/// paper's default failure range midpoint.
pub const GRAY_RATE: RateRange = RateRange { lo: 5e-4, hi: 2e-3 };

/// Near-blackhole severity: 90 % loss — SYNs survive one attempt in ~3,
/// established flows retransmit almost every packet.
pub const NEAR_BLACKHOLE_RATE: f64 = 0.9;

/// One composable ingredient of a fault scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// `failures` links dropping uniformly in `rate` for the whole trial
    /// (the paper's §6 default when `rate` is `RateRange::PAPER_FAILURE`).
    RandomDrop {
        /// Links to fail.
        failures: u32,
        /// Per-packet drop-rate range.
        rate: RateRange,
    },
    /// `failures` links dropping every packet — silent blackholes whose
    /// BGP sessions stay up, so routing never heals around them. No SYN
    /// crosses such a link, no connection establishes, and §4.2's path
    /// discovery never fires: 007 is *provably blind* here (the
    /// "intentional/silent drop" class of Ensafi et al.), which the
    /// scenario matrix asserts as a zero-blame envelope.
    Blackhole {
        /// Links to blackhole.
        failures: u32,
    },
    /// `failures` links at [`NEAR_BLACKHOLE_RATE`]: a SYN occasionally
    /// survives, so some connections establish and then hemorrhage —
    /// the worst failure 007 can still see end to end.
    NearBlackhole {
        /// Links to near-blackhole.
        failures: u32,
    },
    /// Gray failure: `failures` links at [`GRAY_RATE`] — high enough to
    /// hurt, low enough to evade coarse counters.
    GrayDrop {
        /// Links to gray-fail.
        failures: u32,
    },
    /// Figure-12-style severity skew: the first link scorching (10–100 %),
    /// the rest mild (0.01–0.1 %).
    SkewedSeverity {
        /// Links to fail (≥ 1; the first is the hot one).
        failures: u32,
    },
    /// `links` links flapping for the whole trial: `down_secs` of total
    /// loss then `up_secs` healthy, repeating. An epoch sees the
    /// time-weighted loss `down/(down+up)`.
    Flap {
        /// Links that flap.
        links: u32,
        /// Seconds fully lossy per cycle.
        down_secs: f64,
        /// Healthy seconds per cycle.
        up_secs: f64,
    },
    /// Maintenance: a lossy convergence burst at the end of epoch 0, then
    /// the link is withdrawn (rerouted around, dropping nothing) for the
    /// rest of the trial — the §8.3 configuration-update signature.
    Maintenance {
        /// Links under maintenance.
        links: u32,
        /// Convergence-burst length in seconds (inside epoch 0).
        burst_secs: f64,
        /// Drop rate during the burst.
        burst_rate: f64,
    },
    /// Degraded fabric: withdraw `frac` of the spine (T1↔T2) pairs for
    /// the whole trial — an asymmetric Clos
    /// ([`vigil_topology::DegradeSpec`]). Withdrawn links drop nothing and
    /// are never ground-truth failures; they reshape ECMP instead.
    DegradedSpine {
        /// Fraction of spine pairs withdrawn, `[0, 1)`.
        frac: f64,
    },
}

impl FaultKind {
    /// Ground-truth failure links this ingredient will claim (0 for
    /// routing-only ingredients).
    fn claimed_links(&self) -> u32 {
        match *self {
            FaultKind::RandomDrop { failures, .. }
            | FaultKind::Blackhole { failures }
            | FaultKind::NearBlackhole { failures }
            | FaultKind::GrayDrop { failures }
            | FaultKind::SkewedSeverity { failures } => failures,
            FaultKind::Flap { links, .. } | FaultKind::Maintenance { links, .. } => links,
            FaultKind::DegradedSpine { .. } => 0,
        }
    }

    /// Short label used in scenario names and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::RandomDrop { .. } => "random-drop",
            FaultKind::Blackhole { .. } => "blackhole",
            FaultKind::NearBlackhole { .. } => "near-blackhole",
            FaultKind::GrayDrop { .. } => "gray",
            FaultKind::SkewedSeverity { .. } => "skewed-severity",
            FaultKind::Flap { .. } => "flap",
            FaultKind::Maintenance { .. } => "maintenance",
            FaultKind::DegradedSpine { .. } => "degraded-spine",
        }
    }
}

/// A composite fault scenario: noise floor + a list of ingredients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompositeFaultPlan {
    /// Noise drop rate applied to every link.
    pub noise: RateRange,
    /// Where ground-truth failures may land.
    pub location: FaultLocation,
    /// The ingredients, applied in order to disjoint link sets.
    pub kinds: Vec<FaultKind>,
}

impl CompositeFaultPlan {
    /// A plan with paper-default noise and switch-link placement.
    pub fn new(kinds: Vec<FaultKind>) -> Self {
        Self {
            noise: RateRange::PAPER_NOISE,
            location: FaultLocation::AnySwitchLink,
            kinds,
        }
    }

    /// Every ingredient label, deduplicated in order (for reports).
    pub fn labels(&self) -> Vec<&'static str> {
        let mut seen = Vec::new();
        for k in &self.kinds {
            if !seen.contains(&k.label()) {
                seen.push(k.label());
            }
        }
        seen
    }

    /// Samples this plan for one trial: noise on every link, then
    /// degradations (they remove links from the eligible set), then one
    /// shuffled eligible list that the remaining ingredients claim
    /// disjoint links from, in order. This is the only fault sampler:
    /// [`FaultPlan::build`] compiles its composite form.
    ///
    /// # Panics
    ///
    /// Panics when the ingredients claim more links than are eligible.
    pub fn compile<R: Rng + ?Sized>(
        &self,
        topo: &ClosTopology,
        epochs: usize,
        epoch_seconds: f64,
        rng: &mut R,
    ) -> CompiledFaults {
        let mut base = LinkFaults::new(topo.num_links());
        base.set_noise(self.noise, rng);

        // Degradations first: withdrawn spine links leave the fabric and
        // the eligible set.
        for kind in &self.kinds {
            if let FaultKind::DegradedSpine { frac } = kind {
                let spec = DegradeSpec::new(*frac);
                for link in spec.withdrawn_links(topo, rng.gen()) {
                    base.set_admin_down(link, true);
                }
            }
        }

        let mut eligible: Vec<LinkId> = topo
            .links()
            .iter()
            .filter(|l| self.location.admits(l.kind) && !base.is_down(l.id))
            .map(|l| l.id)
            .collect();
        let claimed: u32 = self.kinds.iter().map(FaultKind::claimed_links).sum();
        assert!(
            (claimed as usize) <= eligible.len(),
            "cannot inject faults: the plan claims {claimed} links but only {} are eligible",
            eligible.len()
        );
        eligible.shuffle(rng);
        let mut next = eligible.into_iter();
        let mut take = |n: u32| -> Vec<LinkId> { next.by_ref().take(n as usize).collect() };

        let mut timeline = FaultTimeline::new();
        let trial_end = epochs as f64 * epoch_seconds;
        for kind in &self.kinds {
            match *kind {
                FaultKind::RandomDrop { failures, rate } => {
                    for link in take(failures) {
                        base.fail_link(link, rate.sample(rng));
                    }
                }
                FaultKind::Blackhole { failures } => {
                    for link in take(failures) {
                        base.fail_link(link, 1.0);
                    }
                }
                FaultKind::NearBlackhole { failures } => {
                    for link in take(failures) {
                        base.fail_link(link, NEAR_BLACKHOLE_RATE);
                    }
                }
                FaultKind::GrayDrop { failures } => {
                    for link in take(failures) {
                        base.fail_link(link, GRAY_RATE.sample(rng));
                    }
                }
                FaultKind::SkewedSeverity { failures } => {
                    for (i, link) in take(failures).into_iter().enumerate() {
                        let range = if i == 0 {
                            RateRange { lo: 0.1, hi: 1.0 }
                        } else {
                            RateRange { lo: 1e-4, hi: 1e-3 }
                        };
                        base.fail_link(link, range.sample(rng));
                    }
                }
                FaultKind::Flap {
                    links,
                    down_secs,
                    up_secs,
                } => {
                    let cycle = down_secs + up_secs;
                    assert!(cycle > 0.0, "flap cycle must be positive");
                    let cycles = (trial_end / cycle).ceil() as u32;
                    for link in take(links) {
                        timeline.add_flap(link, 0.0, cycles, down_secs, up_secs);
                    }
                }
                FaultKind::Maintenance {
                    links,
                    burst_secs,
                    burst_rate,
                } => {
                    for link in take(links) {
                        // Burst at the tail of epoch 0 (link still routed,
                        // dropping), then withdrawn for the remainder.
                        timeline.add(crate::dynamics::Episode {
                            link,
                            start: epoch_seconds - burst_secs,
                            end: epoch_seconds,
                            rate: burst_rate,
                            withdrawn: false,
                        });
                        if trial_end > epoch_seconds {
                            timeline.add(crate::dynamics::Episode {
                                link,
                                start: epoch_seconds,
                                end: trial_end,
                                rate: 0.0,
                                withdrawn: true,
                            });
                        }
                    }
                }
                FaultKind::DegradedSpine { .. } => {} // applied above
            }
        }

        CompiledFaults {
            base,
            timeline,
            epoch_seconds,
        }
    }
}

impl From<&FaultPlan> for CompositeFaultPlan {
    /// The composite form of a homogeneous plan: one
    /// [`FaultKind::RandomDrop`] — or, when `first_failure_rate` is set,
    /// one link at that rate followed by the rest at `failure_rate`.
    /// Compiling it draws what the plan describes, in order: noise on
    /// every link, one shuffle of the eligible links, one rate per link.
    fn from(plan: &FaultPlan) -> Self {
        let drop = |failures, rate| FaultKind::RandomDrop { failures, rate };
        let kinds = match plan.first_failure_rate {
            Some(first) if plan.failures >= 1 => {
                vec![drop(1, first), drop(plan.failures - 1, plan.failure_rate)]
            }
            _ => vec![drop(plan.failures, plan.failure_rate)],
        };
        Self {
            noise: plan.noise,
            location: plan.location,
            kinds,
        }
    }
}

/// A compiled trial: static base faults plus a timeline.
#[derive(Debug, Clone)]
pub struct CompiledFaults {
    /// Degradations, static failures and noise.
    pub(crate) base: LinkFaults,
    timeline: FaultTimeline,
    epoch_seconds: f64,
}

impl CompiledFaults {
    /// True when every ingredient is static (every epoch sees the same
    /// table).
    pub fn is_static(&self) -> bool {
        self.timeline.episodes().is_empty()
    }

    /// The fault table epoch `epoch` runs against: the base plus each
    /// timeline link's time-weighted drop rate over the epoch window, and
    /// withdrawal when any overlapping episode withdraws. A static plan
    /// borrows its base table. Draws no randomness — materialization is
    /// schedule-independent.
    pub fn epoch_faults(&self, epoch: usize) -> Cow<'_, LinkFaults> {
        if self.is_static() {
            return Cow::Borrowed(&self.base);
        }
        let mut faults = self.base.clone();
        let from = epoch as f64 * self.epoch_seconds;
        let to = from + self.epoch_seconds;
        let mut acc: std::collections::HashMap<LinkId, (f64, bool)> =
            std::collections::HashMap::new();
        for e in self.timeline.episodes() {
            let w = e.overlap(from, to);
            if w <= 0.0 {
                continue;
            }
            let entry = acc.entry(e.link).or_insert((0.0, false));
            entry.0 += e.rate * w / self.epoch_seconds;
            entry.1 |= e.withdrawn;
        }
        let mut touched: Vec<_> = acc.into_iter().collect();
        touched.sort_by_key(|(l, _)| *l);
        for (link, (rate, withdrawn)) in touched {
            if rate > 0.0 {
                faults.fail_link(link, (faults.rate(link) + rate).min(1.0));
            }
            if withdrawn {
                faults.set_admin_down(link, true);
            }
        }
        Cow::Owned(faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vigil_topology::ClosParams;

    fn topo() -> ClosTopology {
        ClosTopology::new(ClosParams::tiny(), 21).unwrap()
    }

    #[test]
    fn static_ingredients_compose_disjointly() {
        let topo = topo();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let plan = CompositeFaultPlan::new(vec![
            FaultKind::RandomDrop {
                failures: 2,
                rate: RateRange::PAPER_FAILURE,
            },
            FaultKind::Blackhole { failures: 1 },
            FaultKind::GrayDrop { failures: 2 },
        ]);
        let compiled = plan.compile(&topo, 2, 30.0, &mut rng);
        assert!(compiled.is_static());
        let faults = compiled.epoch_faults(0);
        assert_eq!(faults.failed_set().len(), 5, "links are claimed disjointly");
        let blackholes = faults
            .failed_set()
            .iter()
            .filter(|l| faults.rate(**l) == 1.0)
            .count();
        assert_eq!(blackholes, 1);
        let grays = faults
            .failed_set()
            .iter()
            .filter(|l| {
                let r = faults.rate(**l);
                (GRAY_RATE.lo..GRAY_RATE.hi).contains(&r)
            })
            .count();
        assert!(grays >= 2, "gray links must sit in the gray band");
    }

    #[test]
    fn flap_appears_in_every_epoch() {
        let topo = topo();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let plan = CompositeFaultPlan::new(vec![FaultKind::Flap {
            links: 1,
            down_secs: 3.0,
            up_secs: 7.0,
        }]);
        let compiled = plan.compile(&topo, 3, 30.0, &mut rng);
        assert!(!compiled.is_static());
        for epoch in 0..3 {
            let faults = compiled.epoch_faults(epoch);
            assert_eq!(faults.failed_set().len(), 1, "epoch {epoch}");
            let link = *faults.failed_set().iter().next().unwrap();
            // Base noise (≤ 1e-6) rides on top of the flap weight.
            assert!(
                (faults.rate(link) - 0.3).abs() < 1e-5,
                "time-weighted flap rate in epoch {epoch}: {}",
                faults.rate(link)
            );
        }
    }

    #[test]
    fn maintenance_bursts_then_withdraws() {
        let topo = topo();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let plan = CompositeFaultPlan::new(vec![FaultKind::Maintenance {
            links: 1,
            burst_secs: 3.0,
            burst_rate: 0.5,
        }]);
        let compiled = plan.compile(&topo, 2, 30.0, &mut rng);
        let e0 = compiled.epoch_faults(0);
        assert_eq!(e0.failed_set().len(), 1);
        let link = *e0.failed_set().iter().next().unwrap();
        assert!(!e0.is_down(link), "epoch 0: still routed, bursting");
        assert!((e0.rate(link) - 0.05).abs() < 1e-5, "3s at 0.5 over 30s");
        let e1 = compiled.epoch_faults(1);
        assert!(e1.is_down(link), "epoch 1: withdrawn");
        assert!(!e1.failed_set().contains(&link), "withdrawn ≠ failed");
    }

    #[test]
    fn degraded_spine_withdraws_but_never_fails() {
        let topo = topo();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let plan = CompositeFaultPlan::new(vec![
            FaultKind::DegradedSpine { frac: 0.25 },
            FaultKind::RandomDrop {
                failures: 2,
                rate: RateRange::PAPER_FAILURE,
            },
        ]);
        let compiled = plan.compile(&topo, 1, 30.0, &mut rng);
        let faults = compiled.epoch_faults(0);
        let down: Vec<_> = topo
            .links()
            .iter()
            .filter(|l| faults.is_down(l.id))
            .collect();
        assert!(!down.is_empty(), "spine pairs were withdrawn");
        for l in &down {
            assert!(l.kind.is_level2());
            assert!(
                !faults.failed_set().contains(&l.id),
                "withdrawn spine is not a ground-truth failure"
            );
        }
        for l in faults.failed_set() {
            assert!(!faults.is_down(*l), "failures land on live links");
        }
    }

    #[test]
    fn compile_is_deterministic_and_epoch_count_independent() {
        let topo = topo();
        let plan = CompositeFaultPlan::new(vec![
            FaultKind::RandomDrop {
                failures: 1,
                rate: RateRange::PAPER_FAILURE,
            },
            FaultKind::Flap {
                links: 1,
                down_secs: 2.0,
                up_secs: 8.0,
            },
        ]);
        let a = plan.compile(&topo, 1, 30.0, &mut ChaCha8Rng::seed_from_u64(5));
        let b = plan.compile(&topo, 4, 30.0, &mut ChaCha8Rng::seed_from_u64(5));
        // Epoch 0 is identical whether the trial runs 1 epoch or 4.
        let fa = a.epoch_faults(0);
        let fb = b.epoch_faults(0);
        assert_eq!(fa.failed_set(), fb.failed_set());
        for l in fa.failed_set() {
            assert_eq!(fa.rate(*l), fb.rate(*l));
        }
    }

    #[test]
    #[should_panic(expected = "claims")]
    fn overclaiming_rejected() {
        let topo = topo();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        CompositeFaultPlan::new(vec![FaultKind::Blackhole { failures: 10_000 }])
            .compile(&topo, 1, 30.0, &mut rng);
    }

    #[test]
    fn labels_deduplicate() {
        let plan = CompositeFaultPlan::new(vec![
            FaultKind::GrayDrop { failures: 1 },
            FaultKind::GrayDrop { failures: 2 },
            FaultKind::Blackhole { failures: 1 },
        ]);
        assert_eq!(plan.labels(), vec!["gray", "blackhole"]);
    }
}
