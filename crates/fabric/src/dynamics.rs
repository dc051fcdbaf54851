//! Time-varying fault dynamics: flaps, transients, maintenance windows.
//!
//! The paper's production findings (§8, §8.3) are dominated by
//! *non-stationary* failures: links that flap, transient drop bursts
//! during configuration updates, BGP sessions cycling. 007 explicitly
//! does not need failures to last a whole epoch ("Although we use an
//! aggregation interval of 30s, failures do not have to last for 30s").
//!
//! [`FaultTimeline`] scripts per-link events on the simulation clock and
//! materializes the fault table for any instant or epoch, so experiment
//! drivers can replay flapping links, scheduled maintenance, and
//! transient bursts across epochs deterministically.

use crate::faults::{LinkFaults, RateRange};
use rand::Rng;
use serde::{Deserialize, Serialize};
use vigil_topology::LinkId;

/// One scripted fault episode on one link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Episode {
    /// Affected link.
    pub link: LinkId,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds (exclusive).
    pub end: f64,
    /// Drop rate during the episode.
    pub rate: f64,
    /// Whether BGP also withdraws the link (reroute instead of drops).
    pub withdrawn: bool,
}

impl Episode {
    /// Overlap duration with the window `[from, to)`.
    pub fn overlap(&self, from: f64, to: f64) -> f64 {
        (self.end.min(to) - self.start.max(from)).max(0.0)
    }
}

/// A deterministic script of fault episodes.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FaultTimeline {
    episodes: Vec<Episode>,
}

impl FaultTimeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one episode.
    ///
    /// # Panics
    ///
    /// Panics on inverted intervals or rates outside `[0, 1]`.
    pub fn add(&mut self, episode: Episode) -> &mut Self {
        assert!(episode.start <= episode.end, "inverted episode interval");
        assert!(
            (0.0..=1.0).contains(&episode.rate),
            "episode rate must be a probability"
        );
        self.episodes.push(episode);
        self
    }

    /// Scripts a flapping link: `cycles` alternations of `down_secs`
    /// fully-lossy periods separated by `up_secs` healthy gaps, starting
    /// at `start`.
    pub fn add_flap(
        &mut self,
        link: LinkId,
        start: f64,
        cycles: u32,
        down_secs: f64,
        up_secs: f64,
    ) -> &mut Self {
        let mut t = start;
        for _ in 0..cycles {
            self.add(Episode {
                link,
                start: t,
                end: t + down_secs,
                rate: 1.0,
                withdrawn: false,
            });
            t += down_secs + up_secs;
        }
        self
    }

    /// Scripts a maintenance window: the link is withdrawn (rerouted
    /// around) for the window, with a brief lossy burst at each edge —
    /// the §8.3 "endpoints … undergoing configuration updates" signature.
    pub fn add_maintenance(
        &mut self,
        link: LinkId,
        start: f64,
        duration: f64,
        convergence_secs: f64,
        burst_rate: f64,
    ) -> &mut Self {
        self.add(Episode {
            link,
            start,
            end: start + convergence_secs,
            rate: burst_rate,
            withdrawn: false,
        });
        self.add(Episode {
            link,
            start: start + convergence_secs,
            end: start + duration - convergence_secs,
            rate: 0.0,
            withdrawn: true,
        });
        self.add(Episode {
            link,
            start: start + duration - convergence_secs,
            end: start + duration,
            rate: burst_rate,
            withdrawn: false,
        });
        self
    }

    /// All episodes (scripted order).
    pub fn episodes(&self) -> &[Episode] {
        &self.episodes
    }

    /// Materializes the fault table for the epoch `[from, to)` on top of
    /// fresh background noise: each scripted link gets the
    /// *time-weighted* drop rate of its episodes in the window (a 3-second
    /// flap inside a 30-second epoch behaves like a 10 % loss epoch-wide,
    /// which is exactly how a flow-level epoch simulator should see it),
    /// and is withdrawn if any overlapping episode withdraws it.
    pub fn materialize<R: Rng + ?Sized>(
        &self,
        num_links: usize,
        noise: RateRange,
        from: f64,
        to: f64,
        rng: &mut R,
    ) -> LinkFaults {
        assert!(from < to, "empty epoch window");
        let mut faults = LinkFaults::new(num_links);
        faults.set_noise(noise, rng);
        let span = to - from;
        let mut acc: std::collections::HashMap<LinkId, (f64, bool)> =
            std::collections::HashMap::new();
        for e in &self.episodes {
            let w = e.overlap(from, to);
            if w <= 0.0 {
                continue;
            }
            let entry = acc.entry(e.link).or_insert((0.0, false));
            entry.0 += e.rate * w / span;
            entry.1 |= e.withdrawn;
        }
        for (link, (rate, withdrawn)) in acc {
            if rate > 0.0 {
                faults.fail_link(link, rate.min(1.0));
            }
            if withdrawn {
                faults.set_admin_down(link, true);
            }
        }
        faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn episode_activity_and_overlap() {
        let e = Episode {
            link: LinkId(1),
            start: 10.0,
            end: 20.0,
            rate: 0.5,
            withdrawn: false,
        };
        assert_eq!(e.overlap(0.0, 30.0), 10.0);
        assert_eq!(e.overlap(15.0, 30.0), 5.0);
        assert_eq!(e.overlap(20.0, 30.0), 0.0);
    }

    #[test]
    fn materialize_time_weights_rates() {
        let mut tl = FaultTimeline::new();
        tl.add(Episode {
            link: LinkId(2),
            start: 0.0,
            end: 3.0, // 3 s of total loss in a 30 s epoch
            rate: 1.0,
            withdrawn: false,
        });
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let faults = tl.materialize(10, RateRange::fixed(0.0), 0.0, 30.0, &mut rng);
        assert!((faults.rate(LinkId(2)) - 0.1).abs() < 1e-12);
        assert!(faults.failed_set().contains(&LinkId(2)));
    }

    #[test]
    fn flap_script_shape() {
        let mut tl = FaultTimeline::new();
        tl.add_flap(LinkId(0), 5.0, 3, 2.0, 4.0);
        assert_eq!(tl.episodes().len(), 3);
        assert_eq!(tl.episodes()[0].start, 5.0);
        assert_eq!(tl.episodes()[1].start, 11.0);
        assert_eq!(tl.episodes()[2].start, 17.0);
        // Epoch covering all three flaps: 6 s down / 30 s = 0.2.
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let faults = tl.materialize(4, RateRange::fixed(0.0), 0.0, 30.0, &mut rng);
        assert!((faults.rate(LinkId(0)) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn maintenance_withdraws_and_bursts() {
        let mut tl = FaultTimeline::new();
        tl.add_maintenance(LinkId(3), 10.0, 20.0, 1.0, 0.3);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        // Epoch exactly covering the window.
        let faults = tl.materialize(8, RateRange::fixed(0.0), 10.0, 30.0, &mut rng);
        assert!(
            faults.is_down(LinkId(3)),
            "mid-window the link is withdrawn"
        );
        // Two 1 s bursts at 0.3 over 20 s ⇒ 0.03 time-weighted.
        assert!((faults.rate(LinkId(3)) - 0.03).abs() < 1e-12);
    }

    #[test]
    fn out_of_window_episodes_ignored() {
        let mut tl = FaultTimeline::new();
        tl.add(Episode {
            link: LinkId(1),
            start: 100.0,
            end: 110.0,
            rate: 1.0,
            withdrawn: true,
        });
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let faults = tl.materialize(4, RateRange::fixed(0.0), 0.0, 30.0, &mut rng);
        assert_eq!(faults.rate(LinkId(1)), 0.0);
        assert!(!faults.is_down(LinkId(1)));
        assert!(faults.failed_set().is_empty());
    }

    #[test]
    fn overlapping_episodes_accumulate() {
        let mut tl = FaultTimeline::new();
        for _ in 0..2 {
            tl.add(Episode {
                link: LinkId(0),
                start: 0.0,
                end: 15.0,
                rate: 0.2,
                withdrawn: false,
            });
        }
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let faults = tl.materialize(2, RateRange::fixed(0.0), 0.0, 30.0, &mut rng);
        assert!((faults.rate(LinkId(0)) - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "inverted episode")]
    fn inverted_interval_rejected() {
        FaultTimeline::new().add(Episode {
            link: LinkId(0),
            start: 5.0,
            end: 4.0,
            rate: 0.1,
            withdrawn: false,
        });
    }
}
