//! Topology parameters (the paper's Definition 1 symbols).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Parameters of a Clos topology (paper Definition 1 / Table 2):
/// `npod` pods × (`n0` ToRs + `n1` T1 switches), `n2` global T2 switches,
/// `hosts_per_tor = H` hosts under each ToR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ClosParams {
    /// Number of pods (`npod`).
    pub npod: u16,
    /// ToR switches per pod (`n0`).
    pub n0: u16,
    /// Tier-1 switches per pod (`n1`).
    pub n1: u16,
    /// Global tier-2 switches (`n2`). May be 0 only in single-pod
    /// topologies (no inter-pod traffic exists to use them).
    pub n2: u16,
    /// Hosts per ToR (`H`).
    pub hosts_per_tor: u16,
}

/// Why a parameter set was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamError {
    /// Some count that must be ≥ 1 is zero.
    ZeroCount(&'static str),
    /// Multi-pod topologies need tier-2 switches to connect the pods.
    MissingTier2,
    /// The IPv4 addressing scheme bounds each dimension to 200.
    TooLarge(&'static str),
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::ZeroCount(which) => write!(f, "{which} must be at least 1"),
            ParamError::MissingTier2 => {
                write!(
                    f,
                    "n2 must be at least 1 when npod > 1 (pods need tier-2 to interconnect)"
                )
            }
            ParamError::TooLarge(which) => write!(f, "{which} exceeds the addressing limit of 200"),
        }
    }
}

impl std::error::Error for ParamError {}

impl ClosParams {
    /// The topology of the paper's §6 simulations: "4160 links, 2 pods, and
    /// 20 ToRs per pod". With `n1 = 16`, `n2 = 20`, `H = 20` the directional
    /// link count is exactly `2·(npod·n0·H + npod·n0·n1 + npod·n1·n2)
    /// = 2·(800 + 640 + 640) = 4160`.
    pub fn paper_sim() -> Self {
        Self {
            npod: 2,
            n0: 20,
            n1: 16,
            n2: 20,
            hosts_per_tor: 20,
        }
    }

    /// The paper's §7 test cluster: 10 ToRs, 80 (directional switch-switch)
    /// links, 50 controlled hosts. One pod with `n1 = 4` gives
    /// `2·(10·4) = 80` directional level-1 links; `H = 5` gives 50 hosts.
    pub fn test_cluster() -> Self {
        Self {
            npod: 1,
            n0: 10,
            n1: 4,
            n2: 0,
            hosts_per_tor: 5,
        }
    }

    /// A small topology for unit tests and the quickstart example.
    pub fn tiny() -> Self {
        Self {
            npod: 2,
            n0: 4,
            n1: 3,
            n2: 4,
            hosts_per_tor: 4,
        }
    }

    /// Same shape as [`ClosParams::paper_sim`] but with a different number
    /// of pods (the §6.7 network-size sweep).
    pub fn paper_sim_with_pods(npod: u16) -> Self {
        Self {
            npod,
            ..Self::paper_sim()
        }
    }

    /// An oversubscribed variant of `self`: the edge (ToRs and hosts) is
    /// unchanged while both spine layers shrink by `factor` (min 1 switch
    /// each). A `factor` of 2 doubles the ToR→T1 oversubscription ratio —
    /// the scenario-matrix topology axis uses this to stress 007 where
    /// path diversity (and thus vote dilution, Theorem 2's `α`) differs
    /// from the paper's symmetric fabric.
    pub fn with_oversubscription(self, factor: u16) -> Self {
        assert!(factor >= 1, "oversubscription factor must be at least 1");
        Self {
            n1: (self.n1 / factor).max(1),
            n2: if self.n2 == 0 {
                0
            } else {
                (self.n2 / factor).max(1)
            },
            ..self
        }
    }

    /// Validates the parameters.
    pub fn validate(&self) -> Result<(), ParamError> {
        if self.npod == 0 {
            return Err(ParamError::ZeroCount("npod"));
        }
        if self.n0 == 0 {
            return Err(ParamError::ZeroCount("n0"));
        }
        if self.n1 == 0 {
            return Err(ParamError::ZeroCount("n1"));
        }
        if self.hosts_per_tor == 0 {
            return Err(ParamError::ZeroCount("hosts_per_tor"));
        }
        if self.npod > 1 && self.n2 == 0 {
            return Err(ParamError::MissingTier2);
        }
        for (v, name) in [
            (self.npod, "npod"),
            (self.n0, "n0"),
            (self.n1, "n1"),
            (self.n2, "n2"),
            (self.hosts_per_tor, "hosts_per_tor"),
        ] {
            if v > 200 {
                return Err(ParamError::TooLarge(name));
            }
        }
        Ok(())
    }

    /// Total number of hosts.
    pub fn num_hosts(&self) -> u32 {
        u32::from(self.npod) * u32::from(self.n0) * u32::from(self.hosts_per_tor)
    }

    /// Total number of switches (ToR + T1 per pod, global T2).
    pub fn num_switches(&self) -> u32 {
        u32::from(self.npod) * (u32::from(self.n0) + u32::from(self.n1)) + u32::from(self.n2)
    }

    /// Total number of **directional** links, host↔ToR included:
    /// `2·(npod·n0·H + npod·n0·n1 + npod·n1·n2)`.
    pub fn num_links(&self) -> u32 {
        let per_dir = u32::from(self.npod) * u32::from(self.n0) * u32::from(self.hosts_per_tor)
            + u32::from(self.npod) * u32::from(self.n0) * u32::from(self.n1)
            + u32::from(self.npod) * u32::from(self.n1) * u32::from(self.n2);
        2 * per_dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sim_matches_4160_links() {
        let p = ClosParams::paper_sim();
        p.validate().unwrap();
        assert_eq!(p.num_links(), 4160);
        assert_eq!(p.npod, 2);
        assert_eq!(p.n0, 20);
    }

    #[test]
    fn test_cluster_matches_80_switch_links() {
        let p = ClosParams::test_cluster();
        p.validate().unwrap();
        // 80 directional switch-switch links + 100 host links
        let switch_links = 2 * u32::from(p.npod) * u32::from(p.n0) * u32::from(p.n1);
        assert_eq!(switch_links, 80);
        assert_eq!(p.num_hosts(), 50);
    }

    #[test]
    fn zero_counts_rejected() {
        for field in 0..4 {
            let mut p = ClosParams::tiny();
            match field {
                0 => p.npod = 0,
                1 => p.n0 = 0,
                2 => p.n1 = 0,
                _ => p.hosts_per_tor = 0,
            }
            assert!(matches!(p.validate(), Err(ParamError::ZeroCount(_))));
        }
    }

    #[test]
    fn multi_pod_needs_t2() {
        let p = ClosParams {
            n2: 0,
            ..ClosParams::tiny()
        };
        assert_eq!(p.validate(), Err(ParamError::MissingTier2));
    }

    #[test]
    fn single_pod_without_t2_is_fine() {
        ClosParams::test_cluster().validate().unwrap();
    }

    #[test]
    fn oversized_rejected() {
        let p = ClosParams {
            n0: 201,
            ..ClosParams::tiny()
        };
        assert!(matches!(p.validate(), Err(ParamError::TooLarge("n0"))));
    }

    #[test]
    fn counts_consistent() {
        let p = ClosParams::tiny();
        assert_eq!(p.num_hosts(), 2 * 4 * 4);
        assert_eq!(p.num_switches(), 2 * (4 + 3) + 4);
        assert_eq!(p.num_links(), 2 * (2 * 4 * 4 + 2 * 4 * 3 + 2 * 3 * 4));
    }
}
