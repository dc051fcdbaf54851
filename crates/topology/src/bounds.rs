//! The paper's analytical bounds, as executable formulas.
//!
//! * **Theorem 1** — the traceroute rate `Ct` each host may use such that
//!   no switch generates ICMP faster than the operator cap `Tmax`:
//!
//!   ```text
//!   Ct ≤ Tmax / (n0·H) · min[ n1, n2·(n0·npod − 1) / (n0·(npod − 1)) ]
//!   ```
//!
//! * **Theorem 2/3** — the signal-to-noise condition under which 007 ranks
//!   all `k` bad links above all good links with probability `1 − ε`,
//!   where `ε ≤ 2·e^{−O(N)}` via the Chernoff–KL bounds in `vigil-stats`.
//!
//! The path-discovery agent uses [`theorem1_ct_bound`] to configure its
//! host-side rate limiter; the figure catalogue uses [`Theorem2`] to annotate
//! whether each experiment sits inside or outside the proven regime.

use crate::params::ClosParams;
use serde::{Deserialize, Serialize};
use vigil_stats::divergence::misranking_probability_bound;

/// Theorem 1: the per-host traceroute rate cap (traceroutes per second)
/// that keeps every switch's ICMP response rate at or below `tmax`
/// (responses per second).
///
/// With a single pod no flow uses level-2 links, so the level-2 term is
/// dropped and the bound is `Tmax·n1 / (n0·H)`.
pub fn theorem1_ct_bound(params: &ClosParams, tmax: f64) -> f64 {
    assert!(tmax >= 0.0, "Tmax must be non-negative");
    let n0 = f64::from(params.n0);
    let n1 = f64::from(params.n1);
    let n2 = f64::from(params.n2);
    let npod = f64::from(params.npod);
    let h = f64::from(params.hosts_per_tor);

    let level1_term = n1;
    let min_term = if params.npod > 1 {
        let level2_term = n2 * (n0 * npod - 1.0) / (n0 * (npod - 1.0));
        level1_term.min(level2_term)
    } else {
        level1_term
    };
    tmax / (n0 * h) * min_term
}

/// The largest `k` (number of simultaneous bad links) Theorem 2 covers:
/// `k < n2·(n0·npod − 1)/(n0·(npod − 1))`. Returns `None` for a single pod
/// (the theorem's combinatorics assume inter-pod traffic).
pub fn theorem2_k_max(params: &ClosParams) -> Option<f64> {
    if params.npod <= 1 {
        return None;
    }
    let n0 = f64::from(params.n0);
    let n2 = f64::from(params.n2);
    let npod = f64::from(params.npod);
    Some(n2 * (n0 * npod - 1.0) / (n0 * (npod - 1.0)))
}

/// Inputs for the Theorem 2/3 accuracy bound.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Theorem2 {
    /// Topology parameters.
    pub params: ClosParams,
    /// Number of simultaneously failed links (`k`).
    pub k: u32,
    /// Per-packet drop probability on bad links (`p_b`).
    pub p_bad: f64,
    /// Per-packet drop probability on good links (`p_g`, the noise).
    pub p_good: f64,
    /// Lower bound on packets per connection (`c_l` / `n_l`).
    pub c_lower: u32,
    /// Upper bound on packets per connection (`c_u` / `n_u`).
    pub c_upper: u32,
}

impl Theorem2 {
    /// The amplification factor `α` of eq. (2)/(8):
    /// `α = n0·(4n0 − k)·(npod − 1) / (n2·(n0·npod − 1) − n0·(npod − 1)·k)`.
    ///
    /// Returns `None` when undefined: single pod, or `k` at/above the
    /// theorem's limit (denominator ≤ 0).
    pub fn alpha(&self) -> Option<f64> {
        if self.params.npod <= 1 {
            return None;
        }
        let n0 = f64::from(self.params.n0);
        let n2 = f64::from(self.params.n2);
        let npod = f64::from(self.params.npod);
        let k = f64::from(self.k);
        let denom = n2 * (n0 * npod - 1.0) - n0 * (npod - 1.0) * k;
        if denom <= 0.0 {
            return None;
        }
        Some(n0 * (4.0 * n0 - k) * (npod - 1.0) / denom)
    }

    /// The noise ceiling of eq. (7): good-link drop rates up to
    /// `p_g ≤ (1 − (1 − p_b)^{c_l}) / (α·c_u)` are provably tolerated.
    pub fn noise_ceiling(&self) -> Option<f64> {
        let alpha = self.alpha()?;
        Some(self.r_bad_floor() / (alpha * f64::from(self.c_upper)))
    }

    /// True when the configured noise `p_good` is within the proven regime.
    pub fn holds(&self) -> Option<bool> {
        Some(self.p_good <= self.noise_ceiling()?)
    }

    /// Pod-count precondition of Theorem 3:
    /// `npod ≥ 1 + max[n0/n1, n2(n0−1)/(n0(n0−n2)), 1]` (with the middle
    /// term only meaningful when `n0 > n2`).
    pub fn pod_condition_holds(&self) -> bool {
        let n0 = f64::from(self.params.n0);
        let n1 = f64::from(self.params.n1);
        let n2 = f64::from(self.params.n2);
        let npod = f64::from(self.params.npod);
        let mut req: f64 = 1.0;
        req = req.max(n0 / n1);
        if n0 > n2 && n2 > 0.0 {
            req = req.max(n2 * (n0 - 1.0) / (n0 * (n0 - n2)));
        }
        npod >= 1.0 + req
    }

    /// Probability a connection through a bad link sees a retransmission,
    /// at the lower packet-count bound: `r_b ≥ 1 − (1 − p_b)^{c_l}`.
    ///
    /// `powf`, not `powi`: the compiler folds a constant `powi` exactly
    /// but evaluates a runtime one by repeated squaring, so debug and
    /// release builds would disagree in the last digits.
    pub fn r_bad_floor(&self) -> f64 {
        1.0 - (1.0 - self.p_bad).powf(f64::from(self.c_lower))
    }

    /// Probability a connection through a good link sees a retransmission,
    /// at the upper packet-count bound: `r_g ≤ 1 − (1 − p_g)^{c_u}`.
    pub fn r_good_ceiling(&self) -> f64 {
        1.0 - (1.0 - self.p_good).powf(f64::from(self.c_upper))
    }

    /// Lemma 2, eq. (10a): lower bound on the probability a bad link
    /// receives a vote from a uniformly random connection:
    /// `v_b ≥ r_b / (n0·n1·npod)`.
    pub fn v_bad_floor(&self) -> f64 {
        let p = &self.params;
        self.r_bad_floor() / (f64::from(p.n0) * f64::from(p.n1) * f64::from(p.npod))
    }

    /// Lemma 2, eq. (10b): upper bound on the probability a good link
    /// receives a vote:
    /// `v_g ≤ (n0(npod−1)/(n1·n2·npod·(n0·npod−1))) · [(4 − k/n0)·r_g + (k/n0)·r_b]`.
    pub fn v_good_ceiling(&self) -> Option<f64> {
        let p = &self.params;
        if p.npod <= 1 || p.n2 == 0 {
            return None;
        }
        let n0 = f64::from(p.n0);
        let n1 = f64::from(p.n1);
        let n2 = f64::from(p.n2);
        let npod = f64::from(p.npod);
        let k = f64::from(self.k);
        let geom = n0 * (npod - 1.0) / (n1 * n2 * npod * (n0 * npod - 1.0));
        Some(geom * ((4.0 - k / n0) * self.r_good_ceiling() + (k / n0) * self.r_bad_floor()))
    }

    /// Theorem 3's mis-ranking probability bound `ε ≤ 2·e^{−O(N)}` for `n`
    /// total connections. `None` when the bound's preconditions fail
    /// (single pod, or the vote-probability gap is non-positive so the
    /// theorem gives no guarantee).
    pub fn epsilon(&self, n_connections: u64) -> Option<f64> {
        let vg = self.v_good_ceiling()?;
        let vb = self.v_bad_floor();
        misranking_probability_bound(n_connections, vg, vb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> ClosParams {
        ClosParams::paper_sim()
    }

    #[test]
    fn theorem1_hand_computed() {
        // paper_sim: n0=20, n1=16, n2=20, npod=2, H=20, Tmax=100.
        // level2 term = 20·(40−1)/(20·1) = 39 ≥ n1=16 ⇒ min = 16.
        // Ct = 100/(20·20) · 16 = 4.0
        let ct = theorem1_ct_bound(&paper(), 100.0);
        assert!((ct - 4.0).abs() < 1e-12, "got {ct}");
    }

    #[test]
    fn theorem1_single_pod_uses_level1_term() {
        let p = ClosParams::test_cluster(); // n0=10, n1=4, H=5
        let ct = theorem1_ct_bound(&p, 100.0);
        assert!((ct - 100.0 / 50.0 * 4.0).abs() < 1e-12); // 8.0
    }

    #[test]
    fn theorem1_scales_linearly_in_tmax() {
        let p = paper();
        let a = theorem1_ct_bound(&p, 100.0);
        let b = theorem1_ct_bound(&p, 200.0);
        assert!((b - 2.0 * a).abs() < 1e-12);
    }

    #[test]
    fn theorem1_larger_racks_lower_bound() {
        let p = paper();
        let bigger = ClosParams {
            hosts_per_tor: 40,
            ..p
        };
        assert!(theorem1_ct_bound(&bigger, 100.0) < theorem1_ct_bound(&p, 100.0));
    }

    #[test]
    fn k_max_hand_computed() {
        // n2(n0·npod − 1)/(n0(npod−1)) = 20·39/20 = 39
        assert_eq!(theorem2_k_max(&paper()), Some(39.0));
        assert_eq!(theorem2_k_max(&ClosParams::test_cluster()), None);
    }

    fn thm(k: u32, pb: f64, pg: f64) -> Theorem2 {
        Theorem2 {
            params: paper(),
            k,
            p_bad: pb,
            p_good: pg,
            c_lower: 50,
            c_upper: 100,
        }
    }

    #[test]
    fn alpha_hand_computed() {
        // k=1: α = 20·(80−1)·1 / (20·39 − 20·1) = 1580/760
        let a = thm(1, 0.01, 1e-7).alpha().unwrap();
        assert!((a - 1580.0 / 760.0).abs() < 1e-9, "got {a}");
    }

    #[test]
    fn alpha_undefined_at_k_max() {
        assert!(thm(39, 0.01, 1e-7).alpha().is_none());
        assert!(thm(45, 0.01, 1e-7).alpha().is_none());
    }

    #[test]
    fn noise_ceiling_positive_and_scales_with_pb() {
        let lo = thm(1, 0.0005, 0.0).noise_ceiling().unwrap();
        let hi = thm(1, 0.01, 0.0).noise_ceiling().unwrap();
        assert!(lo > 0.0);
        assert!(hi > lo);
    }

    #[test]
    fn paper_example_magnitude() {
        // §5.2: with pb ≥ 0.05 % the paper's datacenter tolerates good-link
        // rates up to ~1.8e-6. α shrinks with topology size, so our much
        // smaller default topology tolerates more noise; the ceiling must
        // still be a small number well above typical noise (≤ 1e-6) and
        // well below failure rates (≥ 1e-4 … 1e-2).
        let ceil = thm(1, 0.0005, 0.0).noise_ceiling().unwrap();
        assert!(ceil > 1e-6 && ceil < 1e-3, "ceiling {ceil} out of range");
    }

    #[test]
    fn holds_respects_ceiling() {
        let t = thm(1, 0.001, 1e-9);
        assert_eq!(t.holds(), Some(true));
        let noisy = thm(1, 0.001, 0.01);
        assert_eq!(noisy.holds(), Some(false));
    }

    #[test]
    fn retransmission_probabilities_monotone() {
        let t = thm(1, 0.001, 1e-6);
        assert!(t.r_bad_floor() > 0.0 && t.r_bad_floor() < 1.0);
        assert!(t.r_good_ceiling() > 0.0 && t.r_good_ceiling() < 1.0);
        let heavier = thm(1, 0.01, 1e-6);
        assert!(heavier.r_bad_floor() > t.r_bad_floor());
    }

    #[test]
    fn vote_probability_gap_in_regime() {
        // Inside the proven regime the bad-link vote floor must exceed the
        // good-link vote ceiling — that is the content of the theorem.
        let t = thm(1, 0.005, 1e-8);
        assert!(t.v_bad_floor() > t.v_good_ceiling().unwrap());
    }

    #[test]
    fn epsilon_decays_with_n() {
        let t = thm(1, 0.005, 1e-8);
        let e1 = t.epsilon(10_000).unwrap();
        let e2 = t.epsilon(100_000).unwrap();
        let e3 = t.epsilon(10_000_000).unwrap();
        assert!(e2 <= e1);
        assert!(e3 <= e2);
        // Datacenter-scale N (10⁷ connections/epoch) drives ε to ~0.
        assert!(e3 < 1e-3, "ε(10⁷) = {e3} should be tiny");
    }

    #[test]
    fn epsilon_none_outside_regime() {
        // Noise so high the vote gap inverts: no guarantee.
        let t = thm(1, 0.0001, 0.01);
        assert!(t.epsilon(10_000).is_none());
    }

    #[test]
    fn pod_condition() {
        // paper_sim: npod=2, need 1 + max[20/16, …] = 2.25 ⇒ fails (the
        // paper's own simulations run outside the sufficient conditions,
        // §6: "This shows these conditions are not necessary").
        assert!(!thm(1, 0.001, 0.0).pod_condition_holds());
        let big = Theorem2 {
            params: ClosParams { npod: 4, ..paper() },
            k: 1,
            p_bad: 0.001,
            p_good: 0.0,
            c_lower: 50,
            c_upper: 100,
        };
        assert!(big.pod_condition_holds());
    }
}
