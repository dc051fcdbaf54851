//! The paper's benchmark programs, assembled from the solver stack.
//!
//! * [`binary_program`] — eq. (3): minimize `‖p‖₀` s.t. `Ap ≥ s`,
//!   `p ∈ {0,1}^L` — exact minimum set cover.
//! * [`integer_program`] — eq. (4): minimize `‖p‖₀` s.t. `Ap ≥ c`,
//!   `‖p‖₁ = ‖c‖₁`, `p ∈ ℕ₀^L` — optimal support via set cover (see the
//!   crate-level structure theorem) plus demand-weighted count
//!   attribution, which yields the ranking the paper uses for per-flow
//!   blame.

use crate::greedy::greedy_cover;
use crate::instance::CoverInstance;
use crate::setcover::{min_set_cover, SearchLimits};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Solution of the binary program (3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinarySolution {
    /// Blamed link ids (ascending).
    pub links: Vec<u32>,
    /// Whether optimality was proven (node budget not exhausted).
    pub optimal: bool,
}

impl BinarySolution {
    /// Per-flow blame: the binary program has no ranking, so the blamed
    /// link for a path is an arbitrary-but-deterministic member of the
    /// solution intersecting it (lowest id) — one of the weaknesses the
    /// paper highlights.
    pub fn blame(&self, path_links: &[u32]) -> Option<u32> {
        path_links
            .iter()
            .filter(|l| self.links.binary_search(l).is_ok())
            .min()
            .copied()
    }
}

/// Solves the binary program (3) exactly (up to the node budget).
pub fn binary_program(instance: &CoverInstance, limits: &SearchLimits) -> BinarySolution {
    let result = min_set_cover(instance, limits);
    BinarySolution {
        links: result.picked.iter().map(|c| instance.link_of(*c)).collect(),
        optimal: result.optimal,
    }
}

/// Solution of the integer program (4): per-link drop counts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntegerSolution {
    /// Estimated packets dropped per blamed link.
    pub counts: BTreeMap<u32, u64>,
    /// Whether the support was proven optimal.
    pub optimal: bool,
}

impl IntegerSolution {
    /// Links ranked by estimated drop count, descending (ties by id).
    pub fn ranking(&self) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = self.counts.iter().map(|(l, c)| (*l, *c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Per-flow blame: the highest-count solution link on the path.
    pub fn blame(&self, path_links: &[u32]) -> Option<u32> {
        path_links
            .iter()
            .filter_map(|l| self.counts.get(l).map(|c| (*l, *c)))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(l, _)| l)
    }
}

/// Solves the integer program (4): optimal support from exact set cover,
/// counts from demand-weighted attribution (each flow's retransmissions
/// are charged to the *heaviest* support link on its path, where weight is
/// the demand-weighted greedy attraction — the maximum-likelihood-flavoured
/// tie-break among the program's many optima).
pub fn integer_program(instance: &CoverInstance, limits: &SearchLimits) -> IntegerSolution {
    let cover = min_set_cover(instance, limits);
    let support: Vec<usize> = cover.picked.clone();
    let counts = attribute_counts(instance, &support);
    IntegerSolution {
        counts,
        optimal: cover.optimal,
    }
}

/// Charges every raw row's demand to one support link on its path,
/// producing `p` with `‖p‖₁ = ‖c‖₁` and `Ap ≥ c`.
fn attribute_counts(instance: &CoverInstance, support: &[usize]) -> BTreeMap<u32, u64> {
    // Attraction: demand-weighted greedy order (earlier pick = heavier).
    let order = greedy_cover(instance, true);
    let rank_of = |c: usize| order.iter().position(|o| *o == c).unwrap_or(usize::MAX);
    let in_support: std::collections::HashSet<usize> = support.iter().copied().collect();

    let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
    for row in instance.raw_rows() {
        let target = row
            .cand
            .iter()
            .filter(|c| in_support.contains(c))
            .min_by_key(|c| (rank_of(**c), **c));
        if let Some(&c) = target {
            *counts.entry(instance.link_of(c)).or_insert(0) += u64::from(row.demand);
        }
        // Rows with no support link only exist when the cover was
        // truncated by the node budget; they stay unexplained.
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::FlowRow;
    use crate::milp::{integer_program_milp, MilpProgramLimits};

    fn flows(data: &[(&[u32], u32)]) -> Vec<FlowRow> {
        data.iter()
            .map(|(links, d)| FlowRow {
                links: links.to_vec(),
                demand: *d,
            })
            .collect()
    }

    fn rows(data: &[(&[u32], u32)]) -> CoverInstance {
        CoverInstance::new(&flows(data))
    }

    #[test]
    fn binary_finds_common_link() {
        let i = rows(&[(&[1, 2], 1), (&[3, 2], 1), (&[2, 4], 1)]);
        let sol = binary_program(&i, &SearchLimits::default());
        assert!(sol.optimal);
        assert_eq!(sol.links, vec![2]);
        assert_eq!(sol.blame(&[1, 2]), Some(2));
        assert_eq!(sol.blame(&[9, 8]), None);
    }

    #[test]
    fn integer_counts_respect_budget_and_rows() {
        let i = rows(&[(&[1, 2], 3), (&[3, 2], 2), (&[5], 4)]);
        let sol = integer_program(&i, &SearchLimits::default());
        assert!(sol.optimal);
        // Budget: 3 + 2 + 4 = 9 drops all attributed.
        let total: u64 = sol.counts.values().sum();
        assert_eq!(total, i.total_demand());
        // Support covers: link 2 covers rows 1–2, link 5 covers row 3.
        assert!(sol.counts.contains_key(&2));
        assert!(sol.counts.contains_key(&5));
        assert_eq!(sol.counts.len(), 2);
        // Row sums ≥ demand: row 1 path {1,2} holds count(2) = 5 ≥ 3. ✓
        assert!(sol.counts[&2] >= 3);
    }

    #[test]
    fn integer_ranking_orders_by_count() {
        let i = rows(&[(&[1], 10), (&[2], 3)]);
        let sol = integer_program(&i, &SearchLimits::default());
        let ranking = sol.ranking();
        assert_eq!(ranking[0], (1, 10));
        assert_eq!(ranking[1], (2, 3));
        assert_eq!(sol.blame(&[1, 2]), Some(1));
    }

    #[test]
    fn integer_blame_on_shared_paths() {
        // Two failures with very different weights; a flow crossing both
        // solution links is blamed on the heavier one — the paper's
        // ranking-driven per-flow diagnosis.
        let i = rows(&[(&[1], 20), (&[2], 1), (&[1, 2], 2)]);
        let sol = integer_program(&i, &SearchLimits::default());
        assert_eq!(sol.blame(&[1, 2]), Some(1));
    }

    #[test]
    fn milp_agrees_with_setcover_support_size() {
        // The structure theorem, checked end to end on small instances.
        let cases: Vec<Vec<(&[u32], u32)>> = vec![
            vec![(&[1, 2][..], 2), (&[3, 2][..], 1)],
            vec![(&[1][..], 1), (&[2][..], 2), (&[1, 2][..], 3)],
            vec![(&[10, 11][..], 1), (&[11, 12][..], 2), (&[12, 10][..], 1)],
        ];
        for case in cases {
            let i = rows(&case);
            let fast = integer_program(&i, &SearchLimits::default());
            let slow = integer_program_milp(&flows(&case), &MilpProgramLimits::default())
                .expect("small instances solve");
            assert!(fast.optimal && slow.optimal);
            assert_eq!(
                fast.counts.len(),
                slow.counts.len(),
                "‖p‖₀ mismatch on {case:?}: fast {:?} vs milp {:?}",
                fast.counts,
                slow.counts
            );
            // Both satisfy the budget.
            assert_eq!(fast.counts.values().sum::<u64>(), i.total_demand());
            assert_eq!(slow.counts.values().sum::<u64>(), i.total_demand());
        }
    }

    #[test]
    fn empty_instance_solutions() {
        let i = rows(&[]);
        let b = binary_program(&i, &SearchLimits::default());
        assert!(b.links.is_empty() && b.optimal);
        let s = integer_program(&i, &SearchLimits::default());
        assert!(s.counts.is_empty() && s.optimal);
        let m = integer_program_milp(&[], &MilpProgramLimits::default()).unwrap();
        assert!(m.counts.is_empty());
    }

    #[test]
    fn feasibility_of_attribution() {
        // Ap ≥ c must hold for the attributed counts on every raw row.
        let i = rows(&[(&[1, 2, 3], 4), (&[2, 4], 2), (&[3, 4], 5), (&[1], 1)]);
        let sol = integer_program(&i, &SearchLimits::default());
        for (links, demand) in [
            (&[1u32, 2, 3][..], 4u64),
            (&[2, 4][..], 2),
            (&[3, 4][..], 5),
            (&[1][..], 1),
        ] {
            let sum: u64 = links.iter().filter_map(|l| sol.counts.get(l)).sum();
            assert!(
                sum >= demand,
                "row {links:?} demand {demand} but counts only {sum}: {:?}",
                sol.counts
            );
        }
    }
}
