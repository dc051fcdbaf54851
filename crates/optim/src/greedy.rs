//! Algorithm 2: greedy set cover — the MAX COVERAGE / Tomo approximation.
//!
//! "Start with an empty set of failed links F and a set of unexplained
//! failures C. At each step, find the single link l that explains the
//! largest number of unexplained failures, add it to F, and remove from C
//! all the failures it explains. We then iterate until C is empty."
//! (paper Appendix D). MAX COVERAGE and Tomo both approximate the binary
//! program this way.

use crate::instance::CoverInstance;

/// Greedy cover: candidate indices in pick order. Ties break toward the
/// lowest candidate index (deterministic).
///
/// Demand-aware variant: when `weight_by_demand` is true the greedy score
/// is the total *demand* explained rather than the row count — used by the
/// integer program's attribution stage.
pub fn greedy_cover(instance: &CoverInstance, weight_by_demand: bool) -> Vec<usize> {
    let rows = instance.rows();
    let mut uncovered: Vec<bool> = vec![true; rows.len()];
    let mut remaining = rows.len();
    let mut picked = Vec::new();

    // Row membership per candidate, computed once.
    let mut member_rows: Vec<Vec<usize>> = vec![Vec::new(); instance.num_candidates()];
    for (ri, row) in rows.iter().enumerate() {
        for &c in &row.cand {
            member_rows[c].push(ri);
        }
    }

    while remaining > 0 {
        let mut best: Option<(u64, usize)> = None;
        for (c, rs) in member_rows.iter().enumerate() {
            let gain: u64 = rs
                .iter()
                .filter(|r| uncovered[**r])
                .map(|r| {
                    if weight_by_demand {
                        u64::from(rows[*r].demand)
                    } else {
                        1
                    }
                })
                .sum();
            if gain > 0 {
                let better = match best {
                    None => true,
                    Some((g, bc)) => gain > g || (gain == g && c < bc),
                };
                if better {
                    best = Some((gain, c));
                }
            }
        }
        let (_, c) = best.expect("uncovered rows always have candidates");
        picked.push(c);
        for &r in &member_rows[c] {
            if uncovered[r] {
                uncovered[r] = false;
                remaining -= 1;
            }
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::FlowRow;

    fn inst(rows: &[(&[u32], u32)]) -> CoverInstance {
        CoverInstance::new(
            &rows
                .iter()
                .map(|(links, d)| FlowRow {
                    links: links.to_vec(),
                    demand: *d,
                })
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn single_common_link_wins() {
        // The Appendix B example: failures on flows 1–2 and 3–2 but not
        // 1–3 pinpoint the shared link.
        let i = inst(&[(&[1, 2], 1), (&[3, 2], 1)]);
        let picks = greedy_cover(&i, false);
        assert_eq!(picks.len(), 1);
        assert_eq!(i.link_of(picks[0]), 2);
    }

    #[test]
    fn covers_everything() {
        let i = inst(&[(&[1, 2], 1), (&[3], 1), (&[4, 5], 1)]);
        let picks = greedy_cover(&i, false);
        assert!(i.covers(&picks));
    }

    #[test]
    fn empty_instance_picks_nothing() {
        let i = inst(&[]);
        assert!(greedy_cover(&i, false).is_empty());
    }

    #[test]
    fn greedy_can_be_suboptimal() {
        // Attractor trap: link 100 covers 4 rows and lures greedy, but the
        // two rows it misses ({1,52} and {2,55}) then need one pick each —
        // 3 total. Optimal is {1, 2} (2 picks). Junk links 50/51/53/54
        // keep the duplicate rows distinct through dedup.
        let i = inst(&[
            (&[1, 100, 50], 1),
            (&[1, 100, 51], 1),
            (&[1, 52], 1),
            (&[2, 100, 53], 1),
            (&[2, 100, 54], 1),
            (&[2, 55], 1),
        ]);
        let picks = greedy_cover(&i, false);
        assert!(i.covers(&picks));
        assert_eq!(i.link_of(picks[0]), 100, "greedy takes the attractor");
        assert_eq!(picks.len(), 3, "greedy pays one extra pick");
    }

    #[test]
    fn demand_weighting_changes_pick_order() {
        // Row demands steer the weighted variant to the heavy link.
        let i = inst(&[(&[1, 9], 10), (&[2], 1), (&[2], 1)]);
        let unweighted = greedy_cover(&i, false);
        let weighted = greedy_cover(&i, true);
        // Unweighted: link 2 covers… actually rows merge; both cover all.
        assert!(i.covers(&unweighted));
        assert!(i.covers(&weighted));
        // Weighted first pick explains demand 10; links 1 and 9 tie on
        // that row and the lower id wins.
        assert_eq!(i.link_of(weighted[0]), 1);
    }

    #[test]
    fn deterministic_tie_break() {
        let i = inst(&[(&[5, 6], 1)]);
        let picks = greedy_cover(&i, false);
        assert_eq!(picks.len(), 1);
        assert_eq!(i.link_of(picks[0]), 5, "lowest id wins ties");
    }
}
