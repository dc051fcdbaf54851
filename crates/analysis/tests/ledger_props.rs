//! Exact laws of the incremental vote machinery. Tallies are integer
//! units, so these are equalities, not tolerances:
//!
//! * any interleaving of casts and retracts that retracts everything it
//!   cast returns the [`VoteTally`] (and the [`VoteLedger`]'s live tally)
//!   to `== VoteTally::new(n)`, under every [`VoteWeight`];
//! * absorbing a window in any order closes to the identical
//!   [`WindowAnalysis`](vigil_analysis::WindowAnalysis), down to the bits
//!   of every detection's votes, and Algorithm 1 itself returns the same
//!   verdict on any permutation of its evidence;
//! * the live tally just before a close equals the close's conservative
//!   raw tally, whatever was superseded or retracted on the way.

use proptest::prelude::*;
use vigil_analysis::ledger::VoteLedger;
use vigil_analysis::{detect, Algorithm1Config, FlowEvidence, VoteTally, VoteWeight};
use vigil_topology::{LinkId, MAX_ROUTE_LINKS};

const NUM_LINKS: usize = 24;

/// Random evidence: 1..=MAX_ROUTE_LINKS links (deduped — a flow votes
/// each of its links once) and 1–3 retransmissions, so both the noise
/// and the failure class are exercised.
fn arb_evidence() -> impl Strategy<Value = Vec<FlowEvidence>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0u32..NUM_LINKS as u32, 1..=MAX_ROUTE_LINKS),
            1u32..4,
        ),
        1..40,
    )
    .prop_map(|flows| {
        flows
            .into_iter()
            .map(|(mut links, retx)| {
                links.sort_unstable();
                links.dedup();
                FlowEvidence::new(links.into_iter().map(LinkId).collect(), retx)
            })
            .collect()
    })
}

/// The indices `0..n` ordered by `keys` (ties by index): a random
/// permutation drawn from random sort keys.
fn permutation(n: usize, keys: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (keys.get(i).copied().unwrap_or(0), i));
    order
}

/// Interleaves casts and retracts: `order[i]` decides whether step `i`
/// casts the next un-cast evidence or retracts the oldest cast-but-not-
/// yet-retracted one; any retract that cannot happen yet (nothing cast)
/// becomes a cast, and leftovers are flushed at the end — so every
/// schedule is valid and everything is retracted exactly once.
fn run_interleaved(
    tally: &mut VoteTally,
    evidence: &[FlowEvidence],
    order: &[bool],
    weight: VoteWeight,
) {
    let mut next_cast = 0usize;
    let mut next_retract = 0usize;
    for &do_retract in order {
        if do_retract && next_retract < next_cast {
            tally.retract(&evidence[next_retract], weight);
            next_retract += 1;
        } else if next_cast < evidence.len() {
            tally.cast(&evidence[next_cast], weight);
            next_cast += 1;
        }
    }
    while next_cast < evidence.len() {
        tally.cast(&evidence[next_cast], weight);
        next_cast += 1;
    }
    while next_retract < next_cast {
        tally.retract(&evidence[next_retract], weight);
        next_retract += 1;
    }
}

fn ledger() -> VoteLedger<u32> {
    VoteLedger::new(NUM_LINKS, Algorithm1Config::default(), 2, 0.3)
}

proptest! {
    #[test]
    fn cast_then_retract_restores_tally_bitwise(
        evidence in arb_evidence(),
        order in proptest::collection::vec(proptest::any::<bool>(), 0..80),
    ) {
        for weight in [
            VoteWeight::ReciprocalPathLength,
            VoteWeight::Unit,
            VoteWeight::ReciprocalSquared,
        ] {
            let mut tally = VoteTally::new(NUM_LINKS);
            run_interleaved(&mut tally, &evidence, &order, weight);
            prop_assert_eq!(&tally, &VoteTally::new(NUM_LINKS), "residue under {:?}", weight);
        }
    }

    #[test]
    fn absorb_then_retract_restores_ledger_bitwise(
        evidence in arb_evidence(),
        order in proptest::collection::vec(proptest::any::<bool>(), 0..80),
    ) {
        let mut ledger = ledger();

        // The same interleaving discipline, through the ledger's
        // absorb/retract (keys are the batch indices).
        let mut next_absorb = 0usize;
        let mut next_retract = 0usize;
        for &do_retract in &order {
            if do_retract && next_retract < next_absorb {
                let got = ledger.retract(&(next_retract as u32));
                prop_assert!(got.is_some(), "absorbed key must retract");
                next_retract += 1;
            } else if next_absorb < evidence.len() {
                ledger.absorb(next_absorb as u32, evidence[next_absorb].clone());
                next_absorb += 1;
            }
        }
        while next_absorb < evidence.len() {
            ledger.absorb(next_absorb as u32, evidence[next_absorb].clone());
            next_absorb += 1;
        }
        while next_retract < next_absorb {
            let got = ledger.retract(&(next_retract as u32));
            prop_assert!(got.is_some());
            next_retract += 1;
        }

        prop_assert_eq!(ledger.resident(), 0, "window must be empty again");
        prop_assert_eq!(ledger.live_tally(), &VoteTally::new(NUM_LINKS));
    }

    #[test]
    fn absorb_order_never_reaches_the_verdict(
        evidence in arb_evidence(),
        keys in proptest::collection::vec(proptest::any::<u64>(), 40),
    ) {
        let order = permutation(evidence.len(), &keys);

        // Algorithm 1 alone: a permuted evidence slice gives the same
        // picks, the same pick votes to the bit, and the same tallies.
        let config = Algorithm1Config::default();
        let permuted: Vec<FlowEvidence> = order.iter().map(|&i| evidence[i].clone()).collect();
        let a = detect(&evidence, NUM_LINKS, &config);
        let b = detect(&permuted, NUM_LINKS, &config);
        prop_assert_eq!(&a.detections, &b.detections);
        prop_assert_eq!(&a.raw_tally, &b.raw_tally);
        prop_assert_eq!(&a.adjusted_tally, &b.adjusted_tally);
        prop_assert_eq!(a.excluded_votes.to_bits(), b.excluded_votes.to_bits());

        // The ledger: in-order and permuted absorption close identically.
        let mut in_order = ledger();
        for (i, e) in evidence.iter().enumerate() {
            in_order.absorb(i as u32, e.clone());
        }
        let mut shuffled = ledger();
        for &i in &order {
            shuffled.absorb(i as u32, evidence[i].clone());
        }
        let x = in_order.close_window();
        let y = shuffled.close_window();
        prop_assert_eq!(&x.evidence, &y.evidence);
        prop_assert_eq!(&x.classes, &y.classes);
        prop_assert_eq!(&x.unbounded_picks, &y.unbounded_picks);
        prop_assert_eq!(&x.conservative.raw_tally, &y.conservative.raw_tally);
        prop_assert_eq!(&x.detection.adjusted_tally, &y.detection.adjusted_tally);
        let bits = |w: &vigil_analysis::WindowAnalysis| -> Vec<(LinkId, u64)> {
            w.detection.detections.iter().map(|d| (d.link, d.votes.to_bits())).collect()
        };
        prop_assert_eq!(bits(&x), bits(&y));
    }

    #[test]
    fn live_tally_equals_the_close_tally(
        evidence in arb_evidence(),
        keys in proptest::collection::vec(0u32..16, 40),
        withdraw in proptest::collection::vec(proptest::any::<bool>(), 40),
    ) {
        // Keys collide (supersede) and some are withdrawn (retract): the
        // live tally must still be exactly the tally of what is resident.
        let mut ledger = ledger();
        for (i, e) in evidence.iter().enumerate() {
            ledger.absorb(keys[i], e.clone());
            if withdraw[i] && i % 3 == 0 {
                ledger.retract(&keys[i]);
            }
        }
        let live = ledger.live_tally().clone();
        let closed = ledger.close_window();
        prop_assert_eq!(&live, &closed.conservative.raw_tally);
    }
}
