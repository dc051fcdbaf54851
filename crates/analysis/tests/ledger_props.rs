//! Exact laws of the incremental vote machinery. Tallies are integer
//! units, so these are equalities, not tolerances:
//!
//! * any interleaving of casts and retracts that retracts everything it
//!   cast returns the [`VoteTally`] to `== VoteTally::new(n)`, under
//!   every [`VoteWeight`];
//! * absorbing a window in any order closes to the identical
//!   [`WindowAnalysis`], down to the bits of every detection's votes, and
//!   Algorithm 1 itself returns the same verdict on any permutation of
//!   its evidence;
//! * a window absorbed with colliding keys closes exactly like one that
//!   absorbed only each key's last evidence: superseded evidence leaves
//!   no trace in the verdict.

use proptest::prelude::*;
use vigil_analysis::ledger::VoteLedger;
use vigil_analysis::{
    detect, Algorithm1Config, FlowEvidence, VoteTally, VoteWeight, WindowAnalysis,
};
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

/// Every detection's link and votes, to the bit.
fn bits(w: &WindowAnalysis) -> Vec<(LinkId, u64)> {
    w.detection
        .detections
        .iter()
        .map(|d| (d.link, d.votes.to_bits()))
        .collect()
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
        prop_assert_eq!(bits(&x), bits(&y));
    }

    #[test]
    fn colliding_keys_close_like_their_last_evidence(
        evidence in arb_evidence(),
        keys in proptest::collection::vec(0u32..16, 40),
    ) {
        // Keys collide, so later evidence supersedes earlier evidence at
        // the same key: the window must close exactly like one that only
        // ever absorbed each key's last evidence.
        let mut colliding = ledger();
        let mut last = std::collections::BTreeMap::new();
        for (i, e) in evidence.iter().enumerate() {
            colliding.absorb(keys[i], e.clone());
            last.insert(keys[i], e.clone());
        }
        let mut deduped = ledger();
        for (k, e) in last {
            deduped.absorb(k, e);
        }
        prop_assert_eq!(colliding.resident(), deduped.resident());
        let x = colliding.close_window();
        let y = deduped.close_window();
        prop_assert_eq!(&x.evidence, &y.evidence);
        prop_assert_eq!(&x.classes, &y.classes);
        prop_assert_eq!(&x.conservative.raw_tally, &y.conservative.raw_tally);
        prop_assert_eq!(&x.detection.adjusted_tally, &y.detection.adjusted_tally);
        prop_assert_eq!(&x.unbounded_picks, &y.unbounded_picks);
        prop_assert_eq!(bits(&x), bits(&y));
    }
}
