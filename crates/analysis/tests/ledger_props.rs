//! Float-drift guard for the incremental vote machinery: casting a
//! random batch of evidence and then retracting all of it — under *any*
//! interleaving of casts and retracts — must return the [`VoteTally`]
//! (and the [`VoteLedger`] built on it) **bitwise** to its prior (empty)
//! state. This is the property that makes a long-running ledger safe:
//! absorbed-then-withdrawn evidence may never leave residue that later
//! masquerades as votes, however the operations interleave.
//!
//! The guarantee rests on two mechanisms in `VoteTally::retract`: the
//! clamp (`removed = w.min(v)`) zeroes exactly when float error went
//! negative, and the `1e-12` snap absorbs positive dust. The proptests
//! drive both through randomized paths and shrink to a minimal failing
//! batch on regression.

use proptest::prelude::*;
use vigil_analysis::ledger::VoteLedger;
use vigil_analysis::{Algorithm1Config, FlowEvidence, VoteTally, VoteWeight};
use vigil_topology::LinkId;

const NUM_LINKS: usize = 24;

fn evidence_from(paths: &[Vec<u32>]) -> Vec<FlowEvidence> {
    paths
        .iter()
        .map(|p| {
            // Dedupe within a path: a flow votes each of its links once.
            let mut q = p.clone();
            q.sort_unstable();
            q.dedup();
            FlowEvidence::new(q.into_iter().map(LinkId).collect(), 1)
        })
        .collect()
}

fn tally_bits(t: &VoteTally) -> Vec<u64> {
    let mut bits: Vec<u64> = (0..t.num_links())
        .map(|i| t.votes(LinkId(i as u32)).to_bits())
        .collect();
    bits.push(t.total().to_bits());
    bits
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

proptest! {
    #[test]
    fn cast_then_retract_restores_tally_bitwise(
        paths in proptest::collection::vec(
            proptest::collection::vec(0u32..NUM_LINKS as u32, 1..7), 1..30),
        order in proptest::collection::vec(proptest::any::<bool>(), 0..60),
    ) {
        let evidence = evidence_from(&paths);
        for weight in [
            VoteWeight::ReciprocalPathLength,
            VoteWeight::Unit,
            VoteWeight::ReciprocalSquared,
        ] {
            let fresh = VoteTally::new(NUM_LINKS);
            let prior = tally_bits(&fresh);
            let mut tally = VoteTally::new(NUM_LINKS);
            run_interleaved(&mut tally, &evidence, &order, weight);
            prop_assert_eq!(
                tally_bits(&tally),
                prior.clone(),
                "residue after full retraction ({:?})",
                weight
            );
        }
    }

    #[test]
    fn absorb_then_retract_restores_ledger_bitwise(
        paths in proptest::collection::vec(
            proptest::collection::vec(0u32..NUM_LINKS as u32, 1..7), 1..30),
        order in proptest::collection::vec(proptest::any::<bool>(), 0..60),
    ) {
        let evidence = evidence_from(&paths);
        let mut ledger: VoteLedger<u32> =
            VoteLedger::new(NUM_LINKS, Algorithm1Config::default(), 2, 0.3);
        let prior = tally_bits(ledger.live_tally());

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
        prop_assert_eq!(tally_bits(ledger.live_tally()), prior,
            "ledger live tally holds residue after full retraction");
    }
}
