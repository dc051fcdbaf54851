//! The adversary's column-level decision against its record-level form.
//!
//! The epoch driver never hands [`AdversaryModel`] a flow record: it
//! scans a [`FlowBatch`]'s columns with [`AdversaryModel::decide`] and
//! materializes a record — to read its path — only for rows that emit.
//! Over a simulated epoch, for every behavior, that must produce exactly
//! what [`AdversaryModel::emission`] says about the whole-epoch
//! simulator's record for the same flow.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vigil_agents::{AdversaryModel, ByzantineBehavior, ByzantineSpec};
use vigil_fabric::faults::{FaultPlan, RateRange};
use vigil_fabric::flowsim::{simulate_epoch, EpochScratch, EpochStream, FlowBatch, SimConfig};
use vigil_fabric::traffic::{ConnCount, TrafficSpec};
use vigil_topology::{ClosParams, ClosTopology};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn column_decision_matches_record_emission(
        seed in any::<u64>(),
        salt in any::<u64>(),
        fraction in 0.05f64..0.95,
        rate in 0.05f64..1.0,
        chunk in 1usize..200,
    ) {
        let topo = ClosTopology::new(ClosParams::tiny(), seed).unwrap();
        let faults = FaultPlan {
            failure_rate: RateRange::fixed(0.05),
            ..FaultPlan::paper_default(2)
        }
        .build(&topo, &mut ChaCha8Rng::seed_from_u64(seed));
        let traffic = TrafficSpec {
            conns_per_host: ConnCount::Fixed(12),
            ..TrafficSpec::paper_default()
        };
        let sim = SimConfig::default();
        let records =
            simulate_epoch(&topo, &faults, &traffic, &sim, &mut ChaCha8Rng::seed_from_u64(!seed), &mut EpochScratch::new());
        prop_assert!(records.flows.iter().any(|f| f.retransmissions > 0));

        for behavior in [
            ByzantineBehavior::Liar,
            ByzantineBehavior::Mute,
            ByzantineBehavior::Flooder { rate },
            ByzantineBehavior::Flipper,
        ] {
            let adv = AdversaryModel::new(
                ByzantineSpec { fraction, behavior, salt },
                topo.num_links(),
            );
            let mut rng = ChaCha8Rng::seed_from_u64(!seed);
            let mut scratch = EpochScratch::new();
            let mut stream =
                EpochStream::open(&topo, &faults, &traffic, &sim, &mut rng, &mut scratch);
            let mut batch = FlowBatch::new();
            let mut row = 0usize;
            loop {
                batch.clear();
                if stream.next_batch(chunk, &mut batch) == 0 {
                    break;
                }
                for i in 0..batch.len() {
                    let decided = adv
                        .decide(
                            batch.src()[i],
                            &batch.tuples()[i],
                            batch.established()[i],
                            batch.retransmissions()[i],
                        )
                        .map(|event| {
                            let path = adv.claimed_path(&event, &stream.materialize(&batch, i).path);
                            (event, path)
                        });
                    prop_assert_eq!(
                        decided,
                        adv.emission(&records.flows[row]),
                        "{:?}, flow {}", behavior, row
                    );
                    row += 1;
                }
            }
            prop_assert_eq!(row, records.flows.len());
        }
    }
}
