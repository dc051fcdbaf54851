//! The test-cluster entries of §7: a sick ToR in a "clean" testbed,
//! per-flow blame and rank positions with two unequal failures, and the
//! vote gap of Figure 13.
//!
//! Each independent epoch or trial is one sweep-engine task with its own
//! index-derived RNG stream.

use crate::{artifact, sum_counts, vigil_only, Outputs, Scale};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use vigil::evaluate::evaluate_epoch;
use vigil::prelude::*;
use vigil::sweep::task_rng;
use vigil_analysis::blame_flow;
use vigil_analysis::switch_votes::SwitchTally;
use vigil_fabric::faults::LinkFaults;
use vigil_fabric::EpochScratch;
use vigil_stats::{Ecdf, Summary};
use vigil_topology::{Node, SwitchId};

/// A repaved cluster hides one ToR that mangles a fraction of everything
/// arriving at it. Link votes concentrate on its links, switch-level
/// voting names it, and "rebooting" (repairing) it silences the votes.
pub(crate) fn sec7_1(scale: Scale, engine: &SweepEngine) -> Outputs {
    let epochs = if scale.fast { 5 } else { 20 };
    let topo = ClosTopology::new(ClosParams::test_cluster(), 71).expect("valid");
    let mut rng = ChaCha8Rng::seed_from_u64(0x71);
    let sick_tor = topo.tor(0, rng.gen_range(0..topo.params().n0));
    let mut faults = LinkFaults::new(topo.num_links());
    faults.set_noise(RateRange::PAPER_NOISE, &mut rng);
    for l in topo.links() {
        if l.to == Node::Switch(sick_tor) {
            faults.fail_link(l.id, rng.gen_range(2e-3..6e-3));
        }
    }
    let cfg = vigil_only(80);

    let (sick, switch_top_hits) = observe(engine, epochs, 0xA1_71, &topo, &faults, &cfg, sick_tor);
    let links_to_repair: Vec<_> = faults.failed_set().iter().copied().collect();
    for l in links_to_repair {
        faults.repair_link(l, RateRange::PAPER_NOISE, &mut rng);
    }
    let (post, _) = observe(engine, epochs, 0xB0_71, &topo, &faults, &cfg, sick_tor);
    println!(
        "votes on links arriving at the sick ToR per epoch: {:.1} ± {:.1} before the reboot, \
         {:.2} ± {:.2} after",
        sick.mean(),
        sick.ci95_half_width().unwrap_or(f64::NAN),
        post.mean(),
        post.ci95_half_width().unwrap_or(0.0)
    );
    if post.mean() >= sick.mean() / 10.0 {
        return Err("the reboot did not collapse the vote mass".into());
    }
    Ok(vec![artifact(
        "sec7_1",
        &serde_json::json!({
            "pre_mean": sick.mean(),
            "post_mean": post.mean(),
            "switch_top_hits": switch_top_hits,
            "epochs": epochs,
        }),
    )])
}

/// Per epoch: the votes on links arriving at the sick ToR, and whether
/// switch-level voting ranks it first.
fn observe(
    engine: &SweepEngine,
    epochs: usize,
    seed: u64,
    topo: &ClosTopology,
    faults: &LinkFaults,
    cfg: &RunConfig,
    sick_tor: SwitchId,
) -> (Summary, usize) {
    let observations = engine.run_tasks(epochs, |epoch| {
        let mut rng = task_rng(seed, epoch);
        let run = vigil::run_epoch(topo, faults, cfg, &mut rng, &mut EpochScratch::new());
        let arriving: f64 = topo
            .links()
            .iter()
            .filter(|l| l.to == Node::Switch(sick_tor))
            .map(|l| run.detection.raw_tally.votes(l.id))
            .sum();
        let tally = SwitchTally::tally(topo, &run.evidence);
        let topped = tally.ranking().first().map(|(s, _)| *s) == Some(sick_tor);
        (arriving, topped)
    });
    let mut votes = Summary::new();
    let mut top_hits = 0usize;
    for (arriving, topped) in observations {
        votes.record(arriving);
        top_hits += usize::from(topped);
    }
    (votes, top_hits)
}

/// Two failures of 0.2 % and 0.05 %: over flows that cross at least one
/// of them (the only ones with known ground truth), how often 007 blames
/// the link that really dropped the flow's packets.
pub(crate) fn sec7_2(scale: Scale, engine: &SweepEngine) -> Outputs {
    let base = scenarios::sec7_2_two_failures();
    let per_trial = engine.run_tasks(scale.trials, |trial| {
        let mut rng = task_rng(0x72, trial);
        let topo = ClosTopology::new(base.params, rng.gen()).expect("valid");
        let faults = base.faults.build(&topo, &mut rng);
        // [scored, correct]
        let mut counts = [0u64; 2];
        for _epoch in 0..scale.epochs {
            let run = vigil::run_epoch(
                &topo,
                &faults,
                &base.run,
                &mut rng,
                &mut EpochScratch::new(),
            );
            let flow_idx = run.flow_index();
            for (ev, report) in run.evidence.iter().zip(&run.reports) {
                let flow = &run.outcome.flows[flow_idx
                    .get(&report.tuple)
                    .expect("reported tuples come from the epoch's flow table")];
                let crosses = flow
                    .path
                    .links
                    .iter()
                    .any(|l| faults.failed_set().contains(l));
                let Some(truth) = flow.dominant_drop_link().filter(|_| crosses) else {
                    continue;
                };
                if let Some(blamed) = blame_flow(&run.detection.raw_tally, ev) {
                    counts[0] += 1;
                    counts[1] += u64::from(blamed == truth);
                }
            }
        }
        counts
    });
    let [scored, correct] = sum_counts(per_trial);
    let accuracy = correct as f64 / scored.max(1) as f64;
    Ok(vec![artifact(
        "sec7_2",
        &serde_json::json!({ "scored": scored, "correct": correct, "accuracy": accuracy }),
    )])
}

/// The vote gap `[bad-link votes] − [max good-link votes]` for a single
/// induced failure on a T1→ToR test-cluster link, per drop rate; plus
/// top-2 membership and how many more links the integer program flags.
pub(crate) fn fig13(scale: Scale, engine: &SweepEngine) -> Outputs {
    let spec = SweepSpec::new(
        "fig13",
        "induced drop rate",
        vec![1e-2, 5e-3, 1e-3, 5e-4],
        move |&rate| {
            let mut cfg = scale.apply(scenarios::fig13_cluster(rate));
            cfg.params = ClosParams::test_cluster(); // never shrink the cluster
            cfg
        },
    );
    let reports = engine.run_sweep(&spec);
    let mut outputs = Vec::new();
    for (&rate, report) in spec.values.iter().zip(&reports) {
        let gaps = Ecdf::new(report.vote_gaps.clone());
        let top1 = report.vote_gaps.iter().filter(|g| **g > 0.0).count() as f64
            / report.vote_gaps.len().max(1) as f64;
        let mut top2 = 0usize;
        let mut epochs_counted = 0usize;
        let (mut int_factor_sum, mut int_factor_n) = (0.0, 0usize);
        for er in &report.epochs {
            let Some(bad) = er.truth_failed.first() else {
                continue;
            };
            epochs_counted += 1;
            top2 += usize::from(er.ranking_head.iter().take(2).any(|l| l == bad));
            let Some(int) = er.integer.as_ref().filter(|_| !er.detected.is_empty()) else {
                continue;
            };
            // Flagged-links ratio: the integer program's support vs 007's.
            let flagged = |c: &vigil_stats::BinaryConfusion| c.true_positives + c.false_positives;
            let vigil_flagged = flagged(&er.vigil.confusion);
            if vigil_flagged > 0 {
                int_factor_sum += flagged(&int.confusion) as f64 / vigil_flagged as f64;
                int_factor_n += 1;
            }
        }
        let q = |p| gaps.quantile(p).unwrap_or(f64::NAN);
        print!(
            "rate {:.2}%: gap P10 {:+.2} P50 {:+.2} P90 {:+.2}; top-1 {:.1}%, top-2 {:.1}%",
            rate * 100.0,
            q(0.10),
            q(0.50),
            q(0.90),
            top1 * 100.0,
            top2 as f64 / epochs_counted.max(1) as f64 * 100.0
        );
        if int_factor_n > 0 {
            let factor = int_factor_sum / int_factor_n as f64;
            print!("; integer program flags {factor:.2}x as many links");
        }
        println!();
        outputs.push(artifact(
            format!("fig13_rate{rate}"),
            &serde_json::json!({ "rate": rate, "gaps": report.vote_gaps, "top1": top1 }),
        ));
    }
    Ok(outputs)
}

/// Two failures of 0.2 % and 0.1 %: where each lands in the vote
/// ranking, and per-connection blame accuracy.
pub(crate) fn sec7_3(scale: Scale, engine: &SweepEngine) -> Outputs {
    // Counters summed over trials: [epochs, hot first, mild at rank 1..=5
    // (5 slots), mild beyond 5, both in top 3, blame hits, blame total].
    const MILD_RANK: usize = 2;
    let base = scenarios::sec7_3_two_failures();
    let per_trial = engine.run_tasks(scale.trials, |trial| {
        let mut rng = task_rng(0x73, trial);
        let topo = ClosTopology::new(base.params, rng.gen()).expect("valid");
        let faults = base.faults.build(&topo, &mut rng);
        let mut failed: Vec<_> = faults.failed_set().iter().copied().collect();
        failed.sort_by(|a, b| {
            faults
                .rate(*b)
                .partial_cmp(&faults.rate(*a))
                .expect("finite rates")
        });
        let (hot, mild) = (failed[0], failed[1]);

        let mut c = [0u64; 11];
        for _epoch in 0..scale.epochs {
            let run = vigil::run_epoch(
                &topo,
                &faults,
                &base.run,
                &mut rng,
                &mut EpochScratch::new(),
            );
            let ranking: Vec<_> = run
                .detection
                .raw_tally
                .ranking()
                .into_iter()
                .map(|(l, _)| l)
                .collect();
            if ranking.is_empty() {
                continue;
            }
            c[0] += 1;
            c[1] += u64::from(ranking[0] == hot);
            match ranking.iter().position(|l| *l == mild) {
                Some(pos) if pos < 5 => c[MILD_RANK + pos] += 1,
                _ => c[7] += 1,
            }
            let top3 = &ranking[..ranking.len().min(3)];
            c[8] += u64::from(top3.contains(&hot) && top3.contains(&mild));
            let er = evaluate_epoch(&run);
            c[9] += er.vigil.accuracy.hits;
            c[10] += er.vigil.accuracy.total;
        }
        c
    });
    let c = sum_counts(per_trial);
    let pct = |n: u64| n as f64 / c[0].max(1) as f64 * 100.0;
    let ranks = &c[MILD_RANK..MILD_RANK + 5];
    print!("second link at rank");
    for (i, &n) in ranks.iter().enumerate() {
        print!(" {}: {:.1}%", i + 1, pct(n));
    }
    println!(
        "; beyond top-5: {:.1}%; per-connection blame accuracy: {:.1}%",
        pct(c[7]),
        c[9] as f64 / c[10].max(1) as f64 * 100.0
    );
    Ok(vec![artifact(
        "sec7_3",
        &serde_json::json!({
            "epochs": c[0],
            "hot_first_pct": pct(c[1]),
            "second_rank_counts": ranks.to_vec(),
            "both_top3_pct": pct(c[8]),
        }),
    )])
}
