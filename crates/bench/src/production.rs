//! The production-side entries: §2's motivating drop spread (Figure 1),
//! §8's ICMP load (Table 1), EverFlow validation and VM-reboot diagnosis,
//! and Appendix A's reboots per hour (Figure 14).
//!
//! Each independent window, incident or hour is one sweep-engine task
//! with its own index-derived RNG stream.

use crate::{artifact, sum_counts, vigil_only, Outputs, Scale, SMALL_FABRIC};
use rand::{seq::SliceRandom, Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use vigil::prelude::*;
use vigil::sweep::task_rng;
use vigil_agents::{is_eventful, HostAgent, HostPacer, ProbeTracer, RetransmissionEvent};
use vigil_analysis::{blame_flow, FlowEvidence, VoteTally};
use vigil_fabric::faults::LinkFaults;
use vigil_fabric::flowsim::{simulate_epoch, EpochScratch};
use vigil_fabric::netsim::{NetSim, NetSimConfig};
use vigil_stats::{Ecdf, Summary};
use vigil_topology::{HostId, Node};

/// A uniformly drawn host.
fn any_host(topo: &ClosTopology, rng: &mut impl Rng) -> HostId {
    HostId(rng.gen_range(0..topo.num_hosts() as u32))
}

/// The host → ToR uplink of `host`.
fn uplink(topo: &ClosTopology, host: HostId) -> LinkId {
    let tor = Node::Switch(topo.host_tor(host));
    topo.link_between(Node::Host(host), tor).expect("uplink")
}

/// A production day as intervals with a drifting fault population (0–4
/// lossy links over background noise); per interval, how many flows see
/// drops and each flow's share of them.
pub(crate) fn fig01(scale: Scale, engine: &SweepEngine) -> Outputs {
    /// What one interval contributes to the CDFs.
    struct Interval {
        total_drops: u64,
        dropping_flows: u64,
        shares: Vec<f64>,
        max_share: Option<f64>,
    }
    let intervals = if scale.fast { 60 } else { 240 };
    let params = if scale.fast {
        SMALL_FABRIC
    } else {
        ClosParams::paper_sim()
    };
    let topo = ClosTopology::new(params, 1).expect("valid");
    let traffic = TrafficSpec {
        conns_per_host: ConnCount::Fixed(20),
        packets_per_flow: PacketCount::Uniform(50, 100),
        ..TrafficSpec::paper_default()
    };

    let results = engine.run_tasks(intervals, |interval| {
        let mut rng = task_rng(0x01, interval);
        let failures = [0u32, 1, 1, 2, 2, 3, 4][rng.gen_range(0..7usize)];
        let plan = FaultPlan {
            failures,
            failure_rate: RateRange { lo: 5e-4, hi: 5e-3 },
            ..FaultPlan::paper_default(0)
        };
        let faults = plan.build(&topo, &mut rng);
        let out = simulate_epoch(
            &topo,
            &faults,
            &traffic,
            &SimConfig::default(),
            &mut rng,
            &mut EpochScratch::new(),
        );

        let total: u64 = out.ground_truth.drops_per_link.iter().sum();
        let drops: Vec<f64> = out
            .flows
            .iter()
            .map(|f| f.total_drops() as f64)
            .filter(|&d| d > 0.0)
            .collect();
        let (shares, max_share) = if total >= 10 {
            let shares: Vec<f64> = drops.iter().map(|d| d / total as f64).collect();
            let max = shares.iter().fold(0.0f64, |m, &s| m.max(s));
            (shares, Some(max))
        } else {
            (Vec::new(), None)
        };
        Interval {
            total_drops: total,
            dropping_flows: drops.len() as u64,
            shares,
            max_share,
        }
    });

    // (a) flows with ≥1 drop per interval, conditioned on total drops.
    let dropping_when = |more_than: u64| {
        let sample = results.iter().filter(|r| r.total_drops > more_than);
        Ecdf::new(sample.map(|r| r.dropping_flows as f64).collect())
    };
    println!(
        "\n{:>12} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "total drops", "intervals", "P5", "P25", "P50", "P75", "P95"
    );
    for cond in [0u64, 1, 10, 30, 50] {
        let e = dropping_when(cond);
        print!("{:>12} {:>10}", format!("> {cond}"), e.len());
        for p in [0.05, 0.25, 0.50, 0.75, 0.95] {
            let q = e.quantile(p).map_or("-".into(), |v| format!("{v:.0}"));
            print!(" {q:>8}");
        }
        println!();
    }
    let at_least_10 = dropping_when(9);
    if !at_least_10.is_empty() {
        let p = (1.0 - at_least_10.eval(2.0)) * 100.0;
        println!("P[≥3 flows see drops | ≥10 total drops] = {p:.0}%");
    }

    // (b) per-flow share of an interval's drops (intervals with ≥10 drops).
    let share_ecdf = Ecdf::new(results.iter().flat_map(|r| r.shares.clone()).collect());
    for p in [0.25, 0.50, 0.75, 0.80, 0.90, 0.95] {
        if let Some(v) = share_ecdf.quantile(p) {
            println!("  P{:>2.0} share = {:>5.1}%", p * 100.0, v * 100.0);
        }
    }
    let max_ecdf = Ecdf::new(results.iter().filter_map(|r| r.max_share).collect());
    for cap in [0.34, 0.40] {
        let p = max_ecdf.eval(cap) * 100.0;
        println!("P[max single-flow share ≤ {:.0}%] = {p:.0}%", cap * 100.0);
    }
    Ok(vec![artifact("fig01", &share_ecdf.sampled(50))])
}

/// Each epoch is an independent 30-second window with its own packet
/// emulator; the per-(switch, second) histograms add across windows and
/// `max(T)` is the max over windows.
pub(crate) fn table1(scale: Scale, engine: &SweepEngine) -> Outputs {
    let epochs = if scale.fast { 4 } else { 20 };
    let epoch_seconds = 30.0;
    let tmax = 100.0;
    let topo = ClosTopology::new(SMALL_FABRIC, 3).expect("valid");
    let mut rng = ChaCha8Rng::seed_from_u64(0x1Cu64);
    let plan = FaultPlan {
        failures: 2,
        failure_rate: RateRange { lo: 1e-3, hi: 5e-3 },
        ..FaultPlan::paper_default(2)
    };
    let faults = plan.build(&topo, &mut rng);
    let traffic = TrafficSpec {
        conns_per_host: ConnCount::Fixed(30),
        ..TrafficSpec::paper_default()
    };

    let windows = engine.run_tasks(epochs, |epoch| {
        // Distinct master from the 0x1C setup rng: task_rng(m, 0) == m's
        // stream, which would replay the fault-plan draws.
        let mut rng = task_rng(0xA0_1C, epoch);
        let mut sim = NetSim::new(
            topo.clone(),
            faults.clone(),
            NetSimConfig::default(),
            77 + epoch as u64,
        );
        let mut traces = 0u64;
        let epoch_start = sim.now();
        let outcome = simulate_epoch(
            &topo,
            &faults,
            &traffic,
            &SimConfig::default(),
            &mut rng,
            &mut EpochScratch::new(),
        );
        // Each host paces itself by Theorem 1 and spreads its traces over
        // the epoch (retransmissions arrive throughout the 30 s).
        for host in topo.hosts() {
            let pacer = HostPacer::from_theorem1(&topo, tmax, epoch_seconds);
            let mut agent = HostAgent::new(host, pacer);
            for f in &outcome.flows {
                if f.src != host || !is_eventful(f.established, f.retransmissions) {
                    continue;
                }
                let event = RetransmissionEvent {
                    host,
                    tuple: f.tuple,
                    retransmissions: f.retransmissions,
                };
                let target = epoch_start + rng.gen_range(0.0..epoch_seconds * 0.95);
                if target > sim.now() {
                    sim.advance(target - sim.now());
                }
                let discover = || ProbeTracer::new(&mut sim).trace(host, &event.tuple);
                if agent.trace(&event, discover).is_some() {
                    traces += 1;
                }
            }
        }
        let next_epoch = epoch_start + epoch_seconds;
        if next_epoch > sim.now() {
            sim.advance(next_epoch - sim.now());
        }
        let acc = sim.icmp_accounting();
        let mut counts = [0u64; 3];
        counts.copy_from_slice(&acc.table1_histogram().counts()[..3]);
        (counts, acc.max_per_second(), traces)
    });

    let mut counts = [0u64; 3];
    let mut max_t = 0u32;
    let mut total_traces = 0u64;
    for (window_counts, window_max, traces) in windows {
        for (slot, n) in counts.iter_mut().zip(window_counts) {
            *slot += n;
        }
        max_t = max_t.max(window_max);
        total_traces += traces;
    }
    let total_cells = counts.iter().sum::<u64>().max(1) as f64;
    let ct = vigil_topology::bounds::theorem1_ct_bound(topo.params(), tmax);
    println!(
        "{epochs} windows × {epoch_seconds}s over {} switches; Theorem 1 bound Ct = {ct:.2} \
         traceroutes/s/host (budget {} per epoch)",
        topo.num_switches(),
        (ct * epoch_seconds) as u64
    );
    if f64::from(max_t) > tmax {
        return Err(format!(
            "Theorem 1 violated: max(T) = {max_t} > Tmax = {tmax}"
        ));
    }
    Ok(vec![artifact(
        "table1",
        &serde_json::json!({
            "bins": ["T = 0", "0 < T ≤ 3", "T > 3"],
            "counts": counts.to_vec(),
            "fractions": counts.map(|n| n as f64 / total_cells),
            "max_t": max_t,
            "traces": total_traces,
        }),
    )])
}

/// Our emulator's ground truth plays EverFlow's role for 9 monitored
/// hosts, while 007's real probe-train machinery traces every
/// retransmitting flow fleet-wide. Each round is an independent capture
/// window with its own packet emulator.
pub(crate) fn sec8_2(scale: Scale, engine: &SweepEngine) -> Outputs {
    let rounds = if scale.fast { 6 } else { 30 };
    let topo = ClosTopology::new(ClosParams::tiny(), 8).expect("valid");
    let mut rng = ChaCha8Rng::seed_from_u64(0x82);
    let plan = FaultPlan {
        failures: 2,
        failure_rate: RateRange { lo: 2e-3, hi: 8e-3 },
        ..FaultPlan::paper_default(2)
    };
    let faults = plan.build(&topo, &mut rng);
    let mut monitored: Vec<_> = topo.hosts().collect();
    monitored.shuffle(&mut rng);
    monitored.truncate(9);
    let traffic = TrafficSpec {
        conns_per_host: ConnCount::Fixed(25),
        ..TrafficSpec::paper_default()
    };

    let per_round = engine.run_tasks(rounds, |round| {
        // Distinct master from the 0x82 setup rng: task_rng(m, 0) == m's
        // stream, which would replay the fault/monitored-host draws.
        let mut rng = task_rng(0xA0_82, round);
        let seed = 88 + round as u64;
        let mut sim = NetSim::new(topo.clone(), faults.clone(), NetSimConfig::default(), seed);
        let outcome = simulate_epoch(
            &topo,
            &faults,
            &traffic,
            &SimConfig::default(),
            &mut rng,
            &mut EpochScratch::new(),
        );

        let mut discovered = Vec::new();
        for (i, f) in outcome.flows.iter().enumerate() {
            if !is_eventful(f.established, f.retransmissions) {
                continue;
            }
            sim.advance(5e-3);
            if let Some(d) = ProbeTracer::new(&mut sim).trace(f.src, &f.tuple) {
                discovered.push((i, d));
            }
        }
        let evidence: Vec<FlowEvidence> = discovered
            .iter()
            .map(|(i, d)| FlowEvidence {
                links: d.links.clone(),
                retransmissions: outcome.flows[*i].retransmissions,
                complete: d.complete,
            })
            .collect();
        let tally = VoteTally::tally(
            &evidence,
            topo.num_links(),
            VoteWeight::ReciprocalPathLength,
        );

        // [traced, path matches, blame matches, blame scored] over the
        // monitored hosts' flows; noise drops are excluded as in §6.
        let mut counts = [0u64; 4];
        for ((i, d), ev) in discovered.iter().zip(&evidence) {
            let flow = &outcome.flows[*i];
            if !monitored.contains(&flow.src) {
                continue;
            }
            counts[0] += 1;
            counts[1] += u64::from(d.links == flow.path.links);
            if let Some(truth) = flow.dominant_drop_link() {
                if outcome.ground_truth.is_noise_link(truth) {
                    continue;
                }
                counts[3] += 1;
                counts[2] += u64::from(blame_flow(&tally, ev) == Some(truth));
            }
        }
        counts
    });
    let [traced, path_matches, blame_matches, blame_scored] = sum_counts(per_round);
    let pct = |n: u64, of: u64| n as f64 / of.max(1) as f64 * 100.0;
    println!(
        "path match {:.1}%, blame match {:.1}%",
        pct(path_matches, traced),
        pct(blame_matches, blame_scored)
    );
    Ok(vec![artifact(
        "sec8_2",
        &serde_json::json!({
            "traced": traced,
            "path_matches": path_matches,
            "blame_matches": blame_matches,
            "blame_scored": blame_scored,
        }),
    )])
}

/// The blame tier of a link: host↔ToR 0, level-1 1, level-2 2.
fn tier(kind: LinkKind) -> usize {
    if kind.is_host_link() {
        0
    } else if kind.is_level1() {
        1
    } else {
        2
    }
}

/// A uniformly drawn link among those whose kind passes `keep`.
fn any_link(topo: &ClosTopology, keep: impl Fn(LinkKind) -> bool, rng: &mut impl Rng) -> LinkId {
    let links: Vec<_> = topo
        .links()
        .iter()
        .filter(|l| keep(l.kind))
        .map(|l| l.id)
        .collect();
    links[rng.gen_range(0..links.len())]
}

/// Replays the paper's 281-reboot incident mix and checks 007 blames a
/// link of the injected class; then one routine day's blame statistics.
pub(crate) fn sec8_3(scale: Scale, engine: &SweepEngine) -> Outputs {
    let incidents: usize = if scale.fast { 60 } else { 281 };
    let topo = ClosTopology::new(ClosParams::tiny(), 83).expect("valid");
    let cfg = vigil_only(25);

    // Per incident: (links detected, (blamed kind matches the cause, tier)).
    let replayed = engine.run_tasks(incidents, |incident| {
        let mut rng = task_rng(0x83, incident);
        let mut faults = LinkFaults::new(topo.num_links());
        faults.set_noise(RateRange::PAPER_NOISE, &mut rng);
        // The paper's cause mix: 262 host-ToR transients, 2 bad ToRs,
        // 15 configuration updates, 2 link flaps out of 281.
        let expected_kinds = match incident * 281 / incidents {
            0..=261 => {
                let host = any_host(&topo, &mut rng);
                let tor = Node::Switch(topo.host_tor(host));
                let down = topo.link_between(tor, Node::Host(host)).expect("downlink");
                faults.fail_link(uplink(&topo, host), rng.gen_range(0.05..0.4));
                faults.fail_link(down, rng.gen_range(0.01..0.1));
                [LinkKind::HostToTor, LinkKind::TorToHost]
            }
            262..=263 => {
                // Every link out of one ToR degrades (bad ASIC).
                let tor = topo.tor(
                    rng.gen_range(0..topo.params().npod),
                    rng.gen_range(0..topo.params().n0),
                );
                for l in topo.links() {
                    if l.from == Node::Switch(tor) {
                        faults.fail_link(l.id, rng.gen_range(0.01..0.05));
                    }
                }
                [LinkKind::TorToHost, LinkKind::TorToT1]
            }
            264..=278 => {
                // Reconvergence burst on a fabric link under maintenance.
                let l = any_link(&topo, |k| k.is_level1(), &mut rng);
                faults.fail_link(l, rng.gen_range(0.05..0.3));
                [LinkKind::TorToT1, LinkKind::T1ToTor]
            }
            _ => {
                // A flapping level-2 link: up/down cycling ≈ heavy loss.
                let l = any_link(&topo, |k| k.is_level2(), &mut rng);
                faults.fail_link(l, rng.gen_range(0.3..0.7));
                [LinkKind::T1ToT2, LinkKind::T2ToT1]
            }
        };
        let run = vigil::run_epoch(&topo, &faults, &cfg, &mut rng, &mut EpochScratch::new());
        let blamed = run.detection.detections.first().map(|top| {
            let kind = topo.link(top.link).kind;
            (expected_kinds.contains(&kind), tier(kind))
        });
        (run.detection.detections.len() as f64, blamed)
    });

    let mut explained = 0usize;
    let mut class_hits = 0usize;
    let mut per_epoch_detected = Summary::new();
    let mut tier_counts = [0u64; 3];
    for &(detected, blamed) in &replayed {
        per_epoch_detected.record(detected);
        if let Some((class_hit, tier)) = blamed {
            explained += 1;
            class_hits += usize::from(class_hit);
            tier_counts[tier] += 1;
        }
    }
    let tiers_total = tier_counts.iter().sum::<u64>().max(1) as f64;
    println!(
        "cause class matches the injected class in {:.1}% of explained incidents; blamed tiers \
         host<->ToR {:.1}%, ToR<->T1 {:.1}%, T1<->T2 {:.1}%",
        class_hits as f64 / explained.max(1) as f64 * 100.0,
        tier_counts[0] as f64 / tiers_total * 100.0,
        tier_counts[1] as f64 / tiers_total * 100.0,
        tier_counts[2] as f64 / tiers_total * 100.0,
    );

    // One cluster, one day: routine epochs with a production-like fault
    // mix (the paper's blame mix: 48% server-ToR, 38% of it from one
    // recurrently bad ToR, 24% T1-ToR, 6% T2-T1).
    let day_epochs = if scale.fast { 40 } else { 150 };
    let bad_tor_host = any_host(&topo, &mut ChaCha8Rng::seed_from_u64(0xDA_83));
    let day = engine.run_tasks(day_epochs, |epoch| {
        // Distinct master from the 0xDA_83 setup rng: task_rng(m, 0) == m's
        // stream, which would replay the bad-ToR selection draw.
        let mut rng = task_rng(0xA0_DA_83, epoch);
        let mut faults = LinkFaults::new(topo.num_links());
        faults.set_noise(RateRange::PAPER_NOISE, &mut rng);
        let roll: f64 = rng.gen();
        if roll < 0.25 {
            // quiet epoch
        } else if roll < 0.50 {
            // the recurring ToR's server links act up again
            let tor = topo.host_tor(bad_tor_host);
            let host = topo
                .hosts_under(tor)
                .nth(rng.gen_range(0..usize::from(topo.params().hosts_per_tor)))
                .expect("rack has hosts");
            faults.fail_link(uplink(&topo, host), rng.gen_range(0.02..0.2));
        } else if roll < 0.62 {
            let host = any_host(&topo, &mut rng);
            faults.fail_link(uplink(&topo, host), rng.gen_range(0.02..0.2));
        } else if roll < 0.87 {
            let l = any_link(&topo, |k| k.is_level1(), &mut rng);
            faults.fail_link(l, rng.gen_range(0.005..0.05));
        } else {
            let l = any_link(&topo, |k| k.is_level2(), &mut rng);
            faults.fail_link(l, rng.gen_range(0.005..0.05));
        }
        let run = vigil::run_epoch(&topo, &faults, &cfg, &mut rng, &mut EpochScratch::new());
        // HostToTor, TorToHost, TorToT1, T1ToTor, T1ToT2, T2ToT1
        let mut kinds = [0u64; 6];
        for d in &run.detection.detections {
            kinds[topo.link(d.link).kind as usize] += 1;
        }
        (run.detection.detections.len() as f64, kinds)
    });
    let mut day_detected = Summary::new();
    for &(detected, _) in &day {
        day_detected.record(detected);
    }
    let kinds = sum_counts(day.into_iter().map(|(_, k)| k));
    let share = |idx: &[usize]| {
        let total = kinds.iter().sum::<u64>().max(1) as f64;
        idx.iter().map(|&i| kinds[i]).sum::<u64>() as f64 / total * 100.0
    };
    println!(
        "one day ({day_epochs} epochs): {:.2} ± {:.2} links blamed per epoch; shares server-ToR \
         {:.0}%, T1-ToR {:.0}%, T2-T1 {:.0}%, other {:.0}%",
        day_detected.mean(),
        day_detected.ci95_half_width().unwrap_or(f64::NAN),
        share(&[0, 1]),
        share(&[3]),
        share(&[5]),
        share(&[2, 4]),
    );
    Ok(vec![artifact(
        "sec8_3",
        &serde_json::json!({
            "incidents": incidents,
            "explained": explained,
            "class_hits": class_hits,
            "detected_mean": per_epoch_detected.mean(),
            "tier_counts": tier_counts.to_vec(),
        }),
    )])
}

/// A diurnal reboot process (Poisson, λ peaking in business hours); each
/// reboot is a VM whose storage flows crossed a transiently bad host↔ToR
/// link (§8.3's dominant cause), and 007 runs on its epoch. Each hour is
/// one task: `(hour, reboots, explained)`.
pub(crate) fn fig14(scale: Scale, engine: &SweepEngine) -> Outputs {
    let per_hour_base = if scale.fast { 3.0 } else { 10.0 };
    let topo = ClosTopology::new(ClosParams::tiny(), 14).expect("valid");
    let cfg = vigil_only(20);

    let rows: Vec<(u32, u64, u64)> = engine.run_tasks(24, |hour_idx| {
        let hour = hour_idx as u32;
        let mut rng = task_rng(0x14, hour_idx);
        let diurnal = 1.0 + 0.5 * (std::f64::consts::PI * (f64::from(hour) - 3.0) / 12.0).sin();
        let lambda = per_hour_base * diurnal;
        // Poisson sampling via thinning of a fine grid.
        let grid = 200;
        let reboots = (0..grid)
            .filter(|_| rng.gen_bool((lambda / f64::from(grid)).min(1.0)))
            .count() as u64;
        let mut explained = 0u64;
        for _ in 0..reboots {
            let mut faults = LinkFaults::new(topo.num_links());
            faults.set_noise(RateRange::PAPER_NOISE, &mut rng);
            let up = uplink(&topo, any_host(&topo, &mut rng));
            faults.fail_link(up, rng.gen_range(0.1..0.5));
            let run = vigil::run_epoch(&topo, &faults, &cfg, &mut rng, &mut EpochScratch::new());
            explained += u64::from(run.detection.detected_links().contains(&up));
        }
        (hour, reboots, explained)
    });
    let total: u64 = rows.iter().map(|r| r.1).sum();
    let explained: u64 = rows.iter().map(|r| r.2).sum();
    println!(
        "day total: {total} network-related reboots, {explained} explained by 007 ({:.1}%)",
        explained as f64 / total.max(1) as f64 * 100.0
    );
    Ok(vec![artifact("fig14", &rows)])
}
