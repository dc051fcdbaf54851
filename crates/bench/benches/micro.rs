//! Criterion micro-benchmarks for the hot paths of the reproduction:
//! ECMP hashing and routing, probe crafting/parsing, vote tallying,
//! Algorithm 1 at datacenter link counts, the set-cover solvers, the
//! simplex, an end-to-end epoch, and the multi-trial sweep engine at
//! 1 vs 4 worker threads. (End-to-end and per-layer performance of the
//! pipeline is measured by `benchmark/`, not here.)

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use vigil::prelude::*;
use vigil_analysis::{detect, Algorithm1Config, FlowEvidence, VoteTally, VoteWeight};
use vigil_optim::{greedy_cover, min_set_cover, CoverInstance, FlowRow, SearchLimits};
use vigil_optim::{LinearProgram, Relation};
use vigil_packet::traceroute::{parse_time_exceeded, ProbeBuilder};
use vigil_packet::FiveTuple;
use vigil_topology::{ecmp, HostId, LinkId};

fn bench_ecmp(c: &mut Criterion) {
    let tuple = FiveTuple::tcp(
        "10.0.1.2".parse().unwrap(),
        51234,
        "10.1.3.4".parse().unwrap(),
        443,
    );
    c.bench_function("ecmp/hash", |b| {
        b.iter(|| ecmp::hash(black_box(0xdead_beef), black_box(&tuple)))
    });

    let topo = ClosTopology::new(ClosParams::paper_sim(), 7).unwrap();
    let dst = HostId(topo.num_hosts() as u32 - 1);
    c.bench_function("ecmp/route_paper_topology", |b| {
        b.iter(|| topo.route(black_box(&tuple), black_box(HostId(0)), black_box(dst)))
    });
}

fn bench_packets(c: &mut Criterion) {
    let tuple = FiveTuple::tcp(
        "10.0.1.2".parse().unwrap(),
        51234,
        "10.1.3.4".parse().unwrap(),
        443,
    );
    let builder = ProbeBuilder::new(tuple, 42);
    c.bench_function("packet/probe_train_craft", |b| b.iter(|| builder.train()));

    // Craft one ICMP reply to parse.
    let probe = builder.probe(5);
    let pkt = vigil_packet::Ipv4Packet::new_checked(&probe[..]).unwrap();
    let repr = vigil_packet::Ipv4Repr::parse(&pkt).unwrap();
    let mut payload = [0u8; 8];
    payload.copy_from_slice(&pkt.payload()[..8]);
    let msg = vigil_packet::IcmpTimeExceeded {
        original: repr,
        original_payload: payload,
    };
    let mut reply = vec![0u8; msg.buffer_len()];
    msg.emit(&mut reply);
    let from = "10.220.0.1".parse().unwrap();
    c.bench_function("packet/icmp_reply_parse", |b| {
        b.iter(|| parse_time_exceeded(black_box(from), black_box(&reply)))
    });
}

fn synth_evidence(n: usize, num_links: u32, seed: u64) -> Vec<FlowEvidence> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let h = rng.gen_range(2..=6usize);
            let links = (0..h)
                .map(|_| LinkId(rng.gen_range(0..num_links)))
                .collect();
            FlowEvidence::new(links, rng.gen_range(1..4))
        })
        .collect()
}

fn bench_voting(c: &mut Criterion) {
    let evidence = synth_evidence(100_000, 4160, 1);
    c.bench_function("voting/tally_100k_flows_4160_links", |b| {
        b.iter(|| VoteTally::tally(black_box(&evidence), 4160, VoteWeight::ReciprocalPathLength))
    });

    let small = synth_evidence(5_000, 4160, 2);
    c.bench_function("voting/algorithm1_5k_flows_4160_links", |b| {
        b.iter(|| detect(black_box(&small), 4160, &Algorithm1Config::default()))
    });
}

fn bench_solvers(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let rows: Vec<FlowRow> = (0..400)
        .map(|_| FlowRow {
            links: (0..rng.gen_range(2..6))
                .map(|_| rng.gen_range(0..120u32))
                .collect(),
            demand: rng.gen_range(1..5),
        })
        .collect();
    let instance = CoverInstance::new(&rows);
    c.bench_function("solver/greedy_cover_400rows", |b| {
        b.iter(|| greedy_cover(black_box(&instance), false))
    });
    c.bench_function("solver/exact_cover_400rows", |b| {
        b.iter(|| min_set_cover(black_box(&instance), &SearchLimits::default()))
    });

    c.bench_function("solver/simplex_20x40", |b| {
        b.iter_batched(
            || {
                let mut lp = LinearProgram::new(40);
                let mut r = ChaCha8Rng::seed_from_u64(4);
                for v in 0..40 {
                    lp.set_objective(v, 1.0 + r.gen::<f64>());
                }
                for _ in 0..20 {
                    let terms: Vec<(usize, f64)> = (0..5)
                        .map(|_| (r.gen_range(0..40), 1.0 + r.gen::<f64>()))
                        .collect();
                    lp.add_constraint(&terms, Relation::Ge, 1.0);
                }
                lp
            },
            |lp| lp.solve(),
            BatchSize::SmallInput,
        )
    });
}

fn bench_epoch(c: &mut Criterion) {
    let topo = ClosTopology::new(ClosParams::tiny(), 11).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let faults = FaultPlan {
        failure_rate: RateRange::fixed(0.01),
        ..FaultPlan::paper_default(2)
    }
    .build(&topo, &mut rng);
    let cfg = RunConfig {
        traffic: TrafficSpec {
            conns_per_host: ConnCount::Fixed(20),
            ..TrafficSpec::paper_default()
        },
        ..RunConfig::default()
    };
    c.bench_function("epoch/end_to_end_tiny", |b| {
        b.iter(|| {
            let mut r = ChaCha8Rng::seed_from_u64(6);
            vigil::run_epoch(
                black_box(&topo),
                black_box(&faults),
                black_box(&cfg),
                &mut r,
            )
        })
    });
}

fn sweep_config() -> ExperimentConfig {
    ExperimentConfig {
        name: "bench-sweep".into(),
        params: ClosParams::tiny(),
        faults: FaultPlan {
            failure_rate: RateRange::fixed(0.01),
            ..FaultPlan::paper_default(2)
        },
        run: RunConfig {
            traffic: TrafficSpec {
                conns_per_host: ConnCount::Fixed(20),
                ..TrafficSpec::paper_default()
            },
            ..RunConfig::default()
        },
        epochs: 1,
        trials: 8,
        seed: 0xBE_5C,
    }
}

fn bench_sweep(c: &mut Criterion) {
    let cfg = sweep_config();
    c.bench_function("sweep/experiment_8trials_t1", |b| {
        b.iter(|| SweepEngine::new(1).run_experiment(black_box(&cfg)))
    });
    c.bench_function("sweep/experiment_8trials_t4", |b| {
        b.iter(|| SweepEngine::new(4).run_experiment(black_box(&cfg)))
    });
}

criterion_group!(
    benches,
    bench_ecmp,
    bench_packets,
    bench_voting,
    bench_solvers,
    bench_epoch,
    bench_sweep
);
criterion_main!(benches);
