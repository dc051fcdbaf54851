//! Theorems 1–3 as numbers: the closed-form bounds, cross-checked against
//! Monte-Carlo estimates from the simulator.
//!
//! * Theorem 1: the per-host traceroute budget `Ct`.
//! * Theorem 2/3: the amplification factor `α`, the tolerated noise
//!   ceiling `p_g ≤ (1 − (1 − p_b)^{c_l}) / (α·c_u)`, and the
//!   mis-ranking probability `ε ≤ 2e^{−O(N)}`.
//! * Lemma 2: the vote-probability floor `v_b ≥ r_b/(n0·n1·npod)`,
//!   verified by counting votes; each Monte-Carlo epoch is one task.

use crate::{artifact, sum_counts, vigil_only, Outputs, Scale, SMALL_FABRIC};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vigil::prelude::*;
use vigil::sweep::task_rng;
use vigil_fabric::faults::LinkFaults;
use vigil_fabric::EpochScratch;
use vigil_topology::bounds::{theorem1_ct_bound, theorem2_k_max, Theorem2};

pub(crate) fn thm2(scale: Scale, engine: &SweepEngine) -> Outputs {
    let params = ClosParams::paper_sim();
    println!("Theorem 1 (paper topology n0=20 n1=16 n2=20 npod=2 H=20):");
    for tmax in [50.0, 100.0, 200.0] {
        let ct = theorem1_ct_bound(&params, tmax);
        println!("  Tmax = {tmax:>5}: Ct = {ct:.2} traceroutes/s/host");
    }
    let k_max = theorem2_k_max(&params).expect("multi-pod");
    println!("  k_max (Theorem 2 coverage) = {k_max:.1} simultaneous failures");
    println!(
        "Theorem 2/3 grid (c_l = 50, c_u = 100):\n{:>4} {:>10} {:>10} {:>14} {:>12} {:>12}",
        "k", "p_bad", "alpha", "noise ceiling", "eps(N=1e5)", "eps(N=1e6)"
    );
    for k in [1u32, 5, 10, 20] {
        for pb in [5e-4, 5e-3] {
            let t = Theorem2 {
                params,
                k,
                p_bad: pb,
                p_good: 1e-7,
                c_lower: 50,
                c_upper: 100,
            };
            let alpha = t.alpha().unwrap_or(f64::NAN);
            let ceil = t.noise_ceiling().unwrap_or(f64::NAN);
            let e5 = t.epsilon(100_000).unwrap_or(f64::NAN);
            let e6 = t.epsilon(1_000_000).unwrap_or(f64::NAN);
            println!("{k:>4} {pb:>10.0e} {alpha:>10.3} {ceil:>14.2e} {e5:>12.3e} {e6:>12.3e}");
        }
    }

    // Lemma 2 on a smaller fabric: how often the bad link, and the
    // most-voted good link, receive a vote per connection.
    let topo = ClosTopology::new(SMALL_FABRIC, 5).expect("valid");
    let mut rng = ChaCha8Rng::seed_from_u64(0x7772);
    let mut faults = LinkFaults::new(topo.num_links());
    faults.set_noise(RateRange { lo: 0.0, hi: 1e-7 }, &mut rng);
    let bad = topo
        .links()
        .iter()
        .find(|l| l.kind == LinkKind::TorToT1)
        .expect("fabric link")
        .id;
    let p_bad = 5e-3;
    faults.fail_link(bad, p_bad);
    let conns = 40;
    let mut cfg = vigil_only(conns);
    cfg.traffic.packets_per_flow = PacketCount::Fixed(75);
    cfg.pacer = PacerBudget::Unlimited;
    let epochs = if scale.fast { 4 } else { 16 };

    let samples = engine.run_tasks(epochs, |epoch| {
        // Distinct master from the 0x7772 setup rng: task_rng(m, 0) == m's
        // stream, which would correlate epoch 0 with the fault draw.
        let mut rng = task_rng(0xA0_7772, epoch);
        let run = vigil::run_epoch(&topo, &faults, &cfg, &mut rng, &mut EpochScratch::new());
        let bad_votes = run
            .evidence
            .iter()
            .filter(|e| e.links.contains(&bad))
            .count() as u64;
        let top_good = run
            .detection
            .raw_tally
            .ranking()
            .into_iter()
            .find(|(l, _)| *l != bad)
            .map_or(0.0, |(_, v)| v);
        // `ConnCount::Fixed`: every host opens exactly `conns` connections.
        let connections = topo.num_hosts() as u64 * u64::from(conns);
        [connections, bad_votes, top_good.ceil() as u64]
    });
    let [connections, bad_votes, max_good_votes] = sum_counts(samples);

    let t = Theorem2 {
        params: SMALL_FABRIC,
        k: 1,
        p_bad,
        p_good: 1e-7,
        c_lower: 75,
        c_upper: 75,
    };
    let vb_emp = bad_votes as f64 / connections as f64;
    println!(
        "Lemma 2: v_bad = {vb_emp:.3e} against the floor {:.3e}; the bad link drew {:.1}x the \
         votes of the best good link",
        t.v_bad_floor(),
        bad_votes as f64 / (max_good_votes.max(1) as f64 / epochs as f64) / epochs as f64
    );
    if vb_emp < t.v_bad_floor() * 0.9 {
        return Err("the empirical bad-link vote rate violates Lemma 2's floor".into());
    }
    Ok(vec![artifact(
        "thm2",
        &serde_json::json!({
            "v_bad_empirical": vb_emp,
            "v_bad_floor": t.v_bad_floor(),
            "connections": connections,
        }),
    )])
}
