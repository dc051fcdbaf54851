//! The software load balancer gate (paper §4.2, modelled on Ananta).
//!
//! "The connection is first established to a virtual IP (VIP) and the SYN
//! packet … goes to a software load balancer (SLB) which assigns that flow
//! to a physical destination IP (DIP) … before tracing the path of a flow,
//! the path discovery agent first queries the SLB for the VIP-to-DIP
//! mapping for that flow. … It is also not triggered when the query to
//! the SLB fails to avoid tracerouting the internet."
//!
//! Flow-mode traffic already carries DIP five-tuples, so what the gate
//! changes is which flows go untraced: those whose query fails, and
//! SNATed ones (§9.1: their probes' replies cannot be matched to the
//! source; our implementation, like the paper's, reports them as
//! un-traceable). [`SlbModel`] draws both as a pure function of the
//! five-tuple.

use serde::{Deserialize, Serialize};
use vigil_packet::FiveTuple;

/// A statistical model of SLB-gate outcomes for flow-mode experiment
/// runs (§4.2, §9.1 as *operational noise* rather than per-flow state).
///
/// Epoch-level experiments need the gate's aggregate effect: some
/// fraction of retransmitting flows cannot be traced because the VIP→DIP
/// query failed ("to avoid tracerouting the internet") or the flow is
/// SNATed.
/// Decisions are a pure function of the flow five-tuple and a per-epoch
/// salt, so sequential and host-sharded runs skip exactly the same
/// flows regardless of iteration order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlbModel {
    /// Probability a VIP→DIP query fails (trace skipped, budget kept).
    pub query_failure_rate: f64,
    /// Fraction of flows SNATed (persistently untraceable).
    pub snat_frac: f64,
}

impl Default for SlbModel {
    fn default() -> Self {
        Self {
            query_failure_rate: 0.0,
            snat_frac: 0.0,
        }
    }
}

impl SlbModel {
    /// A model where only queries fail, at `rate`.
    pub fn query_failures(rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        Self {
            query_failure_rate: rate,
            ..Self::default()
        }
    }

    /// True when the model can skip anything (callers bypass it — and
    /// draw no salt — otherwise, keeping default runs byte-identical to
    /// pre-SLB-model builds).
    pub fn enabled(&self) -> bool {
        self.query_failure_rate > 0.0 || self.snat_frac > 0.0
    }

    /// Whether path discovery for `tuple` is skipped this epoch under
    /// `salt`. Deterministic per (tuple, salt); independent of the order
    /// flows are examined in. SNAT membership hashes the tuple against a
    /// fixed salt — a SNATed flow stays SNATed in every epoch (it's a NAT
    /// configuration, not operational noise) — while query failures are
    /// per-epoch transients via the caller's salt.
    pub fn skips(&self, tuple: &FiveTuple, salt: u64) -> bool {
        if self.snat_frac > 0.0 && unit(hash_tuple(tuple, SNAT_SALT)) < self.snat_frac {
            return true;
        }
        self.query_failure_rate > 0.0 && unit(hash_tuple(tuple, salt)) < self.query_failure_rate
    }
}

const SNAT_SALT: u64 = 0x5A47_0007_5A47_0007;

/// SplitMix64 over the tuple fields and a salt.
fn hash_tuple(tuple: &FiveTuple, salt: u64) -> u64 {
    let src = u64::from(u32::from_be_bytes(tuple.src_ip.octets()));
    let dst = u64::from(u32::from_be_bytes(tuple.dst_ip.octets()));
    let ports = (u64::from(tuple.src_port) << 32)
        | (u64::from(tuple.dst_port) << 16)
        | u64::from(tuple.protocol.number());
    let mut z = salt;
    for word in [src, dst, ports] {
        z = vigil_topology::splitmix64(z ^ word.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
    z
}

/// Maps a hash to `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn vip_flow(port: u16) -> FiveTuple {
        FiveTuple::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            port,
            Ipv4Addr::new(10, 255, 0, 1),
            443,
        )
    }

    #[test]
    fn slb_model_skip_rate_tracks_config() {
        let model = SlbModel::query_failures(0.3);
        assert!(model.enabled());
        assert!(!SlbModel::default().enabled());
        let mut skipped = 0;
        let n = 2_000;
        for i in 0..n {
            let t = vip_flow(20_000 + i);
            // Same decision on repeat — the model is a pure function.
            assert_eq!(model.skips(&t, 42), model.skips(&t, 42));
            if model.skips(&t, 42) {
                skipped += 1;
            }
        }
        let frac = f64::from(skipped) / f64::from(n);
        assert!(
            (0.25..0.35).contains(&frac),
            "skip rate {frac} should track 0.3"
        );
        // A different salt makes different decisions for some flows.
        let differs = (0..200).any(|i| {
            let t = vip_flow(30_000 + i);
            model.skips(&t, 1) != model.skips(&t, 2)
        });
        assert!(differs, "salt must matter");
    }
}
