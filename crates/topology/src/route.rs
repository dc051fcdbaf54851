//! Paths and routing errors.

use crate::ids::{LinkId, Node};
use serde::{Deserialize, Serialize};

/// A routed path: the node sequence `host, ToR, …, host` and the
/// directional links between consecutive nodes (`links.len() ==
/// nodes.len() − 1`).
///
/// The paper's vote weight `1/h` uses `h = hop_count()`, the number of
/// links on the path — host↔ToR links included, since those are votable
/// and detectable failures (§8.3 finds 48 % of problems there).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Path {
    /// Traversed nodes in order, starting and ending at hosts (a complete
    /// path) or ending wherever routing stopped (a partial path from a
    /// blackhole or a TTL-limited probe).
    pub nodes: Vec<Node>,
    /// Directional links between consecutive nodes.
    pub links: Vec<LinkId>,
}

impl Path {
    /// Creates a path, checking the node/link length invariant.
    pub fn new(nodes: Vec<Node>, links: Vec<LinkId>) -> Self {
        assert_eq!(
            nodes.len(),
            links.len() + 1,
            "a path with L links visits exactly L+1 nodes"
        );
        Self { nodes, links }
    }

    /// Number of links (`h` in the paper's `1/h` vote weight).
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }

    /// True when the path traverses `link`.
    pub fn contains_link(&self, link: LinkId) -> bool {
        self.links.contains(&link)
    }

    /// The path truncated to its first `n` links — what a TTL-`n` probe
    /// observes.
    pub fn prefix(&self, n: usize) -> Path {
        let n = n.min(self.links.len());
        Path {
            nodes: self.nodes[..=n].to_vec(),
            links: self.links[..n].to_vec(),
        }
    }
}

/// Reusable routing buffers for the allocation-free
/// [`route_filtered_into`](crate::ClosTopology::route_filtered_into)
/// variant: the routed node/link sequences are written here instead of
/// freshly allocated per call. One scratch serves any number of
/// consecutive routing calls; each call clears and refills it.
#[derive(Debug, Clone, Default)]
pub struct RouteScratch {
    /// Traversed nodes of the last routed path (or blackholed prefix).
    pub nodes: Vec<Node>,
    /// Directional links of the last routed path (or blackholed prefix).
    pub links: Vec<LinkId>,
}

impl RouteScratch {
    /// An empty scratch (buffers grow to a path's length on first use
    /// and are reused afterwards). Materialize an owned [`Path`] by
    /// cloning or moving the buffers into [`Path::new`] — the scratch
    /// itself stays a plain buffer pair.
    pub fn new() -> Self {
        Self::default()
    }
}

/// How an allocation-free routing call ended; the scratch holds the
/// node/link sequences either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routed {
    /// The path reaches the destination host.
    Complete,
    /// Every candidate next hop at some switch was excluded; the scratch
    /// holds the partial path up to the switch with no live next hop.
    Blackholed,
}

/// Routing failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// Source and destination are the same host; there is no network path.
    SameHost,
    /// Every candidate next hop at some switch was excluded (administrative
    /// down / withdrawn); the packet is blackholed after `partial`.
    Blackhole {
        /// The path up to and including the switch with no live next hop.
        partial: Path,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::SameHost => write!(f, "source and destination host are identical"),
            RouteError::Blackhole { partial } => {
                write!(f, "blackholed after {} hops", partial.hop_count())
            }
        }
    }
}

impl std::error::Error for RouteError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{HostId, SwitchId};

    fn sample() -> Path {
        Path::new(
            vec![
                Node::Host(HostId(0)),
                Node::Switch(SwitchId(0)),
                Node::Switch(SwitchId(1)),
                Node::Host(HostId(5)),
            ],
            vec![LinkId(10), LinkId(11), LinkId(12)],
        )
    }

    #[test]
    fn hop_count_is_link_count() {
        assert_eq!(sample().hop_count(), 3);
    }

    #[test]
    fn contains_link_works() {
        let p = sample();
        assert!(p.contains_link(LinkId(11)));
        assert!(!p.contains_link(LinkId(99)));
    }

    #[test]
    fn prefix_truncates() {
        let p = sample();
        let q = p.prefix(2);
        assert_eq!(q.hop_count(), 2);
        assert_eq!(q.nodes.len(), 3);
        assert_eq!(q.links, vec![LinkId(10), LinkId(11)]);
        // prefix longer than the path is the path itself
        assert_eq!(p.prefix(10), p);
    }

    #[test]
    #[should_panic(expected = "L+1 nodes")]
    fn invariant_enforced() {
        let _ = Path::new(vec![Node::Host(HostId(0))], vec![LinkId(0)]);
    }
}
