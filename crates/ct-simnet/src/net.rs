//! Wide-area network model: sites, latency, and partitions.

use crate::actor::{NodeId, SiteId};
use crate::time::SimTime;
use ct_rand::SplitMix64;
use std::collections::BTreeSet;

/// Static description of the network topology and latency model.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Site assignment per node, indexed by `NodeId.0`.
    pub(crate) site_of: Vec<SiteId>,
    /// Mean one-way latency between nodes in the same site, ms.
    pub(crate) intra_site_ms: f64,
    /// Mean one-way latency between nodes in different sites, ms.
    pub(crate) inter_site_ms: f64,
    /// Uniform jitter applied to each delivery, as a fraction of the
    /// mean latency (0.2 = ±20 %).
    pub(crate) jitter_frac: f64,
}

impl NetConfig {
    /// Nodes spread across sites: `sites[k]` nodes in site `k`,
    /// numbered consecutively.
    pub fn multi_site(sites: &[usize]) -> Self {
        let mut site_of = Vec::new();
        for (k, &count) in sites.iter().enumerate() {
            site_of.extend(std::iter::repeat_n(SiteId(k), count));
        }
        Self {
            site_of,
            intra_site_ms: 1.0,
            inter_site_ms: 10.0,
            jitter_frac: 0.2,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.site_of.len()
    }

    /// Number of distinct sites.
    pub fn site_count(&self) -> usize {
        self.site_of
            .iter()
            .map(|s| s.0)
            .max()
            .map(|m| m + 1)
            .unwrap_or(0)
    }

    /// Site of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    pub fn site(&self, node: NodeId) -> SiteId {
        self.site_of[node.0]
    }

    /// Ids of all nodes in `site`.
    pub(crate) fn nodes_in_site(&self, site: SiteId) -> Vec<NodeId> {
        self.site_of
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == site)
            .map(|(i, _)| NodeId(i))
            .collect()
    }
}

/// Dynamic network state: which sites are isolated, which nodes are
/// crashed, plus the latency sampler.
#[derive(Debug, Clone)]
pub(crate) struct NetState {
    pub(crate) config: NetConfig,
    pub(crate) isolated_sites: BTreeSet<SiteId>,
    pub(crate) crashed_nodes: BTreeSet<NodeId>,
}

impl NetState {
    pub(crate) fn new(config: NetConfig) -> Self {
        Self {
            config,
            isolated_sites: BTreeSet::new(),
            crashed_nodes: BTreeSet::new(),
        }
    }

    /// Whether a message from `from` to `to` can be delivered at all.
    pub(crate) fn deliverable(&self, from: NodeId, to: NodeId) -> bool {
        if self.crashed_nodes.contains(&from) || self.crashed_nodes.contains(&to) {
            return false;
        }
        let (sf, st) = (self.config.site(from), self.config.site(to));
        // A site isolation severs the site from *other* sites but
        // leaves its internal LAN intact.
        if sf != st && (self.isolated_sites.contains(&sf) || self.isolated_sites.contains(&st)) {
            return false;
        }
        true
    }

    /// Samples one-way delivery latency for a link.
    pub(crate) fn latency(&self, from: NodeId, to: NodeId, rng: &mut SplitMix64) -> SimTime {
        let mean = if self.config.site(from) == self.config.site(to) {
            self.config.intra_site_ms
        } else {
            self.config.inter_site_ms
        };
        let j = self.config.jitter_frac;
        let factor = if j > 0.0 {
            1.0 + rng.range_f64(-j, j)
        } else {
            1.0
        };
        SimTime::from_millis((mean * factor).max(0.01))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_and_multi_site_layout() {
        let s = NetConfig::multi_site(&[4]);
        assert_eq!(s.node_count(), 4);
        assert_eq!(s.site_count(), 1);

        let m = NetConfig::multi_site(&[6, 6, 6]);
        assert_eq!(m.node_count(), 18);
        assert_eq!(m.site_count(), 3);
        assert_eq!(m.site(NodeId(0)), SiteId(0));
        assert_eq!(m.site(NodeId(7)), SiteId(1));
        assert_eq!(m.site(NodeId(17)), SiteId(2));
        assert_eq!(m.nodes_in_site(SiteId(1)).len(), 6);
    }

    #[test]
    fn crash_blocks_delivery() {
        let mut st = NetState::new(NetConfig::multi_site(&[2, 2]));
        assert!(st.deliverable(NodeId(0), NodeId(2)));
        st.crashed_nodes.insert(NodeId(2));
        assert!(!st.deliverable(NodeId(0), NodeId(2)));
        assert!(!st.deliverable(NodeId(2), NodeId(0)));
        assert!(st.deliverable(NodeId(0), NodeId(3)));
    }

    #[test]
    fn isolation_severs_wan_but_not_lan() {
        let mut st = NetState::new(NetConfig::multi_site(&[2, 2]));
        st.isolated_sites.insert(SiteId(0));
        // Cross-site: blocked both directions.
        assert!(!st.deliverable(NodeId(0), NodeId(2)));
        assert!(!st.deliverable(NodeId(3), NodeId(1)));
        // Within the isolated site: still fine.
        assert!(st.deliverable(NodeId(0), NodeId(1)));
        // Within the other site: fine.
        assert!(st.deliverable(NodeId(2), NodeId(3)));
    }

    #[test]
    fn latency_scales_with_site_distance() {
        let st = NetState::new(NetConfig::multi_site(&[2, 2]));
        let mut rng = SplitMix64::new(1);
        let lan = st.latency(NodeId(0), NodeId(1), &mut rng);
        let wan = st.latency(NodeId(0), NodeId(2), &mut rng);
        assert!(wan > lan, "wan {wan} lan {lan}");
        assert!(lan >= SimTime::from_millis(0.5));
    }

    #[test]
    fn zero_jitter_is_exact() {
        let mut cfg = NetConfig::multi_site(&[2]);
        cfg.jitter_frac = 0.0;
        let st = NetState::new(cfg);
        let mut rng = SplitMix64::new(1);
        assert_eq!(
            st.latency(NodeId(0), NodeId(1), &mut rng),
            SimTime::from_millis(1.0)
        );
    }
}
