//! Deployment specifications: the five SCADA configurations as
//! buildable simulations.

use crate::client::Rtu;
use crate::master::Master;
use crate::replica::{ColdConfig, RecoverySchedule, Replica};
use crate::role::Role;
use ct_simnet::{NetConfig, NodeId, SimTime};

/// Replication style of a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationStyle {
    /// Primary + hot standby masters (configs `2`, `2-2`).
    HotStandby,
    /// Intrusion-tolerant quorum replication (configs `6`, `6-6`,
    /// `6+6+6`).
    Quorum,
}

/// A buildable SCADA deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentSpec {
    /// Display name (matches the paper's configuration labels).
    pub name: String,
    /// Replication style.
    pub(crate) style: ReplicationStyle,
    /// Replicas/masters per control site.
    pub(crate) site_replicas: Vec<usize>,
    /// Indices (into `site_replicas`) of cold-backup sites.
    pub(crate) cold_sites: Vec<usize>,
    /// Delay before a cold site activates after detecting primary
    /// death. The paper quotes minutes; the simulation scales this to
    /// tens of virtual seconds.
    pub(crate) activation_delay: SimTime,
    /// Intrusions tolerated by each quorum group.
    pub(crate) f: usize,
    /// Replicas concurrently in proactive recovery.
    pub(crate) k: usize,
    /// Whether the proactive-recovery rotation runs.
    pub(crate) proactive_recovery: bool,
    /// Field clients (RTUs) polling the system. All live in the
    /// never-attacked field site; more RTUs mean denser coverage of
    /// the service-availability signal.
    pub rtu_count: usize,
}

impl DeploymentSpec {
    /// Configuration `2`: one control center, primary + hot standby.
    pub fn config_2() -> Self {
        Self {
            name: "2".to_string(),
            style: ReplicationStyle::HotStandby,
            site_replicas: vec![2],
            cold_sites: Vec::new(),
            activation_delay: SimTime::from_secs(20.0),
            f: 0,
            k: 0,
            proactive_recovery: false,
            rtu_count: 3,
        }
    }

    /// Configuration `2-2`: primary control center plus a cold-backup
    /// control center, two masters each.
    pub fn config_2_2() -> Self {
        Self {
            name: "2-2".to_string(),
            site_replicas: vec![2, 2],
            cold_sites: vec![1],
            ..Self::config_2()
        }
    }

    /// Configuration `6`: one control center with 6-replica
    /// intrusion-tolerant replication (`n = 3f + 2k + 1`, `f = k = 1`).
    pub fn config_6() -> Self {
        Self {
            name: "6".to_string(),
            style: ReplicationStyle::Quorum,
            site_replicas: vec![6],
            cold_sites: Vec::new(),
            activation_delay: SimTime::from_secs(20.0),
            f: 1,
            k: 1,
            proactive_recovery: true,
            rtu_count: 3,
        }
    }

    /// Configuration `6-6`: intrusion-tolerant primary site plus a
    /// cold-backup site with 6 more replicas.
    pub fn config_6_6() -> Self {
        Self {
            name: "6-6".to_string(),
            site_replicas: vec![6, 6],
            cold_sites: vec![1],
            ..Self::config_6()
        }
    }

    /// Configuration `6+6+6`: 18 active replicas across two control
    /// centers and a data center, one quorum group.
    pub fn config_6p6p6() -> Self {
        Self {
            name: "6+6+6".to_string(),
            site_replicas: vec![6, 6, 6],
            cold_sites: Vec::new(),
            ..Self::config_6()
        }
    }

    /// Number of control sites.
    pub(crate) fn site_count(&self) -> usize {
        self.site_replicas.len()
    }

    /// Whether `site` is a cold backup.
    pub(crate) fn is_cold(&self, site: usize) -> bool {
        self.cold_sites.contains(&site)
    }
}

/// A built deployment ready to simulate.
#[derive(Debug, Clone)]
pub struct BuiltDeployment {
    /// Actors in node-id order (servers first, then the RTUs).
    pub nodes: Vec<Role>,
    /// Network configuration (one extra site hosts the RTUs).
    pub net: NetConfig,
    /// Replica/master groups, as node-id lists (for safety checks).
    pub(crate) groups: Vec<Vec<NodeId>>,
    /// Node id of the first RTU (kept for single-client callers).
    pub client: NodeId,
    /// Node ids of every RTU.
    pub(crate) clients: Vec<NodeId>,
    /// First node id of each control site.
    pub(crate) site_base: Vec<usize>,
}

/// Builds the actors and network for a deployment.
///
/// Node ids are assigned site by site, then the RTUs in an extra
/// "field" site that is never flooded or isolated.
pub fn build(spec: &DeploymentSpec) -> BuiltDeployment {
    let mut site_base = Vec::with_capacity(spec.site_count());
    let mut next = 0usize;
    for &count in &spec.site_replicas {
        site_base.push(next);
        next += count;
    }
    let server_total = next;
    let rtu_count = spec.rtu_count.max(1);
    let clients: Vec<NodeId> = (0..rtu_count).map(|k| NodeId(server_total + k)).collect();
    let client = clients[0];

    let mut net_sites: Vec<usize> = spec.site_replicas.clone();
    net_sites.push(rtu_count); // field site for the RTUs
    let net = NetConfig::multi_site(&net_sites);

    let all_servers: Vec<NodeId> = (0..server_total).map(NodeId).collect();
    let mut nodes: Vec<Role> = Vec::with_capacity(server_total + 1);
    let mut groups: Vec<Vec<NodeId>> = Vec::new();

    match spec.style {
        ReplicationStyle::HotStandby => {
            for (site, &count) in spec.site_replicas.iter().enumerate() {
                let base = site_base[site];
                let site_peers: Vec<NodeId> = (base..base + count).map(NodeId).collect();
                groups.push(site_peers.clone());
                for idx in 0..count {
                    let hot = !spec.is_cold(site);
                    let acting = hot && site == 0 && idx == 0;
                    let mut m = Master::new(idx, all_servers.clone(), hot, acting);
                    if spec.is_cold(site) {
                        m.cold_activation_delay = Some(spec.activation_delay);
                    }
                    nodes.push(Role::Master(m));
                }
            }
        }
        ReplicationStyle::Quorum => {
            // Active group: all non-cold sites together. Each cold
            // site forms its own group.
            let active_sites: Vec<usize> = (0..spec.site_count())
                .filter(|s| !spec.is_cold(*s))
                .collect();
            let mut active_peers: Vec<NodeId> = Vec::new();
            let mut active_peer_sites: Vec<usize> = Vec::new();
            for &s in &active_sites {
                for i in 0..spec.site_replicas[s] {
                    active_peers.push(NodeId(site_base[s] + i));
                    active_peer_sites.push(s);
                }
            }
            let cold_nodes: Vec<NodeId> = spec
                .cold_sites
                .iter()
                .flat_map(|&s| (0..spec.site_replicas[s]).map(move |i| (s, i)))
                .map(|(s, i)| NodeId(site_base[s] + i))
                .collect();
            groups.push(active_peers.clone());

            // Build per-site so node ids stay consecutive.
            for (site, &count) in spec.site_replicas.iter().enumerate() {
                if spec.is_cold(site) {
                    let base = site_base[site];
                    let peers: Vec<NodeId> = (base..base + count).map(NodeId).collect();
                    for idx in 0..count {
                        let mut r = Replica::new(idx, peers.clone(), vec![site; count], spec.f);
                        r.active = false;
                        r.cold = Some(ColdConfig {
                            activation_delay: spec.activation_delay,
                        });
                        nodes.push(Role::Replica(r));
                    }
                    groups.push(peers);
                } else {
                    for idx in 0..count {
                        let node = NodeId(site_base[site] + idx);
                        let group_index = active_peers
                            .iter()
                            .position(|&p| p == node)
                            .expect("active node in active group");
                        let mut r = Replica::new(
                            group_index,
                            active_peers.clone(),
                            active_peer_sites.clone(),
                            spec.f,
                        );
                        r.heartbeat_targets = cold_nodes.clone();
                        if spec.proactive_recovery {
                            r.recovery = Some(RecoverySchedule {
                                start: SimTime::from_secs(10.0 + 30.0 * group_index as f64),
                                duration: SimTime::from_secs(3.0),
                            });
                        }
                        nodes.push(Role::Replica(r));
                    }
                }
            }
        }
    }

    let need_matching = match spec.style {
        ReplicationStyle::HotStandby => 1,
        ReplicationStyle::Quorum => spec.f + 1,
    };
    for k in 0..rtu_count {
        nodes.push(Role::Rtu(Rtu::new(
            all_servers.clone(),
            need_matching,
            1_000_000 * (k as u64 + 1),
        )));
    }

    BuiltDeployment {
        nodes,
        net,
        groups,
        client,
        clients,
        site_base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DeploymentSpec {
        /// All five paper configurations, in the paper's order.
        pub(crate) fn all_paper_configs() -> Vec<DeploymentSpec> {
            vec![
                Self::config_2(),
                Self::config_2_2(),
                Self::config_6(),
                Self::config_6_6(),
                Self::config_6p6p6(),
            ]
        }
    }

    #[test]
    fn paper_configs_have_expected_shapes() {
        let all = DeploymentSpec::all_paper_configs();
        let names: Vec<&str> = all.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["2", "2-2", "6", "6-6", "6+6+6"]);
        let servers: Vec<usize> = all.iter().map(|s| s.site_replicas.iter().sum()).collect();
        assert_eq!(servers, vec![2, 4, 6, 12, 18]);
        assert!(all[1].is_cold(1));
        assert!(!all[4].is_cold(2));
    }

    #[test]
    fn build_2_2_layout() {
        let b = build(&DeploymentSpec::config_2_2());
        assert_eq!(b.nodes.len(), 4 + 3);
        assert_eq!(b.client, NodeId(4));
        assert_eq!(b.clients, vec![NodeId(4), NodeId(5), NodeId(6)]);
        assert_eq!(b.net.site_count(), 3); // 2 control sites + field
        assert_eq!(b.groups.len(), 2);
        // Only the hot primary acts at start.
        let acting: Vec<bool> = b
            .nodes
            .iter()
            .filter_map(|n| n.as_master().map(|m| m.acting))
            .collect();
        assert_eq!(acting, vec![true, false, false, false]);
        // Cold site masters have an activation delay.
        assert!(b.nodes[2]
            .as_master()
            .unwrap()
            .cold_activation_delay
            .is_some());
        assert!(b.nodes[0]
            .as_master()
            .unwrap()
            .cold_activation_delay
            .is_none());
    }

    #[test]
    fn build_6_6_groups() {
        let b = build(&DeploymentSpec::config_6_6());
        assert_eq!(b.nodes.len(), 12 + 3);
        assert_eq!(b.groups.len(), 2);
        assert_eq!(b.groups[0].len(), 6);
        assert_eq!(b.groups[1].len(), 6);
        // Active replicas heartbeat the cold group.
        let active = b.nodes[0].as_replica().unwrap();
        assert_eq!(active.heartbeat_targets.len(), 6);
        assert!(active.active);
        let cold = b.nodes[6].as_replica().unwrap();
        assert!(!cold.active);
        assert!(cold.cold.is_some());
    }

    #[test]
    fn build_6p6p6_single_group() {
        let b = build(&DeploymentSpec::config_6p6p6());
        assert_eq!(b.nodes.len(), 18 + 3);
        assert_eq!(b.groups.len(), 1);
        assert_eq!(b.groups[0].len(), 18);
        let r = b.nodes[0].as_replica().unwrap();
        assert_eq!(r.quorum(), 10);
        // Peer sites are striped 0,0,..,1,..,2.
        assert_eq!(r.peer_sites[0], 0);
        assert_eq!(r.peer_sites[6], 1);
        assert_eq!(r.peer_sites[17], 2);
    }

    #[test]
    fn rtu_matching_rule_follows_style() {
        let hot = build(&DeploymentSpec::config_2());
        assert_eq!(hot.nodes.last().unwrap().as_rtu().unwrap().need_matching, 1);
        let quorum = build(&DeploymentSpec::config_6());
        assert_eq!(
            quorum.nodes.last().unwrap().as_rtu().unwrap().need_matching,
            2
        );
    }
}
