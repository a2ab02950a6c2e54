//! Executing a deployment under a compound-threat scenario and
//! reducing the run to an operational verdict.

use crate::deployment::{build, DeploymentSpec};
use crate::msg::correct_digest;
use crate::role::Role;
use ct_simnet::{FaultAction, FaultPlan, NodeId, Sim, SimTime, SiteId};
use std::collections::BTreeMap;
use std::fmt;

/// The concrete faults applied to one simulation run: the
/// post-hurricane site outages plus the cyberattack.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultScenario {
    /// Control sites destroyed by the hurricane (crashed at t = 0).
    pub flooded_sites: Vec<usize>,
    /// Control sites isolated by the attacker at `attack_time`.
    pub isolated_sites: Vec<usize>,
    /// Servers compromised by the attacker: `(site, index-in-site)`.
    pub intrusions: Vec<(usize, usize)>,
}

impl FaultScenario {
    /// No faults at all.
    pub fn benign() -> Self {
        Self::default()
    }
}

/// Timing and classification parameters for a verdict run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerdictConfig {
    /// Total virtual time simulated.
    pub run_duration: SimTime,
    /// When the cyberattack (site isolation) lands.
    pub attack_time: SimTime,
    /// Start of the service-gap measurement window (skips startup).
    pub measure_from: SimTime,
    /// A service gap longer than this is a disruption (orange); the
    /// cold-backup activation delay exceeds it, view changes do not.
    pub orange_gap: SimTime,
    /// The system counts as operational at the end if it accepted a
    /// response within this margin of the run end.
    pub resume_margin: SimTime,
    /// RNG seed for network jitter.
    pub seed: u64,
}

impl Default for VerdictConfig {
    fn default() -> Self {
        Self {
            run_duration: SimTime::from_secs(90.0),
            attack_time: SimTime::from_secs(10.0),
            measure_from: SimTime::from_secs(5.0),
            orange_gap: SimTime::from_secs(8.0),
            resume_margin: SimTime::from_secs(3.0),
            seed: 7,
        }
    }
}

/// Operational state observed from an actual protocol execution; the
/// simulation-side analogue of the paper's color classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObservedState {
    /// Continuously operational.
    Green,
    /// Recovered after a service disruption (cold-backup activation).
    Orange,
    /// Not operational at the end of the run.
    Red,
    /// Safety violated: conflicting commits or forged data accepted.
    Gray,
}

impl fmt::Display for ObservedState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ObservedState::Green => "green",
            ObservedState::Orange => "orange",
            ObservedState::Red => "red",
            ObservedState::Gray => "gray",
        };
        f.write_str(s)
    }
}

/// The reduced outcome of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimVerdict {
    /// Overall classification.
    pub state: ObservedState,
    /// No safety violation observed.
    pub safe: bool,
    /// Responses were being accepted at the end of the run.
    pub(crate) resumed: bool,
    /// Longest service gap inside the measurement window.
    pub max_gap: SimTime,
    /// Responses accepted over the whole run.
    pub(crate) accepted: u64,
    /// Responses accepted whose integrity check failed.
    pub bad_accepts: u64,
    /// Conflicting slot commits detected across a replica group.
    pub(crate) slot_conflicts: u64,
}

/// A deployment with its scenario faults installed but virtual time
/// not yet advanced: the common setup shared by single-schedule
/// verdict runs ([`run_scenario`]), exhaustive exploration, and
/// randomized campaigns (`crate::properties`).
#[derive(Debug, Clone)]
pub(crate) struct PreparedRun {
    /// The simulation, faults armed, not yet started.
    pub(crate) sim: Sim<Role>,
    /// Replica/master groups as node-id lists.
    pub(crate) groups: Vec<Vec<NodeId>>,
    /// Node ids of every RTU.
    pub(crate) clients: Vec<NodeId>,
    /// The never-attacked field site hosting the RTUs.
    pub(crate) field_site: SiteId,
}

/// Builds `spec`, installs the scenario's intrusions and hurricane
/// outages, and arms the isolation attack at
/// [`VerdictConfig::attack_time`] — everything short of running.
pub(crate) fn prepare_run(
    spec: &DeploymentSpec,
    scenario: &FaultScenario,
    config: &VerdictConfig,
) -> PreparedRun {
    let built = build(spec);
    let mut nodes = built.nodes;
    for &(site, idx) in &scenario.intrusions {
        let node = built.site_base[site] + idx;
        nodes[node].set_byzantine();
    }
    let mut sim: Sim<Role> = Sim::new(built.net, config.seed, nodes);
    for &site in &scenario.flooded_sites {
        sim.crash_site(SiteId(site));
    }
    let mut plan = FaultPlan::new();
    for &site in &scenario.isolated_sites {
        plan = plan.at(config.attack_time, FaultAction::IsolateSite(SiteId(site)));
    }
    sim.apply_fault_plan(&plan);
    PreparedRun {
        sim,
        groups: built.groups,
        clients: built.clients,
        field_site: SiteId(spec.site_count()),
    }
}

/// Runs `spec` under `scenario` and classifies the outcome.
///
/// Intrusions are active from the start of the run (the attacker has
/// compromised the servers before the measurement window); the site
/// isolation attack lands at [`VerdictConfig::attack_time`]; hurricane
/// outages exist from t = 0.
pub fn run_scenario(
    spec: &DeploymentSpec,
    scenario: &FaultScenario,
    config: &VerdictConfig,
) -> SimVerdict {
    ct_obs::add(ct_obs::names::REPLICATION_VERDICT_RUNS, 1);
    let mut prepared = prepare_run(spec, scenario, config);
    prepared.sim.run_until(config.run_duration);
    summarize(&prepared.sim, &prepared.groups, &prepared.clients, config)
}

/// Counts slots where two replicas in the same group committed
/// different requests (divergent state machines) — the agreement
/// property's safety scan, run once per finished run or explored
/// terminal state.
fn slot_conflict_count(sim: &Sim<Role>, groups: &[Vec<NodeId>]) -> u64 {
    let mut slot_conflicts = 0u64;
    for group in groups {
        let mut by_slot: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        for &node in group {
            let Some(replica) = sim.node(node).as_replica() else {
                continue;
            };
            for (&slot, &req) in &replica.committed_slots {
                match by_slot.get(&slot) {
                    None => {
                        by_slot.insert(slot, req);
                    }
                    Some(&existing) if existing != req => {
                        slot_conflicts += 1;
                    }
                    Some(_) => {}
                }
            }
        }
    }
    slot_conflicts
}

/// Reduces a (fully or partially) executed simulation to a verdict:
/// safety scans over accepted data and committed slots, plus service
/// continuity over the RTUs' accept times. Gap and resumption
/// measures are taken against `config.run_duration`, so summarizing
/// before that time treats the remainder as silence.
pub(crate) fn summarize(
    sim: &Sim<Role>,
    groups: &[Vec<NodeId>],
    clients: &[NodeId],
    config: &VerdictConfig,
) -> SimVerdict {
    let rtus: Vec<&crate::client::Rtu> = clients
        .iter()
        .map(|&c| sim.node(c).as_rtu().expect("client is an RTU"))
        .collect();
    let bad_accepts: u64 = rtus.iter().map(|r| r.bad_accepts).sum();
    let accepted: u64 = rtus.iter().map(|r| r.accepted_log.len() as u64).sum();

    // Safety scan 1: the client accepted forged data.
    let mut safe = bad_accepts == 0;

    // Safety scan 2: divergent state machines within a group.
    let slot_conflicts = slot_conflict_count(sim, groups);
    if slot_conflicts > 0 {
        safe = false;
    }

    // Integrity of the accepted logs themselves (defence in depth).
    for rtu in &rtus {
        for &(_, id, digest) in &rtu.accepted_log {
            if digest != correct_digest(id) && bad_accepts == 0 {
                safe = false;
            }
        }
    }

    // Service continuity over the union of all RTUs' accepted
    // responses: the SCADA system is "up" when it answers the field.
    let end = config.run_duration;
    let mut times: Vec<SimTime> = rtus.iter().flat_map(|r| r.accept_times()).collect();
    times.sort();
    let resumed = times
        .last()
        .is_some_and(|&t| t + config.resume_margin >= end);
    let mut max_gap = SimTime::ZERO;
    let mut prev = config.measure_from;
    for &t in times.iter().filter(|&&t| t >= config.measure_from) {
        let gap = t.saturating_sub(prev);
        if gap > max_gap {
            max_gap = gap;
        }
        prev = t;
    }
    let tail = end.saturating_sub(prev);
    if tail > max_gap {
        max_gap = tail;
    }

    let state = if !safe {
        ObservedState::Gray
    } else if !resumed {
        ObservedState::Red
    } else if max_gap > config.orange_gap {
        ObservedState::Orange
    } else {
        ObservedState::Green
    };

    SimVerdict {
        state,
        safe,
        resumed,
        max_gap,
        accepted,
        bad_accepts,
        slot_conflicts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> VerdictConfig {
        VerdictConfig {
            run_duration: SimTime::from_secs(60.0),
            ..VerdictConfig::default()
        }
    }

    #[test]
    fn benign_runs_are_green_for_all_configs() {
        for spec in DeploymentSpec::all_paper_configs() {
            let v = run_scenario(&spec, &FaultScenario::benign(), &cfg());
            assert_eq!(
                v.state,
                ObservedState::Green,
                "config {} should be green when nothing fails: {v:?}",
                spec.name
            );
            assert!(v.accepted > 100, "config {} barely ran: {v:?}", spec.name);
        }
    }

    #[test]
    fn flooding_the_only_site_is_red() {
        for spec in [DeploymentSpec::config_2(), DeploymentSpec::config_6()] {
            let v = run_scenario(
                &spec,
                &FaultScenario {
                    flooded_sites: vec![0],
                    ..FaultScenario::default()
                },
                &cfg(),
            );
            assert_eq!(v.state, ObservedState::Red, "config {}: {v:?}", spec.name);
            assert_eq!(v.accepted, 0);
        }
    }

    #[test]
    fn cold_backup_turns_primary_flood_into_orange() {
        for spec in [DeploymentSpec::config_2_2(), DeploymentSpec::config_6_6()] {
            let v = run_scenario(
                &spec,
                &FaultScenario {
                    flooded_sites: vec![0],
                    ..FaultScenario::default()
                },
                &cfg(),
            );
            assert_eq!(
                v.state,
                ObservedState::Orange,
                "config {}: {v:?}",
                spec.name
            );
        }
    }

    #[test]
    fn intrusion_breaks_industry_configs() {
        let v = run_scenario(
            &DeploymentSpec::config_2(),
            &FaultScenario {
                intrusions: vec![(0, 0)],
                ..FaultScenario::default()
            },
            &cfg(),
        );
        assert_eq!(v.state, ObservedState::Gray, "{v:?}");
        assert!(v.bad_accepts > 0);
    }

    #[test]
    fn single_intrusion_tolerated_by_quorum_configs() {
        for spec in [DeploymentSpec::config_6(), DeploymentSpec::config_6p6p6()] {
            let v = run_scenario(
                &spec,
                &FaultScenario {
                    intrusions: vec![(0, 0)],
                    ..FaultScenario::default()
                },
                &cfg(),
            );
            assert_eq!(
                v.state,
                ObservedState::Green,
                "config {} must tolerate one intrusion: {v:?}",
                spec.name
            );
        }
    }

    #[test]
    fn two_intrusions_compromise_quorum_safety() {
        let v = run_scenario(
            &DeploymentSpec::config_6(),
            &FaultScenario {
                intrusions: vec![(0, 0), (0, 1)],
                ..FaultScenario::default()
            },
            &cfg(),
        );
        assert_eq!(v.state, ObservedState::Gray, "{v:?}");
    }

    #[test]
    fn isolation_kills_single_site_configs() {
        for spec in [DeploymentSpec::config_2(), DeploymentSpec::config_6()] {
            let v = run_scenario(
                &spec,
                &FaultScenario {
                    isolated_sites: vec![0],
                    ..FaultScenario::default()
                },
                &cfg(),
            );
            assert_eq!(v.state, ObservedState::Red, "config {}: {v:?}", spec.name);
            assert!(v.accepted > 0, "worked until the attack");
        }
    }

    #[test]
    fn isolation_of_primary_is_orange_with_cold_backup() {
        let v = run_scenario(
            &DeploymentSpec::config_2_2(),
            &FaultScenario {
                isolated_sites: vec![0],
                ..FaultScenario::default()
            },
            &cfg(),
        );
        assert_eq!(v.state, ObservedState::Orange, "{v:?}");
    }

    #[test]
    fn six_six_six_rides_through_isolation() {
        let v = run_scenario(
            &DeploymentSpec::config_6p6p6(),
            &FaultScenario {
                isolated_sites: vec![0],
                ..FaultScenario::default()
            },
            &cfg(),
        );
        assert_eq!(v.state, ObservedState::Green, "{v:?}");
    }

    #[test]
    fn six_six_six_full_compound_attack_stays_green() {
        // Hurricane spares all sites; attacker isolates one site and
        // compromises a server in another: the paper's headline claim.
        let v = run_scenario(
            &DeploymentSpec::config_6p6p6(),
            &FaultScenario {
                isolated_sites: vec![0],
                intrusions: vec![(1, 0)],
                ..FaultScenario::default()
            },
            &cfg(),
        );
        assert_eq!(v.state, ObservedState::Green, "{v:?}");
    }

    #[test]
    fn six_six_six_two_sites_down_is_red() {
        let v = run_scenario(
            &DeploymentSpec::config_6p6p6(),
            &FaultScenario {
                flooded_sites: vec![0, 1],
                ..FaultScenario::default()
            },
            &cfg(),
        );
        assert_eq!(v.state, ObservedState::Red, "{v:?}");
    }
}
