//! Executable Table I properties and the two checking tiers.
//!
//! The paper's operational-state classification is a *judgment* about
//! a deployment under a compound threat. This module turns it into
//! three machine-checkable predicates evaluated over many schedules:
//!
//! * **Agreement** — the field never accepts forged data and no two
//!   replicas in a group commit different requests in the same slot.
//! * **No split-brain** — at no point can two *independent*
//!   authorities (a quorum-capable replica group, or an acting master
//!   in some site) both answer the field. Dual acting masters inside
//!   one site are deliberately not flagged: they share state via the
//!   site LAN and the paper treats hot takeover as seamless.
//! * **Liveness under quorum** — whenever some authority remains able
//!   to reach the field at the end of a run, service must actually
//!   have resumed.
//!
//! Two tiers evaluate the predicates:
//!
//! 1. [`explore_scenario`] — bounded *exhaustive* exploration of
//!    delivery orderings via [`Explorer`], with jitter forced to zero
//!    so reordering-within-a-window stands in for latency noise.
//! 2. [`randomized_campaign`] — many seeded schedules under a
//!    [`ScheduleDist`] of per-send discard / delay /
//!    duplicate faults. Run `i` of a campaign with base seed `s` uses
//!    schedule seed `s + i`, so any counterexample is replayed by a
//!    single-schedule campaign at its reported seed.
//!
//! Exploration checks forged accepts and split brain after every
//! event, and slot conflicts only at terminal states, in
//! [`end_violation`]'s full scan. That scan sees every conflict
//! because `Replica::committed_slots` is insert-only: its one write is
//! a guarded insert, and recovery never clears it. A path's conflict
//! count therefore never falls, and every path ends at a terminal
//! (scanned), at a step violation (recorded anyway), at a prune
//! (`committed_slots` is part of the state digest, so that state's
//! subtree was already explored) or at the `max_states` stop (reported
//! as `truncated`). The one case that counts differently from a
//! per-event scan: a conflict on a path that merges into an
//! already-explored state is reported in that state's subtree, not on
//! the merging path; no Table I cell has such a path. A per-group slot
//! map forked with the `Sim` would make a per-event scan cheap, but it
//! would add forked state to keep a check that reports no violation
//! first anywhere in the table.

use crate::deployment::DeploymentSpec;
use crate::verdict::{
    prepare_run, summarize, FaultScenario, ObservedState, PreparedRun, SimVerdict, VerdictConfig,
};
use crate::Role;
use ct_simnet::{
    ExploreConfig, ExploreStats, ExploreViolation, Explorer, NodeId, ScheduleDist, SendFaults, Sim,
    SimTime, SiteId,
};
use std::fmt;

/// The three checkable replication properties.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationProperty {
    /// No forged accepts, no conflicting slot commits.
    Agreement,
    /// Never two independent field-reachable authorities.
    NoSplitBrain,
    /// A surviving authority implies resumed service.
    LivenessUnderQuorum,
}

impl ReplicationProperty {
    /// Stable name used in violation records and CSV output.
    pub(crate) fn name(self) -> &'static str {
        match self {
            ReplicationProperty::Agreement => "agreement",
            ReplicationProperty::NoSplitBrain => "no-split-brain",
            ReplicationProperty::LivenessUnderQuorum => "liveness-under-quorum",
        }
    }

    /// The observed state a violation of this property implies:
    /// safety violations are gray, liveness violations are red.
    pub(crate) fn implied_state(self) -> ObservedState {
        match self {
            ReplicationProperty::Agreement | ReplicationProperty::NoSplitBrain => {
                ObservedState::Gray
            }
            ReplicationProperty::LivenessUnderQuorum => ObservedState::Red,
        }
    }
}

impl fmt::Display for ReplicationProperty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Severity order of observed states: green < orange < red < gray.
pub fn severity(state: ObservedState) -> u8 {
    match state {
        ObservedState::Green => 0,
        ObservedState::Orange => 1,
        ObservedState::Red => 2,
        ObservedState::Gray => 3,
    }
}

/// The more severe of two observed states.
pub fn worse(a: ObservedState, b: ObservedState) -> ObservedState {
    if severity(b) > severity(a) {
        b
    } else {
        a
    }
}

/// Whether `node` can exchange messages with the field site right
/// now (not crashed, and no isolation severing the WAN path).
fn field_reachable(sim: &Sim<Role>, node: NodeId, field_site: SiteId) -> bool {
    if sim.is_crashed(node) {
        return false;
    }
    let site = sim.net_config().site(node);
    site == field_site || (!sim.is_isolated(site) && !sim.is_isolated(field_site))
}

/// Counts the independent authorities currently able to answer the
/// field: replica groups with a field-reachable active quorum, and
/// sites with a field-reachable acting master. More than one at a
/// time is a split brain — two authorities with divergent state can
/// both answer RTU polls.
pub(crate) fn authority_count(
    sim: &Sim<Role>,
    groups: &[Vec<NodeId>],
    field_site: SiteId,
) -> usize {
    let mut count = 0usize;
    for group in groups {
        let Some(&first) = group.first() else {
            continue;
        };
        match sim.node(first) {
            Role::Master(_) => {
                let acting_reachable = group.iter().any(|&n| {
                    sim.node(n).as_master().is_some_and(|m| m.acting)
                        && field_reachable(sim, n, field_site)
                });
                if acting_reachable {
                    count += 1;
                }
            }
            Role::Replica(r) => {
                let quorum = r.quorum();
                let live = group
                    .iter()
                    .filter(|&&n| {
                        sim.node(n).as_replica().is_some_and(|r| r.active)
                            && field_reachable(sim, n, field_site)
                    })
                    .count();
                if live >= quorum {
                    count += 1;
                }
            }
            Role::Rtu(_) => {}
        }
    }
    count
}

/// A violated property and what was seen.
pub(crate) type Violation = (ReplicationProperty, String);

/// Per-event property check: forged accepts and split brain. Slot
/// conflicts are left to the terminal scan in [`end_violation`] (see
/// the module doc for why that sees every one).
fn step_violation(
    sim: &Sim<Role>,
    groups: &[Vec<NodeId>],
    clients: &[NodeId],
    field_site: SiteId,
) -> Option<Violation> {
    let bad: u64 = clients
        .iter()
        .map(|&c| sim.node(c).as_rtu().map_or(0, |r| r.bad_accepts))
        .sum();
    if bad > 0 {
        return Some((
            ReplicationProperty::Agreement,
            format!("{bad} forged response(s) accepted by the field"),
        ));
    }
    let authorities = authority_count(sim, groups, field_site);
    if authorities > 1 {
        return Some((
            ReplicationProperty::NoSplitBrain,
            format!("{authorities} independent authorities can answer the field"),
        ));
    }
    None
}

/// End-of-run property check over a full verdict: agreement over the
/// complete logs, then liveness — a surviving authority with no
/// resumed service is a liveness violation.
fn end_violation(
    sim: &Sim<Role>,
    groups: &[Vec<NodeId>],
    field_site: SiteId,
    v: &SimVerdict,
) -> Option<Violation> {
    if v.bad_accepts > 0 {
        return Some((
            ReplicationProperty::Agreement,
            format!("{} forged response(s) accepted by the field", v.bad_accepts),
        ));
    }
    if v.slot_conflicts > 0 {
        return Some((
            ReplicationProperty::Agreement,
            format!("{} conflicting slot commit(s)", v.slot_conflicts),
        ));
    }
    let authorities = authority_count(sim, groups, field_site);
    if authorities > 1 {
        return Some((
            ReplicationProperty::NoSplitBrain,
            format!("{authorities} independent authorities can answer the field"),
        ));
    }
    if authorities >= 1 && !v.resumed {
        return Some((
            ReplicationProperty::LivenessUnderQuorum,
            format!(
                "an authority can answer the field but service did not resume \
                 (accepted={} over the run)",
                v.accepted
            ),
        ));
    }
    None
}

/// Result of one bounded exhaustive exploration of a scenario.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Search counters.
    pub stats: ExploreStats,
    /// Property violations with replayable choice-point traces.
    pub violations: Vec<ExploreViolation<Violation>>,
    /// Worst observed state across all terminals and violations.
    pub worst: ObservedState,
}

/// Exhaustively explores delivery orderings of `scenario` on `spec`
/// up to the bounds in `explore`, checking all three
/// [`ReplicationProperty`]s along every path.
///
/// Jitter is forced to zero so event times are schedule-independent
/// (the explorer's reordering of near-simultaneous events is the
/// model of jitter), and the verdict horizon is aligned to
/// [`ExploreConfig::horizon`], overriding
/// [`VerdictConfig::run_duration`].
pub fn explore_scenario(
    spec: &DeploymentSpec,
    scenario: &FaultScenario,
    config: &VerdictConfig,
    explore: &ExploreConfig,
) -> ExploreOutcome {
    let mut config = *config;
    config.run_duration = explore.horizon;
    explore_prepared(prepare_run(spec, scenario, &config), &config, explore)
}

/// [`explore_scenario`]'s search over an already prepared run, with
/// the verdict horizon already aligned.
fn explore_prepared(
    prepared: PreparedRun,
    config: &VerdictConfig,
    explore: &ExploreConfig,
) -> ExploreOutcome {
    let PreparedRun {
        mut sim,
        groups,
        clients,
        field_site,
    } = prepared;
    sim.set_jitter(0.0);

    let report = Explorer::new(sim, *explore).run(
        |sim| step_violation(sim, &groups, &clients, field_site),
        |sim| {
            let v = summarize(sim, &groups, &clients, config);
            let end = end_violation(sim, &groups, field_site, &v);
            (end, v)
        },
    );

    let worst = report
        .terminals
        .iter()
        .map(|v| v.state)
        .chain(
            report
                .violations
                .iter()
                .map(|v| v.violation.0.implied_state()),
        )
        .fold(ObservedState::Green, worse);
    ExploreOutcome {
        stats: report.stats,
        violations: report.violations,
        worst,
    }
}

/// A property violation found by a randomized campaign, replayable
/// from its schedule seed alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignViolation {
    /// Which property failed.
    pub(crate) property: ReplicationProperty,
    /// Human-readable description.
    pub(crate) detail: String,
    /// Schedule seed of the violating run: a one-schedule campaign
    /// with this base seed reproduces it exactly.
    pub seed: u64,
}

/// Result of a randomized schedule campaign.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Runs classified green.
    pub green: u64,
    /// Runs classified orange.
    pub orange: u64,
    /// Runs classified red.
    pub red: u64,
    /// Runs classified gray.
    pub gray: u64,
    /// Worst observed state across all runs.
    pub worst: ObservedState,
    /// Total schedule perturbations injected (discards + delays +
    /// duplicates) across the campaign.
    pub perturbations: u64,
    /// Property violations, one entry per violating run.
    pub violations: Vec<CampaignViolation>,
}

impl CampaignOutcome {
    /// Tally of one run's observed state.
    fn count(&mut self, state: ObservedState) {
        match state {
            ObservedState::Green => self.green += 1,
            ObservedState::Orange => self.orange += 1,
            ObservedState::Red => self.red += 1,
            ObservedState::Gray => self.gray += 1,
        }
        self.worst = worse(self.worst, state);
    }
}

/// The default fault mix for campaigns: light uniform discard /
/// delay / duplicate on every message — enough to shuffle
/// delivery order and drop individual protocol messages without
/// modelling a new attack (site isolation and intrusions are the
/// scenario's job, not the schedule's).
pub fn default_campaign_dist(seed: u64) -> ScheduleDist {
    ScheduleDist::uniform(
        seed,
        SendFaults {
            discard: 0.02,
            delay: 0.05,
            delay_by: SimTime::from_millis(40.0),
            duplicate: 0.02,
        },
    )
}

/// Runs `schedules` seeded randomized schedules of `scenario` on
/// `spec` and checks every property on each completed run.
///
/// Run `i` uses `dist.seed + i` as its schedule seed; everything
/// else (network seed, timing) is identical across runs, so a
/// campaign is a pure function of `(spec, scenario, config, dist,
/// schedules)` and any reported violation seed replays as a
/// one-schedule campaign.
pub fn randomized_campaign(
    spec: &DeploymentSpec,
    scenario: &FaultScenario,
    config: &VerdictConfig,
    dist: &ScheduleDist,
    schedules: u64,
) -> CampaignOutcome {
    let mut out = CampaignOutcome {
        green: 0,
        orange: 0,
        red: 0,
        gray: 0,
        worst: ObservedState::Green,
        perturbations: 0,
        violations: Vec::new(),
    };
    for i in 0..schedules {
        let seed = dist.seed.wrapping_add(i);
        let mut prepared = prepare_run(spec, scenario, config);
        prepared.sim.set_schedule_dist(dist.with_seed(seed));
        let stats = prepared.sim.run_until(config.run_duration);
        out.perturbations +=
            stats.schedule_discards + stats.schedule_delays + stats.schedule_duplicates;
        let v = summarize(&prepared.sim, &prepared.groups, &prepared.clients, config);
        out.count(v.state);
        if let Some((property, detail)) =
            end_violation(&prepared.sim, &prepared.groups, prepared.field_site, &v)
        {
            out.violations.push(CampaignViolation {
                property,
                detail,
                seed,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn cfg() -> VerdictConfig {
        VerdictConfig {
            run_duration: SimTime::from_secs(40.0),
            ..VerdictConfig::default()
        }
    }

    fn explore_cfg() -> ExploreConfig {
        ExploreConfig {
            horizon: SimTime::from_secs(40.0),
            max_depth: 2,
            ..ExploreConfig::default()
        }
    }

    #[test]
    fn benign_exploration_of_config_2_is_green_everywhere() {
        let out = explore_scenario(
            &DeploymentSpec {
                rtu_count: 1,
                ..DeploymentSpec::config_2()
            },
            &FaultScenario::benign(),
            &cfg(),
            &explore_cfg(),
        );
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.worst, ObservedState::Green);
        assert!(out.stats.terminals >= 1);
    }

    #[test]
    fn intrusion_on_config_2_violates_agreement_on_every_path() {
        let out = explore_scenario(
            &DeploymentSpec {
                rtu_count: 1,
                ..DeploymentSpec::config_2()
            },
            &FaultScenario {
                intrusions: vec![(0, 0)],
                ..FaultScenario::default()
            },
            &cfg(),
            &explore_cfg(),
        );
        assert!(!out.violations.is_empty());
        assert_eq!(out.worst, ObservedState::Gray);
        assert!(out
            .violations
            .iter()
            .all(|v| v.violation.0 == ReplicationProperty::Agreement));
    }

    #[test]
    fn a_conflict_committed_before_the_first_event_is_reported_at_every_terminal() {
        // Two replicas of the one group disagree on slot (0, 0) before
        // anything runs. No per-event check scans slots, so every
        // explored path must carry the conflict to its terminal scan.
        let config = cfg();
        let prepared = prepare_run(
            &DeploymentSpec {
                rtu_count: 1,
                ..DeploymentSpec::config_6()
            },
            &FaultScenario::benign(),
            &config,
        );
        let mut nodes = prepared.sim.nodes().to_vec();
        for (node, req) in prepared.groups[0].iter().zip([1, 2]) {
            let Role::Replica(r) = &mut nodes[node.0] else {
                panic!("config 6 runs replicas");
            };
            r.committed_slots.insert((0, 0), req);
        }
        let sim = Sim::new(prepared.sim.net_config().clone(), config.seed, nodes);
        let out = explore_prepared(PreparedRun { sim, ..prepared }, &config, &explore_cfg());
        assert!(out.stats.terminals >= 1);
        assert_eq!(out.violations.len() as u64, out.stats.terminals);
        assert!(out
            .violations
            .iter()
            .all(|v| v.violation.0 == ReplicationProperty::Agreement));
        assert_eq!(out.worst, ObservedState::Gray);
    }

    /// Explores `scenario` on 6-6 at depth 0 and asserts after every
    /// event that each replica's `committed_slots` still holds every
    /// entry it held before; returns the final logs. At depth 0 the
    /// explorer follows one schedule, so the state before an event is
    /// the one the previous call saw.
    fn slots_only_grow(
        scenario: &FaultScenario,
        horizon: SimTime,
    ) -> Vec<BTreeMap<(u64, u64), u64>> {
        let prepared = prepare_run(
            &DeploymentSpec {
                rtu_count: 1,
                ..DeploymentSpec::config_6_6()
            },
            scenario,
            &cfg(),
        );
        let mut prior: Vec<_> = prepared
            .sim
            .nodes()
            .iter()
            .filter_map(|n| n.as_replica().map(|r| r.committed_slots.clone()))
            .collect();
        let explore = ExploreConfig {
            horizon,
            max_depth: 0,
            ..explore_cfg()
        };
        let report = Explorer::new(prepared.sim, explore).run(
            |sim| {
                let replicas = sim.nodes().iter().filter_map(Role::as_replica);
                for (r, before) in replicas.zip(&mut prior) {
                    let after = &r.committed_slots;
                    for (slot, req) in before.iter() {
                        assert_eq!(after.get(slot), Some(req), "slot {slot:?} changed");
                    }
                    if after.len() > before.len() {
                        before.clone_from(after);
                    }
                }
                None::<()>
            },
            |_| (None, ()),
        );
        assert_eq!(report.stats.terminals, 1);
        prior
    }

    #[test]
    fn committed_slots_only_grow_through_view_changes_recovery_and_activation() {
        // Benign: the view-0 leader's proactive recovery from 10 to
        // 13 s stalls requests until a view change at 12 s.
        let benign = slots_only_grow(&FaultScenario::benign(), SimTime::from_secs(14.0));
        assert!(benign
            .iter()
            .any(|log| log.keys().any(|&(view, _)| view > 0)));
        // Isolation of the primary site at 10 s: the cold site takes
        // over and commits from 32 s on.
        let isolated = slots_only_grow(
            &FaultScenario {
                isolated_sites: vec![0],
                ..FaultScenario::default()
            },
            SimTime::from_secs(33.0),
        );
        assert!(isolated[6..].iter().all(|log| !log.is_empty()));
    }

    #[test]
    fn exploration_is_deterministic() {
        let run = || {
            let out = explore_scenario(
                &DeploymentSpec {
                    rtu_count: 1,
                    ..DeploymentSpec::config_2_2()
                },
                &FaultScenario {
                    isolated_sites: vec![0],
                    ..FaultScenario::default()
                },
                &cfg(),
                &explore_cfg(),
            );
            (out.stats, out.worst)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn isolation_of_2_2_primary_explores_to_orange_without_violations() {
        let out = explore_scenario(
            &DeploymentSpec {
                rtu_count: 1,
                ..DeploymentSpec::config_2_2()
            },
            &FaultScenario {
                isolated_sites: vec![0],
                ..FaultScenario::default()
            },
            &cfg(),
            &explore_cfg(),
        );
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.worst, ObservedState::Orange);
    }

    #[test]
    fn campaign_on_benign_config_2_stays_green() {
        let out = randomized_campaign(
            &DeploymentSpec {
                rtu_count: 1,
                ..DeploymentSpec::config_2()
            },
            &FaultScenario::benign(),
            &cfg(),
            &default_campaign_dist(1),
            25,
        );
        assert_eq!(out.green, 25, "{out:?}");
        assert_eq!(out.worst, ObservedState::Green);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.perturbations > 0, "campaign never perturbed anything");
    }

    #[test]
    fn campaign_flags_the_gray_cell_with_replayable_seeds() {
        let spec = DeploymentSpec {
            rtu_count: 1,
            ..DeploymentSpec::config_2()
        };
        let scenario = FaultScenario {
            intrusions: vec![(0, 0)],
            ..FaultScenario::default()
        };
        let out = randomized_campaign(&spec, &scenario, &cfg(), &default_campaign_dist(1), 10);
        assert_eq!(out.gray, 10, "{out:?}");
        assert_eq!(out.violations.len(), 10);
        let first = &out.violations[0];
        assert_eq!(first.property, ReplicationProperty::Agreement);
        // Replay: a one-schedule campaign at the reported seed
        // reproduces the same violation.
        let replay = randomized_campaign(
            &spec,
            &scenario,
            &cfg(),
            &default_campaign_dist(first.seed),
            1,
        );
        assert_eq!(replay.violations.len(), 1);
        assert_eq!(replay.violations[0].detail, first.detail);
        assert_eq!(replay.violations[0].seed, first.seed);
    }

    #[test]
    fn campaigns_are_deterministic_per_seed() {
        let spec = DeploymentSpec {
            rtu_count: 1,
            ..DeploymentSpec::config_2_2()
        };
        let scenario = FaultScenario {
            isolated_sites: vec![0],
            ..FaultScenario::default()
        };
        let run = || {
            let out = randomized_campaign(&spec, &scenario, &cfg(), &default_campaign_dist(9), 8);
            (
                out.green,
                out.orange,
                out.red,
                out.gray,
                out.perturbations,
                out.violations.len(),
            )
        };
        assert_eq!(run(), run());
    }
}
