//! `ct check`: model-checking the cells of Table I.
//!
//! A cell of Table I is an (architecture, threat scenario) pair with
//! a claimed color. [`check_cell`] turns the claim into a verified
//! statement: it enumerates every worst-case-attacker system state
//! the cell can reach and checks each one three ways —
//!
//! 1. the rule-based classifier's answer (Table I itself),
//! 2. a single sampled protocol execution
//!    ([`ct_replication::run_scenario`]),
//! 3. one of the two schedule tiers: bounded *exhaustive* exploration
//!    of delivery orderings ([`ct_replication::explore_scenario`]) or
//!    a seeded *randomized* fault campaign
//!    ([`ct_replication::randomized_campaign`]) —
//!
//! and fails when the worst state observed across any tier is not the
//! color the rule predicts. Violations carry a replayable
//! counterexample: a choice-point trace (exhaustive) or a schedule
//! seed (randomized; rerun with `--schedules 1 --seed <s>`).
//!
//! The paper takes Table I's conditions from prior work; checking
//! every cell this way derives them from protocol runs instead.
//!
//! Everything is deterministic: same options, same report,
//! independent of `CT_THREADS`.

use ct_replication::{
    default_campaign_dist, explore_scenario, randomized_campaign, run_scenario, worse,
    DeploymentSpec, FaultScenario, ObservedState, VerdictConfig,
};
use ct_scada::Architecture;
use ct_simnet::{ExploreConfig, SimTime};
use ct_threat::{
    classify, Attacker, OperationalState, PostDisasterState, SiteStatus, SystemState,
    ThreatScenario, WorstCaseAttacker,
};
use std::fmt::Write as _;

/// Maps an architecture to its executable deployment.
fn deployment_for(architecture: Architecture) -> DeploymentSpec {
    match architecture {
        Architecture::C2 => DeploymentSpec::config_2(),
        Architecture::C2_2 => DeploymentSpec::config_2_2(),
        Architecture::C6 => DeploymentSpec::config_6(),
        Architecture::C6_6 => DeploymentSpec::config_6_6(),
        Architecture::C6P6P6 => DeploymentSpec::config_6p6p6(),
    }
}

/// Maps a post-compound-threat system state to the faults injected
/// into the simulation. Intrusions are placed at the lowest server
/// indices of their site, which makes the initial leader compromised
/// first — the worst case the classifier assumes.
fn fault_scenario_for(state: &SystemState) -> FaultScenario {
    let mut scenario = FaultScenario::default();
    for (site, s) in state.sites.iter().enumerate() {
        match s.status {
            SiteStatus::Flooded => scenario.flooded_sites.push(site),
            SiteStatus::Isolated => scenario.isolated_sites.push(site),
            SiteStatus::Up => {}
        }
        for idx in 0..s.intrusions {
            scenario.intrusions.push((site, idx));
        }
    }
    scenario
}

/// Whether the rule-based and observed states denote the same color.
fn states_agree(rule: OperationalState, observed: ObservedState) -> bool {
    matches!(
        (rule, observed),
        (OperationalState::Green, ObservedState::Green)
            | (OperationalState::Orange, ObservedState::Orange)
            | (OperationalState::Red, ObservedState::Red)
            | (OperationalState::Gray, ObservedState::Gray)
    )
}

/// The distinct worst-case-attacker states of one Table I cell: every
/// flood pattern under the scenario's attack budget, in flood-mask
/// order.
fn reachable_states_for(architecture: Architecture, scenario: ThreatScenario) -> Vec<SystemState> {
    let n = architecture.site_count();
    let mut out: Vec<SystemState> = Vec::new();
    for mask in 0u32..(1 << n) {
        let flooded: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
        let post = PostDisasterState::new(architecture, flooded);
        let state = WorstCaseAttacker.attack(architecture, &post, scenario.budget());
        if !out.contains(&state) {
            out.push(state);
        }
    }
    out
}

/// Which schedule tier verifies the cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckMode {
    /// Bounded exhaustive exploration of delivery orderings up to
    /// `depth` choice points per path.
    Exhaustive {
        /// Maximum choice points along one path.
        depth: usize,
    },
    /// `schedules` randomized schedules seeded from `seed`.
    Randomized {
        /// Number of schedules to run per state.
        schedules: u64,
        /// Base seed; run `i` uses `seed + i`.
        seed: u64,
    },
}

/// What to check: one Table I cell and the tier to verify it with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckOptions {
    /// The architecture column.
    pub architecture: Architecture,
    /// The threat-scenario row.
    pub scenario: ThreatScenario,
    /// Schedule tier.
    pub mode: CheckMode,
}

/// Virtual-time horizon of every checked execution. Long enough for
/// the slowest recovery path (cold-backup activation at ~32 s virtual
/// with the default attack time) plus the resume margin.
pub(crate) fn check_horizon() -> SimTime {
    SimTime::from_secs(40.0)
}

/// The verdict configuration all check executions share: defaults
/// with the run cut to [`check_horizon`] and the resume margin
/// widened to the orange gap.
///
/// The quorum deployments cycle through short planned outages
/// (proactive recovery forcing view changes) of up to ~4 s when a
/// site is flooded. With the default 3 s margin, a horizon that ends
/// *inside* one of those transient windows reads as "never resumed"
/// — a measurement artifact of where the run was cut, not a liveness
/// failure (the same faults run for 60 s resume). Trailing silence
/// is already charged to `max_gap`, so the consistent tolerance for
/// it is the same gap the verdict accepts mid-run: anything beyond
/// `orange_gap` of silence at the end is still red.
pub(crate) fn check_config() -> VerdictConfig {
    let defaults = VerdictConfig::default();
    VerdictConfig {
        run_duration: check_horizon(),
        resume_margin: defaults.orange_gap,
        ..defaults
    }
}

/// One reachable system state, checked.
#[derive(Debug, Clone)]
pub struct StateCheck {
    /// The post-compound-threat system state.
    pub state: SystemState,
    /// Table I's answer.
    pub rule: OperationalState,
    /// One sampled protocol execution's answer.
    pub sampled: ObservedState,
    /// Worst state observed across the tier's schedules.
    pub worst: ObservedState,
    /// Property violations found by the tier.
    pub violations: u64,
    /// Replay handle for the first violation: `trace=i.j.k`
    /// (exhaustive choice-point indices) or `seed=s` (randomized).
    pub counterexample: Option<String>,
    /// Tier-specific counters, emitted verbatim into the CSV.
    pub(crate) detail: Vec<(&'static str, String)>,
}

impl StateCheck {
    /// Whether the rule, the sampled run, and the tier's worst case
    /// all name the same color.
    pub fn agrees(&self) -> bool {
        states_agree(self.rule, self.sampled) && states_agree(self.rule, self.worst)
    }
}

/// The result of checking one Table I cell.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// The architecture column.
    pub(crate) architecture: Architecture,
    /// The threat-scenario row.
    pub(crate) scenario: ThreatScenario,
    /// Schedule tier used.
    pub(crate) mode: CheckMode,
    /// Every reachable state, checked.
    pub states: Vec<StateCheck>,
}

impl CheckReport {
    /// Whether every reachable state's colors agree across the rule,
    /// the sampled run, and the tier's worst case.
    pub fn ok(&self) -> bool {
        self.states.iter().all(StateCheck::agrees)
    }

    /// Total property violations across all states. Nonzero is not
    /// failure by itself: a gray cell's violations *confirm* the rule.
    pub fn violations(&self) -> u64 {
        self.states.iter().map(|s| s.violations).sum()
    }

    /// The first counterexample across all states, tagged with its
    /// state index (e.g. `state0:seed=3`).
    pub fn counterexample(&self) -> Option<String> {
        self.states
            .iter()
            .enumerate()
            .find_map(|(i, s)| s.counterexample.as_ref().map(|c| format!("state{i}:{c}")))
    }

    /// Greppable CSV: one `check,<field>,<value>` line per fact.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let mut line = |field: &str, value: &str| {
            let _ = writeln!(out, "check,{field},{value}");
        };
        line("arch", self.architecture.label());
        line("scenario", self.scenario.keyword());
        match self.mode {
            CheckMode::Exhaustive { depth } => {
                line("mode", "exhaustive");
                line("depth", &depth.to_string());
            }
            CheckMode::Randomized { schedules, seed } => {
                line("mode", "randomized");
                line("schedules", &schedules.to_string());
                line("seed", &seed.to_string());
            }
        }
        line("horizon_s", &format!("{:.0}", check_horizon().as_secs()));
        line("states", &self.states.len().to_string());
        for (i, s) in self.states.iter().enumerate() {
            let f = |name: &str| format!("state{i}.{name}");
            // SystemState's Display uses ", " between sites; keep the
            // CSV three-field.
            line(&f("system"), &s.state.to_string().replace(", ", " "));
            line(&f("rule"), &s.rule.to_string());
            line(&f("sampled"), &s.sampled.to_string());
            line(&f("worst"), &s.worst.to_string());
            line(&f("violations"), &s.violations.to_string());
            if let Some(c) = &s.counterexample {
                line(&f("counterexample"), c);
            }
            for (name, value) in &s.detail {
                line(&f(name), value);
            }
            line(&f("agrees"), if s.agrees() { "yes" } else { "NO" });
        }
        line("violations", &self.violations().to_string());
        match self.counterexample() {
            Some(c) => line("counterexample", &c),
            None => line("counterexample", "none"),
        }
        line("agreement", if self.ok() { "ok" } else { "FAIL" });
        out
    }
}

/// Checks one Table I cell: every reachable worst-case state, under
/// the sampled run plus the requested schedule tier.
///
/// Deployments are checked with a single RTU — the service signal is
/// the same, and exhaustive exploration cost scales with the event
/// rate.
pub fn check_cell(options: &CheckOptions) -> CheckReport {
    let _span = ct_obs::span("check_cell");
    let config = check_config();
    let mut spec = deployment_for(options.architecture);
    spec.rtu_count = 1;
    let mut states = Vec::new();
    for state in reachable_states_for(options.architecture, options.scenario) {
        ct_obs::add(ct_obs::names::CHECK_STATES_CHECKED, 1);
        let rule = classify(&state);
        let faults = fault_scenario_for(&state);
        let sampled = run_scenario(&spec, &faults, &config).state;
        let checked = match options.mode {
            CheckMode::Exhaustive { depth } => {
                let explore = ExploreConfig {
                    horizon: check_horizon(),
                    max_depth: depth,
                    ..ExploreConfig::default()
                };
                let out = explore_scenario(&spec, &faults, &config, &explore);
                StateCheck {
                    state,
                    rule,
                    sampled,
                    worst: worse(out.worst, sampled),
                    violations: out.violations.len() as u64,
                    counterexample: out.violations.first().map(|v| {
                        let trace: Vec<String> = v.trace.iter().map(|b| b.to_string()).collect();
                        format!(
                            "trace={}",
                            if trace.is_empty() {
                                "root".to_string()
                            } else {
                                trace.join(".")
                            }
                        )
                    }),
                    detail: vec![
                        ("visited", out.stats.visited.to_string()),
                        ("choice_points", out.stats.choice_points.to_string()),
                        ("terminals", out.stats.terminals.to_string()),
                        ("pruned", out.stats.pruned.to_string()),
                        ("depth_truncated", out.stats.depth_truncated.to_string()),
                        ("truncated", out.stats.truncated.to_string()),
                    ],
                }
            }
            CheckMode::Randomized { schedules, seed } => {
                let dist = default_campaign_dist(seed);
                let out = randomized_campaign(&spec, &faults, &config, &dist, schedules);
                ct_obs::add(ct_obs::names::CHECK_SCHEDULES_RUN, schedules);
                StateCheck {
                    state,
                    rule,
                    sampled,
                    worst: worse(out.worst, sampled),
                    violations: out.violations.len() as u64,
                    counterexample: out.violations.first().map(|v| format!("seed={}", v.seed)),
                    detail: vec![
                        ("green", out.green.to_string()),
                        ("orange", out.orange.to_string()),
                        ("red", out.red.to_string()),
                        ("gray", out.gray.to_string()),
                        ("perturbations", out.perturbations.to_string()),
                    ],
                }
            }
        };
        ct_obs::add(ct_obs::names::CHECK_VIOLATIONS, checked.violations);
        states.push(checked);
    }
    CheckReport {
        architecture: options.architecture,
        scenario: options.scenario,
        mode: options.mode,
        states,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(arch: Architecture, scenario: ThreatScenario, mode: CheckMode) -> CheckReport {
        check_cell(&CheckOptions {
            architecture: arch,
            scenario,
            mode,
        })
    }

    #[test]
    fn exhaustive_check_confirms_a_green_cell() {
        // Config 2, hurricane only: green when the site survives, red
        // when it floods — the rule and the explorer must agree on
        // every reachable state.
        let report = check(
            Architecture::C2,
            ThreatScenario::Hurricane,
            CheckMode::Exhaustive { depth: 2 },
        );
        assert!(report.ok(), "{}", report.to_csv());
        assert_eq!(report.violations(), 0);
        assert!(report.counterexample().is_none());
        assert!(report.states.len() >= 2, "flooded and spared states");
    }

    #[test]
    fn exhaustive_check_finds_the_gray_cell_counterexample() {
        let report = check(
            Architecture::C2,
            ThreatScenario::HurricaneIntrusion,
            CheckMode::Exhaustive { depth: 2 },
        );
        assert!(report.ok(), "{}", report.to_csv());
        assert!(report.violations() > 0, "gray cell must violate agreement");
        let c = report.counterexample().expect("replayable counterexample");
        assert!(c.contains("trace="), "{c}");
    }

    #[test]
    fn randomized_check_agrees_and_reports_seeds() {
        let report = check(
            Architecture::C2_2,
            ThreatScenario::HurricaneIntrusion,
            CheckMode::Randomized {
                schedules: 5,
                seed: 1,
            },
        );
        assert!(report.ok(), "{}", report.to_csv());
        assert!(report.violations() > 0);
        let c = report.counterexample().expect("counterexample seed");
        assert!(c.contains("seed="), "{c}");
    }

    #[test]
    fn check_reports_are_deterministic() {
        let run = || {
            check(
                Architecture::C2_2,
                ThreatScenario::HurricaneIsolation,
                CheckMode::Randomized {
                    schedules: 3,
                    seed: 9,
                },
            )
            .to_csv()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn csv_has_the_greppable_summary_lines() {
        let report = check(
            Architecture::C2,
            ThreatScenario::Hurricane,
            CheckMode::Exhaustive { depth: 1 },
        );
        let csv = report.to_csv();
        assert!(csv.contains("check,arch,2\n"));
        assert!(csv.contains("check,scenario,hurricane\n"));
        assert!(csv.contains("check,mode,exhaustive\n"));
        assert!(csv.contains("check,violations,0\n"));
        assert!(csv.contains("check,agreement,ok\n"));
        assert!(csv.lines().all(|l| l.starts_with("check,")));
    }

    #[test]
    fn deployment_mapping_matches_labels() {
        for arch in Architecture::ALL {
            assert_eq!(deployment_for(arch).name, arch.label());
        }
    }

    #[test]
    fn fault_mapping_covers_all_site_states() {
        let s = SystemState {
            architecture: Architecture::C6P6P6,
            sites: [
                (SiteStatus::Flooded, 0),
                (SiteStatus::Isolated, 0),
                (SiteStatus::Up, 2),
            ]
            .into_iter()
            .map(|(status, intrusions)| ct_threat::SiteState { status, intrusions })
            .collect(),
        };
        let f = fault_scenario_for(&s);
        assert_eq!(f.flooded_sites, vec![0]);
        assert_eq!(f.isolated_sites, vec![1]);
        assert_eq!(f.intrusions, vec![(2, 0), (2, 1)]);
    }

    #[test]
    fn reachable_states_are_distinct_per_cell() {
        for arch in Architecture::ALL {
            for scenario in ThreatScenario::ALL {
                let states = reachable_states_for(arch, scenario);
                assert!(!states.is_empty(), "{arch} / {scenario}");
                for (i, a) in states.iter().enumerate() {
                    assert!(
                        !states[..i].contains(a),
                        "{arch} / {scenario}: duplicate {a}"
                    );
                }
            }
        }
    }

    /// The 20 cells together reach 55 distinct states; checking every
    /// cell therefore covers each state any scenario can produce.
    #[test]
    fn cells_cover_55_distinct_states() {
        let per_arch: Vec<usize> = Architecture::ALL
            .into_iter()
            .map(|arch| {
                let mut union: Vec<SystemState> = Vec::new();
                for scenario in ThreatScenario::ALL {
                    for state in reachable_states_for(arch, scenario) {
                        if !union.contains(&state) {
                            union.push(state);
                        }
                    }
                }
                union.len()
            })
            .collect();
        assert_eq!(per_arch, vec![4, 10, 4, 11, 26]);
        assert_eq!(per_arch.iter().sum::<usize>(), 55);
    }
}
