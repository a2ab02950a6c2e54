//! The cyberattacker model.
//!
//! The paper models a *worst-case* attacker that observes the
//! post-disaster system and targets its budget for maximum damage. It
//! gives a three-rule greedy algorithm ([`WorstCaseAttacker`],
//! Sec. V-B) and argues it is as damaging as trying every combination
//! of targets. `tests/attacker_equivalence.rs` checks that claim
//! against a test-local exhaustive enumerator, on random states and on
//! every post-disaster state of the case-study ensemble.

use crate::scenario::AttackBudget;
use crate::state::{PostDisasterState, SiteStatus, SystemState};
use ct_scada::Architecture;

/// An attacker strategy: applies a cyberattack budget to a
/// post-disaster system, producing the final system state.
pub trait Attacker {
    /// Chooses and applies attacks.
    fn attack(
        &self,
        architecture: Architecture,
        post: &PostDisasterState,
        budget: AttackBudget,
    ) -> SystemState;
}

/// The paper's three-rule greedy worst-case attacker:
///
/// 1. if enough intrusions are available to compromise safety, do so;
/// 2. otherwise isolate sites, primary control center first, then the
///    backup, then data centers;
/// 3. spend remaining intrusions on servers that would otherwise be
///    functional.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorstCaseAttacker;

impl Attacker for WorstCaseAttacker {
    fn attack(
        &self,
        architecture: Architecture,
        post: &PostDisasterState,
        budget: AttackBudget,
    ) -> SystemState {
        ct_obs::add(ct_obs::names::ATTACKER_ATTACKS, 1);
        let mut state = SystemState::from_post_disaster(architecture, post);
        let threshold = architecture.gray_threshold();

        // Rule 1: compromise safety outright if the budget allows.
        // Compromising servers in the currently-acting site (or, for
        // 6+6+6, any functional site) is always sufficient: intrusions
        // in one functional site count fully toward the gray
        // threshold.
        if budget.intrusions >= threshold {
            if let Some(target) = state.acting_site() {
                for _ in 0..threshold {
                    state.intrude(target);
                }
                return state;
            }
        }

        // Rule 2: isolate the most valuable functioning sites, in
        // priority order (primary, backup, data centers).
        let mut isolations = budget.isolations;
        for site in 0..state.sites.len() {
            if isolations == 0 {
                break;
            }
            if state.sites[site].status == SiteStatus::Up {
                state.isolate(site);
                isolations -= 1;
            }
        }

        // Rule 3: compromise servers that are still functional.
        let mut intrusions = budget.intrusions;
        while intrusions > 0 {
            let Some(target) = state.acting_site() else {
                break;
            };
            state.intrude(target);
            intrusions -= 1;
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, OperationalState};
    use crate::scenario::ThreatScenario;

    fn outcome(
        attacker: &dyn Attacker,
        arch: Architecture,
        flooded: Vec<bool>,
        budget: AttackBudget,
    ) -> OperationalState {
        let post = PostDisasterState::new(arch, flooded);
        classify(&attacker.attack(arch, &post, budget))
    }

    #[test]
    fn no_budget_means_no_attack() {
        for arch in Architecture::ALL {
            let post = PostDisasterState::all_up(arch);
            let s = WorstCaseAttacker.attack(arch, &post, AttackBudget::NONE);
            assert_eq!(s, SystemState::from_post_disaster(arch, &post));
        }
    }

    #[test]
    fn intrusion_scenario_grays_industry_configs() {
        let b = ThreatScenario::HurricaneIntrusion.budget();
        assert_eq!(
            outcome(&WorstCaseAttacker, Architecture::C2, vec![false], b),
            OperationalState::Gray
        );
        assert_eq!(
            outcome(
                &WorstCaseAttacker,
                Architecture::C2_2,
                vec![false, false],
                b
            ),
            OperationalState::Gray
        );
        // Intrusion-tolerant configs shrug it off.
        assert_eq!(
            outcome(&WorstCaseAttacker, Architecture::C6, vec![false], b),
            OperationalState::Green
        );
    }

    #[test]
    fn flooded_system_cannot_be_grayed() {
        // Paper Sec. VI-B: if the hurricane flooded the control
        // centers there are no servers left to compromise — red, not
        // gray.
        let b = ThreatScenario::HurricaneIntrusion.budget();
        assert_eq!(
            outcome(&WorstCaseAttacker, Architecture::C2, vec![true], b),
            OperationalState::Red
        );
        assert_eq!(
            outcome(&WorstCaseAttacker, Architecture::C2_2, vec![true, true], b),
            OperationalState::Red
        );
    }

    #[test]
    fn isolation_scenario_matches_fig8_logic() {
        let b = ThreatScenario::HurricaneIsolation.budget();
        // Single-site configs die.
        assert_eq!(
            outcome(&WorstCaseAttacker, Architecture::C2, vec![false], b),
            OperationalState::Red
        );
        assert_eq!(
            outcome(&WorstCaseAttacker, Architecture::C6, vec![false], b),
            OperationalState::Red
        );
        // Cold-backup configs degrade to orange.
        assert_eq!(
            outcome(
                &WorstCaseAttacker,
                Architecture::C2_2,
                vec![false, false],
                b
            ),
            OperationalState::Orange
        );
        assert_eq!(
            outcome(
                &WorstCaseAttacker,
                Architecture::C6_6,
                vec![false, false],
                b
            ),
            OperationalState::Orange
        );
        // 6+6+6 rides through.
        assert_eq!(
            outcome(
                &WorstCaseAttacker,
                Architecture::C6P6P6,
                vec![false, false, false],
                b
            ),
            OperationalState::Green
        );
    }

    #[test]
    fn full_compound_scenario_matches_fig9_logic() {
        let b = ThreatScenario::HurricaneIntrusionIsolation.budget();
        assert_eq!(
            outcome(&WorstCaseAttacker, Architecture::C2, vec![false], b),
            OperationalState::Gray
        );
        assert_eq!(
            outcome(
                &WorstCaseAttacker,
                Architecture::C2_2,
                vec![false, false],
                b
            ),
            OperationalState::Gray
        );
        assert_eq!(
            outcome(&WorstCaseAttacker, Architecture::C6, vec![false], b),
            OperationalState::Red
        );
        assert_eq!(
            outcome(
                &WorstCaseAttacker,
                Architecture::C6_6,
                vec![false, false],
                b
            ),
            OperationalState::Orange
        );
        assert_eq!(
            outcome(
                &WorstCaseAttacker,
                Architecture::C6P6P6,
                vec![false, false, false],
                b
            ),
            OperationalState::Green
        );
    }
}
