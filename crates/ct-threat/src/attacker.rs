//! The cyberattacker models.
//!
//! The paper models a *worst-case* attacker that observes the
//! post-disaster system and targets its budget for maximum damage. A
//! naive way to guarantee worst-case damage is to try every possible
//! combination of targets ([`ExhaustiveAttacker`]); the paper instead
//! gives a three-rule greedy algorithm ([`WorstCaseAttacker`],
//! Sec. V-B) and argues it is equivalent for the architectures
//! considered. We implement both and verify the equivalence in
//! `tests/attacker_equivalence.rs`; the `attacker.candidates_examined`
//! counter shows the cost difference.

use crate::classify::classify;
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
        // The greedy algorithm commits to a single candidate state.
        ct_obs::add(ct_obs::names::ATTACKER_CANDIDATES_EXAMINED, 1);
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

/// The brute-force baseline: enumerate every combination of isolation
/// targets and intrusion placements, classify each, and return a state
/// achieving the most severe outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExhaustiveAttacker;

impl ExhaustiveAttacker {
    /// Enumerates all final states reachable within the budget.
    pub fn reachable_states(
        &self,
        architecture: Architecture,
        post: &PostDisasterState,
        budget: AttackBudget,
    ) -> Vec<SystemState> {
        let base = SystemState::from_post_disaster(architecture, post);
        let up_sites: Vec<usize> = (0..base.sites.len())
            .filter(|&i| base.sites[i].status == SiteStatus::Up)
            .collect();

        let mut out = Vec::new();
        // All isolation subsets of size <= budget.isolations.
        for mask in 0u32..(1 << up_sites.len()) {
            if (mask.count_ones() as usize) > budget.isolations {
                continue;
            }
            let mut isolated = base.clone();
            for (bit, &site) in up_sites.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    isolated.isolate(site);
                }
            }
            // All intrusion distributions over running sites.
            let running: Vec<usize> = (0..isolated.sites.len())
                .filter(|&i| isolated.sites[i].status.is_running())
                .collect();
            distribute(
                &isolated,
                &running,
                0,
                budget.intrusions,
                architecture.replicas_per_site(),
                &mut out,
            );
        }
        out
    }
}

/// Recursively enumerates every way to place up to `remaining`
/// intrusions across `sites[from..]` (capped per site).
fn distribute(
    state: &SystemState,
    sites: &[usize],
    from: usize,
    remaining: usize,
    per_site_cap: usize,
    out: &mut Vec<SystemState>,
) {
    if from == sites.len() {
        out.push(state.clone());
        return;
    }
    for count in 0..=remaining.min(per_site_cap) {
        let mut next = state.clone();
        for _ in 0..count {
            next.intrude(sites[from]);
        }
        distribute(&next, sites, from + 1, remaining - count, per_site_cap, out);
    }
}

impl Attacker for ExhaustiveAttacker {
    fn attack(
        &self,
        architecture: Architecture,
        post: &PostDisasterState,
        budget: AttackBudget,
    ) -> SystemState {
        let states = self.reachable_states(architecture, post, budget);
        ct_obs::add(ct_obs::names::ATTACKER_ATTACKS, 1);
        ct_obs::add(
            ct_obs::names::ATTACKER_CANDIDATES_EXAMINED,
            states.len() as u64,
        );
        states
            .into_iter()
            .max_by_key(classify)
            .expect("at least the no-attack state is reachable")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::OperationalState;
    use crate::scenario::ThreatScenario;
    use ct_rand::{cases, SplitMix64};

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

    #[test]
    fn exhaustive_enumerates_the_no_attack_state() {
        let post = PostDisasterState::all_up(Architecture::C6P6P6);
        let states =
            ExhaustiveAttacker.reachable_states(Architecture::C6P6P6, &post, AttackBudget::NONE);
        assert_eq!(states.len(), 1);
    }

    /// A random architecture and flood pattern over its sites.
    fn random_post(rng: &mut SplitMix64) -> (Architecture, PostDisasterState) {
        let arch = Architecture::ALL[rng.below(Architecture::ALL.len() as u64) as usize];
        let flood_bits = rng.below(8);
        let flooded: Vec<bool> = (0..arch.site_count())
            .map(|i| flood_bits & (1 << i) != 0)
            .collect();
        (arch, PostDisasterState::new(arch, flooded))
    }

    /// The paper's claim: the greedy attacker achieves the same
    /// worst-case damage as exhaustive search, for every
    /// architecture, flood pattern, and budget in the threat
    /// model's range.
    #[test]
    fn greedy_matches_exhaustive() {
        cases(256, |rng| {
            let (arch, post) = random_post(rng);
            let intrusions = rng.below(4) as usize;
            let isolations = rng.below(4) as usize;
            let budget = AttackBudget {
                intrusions,
                isolations,
            };
            let greedy = classify(&WorstCaseAttacker.attack(arch, &post, budget));
            let exhaustive = classify(&ExhaustiveAttacker.attack(arch, &post, budget));
            assert_eq!(
                greedy, exhaustive,
                "arch {} post {:?} budget {}",
                arch, post, budget
            );
        });
    }

    /// More attack budget never helps the defender.
    #[test]
    fn damage_is_monotone_in_budget() {
        cases(256, |rng| {
            let (arch, post) = random_post(rng);
            let intrusions = rng.below(3) as usize;
            let isolations = rng.below(3) as usize;
            let small = AttackBudget {
                intrusions,
                isolations,
            };
            let big = AttackBudget {
                intrusions: intrusions + 1,
                isolations: isolations + 1,
            };
            let s = classify(&ExhaustiveAttacker.attack(arch, &post, small));
            let b = classify(&ExhaustiveAttacker.attack(arch, &post, big));
            assert!(
                b >= s,
                "bigger budget produced milder outcome: {} < {}",
                b,
                s
            );
        });
    }
}
