//! The paper claims its three-rule greedy attacker "guarantees the
//! worst-case damage" (Sec. V-B). A test-local exhaustive enumerator
//! is the reference: property tests check random states, and the
//! ensemble test checks every post-disaster state that actually
//! occurs in the full case study, for every architecture, siting, and
//! scenario.

use compound_threats::{CaseStudy, CaseStudyConfig};
use ct_rand::{cases, SplitMix64};
use ct_scada::{oahu, Architecture};
use ct_threat::{
    classify, post_disaster_states, AttackBudget, Attacker, PostDisasterState, SiteStatus,
    SystemState, ThreatScenario, WorstCaseAttacker,
};
use std::sync::OnceLock;

/// The brute-force reference: enumerate every combination of
/// isolation targets and intrusion placements, classify each, and
/// return a state achieving the most severe outcome.
struct ExhaustiveAttacker;

impl ExhaustiveAttacker {
    /// Enumerates all final states reachable within the budget.
    fn reachable_states(
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
                budget.intrusions,
                architecture.replicas_per_site(),
                &mut out,
            );
        }
        out
    }
}

/// Recursively enumerates every way to place up to `remaining`
/// intrusions across `sites` (capped per site).
fn distribute(
    state: &SystemState,
    sites: &[usize],
    remaining: usize,
    per_site_cap: usize,
    out: &mut Vec<SystemState>,
) {
    let Some((&site, rest)) = sites.split_first() else {
        out.push(state.clone());
        return;
    };
    for count in 0..=remaining.min(per_site_cap) {
        let mut next = state.clone();
        for _ in 0..count {
            next.intrude(site);
        }
        distribute(&next, rest, remaining - count, per_site_cap, out);
    }
}

impl Attacker for ExhaustiveAttacker {
    fn attack(
        &self,
        architecture: Architecture,
        post: &PostDisasterState,
        budget: AttackBudget,
    ) -> SystemState {
        self.reachable_states(architecture, post, budget)
            .into_iter()
            .max_by_key(classify)
            .expect("at least the no-attack state is reachable")
    }
}

fn study() -> &'static CaseStudy {
    static STUDY: OnceLock<CaseStudy> = OnceLock::new();
    STUDY.get_or_init(|| CaseStudy::build(&CaseStudyConfig::default()).expect("case study builds"))
}

#[test]
fn greedy_attacker_achieves_exhaustive_damage_on_the_real_ensemble() {
    let set = study().realizations();
    for arch in Architecture::ALL {
        for choice in [oahu::SiteChoice::Waiau, oahu::SiteChoice::Kahe] {
            let plan = oahu::site_plan(arch, choice).unwrap();
            let posts = post_disaster_states(&plan, set).unwrap();
            // The distinct post-disaster states are few; dedupe to
            // keep the exhaustive search cheap.
            let mut distinct = posts.clone();
            distinct.sort_by_key(|p| p.flooded().to_vec());
            distinct.dedup();
            for scenario in ThreatScenario::ALL {
                let budget = scenario.budget();
                for post in &distinct {
                    let greedy = classify(&WorstCaseAttacker.attack(arch, post, budget));
                    let exhaustive = classify(&ExhaustiveAttacker.attack(arch, post, budget));
                    assert_eq!(
                        greedy, exhaustive,
                        "{arch:?}/{choice:?}/{scenario}: post {post:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn attacker_rule_priorities_visible_in_chosen_targets() {
    // With one isolation and everything up, the greedy attacker
    // always isolates the *primary* control center (rule 2 priority).
    for arch in [Architecture::C2_2, Architecture::C6_6, Architecture::C6P6P6] {
        let post = PostDisasterState::all_up(arch);
        let state =
            WorstCaseAttacker.attack(arch, &post, ThreatScenario::HurricaneIsolation.budget());
        assert_eq!(
            state.sites[0].status,
            SiteStatus::Isolated,
            "{arch:?} should have its primary isolated"
        );
        for s in &state.sites[1..] {
            assert_eq!(s.status, SiteStatus::Up, "{arch:?}");
        }
    }
}

#[test]
fn rule_one_preempts_isolation() {
    // If safety can be compromised the attacker does that instead of
    // isolating (rule 1): with budget {1,1} against "2-2" the final
    // state has an intrusion and no isolation.
    let post = PostDisasterState::all_up(Architecture::C2_2);
    let state = WorstCaseAttacker.attack(
        Architecture::C2_2,
        &post,
        ThreatScenario::HurricaneIntrusionIsolation.budget(),
    );
    assert_eq!(state.effective_intrusions(), 1);
    assert!(state.sites.iter().all(|s| s.status == SiteStatus::Up));
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
/// worst-case damage as exhaustive search, for every architecture,
/// flood pattern, and budget in the threat model's range.
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
