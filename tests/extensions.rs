//! Integration tests for the framework extensions: placement search
//! and probabilistic attacker power — exercised together on one shared
//! ensemble.

use compound_threats::attacker_power::{expected_profile, AttackerPower};
use compound_threats::placement::rank_backup_sites;
use compound_threats::{CaseStudy, CaseStudyConfig};
use ct_scada::{oahu, Architecture};
use ct_threat::ThreatScenario;
use std::sync::OnceLock;

fn study() -> &'static CaseStudy {
    static STUDY: OnceLock<CaseStudy> = OnceLock::new();
    STUDY.get_or_init(|| {
        CaseStudy::build(
            &CaseStudyConfig::builder()
                .realizations(300)
                .build()
                .unwrap(),
        )
        .expect("study builds")
    })
}

#[test]
fn placement_search_covers_all_candidates() {
    let ranking =
        rank_backup_sites(study(), Architecture::C6_6, ThreatScenario::Hurricane).unwrap();
    // All control-capable assets except the primary itself.
    let expected = study()
        .topology()
        .control_candidates()
        .iter()
        .filter(|a| a.id != oahu::HONOLULU_CC)
        .count();
    assert_eq!(ranking.len(), expected);
    // Kahe must beat Waiau for the hurricane scenario.
    let pos = |id: &str| {
        ranking
            .iter()
            .position(|r| r.backup_asset_id == id)
            .unwrap()
    };
    assert!(pos(oahu::KAHE) < pos(oahu::WAIAU));
}

#[test]
fn attacker_power_interpolates_between_scenarios() {
    let half = AttackerPower::new(0.5, 0.5).unwrap();
    let e = expected_profile(study(), Architecture::C6_6, oahu::SiteChoice::Waiau, half).unwrap();
    assert!(e.is_normalized());
    // At half power the green probability sits strictly between the
    // worst-case and no-attack values.
    let none = study()
        .profile(
            Architecture::C6_6,
            ThreatScenario::Hurricane,
            oahu::SiteChoice::Waiau,
        )
        .unwrap()
        .green();
    let worst = study()
        .profile(
            Architecture::C6_6,
            ThreatScenario::HurricaneIntrusionIsolation,
            oahu::SiteChoice::Waiau,
        )
        .unwrap()
        .green();
    assert!(e.green < none);
    assert!(e.green > worst);
}
