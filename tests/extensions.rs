//! Integration tests for the framework extensions: expected downtime,
//! category sensitivity, placement search and probabilistic attacker
//! power — exercised together on one shared ensemble.

use compound_threats::attacker_power::{expected_profile, AttackerPower};
use compound_threats::availability::{downtime_report, DowntimeModel};
use compound_threats::placement::rank_backup_sites;
use compound_threats::sensitivity::category_sweep;
use compound_threats::{CaseStudy, CaseStudyConfig};
use ct_hydro::Category;
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
fn downtime_gray_dominates_for_industry_configs() {
    let model = DowntimeModel::default();
    let report = downtime_report(
        study(),
        ThreatScenario::HurricaneIntrusion,
        oahu::SiteChoice::Waiau,
        &model,
    )
    .unwrap();
    // "2" spends ~90 % of events in gray at 120 h.
    let h2 = report.hours(Architecture::C2).unwrap();
    assert!(h2 > 100.0, "industry config downtime {h2}");
    let h666 = report.hours(Architecture::C6P6P6).unwrap();
    assert!(h666 < 15.0, "6+6+6 downtime {h666}");
}

#[test]
fn category_sweep_preserves_architecture_ranking() {
    let sweep = category_sweep(
        &CaseStudyConfig::builder()
            .realizations(200)
            .build()
            .unwrap(),
        &[Category::Cat1, Category::Cat3],
        ThreatScenario::HurricaneIntrusionIsolation,
        oahu::SiteChoice::Waiau,
    )
    .unwrap();
    for point in &sweep {
        let green = |a| point.profile(a).unwrap().green();
        assert!(green(Architecture::C6P6P6) >= green(Architecture::C6_6));
        assert!(green(Architecture::C6_6) >= green(Architecture::C2));
    }
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
