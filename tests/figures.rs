//! Full-scale reproduction tests for every evaluation figure in the
//! paper (Figs. 6-11), at the paper's 1000-realization ensemble size.
//!
//! We do not pin the authors' exact 90.5 % / 9.5 % split — that is a
//! property of their proprietary ADCIRC run — but every *shape* the
//! paper reports must hold, and the headline probability must land
//! within a few points of theirs. Our own outputs are pinned exactly:
//! the figure CSV and the per-realization CSV of every hazard, the
//! Honolulu flood count and one backup-site ranking.

use compound_threats::figures::{reproduce, reproduce_all, Figure};
use compound_threats::placement::rank_backup_sites;
use compound_threats::report::{figure_csv, placement_table};
use compound_threats::{CaseStudy, CaseStudyConfig, OutcomeProfile};
use ct_hazard::HazardSpec;
use ct_hydro::export::realizations_to_csv;
use ct_scada::Architecture::{C2, C2_2, C6, C6P6P6, C6_6};
use ct_store::StableHasher;
use ct_threat::ThreatScenario;
use std::sync::OnceLock;

fn study() -> &'static CaseStudy {
    study_for(HazardSpec::Surge)
}

/// The paper's 1000-realization study under `hazard`, built once per
/// test binary.
fn study_for(hazard: HazardSpec) -> &'static CaseStudy {
    static STUDIES: [OnceLock<CaseStudy>; 3] = [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    let slot = match hazard {
        HazardSpec::Surge => 0,
        HazardSpec::Wind => 1,
        HazardSpec::Compound => 2,
    };
    STUDIES[slot].get_or_init(|| {
        let config = CaseStudyConfig::builder().hazard(hazard).build().unwrap();
        CaseStudy::build(&config).expect("case study builds")
    })
}

fn digest(bytes: &str) -> String {
    let mut hasher = StableHasher::new();
    hasher.update(bytes.as_bytes());
    hasher.finish().to_hex()
}

fn profile(figure: Figure, arch: ct_scada::Architecture) -> OutcomeProfile {
    *reproduce(study(), figure)
        .expect("figure reproduces")
        .profile(arch)
        .expect("architecture present")
}

/// The measured Honolulu flood probability, shared by most figures.
fn p_flood() -> f64 {
    study()
        .flood_probability(ct_scada::oahu::HONOLULU_CC)
        .unwrap()
}

const TOL: f64 = 1e-9;

#[test]
fn fig6_all_architectures_identical() {
    // "Surprisingly... none of the other architectures is able to
    // improve on this situation."
    let base = profile(Figure::Fig6, C2);
    for arch in [C2_2, C6, C6_6, C6P6P6] {
        let p = profile(Figure::Fig6, arch);
        assert!(p.approx_eq(&base, TOL), "{arch:?}: {p} vs {base}");
    }
    assert!((base.green() - (1.0 - p_flood())).abs() < TOL);
    assert!((base.red() - p_flood()).abs() < TOL);
    assert_eq!(base.orange(), 0.0);
    assert_eq!(base.gray(), 0.0);
}

#[test]
fn fig7_intrusion_grays_industry_spares_intrusion_tolerant() {
    // Industry configs: gray wherever servers survive, red otherwise.
    for arch in [C2, C2_2] {
        let p = profile(Figure::Fig7, arch);
        assert_eq!(p.green(), 0.0, "{arch:?} {p}");
        assert!((p.gray() - (1.0 - p_flood())).abs() < TOL, "{arch:?} {p}");
        assert!((p.red() - p_flood()).abs() < TOL, "{arch:?} {p}");
    }
    // Intrusion-tolerant configs keep their hurricane-only profile.
    let hurricane = profile(Figure::Fig6, C6);
    for arch in [C6, C6_6, C6P6P6] {
        let p = profile(Figure::Fig7, arch);
        assert!(p.approx_eq(&hurricane, TOL), "{arch:?} {p}");
    }
}

#[test]
fn fig8_isolation_kills_single_site_degrades_cold_backup() {
    // Single-control-center architectures: 100 % red.
    for arch in [C2, C6] {
        let p = profile(Figure::Fig8, arch);
        assert!((p.red() - 1.0).abs() < TOL, "{arch:?} {p}");
    }
    // Primary/cold-backup: orange where both sites survived.
    for arch in [C2_2, C6_6] {
        let p = profile(Figure::Fig8, arch);
        assert!((p.orange() - (1.0 - p_flood())).abs() < TOL, "{arch:?} {p}");
        assert!((p.red() - p_flood()).abs() < TOL, "{arch:?} {p}");
        assert_eq!(p.green(), 0.0, "{arch:?} {p}");
    }
    // Only 6+6+6 shows no degradation vs the hurricane alone.
    let p = profile(Figure::Fig8, C6P6P6);
    assert!(p.approx_eq(&profile(Figure::Fig6, C6P6P6), TOL), "{p}");
}

#[test]
fn fig9_full_compound_threat_ordering() {
    // "2"/"2-2": gray unless the hurricane already killed them.
    for arch in [C2, C2_2] {
        let p = profile(Figure::Fig9, arch);
        assert!((p.gray() - (1.0 - p_flood())).abs() < TOL, "{arch:?} {p}");
        assert!((p.red() - p_flood()).abs() < TOL, "{arch:?} {p}");
    }
    // "6": intrusion-tolerant but single-site -> always red.
    let p6 = profile(Figure::Fig9, C6);
    assert!((p6.red() - 1.0).abs() < TOL, "{p6}");
    // "6-6" is the minimum survivable configuration: orange.
    let p66 = profile(Figure::Fig9, C6_6);
    assert!((p66.orange() - (1.0 - p_flood())).abs() < TOL, "{p66}");
    // "6+6+6" keeps the hurricane-only profile but cannot beat it.
    let p666 = profile(Figure::Fig9, C6P6P6);
    assert!(
        p666.approx_eq(&profile(Figure::Fig6, C6P6P6), TOL),
        "{p666}"
    );
    assert!(
        p666.green() < 1.0,
        "no existing architecture is fully green under the compound threat"
    );
}

#[test]
fn fig10_kahe_backup_eliminates_red_for_backup_configs() {
    // Single-site configs unchanged by the siting choice.
    for arch in [C2, C6] {
        let p = profile(Figure::Fig10, arch);
        assert!(
            p.approx_eq(&profile(Figure::Fig6, arch), TOL),
            "{arch:?} {p}"
        );
    }
    // Cold-backup configs: every red realization becomes orange.
    for arch in [C2_2, C6_6] {
        let p = profile(Figure::Fig10, arch);
        assert_eq!(p.red(), 0.0, "{arch:?} {p}");
        assert!((p.orange() - p_flood()).abs() < TOL, "{arch:?} {p}");
        assert!((p.green() - (1.0 - p_flood())).abs() < TOL, "{arch:?} {p}");
    }
    // "6+6+6" becomes entirely green.
    let p = profile(Figure::Fig10, C6P6P6);
    assert!((p.green() - 1.0).abs() < TOL, "{p}");
}

#[test]
fn fig11_kahe_backup_under_intrusion() {
    // "2": unchanged from Fig. 7 (single site).
    let p2 = profile(Figure::Fig11, C2);
    assert!(p2.approx_eq(&profile(Figure::Fig7, C2), TOL), "{p2}");
    // "2-2": with Kahe there is *always* a functional server to
    // compromise: fully gray.
    let p22 = profile(Figure::Fig11, C2_2);
    assert!((p22.gray() - 1.0).abs() < TOL, "{p22}");
    // "6-6" uses the Kahe backup to convert red to orange.
    let p66 = profile(Figure::Fig11, C6_6);
    assert_eq!(p66.red(), 0.0, "{p66}");
    assert!((p66.orange() - p_flood()).abs() < TOL, "{p66}");
    // "6+6+6" maintains continuous availability: 100 % green.
    let p666 = profile(Figure::Fig11, C6P6P6);
    assert!((p666.green() - 1.0).abs() < TOL, "{p666}");
}

#[test]
fn headline_probability_close_to_paper() {
    // Paper: 90.5 % green / 9.5 % red. Ours is calibrated, not
    // copied; require agreement within 2.5 points.
    let base = profile(Figure::Fig6, C2);
    assert!(
        (base.green() - 0.905).abs() < 0.025,
        "green {} too far from the paper's 0.905",
        base.green()
    );
}

#[test]
fn scenario_severity_is_monotone_per_architecture() {
    // Adding attack capability never increases the green probability.
    for arch in [C2, C2_2, C6, C6_6, C6P6P6] {
        let hurricane = profile(Figure::Fig6, arch).green();
        let intrusion = profile(Figure::Fig7, arch).green();
        let isolation = profile(Figure::Fig8, arch).green();
        let both = profile(Figure::Fig9, arch).green();
        assert!(intrusion <= hurricane + TOL, "{arch:?}");
        assert!(isolation <= hurricane + TOL, "{arch:?}");
        assert!(both <= intrusion + TOL, "{arch:?}");
        assert!(both <= isolation + TOL, "{arch:?}");
    }
}

/// The 1000-realization figure CSV (`ct figures --csv`) of every
/// hazard, pinned by digest, and the exact number of storms that flood
/// the Honolulu control center. Any drift in the storm stream, the
/// kernels or the classification fails here instead of moving inside
/// a tolerance band.
#[test]
fn figure_csvs_and_honolulu_floods_are_pinned() {
    // The storm stream (`ct-rand`'s SplitMix64) is part of the hydro
    // kernel: a change to it must bump `HYDRO_KERNEL_VERSION`, so
    // stored realizations read as misses instead of aliasing.
    assert_eq!(ct_hydro::HYDRO_KERNEL_VERSION, 2);

    let set = study().realizations();
    let h = set.poi_index(ct_scada::oahu::HONOLULU_CC).unwrap();
    let floods = set.realizations().iter().filter(|r| r.flooded(h)).count();
    assert_eq!((floods, set.len()), (84, 1000));

    for (hazard, want) in [
        (HazardSpec::Surge, "5ad79f113eb58d3898dc2715c0b0e26b"),
        (HazardSpec::Wind, "80dd7655c2efbe5903186d88c594d215"),
        (HazardSpec::Compound, "d8773a49e71b8ae89ae6478743b0cdc5"),
    ] {
        let figures = reproduce_all(study_for(hazard)).expect("figures reproduce");
        let csv: String = figures.iter().map(figure_csv).collect();
        assert_eq!(digest(&csv), want, "{hazard} figure CSV drifted");
    }
}

/// Pins the bytes of `ct hazard --hazard <h> --full --realizations
/// 1000` for every hazard (sha256 `478f9936…`, `135a279b…`,
/// `29781fb8…`) and of `ct placement 6-6 compound` (`eda7f401…`),
/// through the library calls those commands print.
#[test]
fn hazard_realizations_and_placement_ranking_are_pinned() {
    for (hazard, want) in [
        (HazardSpec::Surge, "49d5f7772ee1245570cd2ebf81d20525"),
        (HazardSpec::Wind, "ef2be6c9a0c2ea79b2eccf6a89795974"),
        (HazardSpec::Compound, "76486e7eb3408bc8d9c7f20ae1415cad"),
    ] {
        let csv = realizations_to_csv(study_for(hazard).realizations());
        assert_eq!(digest(&csv), want, "{hazard} realizations drifted");
    }
    let ranking =
        rank_backup_sites(study(), C6_6, ThreatScenario::HurricaneIntrusionIsolation).unwrap();
    let table = placement_table(C6_6, ThreatScenario::HurricaneIntrusionIsolation, &ranking);
    assert_eq!(
        digest(&table),
        "6bde0a590f4e619d29e2ae755c335231",
        "placement ranking drifted"
    );
}
