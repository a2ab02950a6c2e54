//! Grid-impact extension: the physical power-grid consequences of the
//! same compound threats.
//!
//! The paper explicitly scopes grid damage out ("we do not currently
//! consider these in our model, as we focus on the SCADA control
//! system"). This module adds it back: the same hurricane realizations
//! that flood control sites also damage transmission lines (wind
//! fragility) and substations (flooding); an overload cascade settles
//! the grid; and the result is joined with the SCADA operational state
//! to quantify *compound blindness* — realizations where the grid is
//! badly damaged exactly when its control system cannot operate.

use crate::error::CoreError;
use crate::parallel::{default_threads, par_map_dynamic};
use crate::pipeline::CaseStudy;
use ct_grid::{oahu as grid_oahu, simulate_cascade, DamageModel, GridNetwork};
use ct_hydro::{ScanSites, TrackEnsemble};
use ct_scada::{oahu, Architecture};
use ct_threat::{
    classify, post_disaster_states, Attacker, OperationalState, ThreatScenario, WorstCaseAttacker,
};
use std::collections::BTreeSet;

/// Configuration of the grid-impact analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct GridImpactConfig {
    /// Fragility model for hurricane damage.
    pub(crate) damage: DamageModel,
    /// Whether overloaded lines trip iteratively after the damage.
    pub(crate) cascade: bool,
    /// Served fraction below which a realization counts as a *major*
    /// loss of load.
    pub(crate) major_loss_threshold: f64,
}

impl Default for GridImpactConfig {
    fn default() -> Self {
        Self {
            damage: DamageModel::default(),
            cascade: true,
            major_loss_threshold: 0.9,
        }
    }
}

/// Per-ensemble summary of grid damage, under both operator models.
///
/// *Supervised*: the control room is operational and arrests thermal
/// overloads by emergency load shedding. *Blind*: SCADA is down, so
/// overloads trip lines in an unchecked cascade. The gap between the
/// two columns is the physical value of a functioning SCADA system.
#[derive(Debug, Clone, PartialEq)]
pub struct GridImpactSummary {
    /// Served fraction per realization with SCADA-directed shedding.
    pub(crate) served_supervised: Vec<f64>,
    /// Served fraction per realization with the unchecked cascade.
    pub served_blind: Vec<f64>,
    /// Lines tripped by cascading overloads, per realization (blind
    /// model).
    pub cascade_trips: Vec<usize>,
}

impl GridImpactSummary {
    fn mean(v: &[f64]) -> f64 {
        if v.is_empty() {
            1.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    }

    /// Mean served fraction with an operational control room.
    pub fn mean_served_supervised(&self) -> f64 {
        Self::mean(&self.served_supervised)
    }

    /// Mean served fraction with SCADA down (unchecked cascades).
    pub fn mean_served_blind(&self) -> f64 {
        Self::mean(&self.served_blind)
    }

    /// Probability that the *blind* served fraction falls below
    /// `threshold`.
    pub fn p_loss_below(&self, threshold: f64) -> f64 {
        if self.served_blind.is_empty() {
            return 0.0;
        }
        self.served_blind.iter().filter(|&&f| f < threshold).count() as f64
            / self.served_blind.len() as f64
    }
}

/// Joint statistics of grid damage and SCADA operational state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlindGridStats {
    /// P(major load loss).
    pub p_grid_damaged: f64,
    /// P(SCADA not fully operational: orange, red or gray).
    pub p_scada_degraded: f64,
    /// P(both at once) — the compound-blindness probability.
    pub p_joint: f64,
    /// `p_joint / (p_grid_damaged * p_scada_degraded)`; above 1 means
    /// the hurricane correlates grid damage with SCADA outage (it
    /// does: the same storms cause both).
    pub correlation_lift: f64,
}

/// Evaluates grid damage for every realization in the study's
/// ensemble (in parallel).
///
/// # Errors
///
/// Propagates ensemble regeneration and power-flow errors.
pub fn grid_impact(
    study: &CaseStudy,
    config: &GridImpactConfig,
) -> Result<GridImpactSummary, CoreError> {
    let grid = grid_oahu::grid();
    // Regenerate the storms the study was evaluated under.
    let storms = TrackEnsemble::new(study.config().ensemble.clone())?.generate();
    let set = study.realizations();
    assert_eq!(
        storms.len(),
        set.len(),
        "ensemble must match the study's realizations"
    );
    let threads = if study.config().threads == 0 {
        default_threads()
    } else {
        study.config().threads
    };
    // Line midpoints are storm-invariant: prepare their scan sites once
    // and share them across workers (bit-identical to
    // `DamageModel::sample`, which prepares them per storm — see the
    // ct-grid equivalence tests).
    let midpoints = DamageModel::scan_sites(DamageModel::line_midpoints(&grid));
    let indexed: Vec<usize> = (0..storms.len()).collect();
    let per: Vec<Result<(f64, f64, usize), CoreError>> = par_map_dynamic(&indexed, threads, |&r| {
        evaluate_one(&grid, config, study, &storms[r], r, &midpoints)
    });
    let mut served_supervised = Vec::with_capacity(per.len());
    let mut served_blind = Vec::with_capacity(per.len());
    let mut cascade_trips = Vec::with_capacity(per.len());
    for item in per {
        let (supervised, blind, trips) = item?;
        served_supervised.push(supervised);
        served_blind.push(blind);
        cascade_trips.push(trips);
    }
    Ok(GridImpactSummary {
        served_supervised,
        served_blind,
        cascade_trips,
    })
}

fn evaluate_one(
    grid: &GridNetwork,
    config: &GridImpactConfig,
    study: &CaseStudy,
    storm: &ct_hydro::StormParams,
    realization: usize,
    midpoints: &ScanSites,
) -> Result<(f64, f64, usize), CoreError> {
    // Flooded buses: any grid bus whose namesake asset flooded.
    let set = study.realizations();
    let mask = set.flooded_mask(realization);
    let flooded: BTreeSet<String> = set
        .pois()
        .iter()
        .zip(&mask)
        .filter(|(_, &f)| f)
        .map(|(p, _)| p.id.clone())
        .collect();
    let peaks = config.damage.peak_winds(storm, midpoints)?;
    let damage = config
        .damage
        .sample_with_peaks(grid, &flooded, realization, &peaks);
    let state = ct_grid::dc_power_flow(grid, &damage.outages)?;
    let total = state.total_demand_mw.max(1e-9);
    let shed = state.served_after_emergency_shedding(grid) / total;
    // Blind: the cascade runs unchecked.
    let (blind, trips) = if config.cascade {
        let outcome = simulate_cascade(grid, &damage.outages)?;
        (outcome.served_fraction(), outcome.tripped.len())
    } else {
        (state.served_fraction(), 0)
    };
    // Supervised: operators can shed load to hold the network
    // together *or* deliberately open the congested line when the
    // rerouted network serves more — whichever keeps more load.
    let supervised = shed.max(blind);
    Ok((supervised, blind, trips))
}

/// Expected served fraction when the grid's operator response depends
/// on the SCADA operational state: realizations where the SCADA
/// system is fully operational (green) get the supervised outcome,
/// all others the blind cascade — the physical cost of losing the
/// control system, per architecture.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn expected_served_with_scada(
    study: &CaseStudy,
    summary: &GridImpactSummary,
    architecture: Architecture,
    scenario: ThreatScenario,
    choice: oahu::SiteChoice,
) -> Result<f64, CoreError> {
    let plan = oahu::site_plan(architecture, choice)?;
    let posts = post_disaster_states(&plan, study.realizations())?;
    assert_eq!(posts.len(), summary.served_blind.len());
    let budget = scenario.budget();
    let mut acc = 0.0;
    for (r, post) in posts.iter().enumerate() {
        let state = classify(&WorstCaseAttacker.attack(architecture, post, budget));
        acc += if state == OperationalState::Green {
            summary.served_supervised[r]
        } else {
            summary.served_blind[r]
        };
    }
    Ok(acc / posts.len() as f64)
}

/// Joins grid damage with the SCADA operational state for an
/// architecture/scenario/siting, per realization.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn blind_grid_stats(
    study: &CaseStudy,
    summary: &GridImpactSummary,
    architecture: Architecture,
    scenario: ThreatScenario,
    choice: oahu::SiteChoice,
    config: &GridImpactConfig,
) -> Result<BlindGridStats, CoreError> {
    let plan = oahu::site_plan(architecture, choice)?;
    let posts = post_disaster_states(&plan, study.realizations())?;
    assert_eq!(posts.len(), summary.served_blind.len());
    let budget = scenario.budget();
    let n = posts.len() as f64;
    let mut damaged = 0usize;
    let mut degraded = 0usize;
    let mut joint = 0usize;
    for (post, &served) in posts.iter().zip(&summary.served_blind) {
        let state = classify(&WorstCaseAttacker.attack(architecture, post, budget));
        let is_damaged = served < config.major_loss_threshold;
        let is_degraded = state != OperationalState::Green;
        damaged += usize::from(is_damaged);
        degraded += usize::from(is_degraded);
        joint += usize::from(is_damaged && is_degraded);
    }
    let p_grid_damaged = damaged as f64 / n;
    let p_scada_degraded = degraded as f64 / n;
    let p_joint = joint as f64 / n;
    let denom = p_grid_damaged * p_scada_degraded;
    Ok(BlindGridStats {
        p_grid_damaged,
        p_scada_degraded,
        p_joint,
        correlation_lift: if denom > 0.0 { p_joint / denom } else { 0.0 },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::CaseStudyConfig;
    use std::sync::OnceLock;

    fn study() -> &'static CaseStudy {
        static STUDY: OnceLock<CaseStudy> = OnceLock::new();
        STUDY.get_or_init(|| {
            CaseStudy::build(&CaseStudyConfig::builder().realizations(60).build().unwrap()).unwrap()
        })
    }

    fn summary() -> &'static GridImpactSummary {
        static SUMMARY: OnceLock<GridImpactSummary> = OnceLock::new();
        SUMMARY.get_or_init(|| grid_impact(study(), &GridImpactConfig::default()).unwrap())
    }

    #[test]
    fn shapes_and_ranges() {
        let s = summary();
        assert_eq!(s.served_blind.len(), 60);
        assert_eq!(s.served_supervised.len(), 60);
        for &f in s.served_blind.iter().chain(&s.served_supervised) {
            assert!((0.0..=1.0 + 1e-9).contains(&f), "served {f}");
        }
        assert!((0.0..=1.0).contains(&s.mean_served_blind()));
    }

    #[test]
    fn supervision_never_hurts() {
        // Emergency shedding keeps at least as much load as an
        // unchecked cascade, realization by realization.
        let s = summary();
        for (sup, blind) in s.served_supervised.iter().zip(&s.served_blind) {
            assert!(sup + 1e-9 >= *blind, "supervised {sup} below blind {blind}");
        }
        assert!(s.mean_served_supervised() >= s.mean_served_blind());
    }

    #[test]
    fn expected_served_rewards_resilient_architectures() {
        let s = summary();
        let served_2 = expected_served_with_scada(
            study(),
            s,
            Architecture::C2,
            ThreatScenario::HurricaneIsolation,
            oahu::SiteChoice::Waiau,
        )
        .unwrap();
        let served_666 = expected_served_with_scada(
            study(),
            s,
            Architecture::C6P6P6,
            ThreatScenario::HurricaneIsolation,
            oahu::SiteChoice::Waiau,
        )
        .unwrap();
        // "2" is always red under isolation (blind); "6+6+6" keeps the
        // control room up in ~90% of realizations.
        assert!(served_666 >= served_2, "6+6+6 {served_666} vs 2 {served_2}");
    }

    #[test]
    fn some_realizations_damage_the_grid() {
        // A Category 2 ensemble over the island must hurt sometimes.
        let s = summary();
        assert!(
            s.p_loss_below(0.999) > 0.02,
            "grid never damaged: mean {}",
            s.mean_served_blind()
        );
        // ...but most realizations pass far away.
        assert!(
            s.p_loss_below(0.5) < 0.7,
            "grid nearly always halved: too fragile"
        );
    }

    #[test]
    fn cascades_occur_but_do_not_dominate() {
        let s = summary();
        let with_trips = s.cascade_trips.iter().filter(|&&t| t > 0).count();
        assert!(with_trips < 60, "every realization cascades");
    }

    #[test]
    fn blind_grid_joint_probability_is_consistent() {
        let stats = blind_grid_stats(
            study(),
            summary(),
            Architecture::C2,
            ThreatScenario::Hurricane,
            oahu::SiteChoice::Waiau,
            &GridImpactConfig::default(),
        )
        .unwrap();
        assert!(stats.p_joint <= stats.p_grid_damaged + 1e-12);
        assert!(stats.p_joint <= stats.p_scada_degraded + 1e-12);
        assert!((0.0..=1.0).contains(&stats.p_joint));
    }

    #[test]
    fn grid_damage_correlates_with_scada_outage() {
        // The same storms flood the control center and break the
        // grid: the joint probability should exceed the independent
        // product whenever both events occur at all.
        let stats = blind_grid_stats(
            study(),
            summary(),
            Architecture::C2,
            ThreatScenario::Hurricane,
            oahu::SiteChoice::Waiau,
            &GridImpactConfig::default(),
        )
        .unwrap();
        if stats.p_joint > 0.0 {
            assert!(
                stats.correlation_lift >= 1.0,
                "expected positive correlation, lift {}",
                stats.correlation_lift
            );
        }
    }
}
