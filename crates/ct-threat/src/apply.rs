//! Applying hazard realizations to a sited architecture
//! (the "Apply Natural Disaster Impact" stage of Fig. 5).
//!
//! The realizations may come from any hazard engine — storm surge,
//! wind fragility, or a compound of both. Every engine reports
//! per-asset severity on the set's threshold-comparable axis, so this
//! stage (and the attacker that consumes its failure sets) is hazard
//! agnostic: a control site is lost when its severity exceeds the
//! set's threshold, whatever physical channel produced it.

use crate::state::PostDisasterState;
use ct_hydro::RealizationSet;
use ct_scada::{ScadaError, SitePlan};

/// Derives the post-disaster state for every realization in the set:
/// a control site is knocked out when its asset's peak severity
/// (surge inundation, wind-fragility exceedance, or their compound)
/// exceeds the failure threshold.
///
/// # Errors
///
/// Returns [`ScadaError::UnknownAsset`] if a control-site asset has no
/// matching POI column in the realization set.
pub fn post_disaster_states(
    plan: &SitePlan,
    set: &RealizationSet,
) -> Result<Vec<PostDisasterState>, ScadaError> {
    let columns = site_columns(plan, set)?;
    Ok(set
        .realizations()
        .iter()
        .map(|r| {
            let flooded = columns.iter().map(|&c| r.flooded(c)).collect();
            PostDisasterState::new(plan.architecture(), flooded)
        })
        .collect())
}

/// Collapses the per-realization post-disaster states into a
/// histogram: each distinct flood pattern with its multiplicity,
/// ordered by ascending flood bitmask (site 0, the primary, in the
/// least-significant bit).
///
/// An architecture has at most three control sites, so at most eight
/// distinct states exist while ensembles run to thousands of
/// realizations. Downstream per-state work (attacker search,
/// classification) can therefore be evaluated once per distinct state
/// and weighted by count — the multiset of expanded entries is
/// exactly the output of [`post_disaster_states`].
///
/// # Errors
///
/// Returns [`ScadaError::UnknownAsset`] if a control-site asset has no
/// matching POI column in the realization set.
pub fn post_disaster_histogram(
    plan: &SitePlan,
    set: &RealizationSet,
) -> Result<Vec<(PostDisasterState, usize)>, ScadaError> {
    let columns = site_columns(plan, set)?;
    let sites = columns.len();
    let mut counts = vec![0usize; 1 << sites];
    for r in set.realizations() {
        let mut mask = 0usize;
        for (s, &c) in columns.iter().enumerate() {
            if r.flooded(c) {
                mask |= 1 << s;
            }
        }
        counts[mask] += 1;
    }
    Ok(counts
        .into_iter()
        .enumerate()
        .filter(|&(_, n)| n > 0)
        .map(|(mask, n)| {
            let flooded = (0..sites).map(|s| mask & (1 << s) != 0).collect();
            (PostDisasterState::new(plan.architecture(), flooded), n)
        })
        .collect())
}

/// Resolves each control-site asset to its POI column in the set.
fn site_columns(plan: &SitePlan, set: &RealizationSet) -> Result<Vec<usize>, ScadaError> {
    plan.site_asset_ids()
        .iter()
        .map(|id| {
            set.poi_index(id)
                .ok_or_else(|| ScadaError::UnknownAsset { id: id.clone() })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_geo::terrain::{synthesize_oahu, OahuTerrainConfig};
    use ct_geo::Dem;
    use ct_hazard::{HazardModel, SurgeHazard};
    use ct_hydro::{
        EnsembleConfig, ParametricSurge, Poi, Stations, SurgeCalibration, TrackEnsemble,
    };
    use ct_scada::{oahu, Architecture};

    /// Default-calibration surge realizations of the first `n` storms
    /// of the default ensemble at `pois`.
    fn surge_set(dem: &Dem, pois: Vec<Poi>, n: usize) -> RealizationSet {
        let model = ParametricSurge::new(Stations::from_dem(dem), SurgeCalibration::default());
        let hazard = SurgeHazard::new(model);
        let config = EnsembleConfig {
            realizations: n,
            ..EnsembleConfig::default()
        };
        let storms = TrackEnsemble::new(config).unwrap().generate();
        let realizations = storms
            .iter()
            .enumerate()
            .map(|(i, storm)| hazard.evaluate(i, storm, &pois).unwrap())
            .collect();
        RealizationSet::from_parts(pois, realizations)
    }

    #[test]
    fn states_follow_flood_columns() {
        let dem = synthesize_oahu(&OahuTerrainConfig::default());
        let topo = oahu::topology();
        let set = surge_set(&dem, topo.to_pois(&dem).unwrap(), 80);
        let plan = oahu::site_plan(Architecture::C2_2, oahu::SiteChoice::Waiau).unwrap();
        let states = post_disaster_states(&plan, &set).unwrap();
        assert_eq!(states.len(), 80);
        // Cross-check one column against the set's own flood mask.
        let h = set.poi_index(oahu::HONOLULU_CC).unwrap();
        for (r, s) in states.iter().enumerate() {
            assert_eq!(s.flooded()[0], set.flooded_mask(r)[h]);
        }
    }

    #[test]
    fn histogram_matches_states_multiset() {
        use ct_hydro::Realization;

        let dem = synthesize_oahu(&OahuTerrainConfig::default());
        let topo = oahu::topology();
        let pois = topo.to_pois(&dem).unwrap();
        let plan = oahu::site_plan(Architecture::C2_2, oahu::SiteChoice::Waiau).unwrap();
        let h = pois.iter().position(|p| p.id == oahu::HONOLULU_CC).unwrap();
        let w = pois.iter().position(|p| p.id == oahu::WAIAU).unwrap();
        // Hand-crafted rows with skewed multiplicities: neither site
        // (10), primary only (35), both (5).
        let mut realizations = Vec::new();
        for i in 0..50 {
            let mut inundation_m = vec![0.0; pois.len()];
            if i % 5 != 0 {
                inundation_m[h] = 2.0;
            }
            if i % 10 == 3 {
                inundation_m[w] = 1.5;
            }
            realizations.push(Realization {
                index: i,
                tide_m: 0.0,
                max_station_surge_m: 0.0,
                inundation_m,
            });
        }
        let set = RealizationSet::from_parts(pois, realizations);

        let states = post_disaster_states(&plan, &set).unwrap();
        let hist = post_disaster_histogram(&plan, &set).unwrap();
        assert_eq!(hist.iter().map(|(_, n)| n).sum::<usize>(), states.len());
        for (state, n) in &hist {
            assert_eq!(
                states.iter().filter(|s| *s == state).count(),
                *n,
                "multiplicity mismatch for {state:?}"
            );
        }
        assert!(hist.len() >= 3, "several distinct patterns expected");
        // Deterministic ascending-bitmask order, no duplicates.
        let masks: Vec<usize> = hist
            .iter()
            .map(|(s, _)| {
                s.flooded()
                    .iter()
                    .enumerate()
                    .map(|(i, &f)| usize::from(f) << i)
                    .sum()
            })
            .collect();
        assert!(masks.windows(2).all(|m| m[0] < m[1]), "order: {masks:?}");
    }

    #[test]
    fn unknown_asset_errors() {
        let dem = synthesize_oahu(&OahuTerrainConfig::default());
        let topo = oahu::topology();
        // POIs missing the control sites entirely.
        let set = surge_set(&dem, vec![], 3);
        let plan = oahu::site_plan(Architecture::C2, oahu::SiteChoice::Waiau).unwrap();
        let err = post_disaster_states(&plan, &set).unwrap_err();
        assert!(matches!(err, ScadaError::UnknownAsset { .. }));
        let _ = topo;
    }
}
