//! Hurricane realizations: per-asset peak inundation outcomes.
//!
//! A [`RealizationSet`] is the hazard input the analysis framework
//! consumes — the direct analogue of the paper's 1000 ADCIRC
//! realizations tracked at the power-asset locations.

use crate::ensemble::StormParams;
use crate::error::HydroError;
use crate::inundation::{FloodThreshold, Poi};
use crate::parametric::ParametricSurge;
use crate::stations::StationId;

/// The outcome of one sampled hurricane: peak inundation depth (m) at
/// every point of interest, in POI order.
#[derive(Debug, Clone, PartialEq)]
pub struct Realization {
    /// Index within the ensemble.
    pub index: usize,
    /// Tide anomaly sampled for this storm (m).
    pub tide_m: f64,
    /// Largest station surge produced by this storm (diagnostics).
    pub max_station_surge_m: f64,
    /// Peak inundation depth per POI (m), parallel to the POI list.
    pub inundation_m: Vec<f64>,
}

impl Realization {
    /// Whether the POI at `poi_idx` fails under the paper's 0.5 m
    /// flood threshold ([`FloodThreshold::default`]).
    ///
    /// # Panics
    ///
    /// Panics if `poi_idx` is out of range.
    pub fn flooded(&self, poi_idx: usize) -> bool {
        FloodThreshold::default().is_flooded(self.inundation_m[poi_idx])
    }
}

/// A full hazard ensemble: POIs plus one [`Realization`] per storm.
#[derive(Debug, Clone, PartialEq)]
pub struct RealizationSet {
    pois: Vec<Poi>,
    realizations: Vec<Realization>,
}

impl RealizationSet {
    /// Assembles a set from pre-computed parts (used by parallel
    /// evaluators that compute [`Realization`]s on worker threads).
    ///
    /// # Panics
    ///
    /// Panics if any realization's inundation vector length differs
    /// from the POI count.
    pub fn from_parts(pois: Vec<Poi>, realizations: Vec<Realization>) -> Self {
        for r in &realizations {
            assert_eq!(
                r.inundation_m.len(),
                pois.len(),
                "realization/POI arity mismatch"
            );
        }
        Self { pois, realizations }
    }

    /// Evaluates a single storm against the POIs, each reading the
    /// surge of its station in `poi_stations` (from
    /// [`ParametricSurge::poi_stations`], computed once per POI set):
    /// the surge kernel behind `ct_hazard::SurgeHazard`, one storm per
    /// call so callers can spread an ensemble over worker threads.
    ///
    /// # Errors
    ///
    /// Propagates storm-parameter errors.
    ///
    /// # Panics
    ///
    /// If `poi_stations` and `pois` differ in length.
    pub fn evaluate_storm(
        index: usize,
        storm: &StormParams,
        model: &ParametricSurge,
        pois: &[Poi],
        poi_stations: &[StationId],
    ) -> Result<Realization, HydroError> {
        static REALIZATIONS: ct_obs::CachedCounter =
            ct_obs::CachedCounter::new(ct_obs::names::HYDRO_REALIZATIONS_EVALUATED);
        static POI_EVALUATIONS: ct_obs::CachedCounter =
            ct_obs::CachedCounter::new(ct_obs::names::HYDRO_POI_EVALUATIONS);
        let surge = model.station_surge(storm)?;
        let cal = model.calibration();
        assert_eq!(poi_stations.len(), pois.len(), "one station per POI");
        let inundation_m = pois
            .iter()
            .zip(poi_stations)
            .map(|(poi, &st)| poi.inundation_m(surge.get(st), cal))
            .collect();
        REALIZATIONS.add(1);
        POI_EVALUATIONS.add(pois.len() as u64);
        Ok(Realization {
            index,
            tide_m: storm.tide_m,
            max_station_surge_m: surge.max_surge_m(),
            inundation_m,
        })
    }

    /// Number of realizations.
    pub fn len(&self) -> usize {
        self.realizations.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.realizations.is_empty()
    }

    /// The tracked points of interest, in column order.
    pub fn pois(&self) -> &[Poi] {
        &self.pois
    }

    /// The realizations.
    pub fn realizations(&self) -> &[Realization] {
        &self.realizations
    }

    /// The flood threshold used by the failure queries: the paper's
    /// 0.5 m switch height.
    pub fn threshold(&self) -> FloodThreshold {
        FloodThreshold::default()
    }

    /// Column index of a POI by id.
    pub fn poi_index(&self, id: &str) -> Option<usize> {
        self.pois.iter().position(|p| p.id == id)
    }

    /// Fraction of realizations in which the POI floods.
    ///
    /// # Panics
    ///
    /// Panics if `poi_idx` is out of range.
    pub fn flood_fraction(&self, poi_idx: usize) -> f64 {
        assert!(poi_idx < self.pois.len(), "poi index out of range");
        if self.realizations.is_empty() {
            return 0.0;
        }
        let n = self
            .realizations
            .iter()
            .filter(|r| r.flooded(poi_idx))
            .count();
        n as f64 / self.realizations.len() as f64
    }

    /// Per-POI failure mask for one realization.
    ///
    /// # Panics
    ///
    /// Panics if `realization_idx` is out of range.
    pub fn flooded_mask(&self, realization_idx: usize) -> Vec<bool> {
        let r = &self.realizations[realization_idx];
        (0..self.pois.len()).map(|i| r.flooded(i)).collect()
    }

    /// Fraction of realizations in which POI `a` floods but POI `b`
    /// does not — zero means `b` always fails together with `a`
    /// (the correlation structure the paper's siting analysis hinges
    /// on).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn exclusive_flood_fraction(&self, a: usize, b: usize) -> f64 {
        if self.realizations.is_empty() {
            return 0.0;
        }
        let n = self
            .realizations
            .iter()
            .filter(|r| r.flooded(a) && !r.flooded(b))
            .count();
        n as f64 / self.realizations.len() as f64
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ct_geo::terrain::{synthesize_oahu, OahuTerrainConfig};
    use ct_geo::LatLon;

    /// Default-calibration surge realizations of the first `n` storms
    /// of the default ensemble at two POIs named `ids`: Honolulu's
    /// waterfront, then Kahe.
    pub(crate) fn surge_set(ids: [&str; 2], n: usize) -> RealizationSet {
        use crate::{EnsembleConfig, Stations, SurgeCalibration, TrackEnsemble};
        let dem = synthesize_oahu(&OahuTerrainConfig::default());
        let pois = vec![
            Poi::from_dem(ids[0], LatLon::new(21.307, -157.858), &dem).unwrap(),
            Poi::from_dem(ids[1], LatLon::new(21.356, -158.122), &dem).unwrap(),
        ];
        let model = ParametricSurge::new(Stations::from_dem(&dem), SurgeCalibration::default());
        let config = EnsembleConfig {
            realizations: n,
            ..EnsembleConfig::default()
        };
        let storms = TrackEnsemble::new(config).unwrap().generate();
        let poi_stations = model.poi_stations(&pois);
        let realizations = storms
            .iter()
            .enumerate()
            .map(|(i, storm)| {
                RealizationSet::evaluate_storm(i, storm, &model, &pois, &poi_stations).unwrap()
            })
            .collect();
        RealizationSet::from_parts(pois, realizations)
    }

    fn small_set() -> RealizationSet {
        surge_set(["honolulu-cc", "kahe"], 60)
    }

    #[test]
    fn shapes_and_lookup() {
        let set = small_set();
        assert_eq!(set.len(), 60);
        assert!(!set.is_empty());
        assert_eq!(set.pois().len(), 2);
        assert_eq!(set.poi_index("honolulu-cc"), Some(0));
        assert_eq!(set.poi_index("nope"), None);
        for r in set.realizations() {
            assert_eq!(r.inundation_m.len(), 2);
            for &d in &r.inundation_m {
                assert!(d >= 0.0 && d.is_finite());
            }
        }
    }

    #[test]
    fn kahe_floods_less_than_honolulu() {
        let set = small_set();
        let h = set.flood_fraction(0);
        let k = set.flood_fraction(1);
        assert!(
            k <= h,
            "kahe {k} should flood no more often than honolulu {h}"
        );
        assert_eq!(k, 0.0, "elevated Kahe should never flood, got {k}");
    }

    #[test]
    fn mask_matches_flood_fraction() {
        let set = small_set();
        let mut count = 0;
        for i in 0..set.len() {
            if set.flooded_mask(i)[0] {
                count += 1;
            }
        }
        assert!((set.flood_fraction(0) - count as f64 / set.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn exclusive_flood_fraction_bounds() {
        let set = small_set();
        let x = set.exclusive_flood_fraction(0, 1);
        assert!((0.0..=1.0).contains(&x));
        // Kahe never floods, so "honolulu floods and kahe doesn't" is
        // exactly honolulu's flood fraction.
        assert!((x - set.flood_fraction(0)).abs() < 1e-12);
    }
}
