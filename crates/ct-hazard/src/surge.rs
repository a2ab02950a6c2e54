//! The storm-surge hazard: the paper's original flood channel, now
//! behind the [`HazardModel`] seam.

use crate::model::HazardModel;
use crate::prepared::PoiPrepared;
use ct_hydro::{
    HydroError, ParametricSurge, Poi, Realization, RealizationSet, StationId, StormParams,
};
use ct_store::StableHasher;

/// Storm-surge inundation evaluated by the calibrated parametric
/// surge model. Severity is the peak inundation depth in metres at
/// each asset — exactly the quantity the pre-trait pipeline computed,
/// and [`SurgeHazard::evaluate`] delegates to the same
/// [`RealizationSet::evaluate_storm`] kernel, so the output is
/// bit-identical to the hard-wired path (pinned by the
/// `hazard_engine` equivalence tests). Each POI's station is found once
/// per POI set, not once per storm.
#[derive(Debug, Clone)]
pub struct SurgeHazard {
    model: ParametricSurge,
    poi_stations: PoiPrepared<Vec<StationId>>,
}

impl SurgeHazard {
    /// Wraps a calibrated surge model.
    pub fn new(model: ParametricSurge) -> Self {
        Self {
            model,
            poi_stations: PoiPrepared::default(),
        }
    }
}

impl HazardModel for SurgeHazard {
    fn hazard_id(&self) -> String {
        "surge".to_string()
    }

    /// The calibration, then every station in list order (the order
    /// settles nearest-station ties) and the harbor amplification.
    fn digest_params(&self, h: &mut StableHasher) {
        let c = self.model.calibration();
        h.write_f64(c.setup_coefficient);
        h.write_f64(c.ib_m_per_hpa);
        h.write_f64(c.ib_decay_km);
        h.write_f64(c.wave_setup_fraction);
        h.write_f64(c.attenuation_m_per_km);
        h.write_f64(c.scan_step_hours);
        let stations = self.model.stations();
        h.write_usize(stations.iter().count());
        for st in stations.iter() {
            h.write_str(&format!("{:?}", st.id));
            h.write_f64(st.pos.lat);
            h.write_f64(st.pos.lon);
            h.write_f64(st.onshore_bearing_deg);
            h.write_f64(st.shelf_factor);
        }
        h.write_f64(stations.harbor_amplification);
    }

    fn evaluate(
        &self,
        index: usize,
        storm: &StormParams,
        pois: &[Poi],
    ) -> Result<Realization, HydroError> {
        self.poi_stations.with(
            pois,
            |pois| self.model.poi_stations(pois),
            |stations| RealizationSet::evaluate_storm(index, storm, &self.model, pois, stations),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_geo::terrain::{synthesize_oahu, OahuTerrainConfig};
    use ct_hydro::{Stations, SurgeCalibration};

    fn digest(stations: Stations, cal: SurgeCalibration) -> ct_store::Digest {
        let mut h = StableHasher::new();
        SurgeHazard::new(ParametricSurge::new(stations, cal)).digest_params(&mut h);
        h.finish()
    }

    #[test]
    fn digest_is_calibration_sensitive() {
        let stations = Stations::from_dem(&synthesize_oahu(&OahuTerrainConfig::default()));
        let base = digest(stations.clone(), SurgeCalibration::default());
        assert_eq!(base, digest(stations.clone(), SurgeCalibration::default()));
        let mut other = SurgeCalibration::default();
        other.ib_m_per_hpa *= 2.0;
        assert_ne!(base, digest(stations, other));
    }

    /// The stations are surge parameters: store keys no longer hash
    /// the DEM they are measured on, so the digest must cover them.
    #[test]
    fn digest_is_shelf_factor_sensitive() {
        let stations = Stations::from_dem(&synthesize_oahu(&OahuTerrainConfig::default()));
        let cal = SurgeCalibration::default();
        let base = digest(stations.clone(), cal);
        let mut parts: Vec<_> = stations.iter().copied().collect();
        parts[3].shelf_factor *= 1.01;
        let nudged = Stations::from_parts(parts, stations.harbor_amplification).unwrap();
        assert_ne!(base, digest(nudged, cal));
    }
}
