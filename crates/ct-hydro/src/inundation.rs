//! Points of interest and the flood-failure criterion.

use crate::error::HydroError;
use crate::parametric::SurgeCalibration;
use crate::stations::StationId;
use ct_geo::{Dem, LatLon};

/// The paper's asset-failure criterion: equipment fails when peak
/// inundation exceeds the typical switch height in plants and
/// substations — 0.5 m (2 ft).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloodThreshold {
    depth_m: f64,
}

impl FloodThreshold {
    /// Creates a threshold at the given depth (m).
    ///
    /// # Errors
    ///
    /// Returns [`HydroError::InvalidParameter`] for negative or
    /// non-finite depths.
    pub fn new(depth_m: f64) -> Result<Self, HydroError> {
        if !depth_m.is_finite() || depth_m < 0.0 {
            return Err(HydroError::InvalidParameter {
                name: "flood threshold depth",
                value: depth_m,
            });
        }
        Ok(Self { depth_m })
    }

    /// The threshold depth in metres.
    pub fn depth_m(&self) -> f64 {
        self.depth_m
    }

    /// Whether an inundation depth constitutes asset failure.
    pub fn is_flooded(&self, inundation_m: f64) -> bool {
        inundation_m > self.depth_m
    }
}

impl Default for FloodThreshold {
    /// The paper's 0.5 m switch-height threshold.
    fn default() -> Self {
        Self { depth_m: 0.5 }
    }
}

/// A point of interest: a location whose peak inundation is tracked
/// per realization (in the case study, every SCADA control site).
#[derive(Debug, Clone, PartialEq)]
pub struct Poi {
    /// Stable identifier (e.g. `"honolulu-cc"`).
    pub id: String,
    /// Geographic position.
    pub pos: LatLon,
    /// Ground elevation, metres above MSL.
    pub ground_elevation_m: f64,
    /// Distance to the nearest coastline, km (surge attenuates over
    /// this distance).
    pub shore_distance_km: f64,
    /// Explicit coastal-station assignment. `None` uses the nearest
    /// station; hydraulically-coupled assets (e.g. a harbor-side plant
    /// that floods as part of the adjacent coastal plain) can pin a
    /// station instead.
    pub station_override: Option<StationId>,
}

impl Poi {
    /// Creates a POI by sampling elevation and shore distance from a
    /// DEM.
    ///
    /// # Errors
    ///
    /// Returns [`HydroError::PoiOutsideDomain`] when the point is
    /// outside the raster, or [`HydroError::PoiInSea`] when it falls
    /// in the water.
    pub fn from_dem(id: impl Into<String>, pos: LatLon, dem: &Dem) -> Result<Self, HydroError> {
        let id = id.into();
        let elev = dem
            .elevation_at(pos)
            .map_err(|_| HydroError::PoiOutsideDomain { id: id.clone() })?;
        if elev <= 0.0 {
            return Err(HydroError::PoiInSea { id });
        }
        let shore = dem
            .distance_to_shore_km(pos)
            .map_err(|_| HydroError::PoiOutsideDomain { id: id.clone() })?;
        Ok(Self {
            id,
            pos,
            ground_elevation_m: elev,
            shore_distance_km: shore,
            station_override: None,
        })
    }

    /// Creates a POI with explicit elevation and shore distance
    /// (useful for tests and hypothetical siting studies).
    pub fn with_site_profile(
        id: impl Into<String>,
        pos: LatLon,
        ground_elevation_m: f64,
        shore_distance_km: f64,
    ) -> Self {
        Self {
            id: id.into(),
            pos,
            ground_elevation_m,
            shore_distance_km,
            station_override: None,
        }
    }

    /// Inundation depth (m) at this POI given the peak water-surface
    /// elevation at its assigned coastal station.
    ///
    /// The surge head attenuates linearly with distance inland, then
    /// floods whatever is left above the ground elevation. Never
    /// negative.
    pub fn inundation_m(&self, station_surge_m: f64, cal: &SurgeCalibration) -> f64 {
        let at_site = station_surge_m - cal.attenuation_m_per_km * self.shore_distance_km;
        (at_site - self.ground_elevation_m).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_geo::terrain::{synthesize_oahu, OahuTerrainConfig};

    #[test]
    fn threshold_validation_and_default() {
        assert!(FloodThreshold::new(-0.1).is_err());
        assert!(FloodThreshold::new(f64::NAN).is_err());
        let t = FloodThreshold::default();
        assert_eq!(t.depth_m(), 0.5);
        assert!(t.is_flooded(0.51));
        assert!(!t.is_flooded(0.5));
        assert!(!t.is_flooded(0.0));
    }

    #[test]
    fn poi_from_dem_reads_terrain() {
        let dem = synthesize_oahu(&OahuTerrainConfig::default());
        let poi = Poi::from_dem("honolulu-cc", LatLon::new(21.307, -157.858), &dem).unwrap();
        assert!(poi.ground_elevation_m > 0.5);
        assert!(poi.shore_distance_km > 0.5);
    }

    #[test]
    fn poi_in_sea_rejected() {
        let dem = synthesize_oahu(&OahuTerrainConfig::default());
        let err = Poi::from_dem("boat", LatLon::new(21.15, -158.0), &dem).unwrap_err();
        assert!(matches!(err, HydroError::PoiInSea { .. }));
    }

    #[test]
    fn poi_outside_domain_rejected() {
        let dem = synthesize_oahu(&OahuTerrainConfig::default());
        let err = Poi::from_dem("maui", LatLon::new(20.8, -156.3), &dem).unwrap_err();
        assert!(matches!(err, HydroError::PoiOutsideDomain { .. }));
    }

    #[test]
    fn inundation_attenuates_inland() {
        let cal = SurgeCalibration::default();
        let near = Poi::with_site_profile("a", LatLon::new(21.3, -157.9), 1.0, 0.2);
        let far = Poi::with_site_profile("b", LatLon::new(21.3, -157.9), 1.0, 4.0);
        let surge = 3.0;
        assert!(near.inundation_m(surge, &cal) > far.inundation_m(surge, &cal));
    }

    #[test]
    fn inundation_never_negative() {
        let cal = SurgeCalibration::default();
        let high = Poi::with_site_profile("ridge", LatLon::new(21.4, -158.1), 300.0, 5.0);
        assert_eq!(high.inundation_m(4.0, &cal), 0.0);
        assert_eq!(high.inundation_m(-1.0, &cal), 0.0);
    }

    #[test]
    fn elevation_dominates_flooding() {
        let cal = SurgeCalibration::default();
        let low = Poi::with_site_profile("low", LatLon::new(21.3, -157.9), 1.0, 1.0);
        let high = Poi::with_site_profile("high", LatLon::new(21.3, -157.9), 9.0, 1.0);
        let surge = 3.0;
        assert!(FloodThreshold::default().is_flooded(low.inundation_m(surge, &cal)));
        assert!(!FloodThreshold::default().is_flooded(high.inundation_m(surge, &cal)));
    }
}
