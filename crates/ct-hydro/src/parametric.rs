//! Fast parametric storm-surge model.
//!
//! Computes peak surge at each coastal reference station as the sum of
//! wind setup (proportional to the square of the peak onshore wind,
//! amplified by the station's shelf factor), wave setup, the inverse
//! barometer effect, and the sampled tide. This is the model used for
//! the 1000-realization ensembles. It has not been checked against a
//! physics model (EXPERIMENTS.md, "Surrogate vs shallow-water
//! solver").

use crate::ensemble::StormParams;
use crate::error::HydroError;
use crate::inundation::Poi;
use crate::passage::{PeakOf, ScanSites};
use crate::stations::{Station, StationId, Stations};

/// Tunable coefficients of the parametric surge model.
///
/// Defaults are calibrated so the Category 2 Oahu ensemble reproduces
/// the paper's ~9.5 % Honolulu control-center flooding probability
/// (see EXPERIMENTS.md for the calibration record).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurgeCalibration {
    /// Wind-setup coefficient: metres of setup per (m/s)² of onshore
    /// wind at `shelf_factor = 1`.
    pub setup_coefficient: f64,
    /// Inverse-barometer response, metres per hPa of pressure deficit.
    pub ib_m_per_hpa: f64,
    /// E-folding distance (km) of the inverse-barometer contribution
    /// with storm closest-approach distance.
    pub ib_decay_km: f64,
    /// Breaking-wave setup as a fraction of wind setup.
    pub wave_setup_fraction: f64,
    /// Overland surge attenuation, metres of head lost per km inland.
    pub attenuation_m_per_km: f64,
    /// Time step (hours) used to scan the storm passage for the peak
    /// onshore wind.
    pub scan_step_hours: f64,
}

impl Default for SurgeCalibration {
    fn default() -> Self {
        Self {
            setup_coefficient: 1.36e-3,
            ib_m_per_hpa: 0.010,
            ib_decay_km: 150.0,
            wave_setup_fraction: 0.15,
            attenuation_m_per_km: 0.20,
            scan_step_hours: 0.5,
        }
    }
}

/// Peak surge per station for one storm.
#[derive(Debug, Clone, PartialEq)]
pub struct StationSurge {
    entries: Vec<(StationId, f64)>,
}

impl StationSurge {
    /// Peak water-surface elevation (m above MSL) at a station.
    pub fn get(&self, id: StationId) -> f64 {
        self.entries
            .iter()
            .find(|(s, _)| *s == id)
            .map(|(_, v)| *v)
            .expect("all stations evaluated")
    }

    /// Iterates `(station, surge_m)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (StationId, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// The largest surge across stations.
    pub(crate) fn max_surge_m(&self) -> f64 {
        self.entries
            .iter()
            .map(|(_, v)| *v)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// The parametric surge model: stations plus calibration.
#[derive(Debug, Clone, PartialEq)]
pub struct ParametricSurge {
    stations: Stations,
    calibration: SurgeCalibration,
    /// The open-coast stations, each peaking on its onshore component,
    /// prepared for [`StormParams::peak_scan`].
    sites: ScanSites,
}

impl ParametricSurge {
    /// Creates the model from a station set and calibration.
    pub fn new(stations: Stations, calibration: SurgeCalibration) -> Self {
        let sites = ScanSites::new(
            open_coast(&stations).map(|st| (st.pos, PeakOf::Toward(st.onshore_bearing_deg))),
        );
        Self {
            stations,
            calibration,
            sites,
        }
    }

    /// The station set.
    pub fn stations(&self) -> &Stations {
        &self.stations
    }

    /// The calibration constants.
    pub fn calibration(&self) -> &SurgeCalibration {
        &self.calibration
    }

    /// The station each POI reads its surge from: its override, else
    /// the nearest station (first of equal minima).
    pub fn poi_stations(&self, pois: &[Poi]) -> Vec<StationId> {
        pois.iter()
            .map(|p| {
                p.station_override
                    .unwrap_or_else(|| self.stations.nearest(p.pos).id)
            })
            .collect()
    }

    /// Evaluates peak surge at every station for `storm`.
    ///
    /// One [`StormParams::peak_scan`] over the open-coast stations
    /// folds each station's peak onshore wind, gated at 400 km, and
    /// its closest approach.
    ///
    /// # Errors
    ///
    /// Returns an error if the storm parameters are unphysical or the
    /// calibration's `scan_step_hours` is not finite and positive.
    pub fn station_surge(&self, storm: &StormParams) -> Result<StationSurge, HydroError> {
        let mut closest_km = vec![f64::INFINITY; self.sites.len()];
        let peak_onshore = storm.peak_scan(
            self.calibration.scan_step_hours,
            &self.sites,
            Some(&mut closest_km),
        )?;
        let mut met: Vec<(StationId, f64)> = open_coast(&self.stations)
            .zip(peak_onshore.iter().zip(&closest_km))
            .map(|(station, (&peak, &dist))| {
                let surge = self.met_surge(storm, peak, dist) * station.shelf_factor;
                (station.id, surge)
            })
            .collect();
        let south = met
            .iter()
            .find(|(id, _)| *id == StationId::South)
            .map(|(_, v)| *v)
            .expect("south station evaluated");
        met.push((
            StationId::PearlHarbor,
            south * self.stations.harbor_amplification,
        ));
        let entries = met
            .into_iter()
            .map(|(id, m)| (id, m + storm.tide_m))
            .collect();
        Ok(StationSurge { entries })
    }

    /// Meteorological (wind + wave + pressure) component of surge at
    /// an open-coast station, before shelf amplification and tide,
    /// from its peak onshore wind and the storm's closest approach.
    fn met_surge(&self, storm: &StormParams, peak_onshore: f64, min_dist: f64) -> f64 {
        let cal = &self.calibration;
        let eta_wind = cal.setup_coefficient * peak_onshore * peak_onshore;
        let ib_weight = (-(min_dist / cal.ib_decay_km).powi(2)).exp();
        let eta_ib = cal.ib_m_per_hpa * storm.pressure_deficit_hpa() * ib_weight;
        eta_wind * (1.0 + cal.wave_setup_fraction) + eta_ib
    }
}

/// The stations whose surge the scan measures: all but Pearl Harbor,
/// which is derived from the south station.
fn open_coast(stations: &Stations) -> impl Iterator<Item = &Station> {
    stations.iter().filter(|st| st.id != StationId::PearlHarbor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::{EnsembleConfig, TrackEnsemble};
    use crate::track::StormTrack;
    use ct_geo::terrain::{synthesize_oahu, OahuTerrainConfig};
    use ct_geo::LatLon;

    fn model() -> ParametricSurge {
        let dem = synthesize_oahu(&OahuTerrainConfig::default());
        ParametricSurge::new(Stations::from_dem(&dem), SurgeCalibration::default())
    }

    /// A storm passing just west of Oahu heading north: the worst case
    /// for the south shore (onshore winds on the right of the track).
    fn direct_hit_storm() -> StormParams {
        let track = StormTrack::straight(LatLon::new(19.2, -158.35), 5.0, 6.0, 48.0).unwrap();
        StormParams {
            track,
            central_pressure_hpa: 966.0,
            ambient_pressure_hpa: 1010.0,
            rmax_km: 35.0,
            b: 1.6,
            tide_m: 0.3,
        }
    }

    /// A storm passing far to the east.
    fn miss_storm() -> StormParams {
        let track = StormTrack::straight(LatLon::new(19.2, -155.0), 0.0, 6.0, 48.0).unwrap();
        StormParams {
            tide_m: 0.0,
            ..{
                let mut s = direct_hit_storm();
                s.track = track;
                s
            }
        }
    }

    #[test]
    fn direct_hit_floods_south_shore() {
        let m = model();
        let s = m.station_surge(&direct_hit_storm()).unwrap();
        let south = s.get(StationId::South);
        assert!(
            (2.0..8.0).contains(&south),
            "south-shore surge for a direct Cat 2 hit: {south} m"
        );
    }

    #[test]
    fn harbor_exceeds_south_station() {
        let m = model();
        let s = m.station_surge(&direct_hit_storm()).unwrap();
        assert!(s.get(StationId::PearlHarbor) > s.get(StationId::South));
    }

    #[test]
    fn west_coast_sees_less_than_south() {
        let m = model();
        let s = m.station_surge(&direct_hit_storm()).unwrap();
        assert!(
            s.get(StationId::West) < 0.6 * s.get(StationId::South),
            "west {} vs south {}",
            s.get(StationId::West),
            s.get(StationId::South)
        );
    }

    #[test]
    fn windward_east_sees_less_than_the_southern_shelf() {
        let m = model();
        let s = m.station_surge(&direct_hit_storm()).unwrap();
        let shelf = s.get(StationId::South).max(s.get(StationId::Ewa));
        let east = s.get(StationId::East);
        assert!(east < shelf, "east {east} vs shelf {shelf}");
    }

    #[test]
    fn distant_storm_produces_little_surge() {
        let m = model();
        let s = m.station_surge(&miss_storm()).unwrap();
        assert!(
            s.max_surge_m() < 0.6,
            "distant storm surge {}",
            s.max_surge_m()
        );
    }

    #[test]
    fn tide_shifts_all_stations_equally() {
        let m = model();
        let mut storm = direct_hit_storm();
        let a = m.station_surge(&storm).unwrap();
        storm.tide_m += 0.2;
        let b = m.station_surge(&storm).unwrap();
        for (id, v) in a.iter() {
            assert!((b.get(id) - v - 0.2).abs() < 1e-9, "{id}");
        }
    }

    #[test]
    fn stronger_storm_higher_surge() {
        let m = model();
        let mut storm = direct_hit_storm();
        let weak = m.station_surge(&storm).unwrap();
        storm.central_pressure_hpa = 940.0; // Cat 4 deficit
        let strong = m.station_surge(&storm).unwrap();
        for id in [StationId::South, StationId::Ewa] {
            let (weak, strong) = (weak.get(id), strong.get(id));
            assert!(strong > weak + 1.0, "{id}: weak {weak} strong {strong}");
        }
    }

    #[test]
    fn ensemble_surges_all_finite() {
        let m = model();
        let cfg = EnsembleConfig {
            realizations: 40,
            ..EnsembleConfig::default()
        };
        for storm in TrackEnsemble::new(cfg).unwrap().generate() {
            let s = m.station_surge(&storm).unwrap();
            for (id, v) in s.iter() {
                assert!(v.is_finite(), "{id} produced {v}");
                assert!(v > -1.0 && v < 15.0, "{id} produced implausible {v}");
            }
        }
    }
}
