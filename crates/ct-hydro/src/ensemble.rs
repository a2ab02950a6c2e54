//! Monte-Carlo hurricane ensembles.
//!
//! The paper's input data is 1000 ADCIRC realizations of a Category 2
//! hurricane approaching Oahu along "a realistic hurricane path used by
//! emergency planners in Hawaii". We reproduce that as a seeded
//! ensemble of parametric storms: each realization perturbs the
//! planner path (cross-track offset, heading), the storm intensity
//! (central pressure deficit, radius of maximum winds, Holland B),
//! the forward speed, and the tide phase at landfall.

use crate::category::Category;
use crate::error::HydroError;
use crate::sampling::{standard_normal, truncated_normal, uniform};
use crate::track::StormTrack;
use crate::wind::HollandWindField;
use ct_geo::LatLon;
use ct_rand::SplitMix64;

/// A fully-specified storm: track plus intensity parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct StormParams {
    /// The storm-centre path.
    pub track: StormTrack,
    /// Central pressure, hPa.
    pub central_pressure_hpa: f64,
    /// Ambient pressure, hPa.
    pub ambient_pressure_hpa: f64,
    /// Radius of maximum winds, km.
    pub rmax_km: f64,
    /// Holland shape parameter.
    pub b: f64,
    /// Tide anomaly at landfall, metres (positive = high tide).
    pub tide_m: f64,
}

impl StormParams {
    /// The wind field at simulation time `t_hours`, centred at the
    /// track position with the track's translation as asymmetry.
    ///
    /// # Errors
    ///
    /// Returns [`HydroError::InvalidParameter`] if the stored
    /// parameters are unphysical (should not happen for sampled
    /// storms).
    pub fn wind_field(&self, t_hours: f64) -> Result<HollandWindField, HydroError> {
        let pos = self.track.position(t_hours);
        let (heading, speed) = self.track.motion(t_hours);
        Ok(HollandWindField::new(
            self.central_pressure_hpa,
            self.ambient_pressure_hpa,
            self.rmax_km,
            self.b,
            pos.lat,
        )?
        .with_motion(heading, speed))
    }

    /// Pressure deficit in hPa.
    pub fn pressure_deficit_hpa(&self) -> f64 {
        self.ambient_pressure_hpa - self.central_pressure_hpa
    }
}

/// Configuration of the hurricane ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleConfig {
    /// Number of realizations (the paper uses 1000).
    pub realizations: usize,
    /// RNG seed; the ensemble is fully reproducible.
    pub seed: u64,
    /// Storm intensity class.
    pub category: Category,
    /// Ambient pressure, hPa.
    pub ambient_pressure_hpa: f64,
    /// Reference longitude (deg) the mean planner track passes through
    /// at the island's latitude band.
    pub base_passing_lon: f64,
    /// Reference latitude (deg) of the track anchor — the latitude
    /// band of the studied region (Oahu's 21.35 by default).
    pub anchor_lat: f64,
    /// Mean cross-track offset from the base passing longitude, km
    /// (negative = further west).
    pub cross_track_mean_km: f64,
    /// Standard deviation of the cross-track offset, km.
    pub cross_track_sd_km: f64,
    /// Mean storm heading, degrees clockwise from north.
    pub heading_mean_deg: f64,
    /// Heading standard deviation, degrees.
    pub heading_sd_deg: f64,
}

impl Default for EnsembleConfig {
    fn default() -> Self {
        Self {
            realizations: 1000,
            seed: 42,
            category: Category::Cat2,
            ambient_pressure_hpa: 1010.0,
            base_passing_lon: -158.10,
            anchor_lat: 21.35,
            cross_track_mean_km: -35.0,
            cross_track_sd_km: 95.0,
            heading_mean_deg: 5.0,
            heading_sd_deg: 12.0,
        }
    }
}

/// A seeded sampler of [`StormParams`].
#[derive(Debug, Clone)]
pub struct TrackEnsemble {
    config: EnsembleConfig,
}

impl TrackEnsemble {
    /// Creates an ensemble sampler.
    ///
    /// # Errors
    ///
    /// Returns [`HydroError::EmptyEnsemble`] when zero realizations
    /// are requested.
    pub fn new(config: EnsembleConfig) -> Result<Self, HydroError> {
        if config.realizations == 0 {
            return Err(HydroError::EmptyEnsemble);
        }
        Ok(Self { config })
    }

    /// Generates all storms in the ensemble, deterministically from
    /// the seed.
    pub fn generate(&self) -> Vec<StormParams> {
        ct_obs::add(ct_obs::names::HYDRO_ENSEMBLES_SAMPLED, 1);
        let mut rng = SplitMix64::new(self.config.seed);
        let mut draws = 0;
        let storms = (0..self.config.realizations)
            .map(|_| self.sample_one(&mut rng, &mut draws))
            .collect();
        ct_obs::add(ct_obs::names::HYDRO_ENSEMBLE_NORMAL_DRAWS, draws);
        storms
    }

    /// Samples one storm, adding the normal draws it made to `draws`.
    fn sample_one(&self, rng: &mut SplitMix64, draws: &mut u64) -> StormParams {
        let c = &self.config;
        let (dp_lo, dp_hi) = c.category.pressure_deficit_range_hpa();
        let dp_mean = (dp_lo + dp_hi) / 2.0;
        let dp_sd = (dp_hi - dp_lo) / 5.0;
        let deficit = truncated_normal(rng, draws, dp_mean, dp_sd, dp_lo, dp_hi);
        let rmax = truncated_normal(rng, draws, 32.0, 8.0, 18.0, 55.0);
        let b = uniform(rng, 1.25, 1.9);
        let forward = truncated_normal(rng, draws, 6.0, 1.5, 3.5, 9.0);
        let heading = truncated_normal(
            rng,
            draws,
            c.heading_mean_deg,
            c.heading_sd_deg,
            c.heading_mean_deg - 35.0,
            c.heading_mean_deg + 35.0,
        );
        *draws += 1;
        let offset_km = c.cross_track_mean_km + c.cross_track_sd_km * standard_normal(rng);
        let tide = uniform(rng, -0.25, 0.45);

        // Anchor: the point where the track crosses the region's
        // latitude band, displaced east-west by the sampled
        // cross-track offset.
        let anchor = LatLon::new(c.anchor_lat, c.base_passing_lon).destination(90.0, offset_km);
        // Back the start off 260 km along the reverse heading so the
        // storm approaches, passes, and departs within the window.
        let start = anchor.destination((heading + 180.0) % 360.0, 260.0);
        let duration = 520.0 / (forward * 3.6);
        let track = StormTrack::straight(start, heading, forward, duration)
            .expect("sampled track parameters are valid");
        StormParams {
            track,
            central_pressure_hpa: c.ambient_pressure_hpa - deficit,
            ambient_pressure_hpa: c.ambient_pressure_hpa,
            rmax_km: rmax,
            b,
            tide_m: tide,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passage::{PeakOf, ScanSites};
    use crate::track::tests::closest_approach;

    #[test]
    fn rejects_empty() {
        let cfg = EnsembleConfig {
            realizations: 0,
            ..EnsembleConfig::default()
        };
        assert!(matches!(
            TrackEnsemble::new(cfg),
            Err(HydroError::EmptyEnsemble)
        ));
    }

    #[test]
    fn deterministic_generation() {
        let cfg = EnsembleConfig {
            realizations: 20,
            ..EnsembleConfig::default()
        };
        let a = TrackEnsemble::new(cfg.clone()).unwrap().generate();
        let b = TrackEnsemble::new(cfg).unwrap().generate();
        assert_eq!(a, b);
    }

    /// FNV-1a over the `Debug` rendering of every storm. `{:?}` prints
    /// each `f64` in its shortest round-trip form, so the text fixes
    /// every bit of every field, track points included.
    fn digest(storms: &[StormParams]) -> u64 {
        format!("{storms:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    #[test]
    fn seed_42_ensemble_is_pinned() {
        let ensemble = TrackEnsemble::new(EnsembleConfig::default()).unwrap();
        let storms = ensemble.generate();
        assert_eq!(storms.len(), 1000);
        assert_eq!(digest(&storms), 1748203446535662920);
        // The draws `generate` counts: tries of the four truncated
        // variates, plus one plain cross-track offset per storm.
        let mut rng = SplitMix64::new(42);
        let mut draws = 0;
        let replayed: Vec<_> = (0..1000)
            .map(|_| ensemble.sample_one(&mut rng, &mut draws))
            .collect();
        assert_eq!(replayed, storms);
        assert_eq!(draws, 5140);
    }

    #[test]
    fn seed_changes_storms() {
        let mut cfg = EnsembleConfig {
            realizations: 5,
            ..EnsembleConfig::default()
        };
        let a = TrackEnsemble::new(cfg.clone()).unwrap().generate();
        cfg.seed = 43;
        let b = TrackEnsemble::new(cfg).unwrap().generate();
        assert_ne!(a, b);
    }

    #[test]
    fn sampled_storms_are_cat2() {
        let cfg = EnsembleConfig {
            realizations: 50,
            ..EnsembleConfig::default()
        };
        let storms = TrackEnsemble::new(cfg).unwrap().generate();
        let (lo, hi) = Category::Cat2.pressure_deficit_range_hpa();
        for s in &storms {
            let d = s.pressure_deficit_hpa();
            assert!((lo..=hi).contains(&d), "deficit {d}");
            assert!((18.0..=55.0).contains(&s.rmax_km));
            assert!((-0.25..=0.45).contains(&s.tide_m));
        }
    }

    #[test]
    fn tracks_pass_near_the_island() {
        let cfg = EnsembleConfig {
            realizations: 100,
            ..EnsembleConfig::default()
        };
        let storms = TrackEnsemble::new(cfg).unwrap().generate();
        let island = LatLon::new(21.45, -158.0);
        let sites = ScanSites::new([(island, PeakOf::Speed)]);
        let mut close = 0;
        for s in &storms {
            let mut closest = [f64::INFINITY];
            s.peak_scan(0.5, &sites, Some(&mut closest)).unwrap();
            let d = closest[0];
            let (_, want) = closest_approach(&s.track, island, 0.5);
            assert_eq!(
                d.to_bits(),
                want.to_bits(),
                "kernel and scalar closest approach"
            );
            if d < 150.0 {
                close += 1;
            }
        }
        // Most storms should pass within 150 km of the island.
        assert!(close > 50, "only {close}/100 storms pass nearby");
    }

    #[test]
    fn wind_field_constructs_for_all_samples() {
        let cfg = EnsembleConfig {
            realizations: 30,
            ..EnsembleConfig::default()
        };
        for s in TrackEnsemble::new(cfg).unwrap().generate() {
            let f = s.wind_field(10.0).unwrap();
            assert!(f.max_gradient_wind_ms() > 25.0);
        }
    }
}
