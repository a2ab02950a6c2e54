//! Hurricane hazard substrate: parametric cyclone wind fields, storm
//! tracks, Monte-Carlo track ensembles, a parametric storm-surge
//! model and per-asset inundation. The paper takes per-asset peak
//! inundation from 1000 given ADCIRC realizations; here that input
//! comes from [`ParametricSurge`] alone.
//!
//! [`ParametricSurge`] is a fast wind-setup + inverse-barometer + tide
//! estimator evaluated at coastal reference `stations`. It has not
//! been checked against a physics model (EXPERIMENTS.md, "Surrogate
//! vs shallow-water solver").
//!
//! The pipeline output is a [`RealizationSet`]: for every sampled
//! hurricane, the peak inundation depth at every point of interest.
//! An asset *fails* when its peak inundation exceeds the paper's 0.5 m
//! switch-height threshold ([`FloodThreshold`]).
//!
//! # Example
//!
//! One surge realization per sampled storm, assembled into a set (the
//! pipeline does the same through `ct_hazard::SurgeHazard`, which
//! calls [`RealizationSet::evaluate_storm`]):
//!
//! ```
//! use ct_geo::terrain::{synthesize_oahu, OahuTerrainConfig};
//! use ct_geo::LatLon;
//! use ct_hydro::{EnsembleConfig, ParametricSurge, Poi, RealizationSet};
//! use ct_hydro::{Stations, SurgeCalibration, TrackEnsemble};
//!
//! let dem = synthesize_oahu(&OahuTerrainConfig::default());
//! let pois = vec![Poi::from_dem("honolulu-cc", LatLon::new(21.307, -157.858), &dem).unwrap()];
//! let model = ParametricSurge::new(Stations::from_dem(&dem), SurgeCalibration::default());
//! let cfg = EnsembleConfig { realizations: 25, ..EnsembleConfig::default() };
//! let storms = TrackEnsemble::new(cfg).unwrap().generate();
//! let stations = model.poi_stations(&pois);
//! let evaluate = |(i, storm)| RealizationSet::evaluate_storm(i, storm, &model, &pois, &stations);
//! let realizations = storms.iter().enumerate().map(evaluate).collect::<Result<_, _>>();
//! let set = RealizationSet::from_parts(pois, realizations.unwrap());
//! assert_eq!(set.len(), 25);
//! ```

mod category;
mod ensemble;
pub mod error;
pub mod export;
mod inundation;
mod parametric;
mod passage;
mod realization;
mod sampling;
mod stations;
mod track;
pub mod wind;

/// Version of the hydro numerics baked into artifact-store content
/// addresses. Bump when a formula change makes previously cached surge
/// or inundation results stale; old records then simply go unseen.
///
/// The storm generator is part of this kernel: realization `i` is a
/// function of the seed and the [`ct_rand::SplitMix64`] stream, so a
/// change to that stream must bump this too.
///
/// v2: storms come from the in-tree `ct-rand` stream; v1 records were
/// sampled by whichever `rand` crate was linked.
pub const HYDRO_KERNEL_VERSION: u32 = 2;

pub use category::Category;
pub use ensemble::{EnsembleConfig, StormParams, TrackEnsemble};
pub use error::HydroError;
pub use inundation::{FloodThreshold, Poi};
pub use parametric::{ParametricSurge, StationSurge, SurgeCalibration};
pub use passage::{check_scan_step, PeakOf, ScanSites};
pub use realization::{Realization, RealizationSet};
pub use stations::{Station, StationId, Stations};
pub use track::{StormTrack, TrackPoint};
pub use wind::{HollandWindField, WindSample};
