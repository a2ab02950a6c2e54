//! Geospatial substrate for the compound-threats analysis framework.
//!
//! This crate provides the low-level geographic machinery that the
//! hurricane model (`ct-hydro`) and the SCADA topology (`ct-scada`)
//! are built on:
//!
//! * [`LatLon`] geographic coordinates with haversine distances and a
//!   local east/north tangent-plane [`Projection`];
//! * a generic raster [`Grid`] with bilinear sampling;
//! * a digital elevation model ([`Dem`]) with land/sea masking,
//!   coastline extraction and distance-to-shore queries;
//! * closed [`Polygon`]s with point-in-polygon and boundary-distance
//!   queries, used to describe island outlines, and the
//!   [`BoundaryWalk`] that answers all of them in one pass per raster
//!   cell;
//! * deterministic procedural [`noise`] and a region-generic terrain
//!   synthesizer ([`region::synthesize_region`]) with a synthetic Oahu
//!   preset ([`terrain::synthesize_oahu`]);
//! * a uniform-grid nearest-shore index (`index::ShoreIndex`).
//!
//! Everything here is deterministic: the same inputs always produce the
//! same terrain, which is what makes the downstream Monte-Carlo
//! analysis reproducible.
//!
//! # Example
//!
//! ```
//! use ct_geo::{LatLon, terrain};
//!
//! let dem = terrain::synthesize_oahu(&terrain::OahuTerrainConfig::default());
//! let honolulu = LatLon::new(21.307, -157.858);
//! let elev = dem.elevation_at(honolulu).expect("inside the DEM domain");
//! assert!(elev > 0.0, "downtown Honolulu is on land");
//! ```

mod coords;
mod dem;
pub mod error;
mod grid;
mod index;
pub mod noise;
mod polygon;
mod region;
pub mod terrain;

/// Version of the terrain synthesis baked into the artifact store's
/// terrain-spec digest, which keys every record measured on the DEM.
/// Bump when [`synthesize_region`] can return a different DEM for an
/// unchanged [`RegionTerrainSpec`]; those records then read as misses
/// and the DEM is synthesized afresh.
pub const TERRAIN_KERNEL_VERSION: u32 = 1;

pub use coords::{bearing_vector_deg, EnuKm, LatLon, LatLonTrig, Projection, EARTH_RADIUS_KM};
pub use dem::Dem;
pub use error::GeoError;
pub use grid::Grid;
pub use polygon::{BoundaryHit, BoundaryWalk, Polygon};
pub use region::{synthesize_region, CoastSector, RegionTerrainSpec, RidgeSpec, SectorRule};
