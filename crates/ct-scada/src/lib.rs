//! SCADA system model: power-asset topologies, the five SCADA
//! architectures the paper evaluates, and the Oahu case-study dataset.
//!
//! The central types are:
//!
//! * [`Asset`] / [`Topology`] — geospatial power assets (control
//!   centers, data centers, power plants, substations);
//! * [`Architecture`] — the paper's configurations `2`, `2-2`, `6`,
//!   `6-6`, `6+6+6` with their structural properties (site count,
//!   replicas per site, intrusion threshold, cold backups);
//! * [`SitePlan`] — which topology assets host the control sites for a
//!   given architecture (primary first, then backup, then data
//!   center);
//! * [`oahu`] — the Oahu, Hawaii topology of Fig. 4 with the paper's
//!   two siting choices (Waiau vs Kahe backup).
//!
//! # Example
//!
//! ```
//! use ct_scada::{oahu, Architecture};
//!
//! let topo = oahu::topology();
//! let plan = oahu::site_plan(Architecture::C6P6P6, oahu::SiteChoice::Waiau).unwrap();
//! assert_eq!(plan.site_asset_ids().len(), 3);
//! assert!(topo.asset(plan.primary()).is_some());
//! ```

mod architecture;
mod asset;
pub mod error;
pub mod export;
pub mod oahu;
mod topology;

pub use architecture::{Architecture, SitePlan};
pub use asset::{Asset, AssetKind};
pub use error::ScadaError;
pub use topology::{Topology, TopologyBuilder};
