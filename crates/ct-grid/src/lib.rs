//! Power-grid substrate: the electrical network the SCADA system
//! monitors and controls.
//!
//! The paper's threat model notes that a hurricane "may damage
//! additional components of the power grid infrastructure (e.g.
//! substations, transmission lines) and cause disruptions in power
//! generation, transmission or delivery" but scopes those effects out
//! ("we do not currently consider these in our model, as we focus on
//! the SCADA control system"). This crate builds that scoped-out
//! substrate so the framework can quantify the *grid-side* impact of
//! the same compound threats:
//!
//! * [`GridNetwork`] — buses (generators, loads, junctions) and
//!   transmission lines with susceptances and thermal limits;
//! * [`dc_power_flow`] — DC (linearised) power flow per electrical
//!   island, with proportional dispatch and load shedding, solved by
//!   an in-crate dense Gaussian-elimination kernel (`linalg`);
//! * `cascade` — iterative tripping of thermally overloaded lines;
//! * [`fragility`] — wind fragility of lines and flood failure of
//!   substations, driven by the same hurricane realizations as the
//!   SCADA analysis;
//! * [`oahu`] — an Oahu-shaped 138 kV network built on the case-study
//!   assets.
//!
//! # Example
//!
//! ```
//! use ct_grid::{dc_power_flow, oahu, OutageSet};
//!
//! let grid = oahu::grid();
//! let intact = dc_power_flow(&grid, &OutageSet::none()).unwrap();
//! assert!(intact.served_fraction() > 0.999);
//! ```

mod cascade;
pub mod fragility;
mod linalg;
mod network;
pub mod oahu;
mod powerflow;

pub use cascade::{simulate_cascade, CascadeOutcome};
pub use fragility::{fragility_draw, DamageModel, DamageSample};
pub use network::{Bus, BusId, BusKind, GridError, GridNetwork, Line, LineId, OutageSet};
pub use powerflow::{dc_power_flow, GridState, IslandState};
