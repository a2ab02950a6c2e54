//! Umbrella crate for the compound-threats reproduction: re-exports
//! every workspace crate so examples and integration tests have one
//! import root.
//!
//! * [`geo`] — geospatial substrate (coordinates, DEM, synthetic Oahu
//!   terrain);
//! * [`hydro`] — hurricane wind fields, storm-surge models, and the
//!   Monte-Carlo realization ensemble (the ADCIRC stand-in);
//! * [`simnet`] — deterministic discrete-event simulation kernel;
//! * [`replication`] — executable SCADA replication architectures;
//! * [`scada`] — power-asset topologies and the five paper
//!   configurations;
//! * [`threat`] — compound threat model, worst-case attacker, Table I
//!   classifier;
//! * [`framework`] — the analysis pipeline, figure reproduction,
//!   placement search and attacker-power extensions.
//!
//! See the repository README for a tour and `DESIGN.md` for the
//! system inventory.
//!
//! The [`cli`] module holds the `ct` binary's typed argument parser.

pub mod cli;

pub use compound_threats as framework;
pub use ct_geo as geo;
pub use ct_hydro as hydro;
pub use ct_replication as replication;
pub use ct_scada as scada;
pub use ct_simnet as simnet;
pub use ct_threat as threat;
