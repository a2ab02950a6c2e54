//! The framework's public surface in one `use`.
//!
//! Downstream code (the `ct` CLI, integration tests, notebook-style
//! experiments) kept accumulating five-line import blocks spread over
//! four crates; this module re-exports the types that appear in
//! essentially every driver so they arrive together:
//!
//! ```
//! use compound_threats::prelude::*;
//!
//! # fn main() -> Result<(), CoreError> {
//! let config = CaseStudyConfig::builder().realizations(50).build()?;
//! let scenario = ThreatScenario::HurricaneIntrusionIsolation;
//! let _ = (scenario, Architecture::C6P6P6, SiteChoice::Kahe);
//! # let _ = config;
//! # Ok(())
//! # }
//! ```

pub use crate::error::CoreError;
pub use crate::figures::{Figure, FigureData};
pub use crate::pipeline::{
    run_shard, CaseStudy, CaseStudyConfig, CaseStudyConfigBuilder, ShardReport, ShardSpec,
};
pub use crate::probe::ProbeQuery;
pub use crate::profile::OutcomeProfile;
pub use crate::serve::{ServeOptions, Server};
pub use crate::traffic::{bench_serve, BenchMode, BenchOp, BenchRow, BenchServeOptions};
pub use ct_hazard::{CompoundHazard, HazardModel, HazardSpec, SurgeHazard, WindFragilityHazard};
pub use ct_scada::{oahu::SiteChoice, Architecture};
pub use ct_store::{RemoteStore, Store, StoreBackend, StoreUrl};
pub use ct_threat::ThreatScenario;
