//! The compound-threats analysis framework (the paper's primary
//! contribution).
//!
//! The framework implements the workflow of the paper's Fig. 5:
//!
//! ```text
//! geospatial SCADA topology ──┐
//!                             ├─► apply natural-disaster impact
//! hurricane realizations ─────┘          │
//!                                        ▼
//!                        post-disaster system states
//!                                        │
//!                     apply worst-case cyberattack model
//!                                        ▼
//!                        final system states ──► Table I ──► outcome
//!                                                            probabilities
//! ```
//!
//! [`CaseStudy`] wires the substrates together for the Oahu case
//! study: synthetic terrain ([`ct_geo`]), the hurricane ensemble and
//! surge model ([`ct_hydro`]), the topology and architectures
//! ([`ct_scada`]), and the attacker/classifier ([`ct_threat`]). The
//! [`figures`] module regenerates every figure in the paper's
//! evaluation; [`check`] model-checks every Table I cell against
//! protocol executions ([`ct_replication`]);
//! [`placement`] and [`attacker_power`] implement the paper's
//! discussion-section extensions.
//!
//! # Example
//!
//! ```no_run
//! use compound_threats::{CaseStudy, CaseStudyConfig};
//! use ct_scada::{oahu::SiteChoice, Architecture};
//! use ct_threat::ThreatScenario;
//!
//! # fn main() -> Result<(), compound_threats::CoreError> {
//! let study = CaseStudy::build(&CaseStudyConfig::default())?;
//! let profile = study.profile(
//!     Architecture::C6P6P6,
//!     ThreatScenario::HurricaneIsolation,
//!     SiteChoice::Waiau,
//! )?;
//! println!("green with probability {:.3}", profile.green());
//! # Ok(())
//! # }
//! ```

pub mod artifact;
pub mod attacker_power;
pub mod check;
mod conn;
pub mod error;
pub mod figures;
pub mod parallel;
mod pipeline;
pub mod placement;
pub mod prelude;
mod probe;
mod profile;
pub mod report;
pub mod serve;
mod traffic;

pub use error::CoreError;
pub use figures::{Figure, FigureData};
pub use pipeline::{CaseStudy, CaseStudyConfig, CaseStudyConfigBuilder, ShardReport, ShardSpec};
pub use profile::OutcomeProfile;
