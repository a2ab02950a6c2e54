//! The compound threat model (paper Sec. III) and its evaluation
//! machinery:
//!
//! * [`ThreatScenario`] — the four scenarios: hurricane only, plus
//!   server intrusion, site isolation, or both;
//! * [`PostDisasterState`] / [`SystemState`] — the system after the
//!   natural disaster and after the cyberattack;
//! * [`WorstCaseAttacker`] — the paper's three-rule greedy attacker
//!   (Sec. V-B); `tests/attacker_equivalence.rs` checks it against an
//!   exhaustive search of every attack combination (the
//!   "computationally inefficient" alternative the paper mentions);
//! * [`classify()`](fn@classify) — Table I: maps a post-attack [`SystemState`] to an
//!   [`OperationalState`] (green / orange / red / gray).
//!
//! # Example
//!
//! ```
//! use ct_scada::Architecture;
//! use ct_threat::{classify, OperationalState, PostDisasterState, SystemState};
//!
//! // Hurricane floods nothing; no attack: every architecture is green.
//! let post = PostDisasterState::all_up(Architecture::C6_6);
//! let state = SystemState::from_post_disaster(Architecture::C6_6, &post);
//! assert_eq!(classify(&state), OperationalState::Green);
//! ```

mod apply;
mod attacker;
mod classify;
mod scenario;
mod state;

pub use apply::{post_disaster_histogram, post_disaster_states};
pub use attacker::{Attacker, WorstCaseAttacker};
pub use classify::{classify, OperationalState};
pub use scenario::{AttackBudget, ParseScenarioError, ThreatScenario};
pub use state::{PostDisasterState, SiteState, SiteStatus, SystemState};
