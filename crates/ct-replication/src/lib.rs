//! Executable models of the paper's SCADA replication architectures.
//!
//! The paper evaluates five SCADA configurations — `2`, `2-2`, `6`,
//! `6-6` and `6+6+6` — whose fault-tolerance properties it takes from
//! prior work (Table I). This crate makes those properties *testable*
//! by implementing the architectures as actors on the [`ct_simnet`]
//! discrete-event kernel:
//!
//! * [`Master`] — SCADA master with a hot standby in the same site and
//!   optional cold-backup sites that activate after a delay (configs
//!   `2` and `2-2`);
//! * [`Replica`] — leader-based intrusion-tolerant quorum replication
//!   with `n = 3f + 2k + 1` sizing, equivocation-resistant voting,
//!   view changes striped across sites, proactive recovery, and
//!   Byzantine fault injection (configs `6`, `6-6`, `6+6+6`);
//! * [`Rtu`] — a field client polling the SCADA masters and checking
//!   reply integrity with an `f + 1` matching-reply rule.
//!
//! [`run_scenario`] executes a [`DeploymentSpec`] under a
//! [`FaultScenario`] (flooded sites, site isolations, server
//! intrusions) and reduces the execution to a [`SimVerdict`] whose
//! [`ObservedState`] is directly comparable to the paper's
//! green/orange/red/gray classification — the framework's rule-based
//! classifier is cross-validated against these executions.
//!
//! The `properties` module goes beyond single-schedule runs: it
//! states Table I as executable predicates ([`ReplicationProperty`])
//! and checks them with bounded exhaustive schedule exploration
//! ([`explore_scenario`]) and seeded randomized fault campaigns
//! ([`randomized_campaign`]).

mod client;
mod deployment;
mod master;
mod msg;
mod properties;
mod replica;
mod role;
mod verdict;

pub use client::Rtu;
pub use deployment::{
    build as build_deployment, BuiltDeployment, DeploymentSpec, ReplicationStyle,
};
pub use master::Master;
pub use msg::{Digest, ProtocolMsg};
pub use properties::{
    default_campaign_dist, explore_scenario, randomized_campaign, severity, worse, CampaignOutcome,
    CampaignViolation, ExploreOutcome, ReplicationProperty,
};
pub use replica::{ColdConfig, RecoverySchedule, Replica};
pub use role::Role;
pub use verdict::{run_scenario, FaultScenario, ObservedState, SimVerdict, VerdictConfig};
