//! Deterministic discrete-event simulation of distributed systems.
//!
//! This crate is the substrate under `ct-replication`: it provides a
//! virtual-time event kernel ([`Sim`]), a wide-area network model with
//! per-link latency and site-granular partitions ([`NetConfig`]), and
//! scheduled fault injection ([`FaultAction`]) — node crashes, site
//! isolation (the paper's network-level attack), and repair.
//!
//! Everything is deterministic: given the same actors, configuration
//! and seed, a simulation replays identically. That property is what
//! lets the compound-threat framework cross-validate its rule-based
//! operational-state classifier against actual protocol executions.
//!
//! Beyond single-schedule replay, the `explore` module turns the
//! kernel into a bounded model checker: [`Explorer`] enumerates every
//! ordering of near-simultaneous conflicting events up to a depth
//! bound (with state-hash deduplication), and [`ScheduleDist`] drives
//! seeded randomized campaigns of per-send discard / delay /
//! duplicate faults for the schedules past the exhaustive horizon.
//!
//! # Example
//!
//! ```
//! use ct_simnet::{Actor, Ctx, NetConfig, NodeId, Sim, SimTime};
//!
//! /// A node that pings its peer once and counts replies.
//! struct Ping { peer: NodeId, replies: u32 }
//! impl Actor for Ping {
//!     type Msg = &'static str;
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
//!         ctx.send(self.peer, "ping");
//!     }
//!     fn on_message(&mut self, _from: NodeId, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg>) {
//!         match msg {
//!             "ping" => ctx.send(self.peer, "pong"),
//!             _ => self.replies += 1,
//!         }
//!     }
//! }
//!
//! let net = NetConfig::multi_site(&[2]);
//! let mut sim = Sim::new(net, 7, vec![
//!     Ping { peer: NodeId(1), replies: 0 },
//!     Ping { peer: NodeId(0), replies: 0 },
//! ]);
//! sim.run_until(SimTime::from_secs(1.0));
//! assert_eq!(sim.node(NodeId(0)).replies, 1);
//! ```

mod actor;
mod explore;
mod fault;
pub mod net;
mod sim;
pub mod time;

pub use actor::{Actor, CommandBuffer, Ctx, NodeId, SiteId};
pub use explore::{
    ExploreConfig, ExploreReport, ExploreStats, ExploreViolation, Explorer, ScheduleDist,
    SendFaults, StateHash,
};
pub use fault::{FaultAction, FaultPlan};
pub use net::NetConfig;
pub use sim::{Sim, SimStats};
pub use time::SimTime;
