//! Actors and their interface to the kernel.

use crate::time::SimTime;
use std::fmt;

/// Identifier of a node (process) in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a site (control center / data center) hosting nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub usize);

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A deterministic state machine driven by messages and timers.
///
/// Actors never block: handlers inspect state, mutate it, and emit
/// sends/timers through the [`Ctx`].
pub trait Actor {
    /// The message type exchanged between actors of this simulation.
    type Msg: Clone;

    /// Called once when the simulation starts.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// Called when a message is delivered to this node.
    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg>);

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _timer_id: u64, _ctx: &mut Ctx<'_, Self::Msg>) {}
}

/// Commands an actor can issue during a handler invocation.
#[derive(Debug, Clone)]
pub(crate) enum Command<M> {
    Send { to: NodeId, msg: M },
    Timer { delay: SimTime, id: u64 },
}

/// Handler context: the actor's window into the kernel.
///
/// Collects outgoing sends and timers; the kernel applies them (with
/// network latency, partitions, and crash filtering) after the handler
/// returns.
#[derive(Debug)]
pub struct Ctx<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) self_id: NodeId,
    pub(crate) commands: &'a mut Vec<Command<M>>,
}

impl<M> Ctx<'_, M> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `msg` to `to`. Delivery is subject to network latency and
    /// may be dropped by partitions or crashes; sending to self is
    /// delivered with loopback latency.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.commands.push(Command::Send { to, msg });
    }

    /// Broadcasts `msg` to every node in `targets` except self.
    pub fn broadcast(&mut self, targets: impl IntoIterator<Item = NodeId>, msg: M)
    where
        M: Clone,
    {
        let me = self.self_id;
        for t in targets {
            if t != me {
                self.commands.push(Command::Send {
                    to: t,
                    msg: msg.clone(),
                });
            }
        }
    }

    /// Schedules `on_timer(id)` on this node after `delay`.
    pub fn set_timer(&mut self, delay: SimTime, id: u64) {
        self.commands.push(Command::Timer { delay, id });
    }
}

/// A standalone command sink for unit-testing actors without running a
/// full simulation: build a [`Ctx`] against it, invoke handlers
/// directly, then inspect what the actor tried to do.
#[derive(Debug)]
pub struct CommandBuffer<M> {
    commands: Vec<Command<M>>,
}

impl<M> Default for CommandBuffer<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> CommandBuffer<M> {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self {
            commands: Vec::new(),
        }
    }

    /// A handler context writing into this buffer.
    pub fn ctx(&mut self, now: SimTime, self_id: NodeId) -> Ctx<'_, M> {
        Ctx {
            now,
            self_id,
            commands: &mut self.commands,
        }
    }

    /// Messages the actor sent: `(to, msg)` in order.
    pub fn sent(&self) -> Vec<(NodeId, &M)> {
        self.commands
            .iter()
            .filter_map(|c| match c {
                Command::Send { to, msg } => Some((*to, msg)),
                Command::Timer { .. } => None,
            })
            .collect()
    }

    /// Timers the actor set: `(delay, id)` in order.
    pub fn timers(&self) -> Vec<(SimTime, u64)> {
        self.commands
            .iter()
            .filter_map(|c| match c {
                Command::Timer { delay, id } => Some((*delay, *id)),
                Command::Send { .. } => None,
            })
            .collect()
    }

    /// Discards buffered commands.
    pub fn clear(&mut self) {
        self.commands.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(SiteId(1).to_string(), "s1");
    }

    #[test]
    fn ctx_collects_commands() {
        let mut commands: Vec<Command<u32>> = Vec::new();
        let mut ctx = Ctx {
            now: SimTime::from_secs(1.0),
            self_id: NodeId(0),
            commands: &mut commands,
        };
        ctx.send(NodeId(1), 10);
        ctx.broadcast([NodeId(0), NodeId(1), NodeId(2)], 20);
        ctx.set_timer(SimTime::from_millis(5.0), 7);
        assert_eq!(ctx.now(), SimTime::from_secs(1.0));
        // broadcast skips self: 1 send + 2 broadcast + 1 timer.
        assert_eq!(commands.len(), 4);
    }
}
