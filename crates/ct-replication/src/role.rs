//! The unified node type used by deployments.

use crate::client::Rtu;
use crate::master::Master;
use crate::msg::ProtocolMsg;
use crate::replica::Replica;
use ct_simnet::{Actor, Ctx, NodeId, StateHash};

/// A node in a SCADA deployment: a quorum replica, a hot/cold SCADA
/// master, or a field client.
#[derive(Debug, Clone)]
// A `Replica` dwarfs the other variants, but only a handful of roles
// exist per simulation, so boxing would buy nothing.
#[allow(clippy::large_enum_variant)]
pub enum Role {
    /// Intrusion-tolerant quorum replica.
    Replica(Replica),
    /// Hot-standby / cold-backup SCADA master.
    Master(Master),
    /// Field client.
    Rtu(Rtu),
}

impl Role {
    /// The replica inside, if any.
    pub(crate) fn as_replica(&self) -> Option<&Replica> {
        match self {
            Role::Replica(r) => Some(r),
            _ => None,
        }
    }

    /// The master inside, if any.
    pub(crate) fn as_master(&self) -> Option<&Master> {
        match self {
            Role::Master(m) => Some(m),
            _ => None,
        }
    }

    /// The RTU inside, if any.
    pub fn as_rtu(&self) -> Option<&Rtu> {
        match self {
            Role::Rtu(c) => Some(c),
            _ => None,
        }
    }

    /// Marks the node as compromised (Byzantine).
    ///
    /// # Panics
    ///
    /// Panics when applied to an RTU: the threat model compromises
    /// servers, not field devices.
    pub(crate) fn set_byzantine(&mut self) {
        match self {
            Role::Replica(r) => r.byzantine = true,
            Role::Master(m) => m.byzantine = true,
            Role::Rtu(_) => panic!("cannot compromise an RTU in this threat model"),
        }
    }
}

impl Actor for Role {
    type Msg = ProtocolMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, ProtocolMsg>) {
        match self {
            Role::Replica(r) => r.on_start(ctx),
            Role::Master(m) => m.on_start(ctx),
            Role::Rtu(c) => c.on_start(ctx),
        }
    }

    fn on_message(&mut self, from: NodeId, msg: ProtocolMsg, ctx: &mut Ctx<'_, ProtocolMsg>) {
        match self {
            Role::Replica(r) => r.on_message(from, msg, ctx),
            Role::Master(m) => m.on_message(from, msg, ctx),
            Role::Rtu(c) => c.on_message(from, msg, ctx),
        }
    }

    fn on_timer(&mut self, id: u64, ctx: &mut Ctx<'_, ProtocolMsg>) {
        match self {
            Role::Replica(r) => r.on_timer(id, ctx),
            Role::Master(m) => m.on_timer(id, ctx),
            Role::Rtu(c) => c.on_timer(id, ctx),
        }
    }
}

impl StateHash for Role {
    fn state_hash(&self, h: &mut ct_store::StableHasher) {
        match self {
            Role::Replica(r) => {
                h.write_u8(0);
                r.state_hash(h);
            }
            Role::Master(m) => {
                h.write_u8(1);
                m.state_hash(h);
            }
            Role::Rtu(c) => {
                h.write_u8(2);
                c.state_hash(h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_discriminate() {
        let rtu = Role::Rtu(Rtu::new(vec![NodeId(0)], 1, 0));
        assert!(rtu.as_rtu().is_some());
        assert!(rtu.as_replica().is_none());
        assert!(rtu.as_master().is_none());
    }

    #[test]
    #[should_panic(expected = "cannot compromise an RTU")]
    fn rtu_cannot_be_byzantine() {
        let mut rtu = Role::Rtu(Rtu::new(vec![NodeId(0)], 1, 0));
        rtu.set_byzantine();
    }
}
