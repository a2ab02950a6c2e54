//! The field client (RTU) workload.

use crate::msg::{correct_digest, Digest, ProtocolMsg, ReqId};
use ct_simnet::{Actor, Ctx, NodeId, SimTime};
use std::collections::BTreeMap;

const TIMER_TICK: u64 = 5;

/// State of one outstanding request.
#[derive(Debug, Clone)]
struct Outstanding {
    sent: SimTime,
    last_send: SimTime,
    replies: BTreeMap<Digest, Vec<NodeId>>,
    accepted: bool,
}

/// A remote terminal unit: polls the SCADA masters on a fixed cycle
/// and accepts a response once enough matching replies arrive.
///
/// `need_matching = f + 1` makes a single compromised server unable to
/// forge an accepted response in the intrusion-tolerant
/// configurations; the industry-standard configurations use
/// `need_matching = 1` (and are therefore vulnerable — exactly the
/// paper's gray state).
#[derive(Debug, Clone)]
pub struct Rtu {
    /// All server nodes this RTU polls.
    pub(crate) servers: Vec<NodeId>,
    /// Matching replies required to accept a response.
    pub(crate) need_matching: usize,
    /// Poll cycle.
    pub(crate) interval: SimTime,
    /// Retransmit an unanswered request after this long.
    pub(crate) retransmit_after: SimTime,
    /// Namespace offset so multiple RTUs use disjoint request ids.
    pub(crate) id_base: ReqId,
    next: ReqId,
    outstanding: BTreeMap<ReqId, Outstanding>,
    /// Accepted responses: `(time, request, digest)`.
    pub(crate) accepted_log: Vec<(SimTime, ReqId, Digest)>,
    /// Number of accepted responses whose digest failed the integrity
    /// check — any non-zero value is a safety violation.
    pub bad_accepts: u64,
}

impl Rtu {
    /// Creates an RTU polling `servers`.
    pub(crate) fn new(servers: Vec<NodeId>, need_matching: usize, id_base: ReqId) -> Self {
        Self {
            servers,
            need_matching: need_matching.max(1),
            interval: SimTime::from_millis(100.0),
            retransmit_after: SimTime::from_secs(2.0),
            id_base,
            next: 0,
            outstanding: BTreeMap::new(),
            accepted_log: Vec::new(),
            bad_accepts: 0,
        }
    }

    /// Times at which responses were accepted, in order.
    pub fn accept_times(&self) -> Vec<SimTime> {
        self.accepted_log.iter().map(|(t, _, _)| *t).collect()
    }

    fn issue(&mut self, ctx: &mut Ctx<'_, ProtocolMsg>) {
        let id = self.id_base + self.next;
        self.next += 1;
        self.outstanding.insert(
            id,
            Outstanding {
                sent: ctx.now(),
                last_send: ctx.now(),
                replies: BTreeMap::new(),
                accepted: false,
            },
        );
        ctx.broadcast(self.servers.iter().copied(), ProtocolMsg::Request { id });
    }

    fn retransmit(&mut self, ctx: &mut Ctx<'_, ProtocolMsg>) {
        let now = ctx.now();
        let due: Vec<ReqId> = self
            .outstanding
            .iter()
            .filter(|(_, o)| {
                !o.accepted && now.saturating_sub(o.last_send) >= self.retransmit_after
            })
            .map(|(id, _)| *id)
            .rev()
            .take(5)
            .collect();
        for id in due {
            if let Some(o) = self.outstanding.get_mut(&id) {
                o.last_send = now;
            }
            ctx.broadcast(self.servers.iter().copied(), ProtocolMsg::Request { id });
        }
        // Garbage-collect ancient unanswered requests.
        let horizon = now.saturating_sub(SimTime::from_secs(60.0));
        self.outstanding
            .retain(|_, o| o.accepted || o.sent >= horizon);
    }
}

impl Actor for Rtu {
    type Msg = ProtocolMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, ProtocolMsg>) {
        ctx.set_timer(self.interval, TIMER_TICK);
    }

    fn on_message(&mut self, from: NodeId, msg: ProtocolMsg, _ctx: &mut Ctx<'_, ProtocolMsg>) {
        let ProtocolMsg::Reply { id, digest } = msg else {
            return;
        };
        let now = _ctx.now();
        let need = self.need_matching;
        let Some(o) = self.outstanding.get_mut(&id) else {
            return;
        };
        if o.accepted {
            return;
        }
        let voters = o.replies.entry(digest).or_default();
        if !voters.contains(&from) {
            voters.push(from);
        }
        if voters.len() >= need {
            o.accepted = true;
            self.accepted_log.push((now, id, digest));
            if digest != correct_digest(id) {
                self.bad_accepts += 1;
            }
        }
    }

    fn on_timer(&mut self, id: u64, ctx: &mut Ctx<'_, ProtocolMsg>) {
        if id != TIMER_TICK {
            return;
        }
        self.issue(ctx);
        self.retransmit(ctx);
        ctx.set_timer(self.interval, TIMER_TICK);
    }
}

impl ct_simnet::StateHash for Rtu {
    /// Hashes the request counter, per-request reply tallies and the
    /// accepted log (request + digest). Send/accept timestamps are
    /// excluded per the [`StateHash`] convention.
    ///
    /// [`StateHash`]: ct_simnet::StateHash
    fn state_hash(&self, h: &mut ct_store::StableHasher) {
        h.write_u64(self.id_base);
        h.write_u64(self.next);
        h.write_u64(self.bad_accepts);
        h.write_usize(self.outstanding.len());
        for (req, o) in &self.outstanding {
            h.write_u64(*req);
            h.write_bool(o.accepted);
            h.write_usize(o.replies.len());
            for (digest, voters) in &o.replies {
                h.write_u64(*digest);
                h.write_usize(voters.len());
                for v in voters {
                    h.write_usize(v.0);
                }
            }
        }
        h.write_usize(self.accepted_log.len());
        for (_, req, digest) in &self.accepted_log {
            h.write_u64(*req);
            h.write_u64(*digest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::fake_request;

    fn ctx_shim<F: FnOnce(&mut Rtu, &mut Ctx<'_, ProtocolMsg>)>(rtu: &mut Rtu, f: F) {
        // Drive the actor directly without a kernel.
        let mut buf = ct_simnet::CommandBuffer::new();
        let mut ctx = buf.ctx(SimTime::from_secs(1.0), NodeId(99));
        f(rtu, &mut ctx);
    }

    #[test]
    fn accepts_after_matching_replies() {
        let mut rtu = Rtu::new(vec![NodeId(0), NodeId(1), NodeId(2)], 2, 0);
        rtu.outstanding.insert(
            7,
            Outstanding {
                sent: SimTime::ZERO,
                last_send: SimTime::ZERO,
                replies: BTreeMap::new(),
                accepted: false,
            },
        );
        let d = correct_digest(7);
        ctx_shim(&mut rtu, |r, ctx| {
            r.on_message(NodeId(0), ProtocolMsg::Reply { id: 7, digest: d }, ctx);
            assert!(r.accepted_log.is_empty(), "one reply is not enough");
            // Duplicate from the same server must not count twice.
            r.on_message(NodeId(0), ProtocolMsg::Reply { id: 7, digest: d }, ctx);
            assert!(r.accepted_log.is_empty());
            r.on_message(NodeId(1), ProtocolMsg::Reply { id: 7, digest: d }, ctx);
        });
        assert_eq!(rtu.accepted_log.len(), 1);
        assert_eq!(rtu.bad_accepts, 0);
    }

    #[test]
    fn single_forged_reply_cannot_be_accepted_at_f1() {
        let mut rtu = Rtu::new(vec![NodeId(0), NodeId(1)], 2, 0);
        rtu.outstanding.insert(
            3,
            Outstanding {
                sent: SimTime::ZERO,
                last_send: SimTime::ZERO,
                replies: BTreeMap::new(),
                accepted: false,
            },
        );
        let forged = correct_digest(fake_request(3));
        ctx_shim(&mut rtu, |r, ctx| {
            r.on_message(
                NodeId(0),
                ProtocolMsg::Reply {
                    id: 3,
                    digest: forged,
                },
                ctx,
            );
        });
        assert!(rtu.accepted_log.is_empty());
        assert_eq!(rtu.bad_accepts, 0);
    }

    #[test]
    fn forged_reply_accepted_at_need_one_is_flagged() {
        let mut rtu = Rtu::new(vec![NodeId(0)], 1, 0);
        rtu.outstanding.insert(
            3,
            Outstanding {
                sent: SimTime::ZERO,
                last_send: SimTime::ZERO,
                replies: BTreeMap::new(),
                accepted: false,
            },
        );
        let forged = correct_digest(fake_request(3));
        ctx_shim(&mut rtu, |r, ctx| {
            r.on_message(
                NodeId(0),
                ProtocolMsg::Reply {
                    id: 3,
                    digest: forged,
                },
                ctx,
            );
        });
        assert_eq!(rtu.accepted_log.len(), 1);
        assert_eq!(rtu.bad_accepts, 1);
    }

    #[test]
    fn unknown_reply_ignored() {
        let mut rtu = Rtu::new(vec![NodeId(0)], 1, 0);
        ctx_shim(&mut rtu, |r, ctx| {
            r.on_message(
                NodeId(0),
                ProtocolMsg::Reply {
                    id: 42,
                    digest: correct_digest(42),
                },
                ctx,
            );
        });
        assert!(rtu.accepted_log.is_empty());
    }
}
