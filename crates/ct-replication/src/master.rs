//! Industry-standard SCADA masters (configs `2` and `2-2`).
//!
//! A primary SCADA master answers RTU polls directly; a *hot* standby
//! in the same control center takes over within seconds when the
//! primary goes silent. A *cold* backup control center (config `2-2`)
//! monitors heartbeats from the primary site and activates after a
//! configurable delay — the paper's orange state. None of this
//! tolerates intrusions: a compromised acting master simply fabricates
//! replies (the paper's gray state).

use crate::msg::{correct_digest, fake_request, ProtocolMsg};
use ct_simnet::{Actor, Ctx, NodeId, SimTime};

const TIMER_TICK: u64 = 1;
const TIMER_ACTIVATE: u64 = 2;

/// Tick cadence (heartbeats + silence checks).
const TICK: SimTime = SimTime(500_000);
/// Silence after which a hot standby takes over.
const HOT_TAKEOVER: SimTime = SimTime(1_500_000);
/// Silence after which a cold site considers the primary dead.
const COLD_DETECT: SimTime = SimTime(2_000_000);

/// One SCADA master in a hot-standby / cold-backup deployment.
#[derive(Debug, Clone)]
pub struct Master {
    /// Index of this master within its site (0 = first in line).
    pub(crate) index_in_site: usize,
    /// Every master in the deployment (heartbeat fan-out).
    pub(crate) all_masters: Vec<NodeId>,
    /// Whether this master has been compromised.
    pub(crate) byzantine: bool,
    /// Whether this master is currently answering RTU polls.
    pub(crate) acting: bool,
    /// Hot site: standbys take over within seconds. Cold sites wait
    /// for `cold_activation_delay` first.
    pub(crate) hot: bool,
    /// Activation delay for cold-site masters.
    pub(crate) cold_activation_delay: Option<SimTime>,
    /// Replies sent (diagnostics).
    pub(crate) replies_sent: u64,
    last_heard_acting: SimTime,
    activation_scheduled: bool,
    /// Set once the cold site has taken over.
    pub(crate) activated: bool,
}

impl Master {
    /// Creates a master. The very first master of the hot site should
    /// be constructed with `acting = true`.
    pub(crate) fn new(
        index_in_site: usize,
        all_masters: Vec<NodeId>,
        hot: bool,
        acting: bool,
    ) -> Self {
        Self {
            index_in_site,
            all_masters,
            byzantine: false,
            acting,
            hot,
            cold_activation_delay: None,
            replies_sent: 0,
            last_heard_acting: SimTime::ZERO,
            activation_scheduled: false,
            activated: false,
        }
    }

    fn reply(&mut self, to: NodeId, id: u64, ctx: &mut Ctx<'_, ProtocolMsg>) {
        let digest = if self.byzantine {
            correct_digest(fake_request(id))
        } else {
            correct_digest(id)
        };
        self.replies_sent += 1;
        ctx.send(to, ProtocolMsg::Reply { id, digest });
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_, ProtocolMsg>) {
        let now = ctx.now();
        if self.acting {
            ctx.broadcast(self.all_masters.iter().copied(), ProtocolMsg::Heartbeat);
            return;
        }
        let silence = now.saturating_sub(self.last_heard_acting);
        if self.hot || self.activated {
            // Hot standby: take over quickly, in site order.
            let wait = HOT_TAKEOVER + SimTime::from_millis(200.0 * self.index_in_site as f64);
            if silence > wait {
                self.acting = true;
            }
        } else if let Some(delay) = self.cold_activation_delay {
            if silence > COLD_DETECT && !self.activation_scheduled {
                self.activation_scheduled = true;
                ctx.set_timer(delay, TIMER_ACTIVATE);
            }
        }
    }
}

impl Actor for Master {
    type Msg = ProtocolMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, ProtocolMsg>) {
        self.last_heard_acting = ctx.now();
        ctx.set_timer(TICK, TIMER_TICK);
    }

    fn on_message(&mut self, from: NodeId, msg: ProtocolMsg, ctx: &mut Ctx<'_, ProtocolMsg>) {
        match msg {
            ProtocolMsg::Request { id } if self.acting => {
                self.reply(from, id, ctx);
            }
            ProtocolMsg::Heartbeat => {
                // Another acting master exists; stand down takeover
                // clocks. (A non-acting master never heartbeats.)
                self.last_heard_acting = ctx.now();
                let _ = from;
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, id: u64, ctx: &mut Ctx<'_, ProtocolMsg>) {
        match id {
            TIMER_TICK => {
                self.on_tick(ctx);
                ctx.set_timer(TICK, TIMER_TICK);
            }
            TIMER_ACTIVATE => {
                let silence = ctx.now().saturating_sub(self.last_heard_acting);
                if silence > COLD_DETECT {
                    self.activated = true;
                    if self.index_in_site == 0 {
                        self.acting = true;
                    }
                }
                self.activation_scheduled = false;
            }
            _ => {}
        }
    }
}

impl ct_simnet::StateHash for Master {
    /// Hashes role flags and the reply counter; `last_heard_acting` is
    /// an absolute timestamp and is excluded per the [`StateHash`]
    /// convention.
    ///
    /// [`StateHash`]: ct_simnet::StateHash
    fn state_hash(&self, h: &mut ct_store::StableHasher) {
        h.write_usize(self.index_in_site);
        h.write_bool(self.byzantine);
        h.write_bool(self.acting);
        h.write_bool(self.hot);
        h.write_bool(self.activation_scheduled);
        h.write_bool(self.activated);
        h.write_u64(self.replies_sent);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_simnet::CommandBuffer;

    fn pair() -> (Master, Master) {
        let peers = vec![NodeId(0), NodeId(1)];
        (
            Master::new(0, peers.clone(), true, true),
            Master::new(1, peers, true, false),
        )
    }

    #[test]
    fn acting_master_answers_polls() {
        let (mut primary, _) = pair();
        let mut buf = CommandBuffer::new();
        let mut ctx = buf.ctx(SimTime::from_secs(1.0), NodeId(0));
        primary.on_message(NodeId(9), ProtocolMsg::Request { id: 4 }, &mut ctx);
        let sent = buf.sent();
        assert_eq!(sent.len(), 1);
        assert_eq!(
            *sent[0].1,
            ProtocolMsg::Reply {
                id: 4,
                digest: correct_digest(4)
            }
        );
    }

    #[test]
    fn standby_stays_silent() {
        let (_, mut backup) = pair();
        let mut buf = CommandBuffer::new();
        let mut ctx = buf.ctx(SimTime::from_secs(1.0), NodeId(1));
        backup.on_message(NodeId(9), ProtocolMsg::Request { id: 4 }, &mut ctx);
        assert!(buf.sent().is_empty());
    }

    #[test]
    fn byzantine_master_forges_replies() {
        let (mut primary, _) = pair();
        primary.byzantine = true;
        let mut buf = CommandBuffer::new();
        let mut ctx = buf.ctx(SimTime::from_secs(1.0), NodeId(0));
        primary.on_message(NodeId(9), ProtocolMsg::Request { id: 4 }, &mut ctx);
        match buf.sent()[0].1 {
            ProtocolMsg::Reply { digest, .. } => assert_ne!(*digest, correct_digest(4)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn hot_standby_takes_over_after_silence() {
        let (_, mut backup) = pair();
        let mut buf = CommandBuffer::new();
        {
            let mut ctx = buf.ctx(SimTime::ZERO, NodeId(1));
            backup.on_start(&mut ctx);
        }
        // 10 seconds with no heartbeat.
        let mut ctx = buf.ctx(SimTime::from_secs(10.0), NodeId(1));
        backup.on_tick(&mut ctx);
        assert!(backup.acting, "hot standby must take over");
    }

    #[test]
    fn heartbeat_resets_takeover_clock() {
        let (_, mut backup) = pair();
        let mut buf = CommandBuffer::new();
        {
            let mut ctx = buf.ctx(SimTime::ZERO, NodeId(1));
            backup.on_start(&mut ctx);
        }
        {
            let mut ctx = buf.ctx(SimTime::from_secs(9.5), NodeId(1));
            backup.on_message(NodeId(0), ProtocolMsg::Heartbeat, &mut ctx);
        }
        let mut ctx = buf.ctx(SimTime::from_secs(10.0), NodeId(1));
        backup.on_tick(&mut ctx);
        assert!(!backup.acting);
    }

    #[test]
    fn cold_master_waits_for_activation_delay() {
        let peers = vec![NodeId(2), NodeId(3)];
        let mut cold = Master::new(0, peers, false, false);
        cold.cold_activation_delay = Some(SimTime::from_secs(20.0));
        let mut buf = CommandBuffer::new();
        {
            let mut ctx = buf.ctx(SimTime::ZERO, NodeId(2));
            cold.on_start(&mut ctx);
        }
        buf.clear();
        {
            let mut ctx = buf.ctx(SimTime::from_secs(5.0), NodeId(2));
            cold.on_tick(&mut ctx);
        }
        assert!(!cold.acting, "cold backup must not act immediately");
        assert_eq!(
            buf.timers(),
            vec![(SimTime::from_secs(20.0), TIMER_ACTIVATE)]
        );
        // Activation timer fires, primary still silent -> takes over.
        let mut ctx = buf.ctx(SimTime::from_secs(25.0), NodeId(2));
        cold.on_timer(TIMER_ACTIVATE, &mut ctx);
        assert!(cold.acting && cold.activated);
    }

    #[test]
    fn cold_activation_aborts_if_primary_returns() {
        let peers = vec![NodeId(2), NodeId(3)];
        let mut cold = Master::new(0, peers, false, false);
        cold.cold_activation_delay = Some(SimTime::from_secs(20.0));
        let mut buf = CommandBuffer::new();
        {
            let mut ctx = buf.ctx(SimTime::ZERO, NodeId(2));
            cold.on_start(&mut ctx);
        }
        {
            let mut ctx = buf.ctx(SimTime::from_secs(5.0), NodeId(2));
            cold.on_tick(&mut ctx); // schedules activation
        }
        {
            let mut ctx = buf.ctx(SimTime::from_secs(24.0), NodeId(2));
            cold.on_message(NodeId(0), ProtocolMsg::Heartbeat, &mut ctx);
        }
        let mut ctx = buf.ctx(SimTime::from_secs(25.0), NodeId(2));
        cold.on_timer(TIMER_ACTIVATE, &mut ctx);
        assert!(!cold.acting, "primary recovered before activation");
    }
}
