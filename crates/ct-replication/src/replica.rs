//! Intrusion-tolerant quorum replication (configs `6`, `6-6`, `6+6+6`).
//!
//! A simplified leader-based state-machine-replication protocol in the
//! spirit of the Prime/Spire systems the paper's intrusion-tolerant
//! configurations are built on:
//!
//! * `n = 3f + 2k + 1` replicas tolerate `f` intrusions while one
//!   replica is down for proactive recovery (`k`). The commit quorum is
//!   `Q = ⌊(n + f) / 2⌋ + 1`, so any two quorums intersect in more
//!   than `f` replicas — a single compromised replica cannot cause
//!   conflicting commits, while `f + 1` compromises can (the paper's
//!   gray state).
//! * Leadership rotates **striped across sites** on view changes, so a
//!   site isolation stalls the protocol for at most one view-change
//!   timeout in multi-site deployments (config `6+6+6`'s "no downtime"
//!   property).
//! * Cold-backup groups (config `6-6`) monitor heartbeats from the
//!   active site and activate as an independent replica group after an
//!   activation delay — the paper's orange state.
//! * Byzantine replicas equivocate when leading (proposing different
//!   requests for the same slot to different halves of the group),
//!   vote for everything they see, and send fabricated replies to
//!   clients.

use crate::msg::{correct_digest, fake_request, ProtocolMsg, ReqId};
use ct_simnet::{Actor, Ctx, NodeId, SimTime};
use std::collections::{BTreeMap, BTreeSet};

const TIMER_TICK: u64 = 1;
const TIMER_ACTIVATE: u64 = 2;
const TIMER_RECOVERY_START: u64 = 3;
const TIMER_RECOVERY_END: u64 = 4;

/// Tick cadence for leaders/heartbeats/timeout checks.
const TICK: SimTime = SimTime(500_000);
/// Pending-request age that triggers a view change.
const VC_TIMEOUT: SimTime = SimTime(1_500_000);
/// Heartbeat silence that makes a cold group consider the active site
/// dead.
const COLD_DETECT: SimTime = SimTime(2_000_000);

/// Cold-backup behaviour attached to replicas in a backup site.
#[derive(Debug, Clone, PartialEq)]
pub struct ColdConfig {
    /// Delay between detecting active-site death and taking over.
    pub(crate) activation_delay: SimTime,
}

/// Proactive recovery schedule for one replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoverySchedule {
    /// When this replica's first recovery window opens.
    pub(crate) start: SimTime,
    /// How long a recovery takes (the replica is silent meanwhile).
    pub(crate) duration: SimTime,
}

#[derive(Debug, Clone)]
struct PendingReq {
    client: Option<NodeId>,
    since: SimTime,
}

/// One replica of an intrusion-tolerant group.
#[derive(Debug, Clone)]
pub struct Replica {
    /// My index within the group (position in `peers`).
    pub(crate) group_index: usize,
    /// The replica group, in index order (includes self).
    pub(crate) peers: Vec<NodeId>,
    /// Site index of each group member (for striped leader rotation).
    pub(crate) peer_sites: Vec<usize>,
    /// Maximum tolerated intrusions.
    pub(crate) f: usize,
    /// Whether this replica has been compromised (Byzantine).
    pub(crate) byzantine: bool,
    /// Whether this replica participates in the protocol (cold-backup
    /// replicas start inactive).
    pub(crate) active: bool,
    /// Cold-backup behaviour, for inactive backup groups.
    pub(crate) cold: Option<ColdConfig>,
    /// Cold replicas send nothing; active replicas heartbeat these
    /// nodes so backups can detect active-site death.
    pub(crate) heartbeat_targets: Vec<NodeId>,
    /// Proactive recovery schedule (active replicas only).
    pub(crate) recovery: Option<RecoverySchedule>,

    view: u64,
    next_seq: u64,
    recovering: bool,
    pending: BTreeMap<ReqId, PendingReq>,
    /// Requests proposed in the current view (leader bookkeeping).
    assigned: BTreeMap<ReqId, u64>,
    /// The proposal this replica accepted per `(view, seq)` slot.
    slots: BTreeMap<(u64, u64), ReqId>,
    /// Vote tallies per `(view, seq, req)`.
    votes: BTreeMap<(u64, u64, ReqId), BTreeSet<usize>>,
    /// Votes this replica already broadcast (dedup, incl. Byzantine).
    my_votes: BTreeSet<(u64, u64, ReqId)>,
    /// Committed slot → request (the replicated log; safety checks
    /// compare these across the group).
    pub(crate) committed_slots: BTreeMap<(u64, u64), ReqId>,
    /// First-commit time per request.
    pub(crate) committed_reqs: BTreeMap<ReqId, SimTime>,
    vc_votes: BTreeMap<u64, BTreeSet<usize>>,
    last_vc_sent: SimTime,
    last_primary_heard: SimTime,
    activation_scheduled: bool,
}

impl Replica {
    /// Creates a replica.
    ///
    /// # Panics
    ///
    /// Panics if `peers` and `peer_sites` disagree in length or
    /// `group_index` is out of range.
    pub(crate) fn new(
        group_index: usize,
        peers: Vec<NodeId>,
        peer_sites: Vec<usize>,
        f: usize,
    ) -> Self {
        assert_eq!(peers.len(), peer_sites.len(), "peer/site length mismatch");
        assert!(group_index < peers.len(), "group index out of range");
        Self {
            group_index,
            peers,
            peer_sites,
            f,
            byzantine: false,
            active: true,
            cold: None,
            heartbeat_targets: Vec::new(),
            recovery: None,
            view: 0,
            next_seq: 0,
            recovering: false,
            pending: BTreeMap::new(),
            assigned: BTreeMap::new(),
            slots: BTreeMap::new(),
            votes: BTreeMap::new(),
            my_votes: BTreeSet::new(),
            committed_slots: BTreeMap::new(),
            committed_reqs: BTreeMap::new(),
            vc_votes: BTreeMap::new(),
            last_vc_sent: SimTime::ZERO,
            last_primary_heard: SimTime::ZERO,
            activation_scheduled: false,
        }
    }

    /// Group size.
    pub(crate) fn n(&self) -> usize {
        self.peers.len()
    }

    /// Commit quorum: `⌊(n + f) / 2⌋ + 1`.
    pub(crate) fn quorum(&self) -> usize {
        (self.n() + self.f) / 2 + 1
    }

    /// Whether this replica is currently the leader.
    pub(crate) fn is_leader(&self) -> bool {
        self.leader_of(self.view) == self.group_index
    }

    /// Group index of the leader of `view`, striped across sites:
    /// successive views move leadership to the next site first, so a
    /// whole-site outage costs at most one view change.
    pub(crate) fn leader_of(&self, view: u64) -> usize {
        let mut site_order: Vec<usize> = self.peer_sites.clone();
        site_order.sort_unstable();
        site_order.dedup();
        let s = site_order.len() as u64;
        let site = site_order[(view % s) as usize];
        let members: Vec<usize> = (0..self.peers.len())
            .filter(|&i| self.peer_sites[i] == site)
            .collect();
        members[((view / s) % members.len() as u64) as usize]
    }

    fn peer_index(&self, node: NodeId) -> Option<usize> {
        self.peers.iter().position(|&p| p == node)
    }

    /// Leader action: order a request in the next slot.
    fn propose(&mut self, req: ReqId, ctx: &mut Ctx<'_, ProtocolMsg>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.assigned.insert(req, self.view);
        if self.byzantine {
            // Equivocate: half the group sees the real request, the
            // other half a fabricated one competing for the same slot.
            let fake = fake_request(req);
            for (i, &peer) in self.peers.iter().enumerate() {
                if peer == self.peers[self.group_index] {
                    continue;
                }
                let r = if i % 2 == 0 { req } else { fake };
                ctx.send(
                    peer,
                    ProtocolMsg::Propose {
                        view: self.view,
                        seq,
                        req: r,
                        digest: correct_digest(r),
                    },
                );
            }
            return;
        }
        let msg = ProtocolMsg::Propose {
            view: self.view,
            seq,
            req,
            digest: correct_digest(req),
        };
        ctx.broadcast(self.peers.iter().copied(), msg);
        // Handle our own proposal locally.
        self.accept_slot(self.view, seq, req, ctx);
    }

    /// Correct-replica vote: accept a proposal for an empty slot.
    fn accept_slot(&mut self, view: u64, seq: u64, req: ReqId, ctx: &mut Ctx<'_, ProtocolMsg>) {
        if self.slots.contains_key(&(view, seq)) {
            return;
        }
        self.slots.insert((view, seq), req);
        let msg = ProtocolMsg::Accept {
            view,
            seq,
            req,
            digest: correct_digest(req),
        };
        self.my_votes.insert((view, seq, req));
        ctx.broadcast(self.peers.iter().copied(), msg);
        self.tally(view, seq, req, self.group_index, ctx);
    }

    fn tally(
        &mut self,
        view: u64,
        seq: u64,
        req: ReqId,
        voter: usize,
        ctx: &mut Ctx<'_, ProtocolMsg>,
    ) {
        let votes = self.votes.entry((view, seq, req)).or_default();
        votes.insert(voter);
        if votes.len() >= self.quorum() && !self.committed_slots.contains_key(&(view, seq)) {
            self.committed_slots.insert((view, seq), req);
            if let std::collections::btree_map::Entry::Vacant(e) = self.committed_reqs.entry(req) {
                e.insert(ctx.now());
                if let Some(p) = self.pending.remove(&req) {
                    if let Some(client) = p.client {
                        ctx.send(
                            client,
                            ProtocolMsg::Reply {
                                id: req,
                                digest: correct_digest(req),
                            },
                        );
                    }
                }
            }
        }
    }

    fn adopt_view(&mut self, view: u64, ctx: &mut Ctx<'_, ProtocolMsg>) {
        if view <= self.view {
            return;
        }
        self.view = view;
        let now = ctx.now();
        for p in self.pending.values_mut() {
            p.since = now;
        }
        if self.is_leader() && self.active && !self.byzantine {
            let reqs: Vec<ReqId> = self.pending.keys().copied().collect();
            for req in reqs {
                self.propose(req, ctx);
            }
        }
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_, ProtocolMsg>) {
        let now = ctx.now();
        if self.recovering {
            return;
        }
        if !self.active {
            // Cold-backup site: watch for active-site death.
            if let Some(cold) = &self.cold {
                if !self.activation_scheduled
                    && now.saturating_sub(self.last_primary_heard) > COLD_DETECT
                {
                    self.activation_scheduled = true;
                    ctx.set_timer(cold.activation_delay, TIMER_ACTIVATE);
                }
            }
            return;
        }
        // Heartbeat the cold backups.
        ctx.broadcast(
            self.heartbeat_targets.iter().copied(),
            ProtocolMsg::Heartbeat,
        );
        // Leader duties: propose pending requests not yet assigned in
        // this view.
        if self.is_leader() && !self.byzantine {
            let due: Vec<ReqId> = self
                .pending
                .keys()
                .filter(|r| self.assigned.get(r) != Some(&self.view))
                .copied()
                .collect();
            for req in due {
                self.propose(req, ctx);
            }
        }
        // View change when requests stall.
        let stalled = self
            .pending
            .values()
            .any(|p| now.saturating_sub(p.since) > VC_TIMEOUT);
        if stalled && now.saturating_sub(self.last_vc_sent) > VC_TIMEOUT && !self.byzantine {
            let next = self.view + 1;
            self.last_vc_sent = now;
            let me = self.group_index;
            self.vc_votes.entry(next).or_default().insert(me);
            ctx.broadcast(
                self.peers.iter().copied(),
                ProtocolMsg::ViewChange { view: next },
            );
            if self.vc_votes[&next].len() > self.f {
                self.adopt_view(next, ctx);
            }
        }
    }
}

impl Actor for Replica {
    type Msg = ProtocolMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, ProtocolMsg>) {
        ctx.set_timer(TICK, TIMER_TICK);
        if self.active {
            if let Some(r) = self.recovery {
                ctx.set_timer(r.start, TIMER_RECOVERY_START);
            }
        }
        self.last_primary_heard = ctx.now();
    }

    fn on_message(&mut self, from: NodeId, msg: ProtocolMsg, ctx: &mut Ctx<'_, ProtocolMsg>) {
        if self.recovering {
            return;
        }
        if !self.active {
            if msg == ProtocolMsg::Heartbeat {
                self.last_primary_heard = ctx.now();
            }
            return;
        }
        match msg {
            ProtocolMsg::Request { id } => {
                if self.byzantine {
                    // Fabricated state, sent straight back.
                    ctx.send(
                        from,
                        ProtocolMsg::Reply {
                            id,
                            digest: correct_digest(fake_request(id)),
                        },
                    );
                }
                if let Some(t) = self.committed_reqs.get(&id).copied() {
                    let _ = t;
                    if !self.byzantine {
                        ctx.send(
                            from,
                            ProtocolMsg::Reply {
                                id,
                                digest: correct_digest(id),
                            },
                        );
                    }
                    return;
                }
                self.pending.entry(id).or_insert(PendingReq {
                    client: Some(from),
                    since: ctx.now(),
                });
                if self.is_leader() && self.assigned.get(&id) != Some(&self.view) {
                    self.propose(id, ctx);
                }
            }
            ProtocolMsg::Propose {
                view,
                seq,
                req,
                digest,
            } => {
                let Some(sender) = self.peer_index(from) else {
                    return;
                };
                if self.byzantine {
                    // Vote for anything, once.
                    if self.my_votes.insert((view, seq, req)) {
                        ctx.broadcast(
                            self.peers.iter().copied(),
                            ProtocolMsg::Accept {
                                view,
                                seq,
                                req,
                                digest,
                            },
                        );
                    }
                    return;
                }
                if digest != correct_digest(req) {
                    return; // fabricated payload
                }
                if view > self.view && self.leader_of(view) == sender {
                    self.adopt_view(view, ctx);
                }
                if view != self.view || self.leader_of(view) != sender {
                    return;
                }
                // Track the request so a stalled slot triggers a view
                // change even if the client's copy was lost.
                self.pending.entry(req).or_insert(PendingReq {
                    client: None,
                    since: ctx.now(),
                });
                self.accept_slot(view, seq, req, ctx);
            }
            ProtocolMsg::Accept {
                view,
                seq,
                req,
                digest,
            } => {
                let Some(sender) = self.peer_index(from) else {
                    return;
                };
                if self.byzantine {
                    if self.my_votes.insert((view, seq, req)) {
                        ctx.broadcast(
                            self.peers.iter().copied(),
                            ProtocolMsg::Accept {
                                view,
                                seq,
                                req,
                                digest,
                            },
                        );
                    }
                    return;
                }
                if digest != correct_digest(req) {
                    return;
                }
                self.tally(view, seq, req, sender, ctx);
            }
            ProtocolMsg::ViewChange { view } => {
                let Some(sender) = self.peer_index(from) else {
                    return;
                };
                if self.byzantine || view <= self.view {
                    return;
                }
                let votes = self.vc_votes.entry(view).or_default();
                votes.insert(sender);
                if votes.len() > self.f {
                    self.adopt_view(view, ctx);
                }
            }
            ProtocolMsg::Heartbeat => {
                self.last_primary_heard = ctx.now();
            }
            ProtocolMsg::Reply { .. } => {}
        }
    }

    fn on_timer(&mut self, id: u64, ctx: &mut Ctx<'_, ProtocolMsg>) {
        match id {
            TIMER_TICK => {
                self.on_tick(ctx);
                ctx.set_timer(TICK, TIMER_TICK);
            }
            TIMER_ACTIVATE => {
                if !self.active && ctx.now().saturating_sub(self.last_primary_heard) > COLD_DETECT {
                    self.active = true;
                }
                self.activation_scheduled = false;
            }
            TIMER_RECOVERY_START => {
                self.recovering = true;
                let d = self
                    .recovery
                    .map(|r| r.duration)
                    .unwrap_or(SimTime::from_secs(3.0));
                ctx.set_timer(d, TIMER_RECOVERY_END);
            }
            TIMER_RECOVERY_END => {
                self.recovering = false;
            }
            _ => {}
        }
    }
}

impl ct_simnet::StateHash for Replica {
    /// Hashes the protocol-relevant state: role flags, view/sequence
    /// counters, and every table keyed by request or slot. Absolute
    /// timestamps (`since`, `last_*`) are excluded per the [`StateHash`]
    /// convention — under zero-jitter exploration they are determined by
    /// the delivery history that is already hashed.
    ///
    /// [`StateHash`]: ct_simnet::StateHash
    fn state_hash(&self, h: &mut ct_store::StableHasher) {
        h.write_usize(self.group_index);
        h.write_bool(self.byzantine);
        h.write_bool(self.active);
        h.write_bool(self.recovering);
        h.write_bool(self.activation_scheduled);
        h.write_u64(self.view);
        h.write_u64(self.next_seq);
        h.write_usize(self.pending.len());
        for (req, p) in &self.pending {
            h.write_u64(*req);
            h.write_bool(p.client.is_some());
        }
        h.write_usize(self.assigned.len());
        for (req, seq) in &self.assigned {
            h.write_u64(*req);
            h.write_u64(*seq);
        }
        h.write_usize(self.slots.len());
        for (&(view, seq), req) in &self.slots {
            h.write_u64(view);
            h.write_u64(seq);
            h.write_u64(*req);
        }
        h.write_usize(self.votes.len());
        for (&(view, seq, req), voters) in &self.votes {
            h.write_u64(view);
            h.write_u64(seq);
            h.write_u64(req);
            h.write_usize(voters.len());
            for &voter in voters {
                h.write_usize(voter);
            }
        }
        h.write_usize(self.my_votes.len());
        for &(view, seq, req) in &self.my_votes {
            h.write_u64(view);
            h.write_u64(seq);
            h.write_u64(req);
        }
        h.write_usize(self.committed_slots.len());
        for (&(view, seq), req) in &self.committed_slots {
            h.write_u64(view);
            h.write_u64(seq);
            h.write_u64(*req);
        }
        h.write_usize(self.committed_reqs.len());
        for req in self.committed_reqs.keys() {
            h.write_u64(*req);
        }
        h.write_usize(self.vc_votes.len());
        for (view, voters) in &self.vc_votes {
            h.write_u64(*view);
            h.write_usize(voters.len());
            for &voter in voters {
                h.write_usize(voter);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_simnet::CommandBuffer;

    fn group(n: usize, sites: &[usize]) -> Vec<Replica> {
        let peers: Vec<NodeId> = (0..n).map(NodeId).collect();
        (0..n)
            .map(|i| Replica::new(i, peers.clone(), sites.to_vec(), 1))
            .collect()
    }

    #[test]
    fn quorum_sizes_match_theory() {
        let r6 = Replica::new(0, (0..6).map(NodeId).collect(), vec![0; 6], 1);
        assert_eq!(r6.quorum(), 4);
        let r18 = Replica::new(0, (0..18).map(NodeId).collect(), vec![0; 18], 1);
        assert_eq!(r18.quorum(), 10);
    }

    #[test]
    fn leader_rotation_single_site() {
        let r = Replica::new(0, (0..6).map(NodeId).collect(), vec![0; 6], 1);
        let leaders: Vec<usize> = (0..6).map(|v| r.leader_of(v)).collect();
        assert_eq!(leaders, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(r.leader_of(6), 0);
    }

    #[test]
    fn leader_rotation_striped_across_sites() {
        // 6 replicas in each of 3 sites: consecutive views hit
        // different sites.
        let sites: Vec<usize> = (0..18).map(|i| i / 6).collect();
        let r = Replica::new(0, (0..18).map(NodeId).collect(), sites.clone(), 1);
        let l0 = r.leader_of(0);
        let l1 = r.leader_of(1);
        let l2 = r.leader_of(2);
        assert_ne!(sites[l0], sites[l1]);
        assert_ne!(sites[l1], sites[l2]);
        assert_ne!(sites[l0], sites[l2]);
    }

    #[test]
    fn commit_requires_quorum() {
        let mut g = group(6, &[0; 6]);
        let mut buf = CommandBuffer::new();
        let now = SimTime::from_secs(1.0);
        // Replica 5 tallies votes for (view 0, seq 0, req 9).
        let r = &mut g[5];
        for voter in 0..3 {
            let mut ctx = buf.ctx(now, NodeId(5));
            r.tally(0, 0, 9, voter, &mut ctx);
        }
        assert!(r.committed_slots.is_empty(), "3 < Q = 4");
        let mut ctx = buf.ctx(now, NodeId(5));
        r.tally(0, 0, 9, 3, &mut ctx);
        assert_eq!(r.committed_slots.get(&(0, 0)), Some(&9));
    }

    #[test]
    fn correct_replica_votes_once_per_slot() {
        let mut g = group(6, &[0; 6]);
        let mut buf = CommandBuffer::new();
        let now = SimTime::from_secs(1.0);
        let r = &mut g[2];
        // Two conflicting proposals from the view-0 leader (node 0).
        let prop = |req: ReqId| ProtocolMsg::Propose {
            view: 0,
            seq: 0,
            req,
            digest: correct_digest(req),
        };
        {
            let mut ctx = buf.ctx(now, NodeId(2));
            r.on_message(NodeId(0), prop(7), &mut ctx);
        }
        buf.clear();
        {
            let mut ctx = buf.ctx(now, NodeId(2));
            r.on_message(NodeId(0), prop(8), &mut ctx);
        }
        // Second proposal for the same slot: no Accept broadcast.
        assert!(
            buf.sent().is_empty(),
            "correct replica must not vote twice for a slot"
        );
        assert_eq!(r.slots.get(&(0, 0)), Some(&7));
    }

    #[test]
    fn fabricated_digest_rejected() {
        let mut g = group(6, &[0; 6]);
        let mut buf = CommandBuffer::new();
        let r = &mut g[1];
        let mut ctx = buf.ctx(SimTime::from_secs(1.0), NodeId(1));
        r.on_message(
            NodeId(0),
            ProtocolMsg::Propose {
                view: 0,
                seq: 0,
                req: 7,
                digest: correct_digest(8), // wrong digest for req 7
            },
            &mut ctx,
        );
        assert!(r.slots.is_empty());
        assert!(buf.sent().is_empty());
    }

    #[test]
    fn proposal_from_non_leader_ignored() {
        let mut g = group(6, &[0; 6]);
        let mut buf = CommandBuffer::new();
        let r = &mut g[2];
        let mut ctx = buf.ctx(SimTime::from_secs(1.0), NodeId(2));
        // Node 3 is not the leader of view 0.
        r.on_message(
            NodeId(3),
            ProtocolMsg::Propose {
                view: 0,
                seq: 0,
                req: 7,
                digest: correct_digest(7),
            },
            &mut ctx,
        );
        assert!(r.slots.is_empty());
    }

    #[test]
    fn view_change_needs_f_plus_one() {
        let mut g = group(6, &[0; 6]);
        let mut buf = CommandBuffer::new();
        let now = SimTime::from_secs(1.0);
        let r = &mut g[4];
        {
            let mut ctx = buf.ctx(now, NodeId(4));
            r.on_message(NodeId(1), ProtocolMsg::ViewChange { view: 1 }, &mut ctx);
        }
        assert_eq!(r.view, 0, "one vote (f) is not enough");
        {
            let mut ctx = buf.ctx(now, NodeId(4));
            r.on_message(NodeId(2), ProtocolMsg::ViewChange { view: 1 }, &mut ctx);
        }
        assert_eq!(r.view, 1, "f+1 votes adopt the view");
    }

    #[test]
    fn byzantine_votes_for_everything() {
        let mut g = group(6, &[0; 6]);
        g[3].byzantine = true;
        let mut buf = CommandBuffer::new();
        let now = SimTime::from_secs(1.0);
        let r = &mut g[3];
        let prop = |req: ReqId| ProtocolMsg::Propose {
            view: 0,
            seq: 0,
            req,
            digest: correct_digest(req),
        };
        {
            let mut ctx = buf.ctx(now, NodeId(3));
            r.on_message(NodeId(0), prop(7), &mut ctx);
            r.on_message(NodeId(0), prop(8), &mut ctx);
        }
        // Voted for both conflicting proposals.
        let sent = buf.sent();
        let accepts = sent
            .iter()
            .filter(|(_, m)| matches!(m, ProtocolMsg::Accept { .. }))
            .count();
        assert!(accepts >= 2 * (r.n() - 1));
    }

    #[test]
    fn inactive_cold_replica_ignores_protocol() {
        let mut g = group(6, &[0; 6]);
        let r = &mut g[0];
        r.active = false;
        r.cold = Some(ColdConfig {
            activation_delay: SimTime::from_secs(10.0),
        });
        let mut buf = CommandBuffer::new();
        let mut ctx = buf.ctx(SimTime::from_secs(1.0), NodeId(0));
        r.on_message(NodeId(5), ProtocolMsg::Request { id: 3 }, &mut ctx);
        assert!(r.pending.is_empty());
        assert!(buf.sent().is_empty());
    }
}
