//! Bounded exhaustive schedule exploration and randomized schedule
//! perturbation.
//!
//! The kernel in [`crate::sim`] replays *one* seeded schedule. This
//! module adds two complementary ways to ask "could a different
//! ordering have changed the outcome?":
//!
//! 1. [`Explorer`] — a stateright-style bounded exhaustive search.
//!    Instead of always firing the earliest pending event, the
//!    explorer treats near-simultaneous *conflicting* events (two
//!    events addressed to the same node, or a fault racing anything)
//!    as a **choice point** and explores every firing order by DFS,
//!    deduplicating revisited states with a 128-bit
//!    [`StableHasher`] digest of the whole world. Events whose
//!    targets differ commute exactly (their handlers touch disjoint
//!    actors), so skipping them is a partial-order reduction, not a
//!    loss of coverage.
//! 2. [`ScheduleDist`] — a seeded randomized tier for campaigns past
//!    the exhaustive horizon: per-send discard / delay /
//!    duplicate probabilities applied at send time
//!    (see [`Sim::set_schedule_dist`]). The same seed always yields
//!    the same perturbed schedule, so any counterexample found by a
//!    campaign is replayable from its seed alone.
//!
//! Both tiers report through ct-obs (`simnet.explore.*` and
//! `simnet.schedule.*`) and both are single-threaded and
//! deterministic: counters are identical across `CT_THREADS`.

use crate::actor::Actor;
use crate::sim::{EventKind, Sim, SimStats};
use crate::time::SimTime;
use ct_store::{Digest, StableHasher};
use std::collections::HashSet;

/// Hashing of actor and message state into a [`StableHasher`].
///
/// The digest decides which explored states are "the same", so it
/// should cover every field that can influence future behaviour.
/// Absolute timestamps held by actors are deliberately *excluded* by
/// convention (relative event times are hashed by the explorer
/// itself); this merges states that differ only in wall-clock
/// offsets and is part of why the check is bounded rather than
/// complete.
pub trait StateHash {
    /// Feeds this value's behaviour-relevant state into `h`.
    fn state_hash(&self, h: &mut StableHasher);
}

/// The fault probabilities of a [`ScheduleDist`], rolled per send.
/// All default to zero (no perturbation).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SendFaults {
    /// Probability a send is discarded outright.
    pub discard: f64,
    /// Probability a send is delayed by up to `delay_by`.
    pub delay: f64,
    /// Maximum extra latency for delayed sends (uniform in
    /// `[0, delay_by)`).
    pub delay_by: SimTime,
    /// Probability a send is delivered twice.
    pub duplicate: f64,
}

/// A seeded distribution over schedule perturbations, the same for
/// every message. Build with [`ScheduleDist::new`] or
/// [`ScheduleDist::uniform`]; install with [`Sim::set_schedule_dist`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleDist {
    /// Seed of the dedicated schedule RNG stream.
    pub seed: u64,
    /// Faults applied to every send.
    pub(crate) faults: SendFaults,
}

impl ScheduleDist {
    /// A distribution that perturbs nothing.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            faults: SendFaults::default(),
        }
    }

    /// A distribution applying `faults` to every message.
    pub fn uniform(seed: u64, faults: SendFaults) -> Self {
        Self { seed, faults }
    }

    /// The same distribution under a different seed (campaigns derive
    /// one schedule per run this way).
    pub fn with_seed(&self, seed: u64) -> Self {
        let mut d = self.clone();
        d.seed = seed;
        d
    }
}

/// Bounds on an exhaustive exploration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExploreConfig {
    /// Virtual-time horizon: events past this are not executed and a
    /// state with nothing left before the horizon is terminal.
    pub horizon: SimTime,
    /// Maximum number of choice points along any one path. Deeper
    /// conflicts fall back to heap order (counted as
    /// `depth_truncated`).
    pub max_depth: usize,
    /// Maximum branching factor at a choice point; conflicts beyond
    /// this fall back to heap order (counted as `branch_capped`).
    pub max_branch: usize,
    /// Two events are considered near-simultaneous — candidates for
    /// reordering — when their times are within this window. Matches
    /// the latency jitter the reordering stands in for.
    pub commute_window: SimTime,
    /// Hard cap on executed events across the whole search; the
    /// search stops (reported as `truncated`) when it is reached.
    pub max_states: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        Self {
            horizon: SimTime::from_secs(30.0),
            max_depth: 3,
            max_branch: 3,
            // Inter-site latency 10 ms at ±20% jitter spans 4 ms.
            commute_window: SimTime::from_millis(4.0),
            max_states: 5_000_000,
        }
    }
}

/// Search counters for one exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExploreStats {
    /// Events executed across all explored paths.
    pub visited: u64,
    /// Choice points branched on.
    pub choice_points: u64,
    /// Subtrees skipped because their state digest was already seen.
    pub pruned: u64,
    /// Conflicts past the depth bound, resolved by heap order.
    pub depth_truncated: u64,
    /// Choice points whose ready set was capped at `max_branch`.
    pub(crate) branch_capped: u64,
    /// Terminal states reached (horizon or quiescence).
    pub terminals: u64,
    /// Whether the search hit `max_states` and stopped early.
    pub truncated: bool,
}

/// A property violation found on some explored path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreViolation<V> {
    /// What the checker reported.
    pub violation: V,
    /// Branch indices taken at each choice point to reach the
    /// violating state.
    pub trace: Vec<usize>,
    /// Virtual time of the violating state.
    pub(crate) at: SimTime,
}

/// The result of an exploration: counters, violations, and one
/// checker-produced summary per terminal state.
#[derive(Debug, Clone)]
pub struct ExploreReport<V, R> {
    /// Search counters.
    pub stats: ExploreStats,
    /// All property violations found, in DFS order.
    pub violations: Vec<ExploreViolation<V>>,
    /// Terminal-state summaries, in DFS order.
    pub terminals: Vec<R>,
}

/// Bounded exhaustive interleaving search over a [`Sim`].
///
/// The explorer owns a *root* simulation (cloned per branch) and
/// walks the tree of conflicting-event orderings depth-first. Two
/// checker callbacks drive property evaluation:
///
/// * `on_step(&Sim)` after every executed event — return
///   `Some(violation)` to record a violation and stop extending that
///   path;
/// * `on_terminal(&Sim)` at every terminal state — returns an
///   optional violation plus a summary value (e.g. a verdict) that
///   is collected into [`ExploreReport::terminals`].
pub struct Explorer<A: Actor + Clone> {
    root: Sim<A>,
    config: ExploreConfig,
}

impl<A> Explorer<A>
where
    A: Actor + Clone + StateHash,
    A::Msg: StateHash,
{
    /// Wraps `sim` (not yet started) for exploration under `config`.
    pub fn new(sim: Sim<A>, config: ExploreConfig) -> Self {
        Self { root: sim, config }
    }

    /// Runs the bounded exhaustive search and reports its counters,
    /// and the simulation work of every explored event, through
    /// ct-obs (`simnet.explore.*`, `simnet.events_dispatched`, …).
    pub fn run<V, S, T, R>(&mut self, mut on_step: S, mut on_terminal: T) -> ExploreReport<V, R>
    where
        S: FnMut(&Sim<A>) -> Option<V>,
        T: FnMut(&Sim<A>) -> (Option<V>, R),
    {
        let mut root = self.root.clone();
        root.start_now();
        let mut search = Search {
            config: self.config,
            seen: HashSet::new(),
            stats: ExploreStats::default(),
            work: SimStats::default(),
            violations: Vec::new(),
            terminals: Vec::new(),
            trace: Vec::new(),
        };
        search.dfs(root, 0, &mut on_step, &mut on_terminal);
        search.work.report();
        ct_obs::add(ct_obs::names::SIMNET_EXPLORE_VISITED, search.stats.visited);
        ct_obs::add(ct_obs::names::SIMNET_EXPLORE_PRUNED, search.stats.pruned);
        ct_obs::add(
            ct_obs::names::SIMNET_EXPLORE_CHOICE_POINTS,
            search.stats.choice_points,
        );
        ct_obs::add(
            ct_obs::names::SIMNET_EXPLORE_DEPTH_TRUNCATED,
            search.stats.depth_truncated,
        );
        ct_obs::add(
            ct_obs::names::SIMNET_EXPLORE_BRANCH_CAPPED,
            search.stats.branch_capped,
        );
        ct_obs::add(
            ct_obs::names::SIMNET_EXPLORE_TERMINALS,
            search.stats.terminals,
        );
        ExploreReport {
            stats: search.stats,
            violations: search.violations,
            terminals: search.terminals,
        }
    }
}

/// Whether the ready window contains an actual ordering conflict:
/// two events addressed to the same node, or any fault action (which
/// races every delivery and timer). Windows without a conflict
/// commute — handlers touch disjoint actors — so they are executed
/// in heap order without branching.
fn has_conflict<A: Actor>(sim: &Sim<A>, ready: &[(SimTime, u64, usize)]) -> bool {
    let mut targets = Vec::with_capacity(ready.len());
    for &(_, _, idx) in ready {
        match sim.event_kind(idx) {
            Some(EventKind::Fault(_)) => return true,
            Some(EventKind::Deliver { to, .. }) => targets.push(to.0),
            Some(EventKind::Timer { node, .. }) => targets.push(node.0),
            None => {}
        }
    }
    targets.sort_unstable();
    targets.windows(2).any(|w| w[0] == w[1])
}

/// DFS bookkeeping for one `Explorer::run`.
struct Search<V, R> {
    config: ExploreConfig,
    seen: HashSet<Digest>,
    stats: ExploreStats,
    /// Simulation counters summed over every executed event.
    work: SimStats,
    violations: Vec<ExploreViolation<V>>,
    terminals: Vec<R>,
    trace: Vec<usize>,
}

impl<V, R> Search<V, R> {
    fn dfs<A, S, T>(&mut self, mut sim: Sim<A>, depth: usize, on_step: &mut S, on_terminal: &mut T)
    where
        A: Actor + Clone + StateHash,
        A::Msg: StateHash,
        S: FnMut(&Sim<A>) -> Option<V>,
        T: FnMut(&Sim<A>) -> (Option<V>, R),
    {
        loop {
            if self.stats.visited >= self.config.max_states {
                self.stats.truncated = true;
                return;
            }
            let ready = sim.peek_ready(
                self.config.commute_window,
                self.config.max_branch,
                self.config.horizon,
            );
            if ready.is_empty() {
                // Horizon reached (or quiescent): terminal state.
                self.stats.terminals += 1;
                let (violation, summary) = on_terminal(&sim);
                if let Some(violation) = violation {
                    self.record(violation, sim.now());
                }
                self.terminals.push(summary);
                return;
            }
            let conflict = ready.len() > 1 && has_conflict(&sim, &ready);
            if !conflict || depth >= self.config.max_depth {
                if conflict {
                    self.stats.depth_truncated += 1;
                }
                // Forced (or commuting) prefix: run in heap order.
                if self.step(&mut sim, ready[0].2, on_step) {
                    return;
                }
                continue;
            }
            // Choice point: dedup, then branch over every order.
            self.stats.choice_points += 1;
            if ready.len() == self.config.max_branch {
                self.stats.branch_capped += 1;
            }
            if !self.seen.insert(state_digest(&sim)) {
                self.stats.pruned += 1;
                return;
            }
            for (branch, r) in ready.iter().enumerate() {
                let mut child = sim.clone();
                self.trace.push(branch);
                if !self.step(&mut child, r.2, on_step) {
                    self.dfs(child, depth + 1, on_step, on_terminal);
                }
                self.trace.pop();
            }
            return;
        }
    }

    /// Executes the ready event `idx` and checks the state it leaves;
    /// true when that state violates a property (recorded here).
    fn step<A, S>(&mut self, sim: &mut Sim<A>, idx: usize, on_step: &mut S) -> bool
    where
        A: Actor,
        S: FnMut(&Sim<A>) -> Option<V>,
    {
        let before = sim.stats();
        let event = sim.take_event(idx).expect("ready event is live");
        sim.execute_event(event);
        self.work.add_delta(before, sim.stats());
        self.stats.visited += 1;
        let Some(violation) = on_step(sim) else {
            return false;
        };
        self.record(violation, sim.now());
        true
    }

    fn record(&mut self, violation: V, at: SimTime) {
        self.violations.push(ExploreViolation {
            violation,
            trace: self.trace.clone(),
            at,
        });
    }
}

/// Digest of the whole world: every actor's behaviour-relevant
/// state, the dynamic network state, and the live pending events
/// with times relative to the earliest pending one (so two schedules
/// converging on the same state modulo a time shift dedup).
fn state_digest<A>(sim: &Sim<A>) -> Digest
where
    A: Actor + StateHash,
    A::Msg: StateHash,
{
    let mut h = StableHasher::new();
    for node in sim.nodes() {
        node.state_hash(&mut h);
    }
    let net = sim.net();
    h.write_usize(net.crashed_nodes.len());
    for n in &net.crashed_nodes {
        h.write_usize(n.0);
    }
    h.write_usize(net.isolated_sites.len());
    for s in &net.isolated_sites {
        h.write_usize(s.0);
    }
    let pending = sim.pending_snapshot();
    let t0 = pending.first().map(|&(at, _)| at).unwrap_or(SimTime::ZERO);
    h.write_usize(pending.len());
    for (at, idx) in pending {
        h.write_u64((at - t0).as_micros());
        match sim.event_kind(idx) {
            Some(EventKind::Deliver { from, to, msg }) => {
                h.write_u8(0);
                h.write_usize(from.0);
                h.write_usize(to.0);
                msg.state_hash(&mut h);
            }
            Some(EventKind::Timer { node, id }) => {
                h.write_u8(1);
                h.write_usize(node.0);
                h.write_u64(*id);
            }
            Some(EventKind::Fault(action)) => {
                h.write_u8(2);
                fault_hash(action, &mut h);
            }
            None => h.write_u8(3),
        }
    }
    h.finish()
}

fn fault_hash(action: &crate::fault::FaultAction, h: &mut StableHasher) {
    use crate::fault::FaultAction::*;
    match action {
        CrashNode(n) => {
            h.write_u8(0);
            h.write_usize(n.0);
        }
        CrashSite(s) => {
            h.write_u8(1);
            h.write_usize(s.0);
        }
        IsolateSite(s) => {
            h.write_u8(2);
            h.write_usize(s.0);
        }
        HealSite(s) => {
            h.write_u8(3);
            h.write_usize(s.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Ctx, NodeId};
    use crate::net::NetConfig;

    impl<A> Explorer<A>
    where
        A: Actor + Clone + StateHash,
        A::Msg: StateHash,
    {
        /// Deterministically replays one explored path: at each choice
        /// point the branch index is taken from `trace` (heap order once
        /// the trace is exhausted) and the resulting simulation at the
        /// trace's end-of-horizon state is returned.
        fn replay(&self, trace: &[usize]) -> Sim<A> {
            let mut sim = self.root.clone();
            sim.start_now();
            let mut cursor = 0usize;
            let mut depth = 0usize;
            loop {
                let ready = sim.peek_ready(
                    self.config.commute_window,
                    self.config.max_branch,
                    self.config.horizon,
                );
                if ready.is_empty() {
                    return sim;
                }
                let choice = if ready.len() > 1
                    && depth < self.config.max_depth
                    && has_conflict(&sim, &ready)
                {
                    depth += 1;
                    let c = trace.get(cursor).copied().unwrap_or(0);
                    cursor += 1;
                    c.min(ready.len() - 1)
                } else {
                    0
                };
                let idx = ready[choice].2;
                let event = sim.take_event(idx).expect("ready event is live");
                sim.execute_event(event);
            }
        }
    }

    /// Two writers race to set a register on node 0; the final value
    /// depends on delivery order, so exploration must see both.
    #[derive(Debug, Clone, Default)]
    struct Register {
        value: u64,
        write: Option<u64>,
    }

    impl Actor for Register {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            if let Some(v) = self.write {
                ctx.send(NodeId(0), v);
            }
        }
        fn on_message(&mut self, _from: NodeId, msg: u64, _ctx: &mut Ctx<'_, u64>) {
            self.value = msg;
        }
    }

    impl StateHash for Register {
        fn state_hash(&self, h: &mut StableHasher) {
            h.write_u64(self.value);
            h.write_bool(self.write.is_some());
        }
    }

    impl StateHash for u64 {
        fn state_hash(&self, h: &mut StableHasher) {
            h.write_u64(*self);
        }
    }

    fn racing_sim() -> Sim<Register> {
        // Nodes 1 and 2 both write to node 0 from the same site; the
        // two deliveries land within the jitter window.
        let mut net = NetConfig::multi_site(&[3]);
        net.jitter_frac = 0.0;
        Sim::new(
            net,
            1,
            vec![
                Register::default(),
                Register {
                    value: 0,
                    write: Some(11),
                },
                Register {
                    value: 0,
                    write: Some(22),
                },
            ],
        )
    }

    fn explore_cfg() -> ExploreConfig {
        ExploreConfig {
            horizon: SimTime::from_secs(1.0),
            max_depth: 4,
            max_branch: 4,
            commute_window: SimTime::from_millis(4.0),
            max_states: 10_000,
        }
    }

    #[test]
    fn explorer_sees_both_orders_of_a_race() {
        let mut explorer = Explorer::new(racing_sim(), explore_cfg());
        let report = explorer.run(|_sim| None::<()>, |sim| (None, sim.node(NodeId(0)).value));
        let mut finals = report.terminals.clone();
        finals.sort_unstable();
        assert_eq!(finals, vec![11, 22]);
        assert_eq!(report.stats.terminals, 2);
        assert_eq!(report.stats.choice_points, 1);
        assert!(report.violations.is_empty());
    }

    #[test]
    fn commuting_events_do_not_branch() {
        // A single writer: simultaneous events never conflict, so the
        // search degenerates to one path with zero choice points.
        let mut net = NetConfig::multi_site(&[3]);
        net.jitter_frac = 0.0;
        let sim = Sim::new(
            net,
            1,
            vec![
                Register::default(),
                Register {
                    value: 0,
                    write: Some(5),
                },
                Register::default(),
            ],
        );
        let mut explorer = Explorer::new(sim, explore_cfg());
        let report = explorer.run(|_| None::<()>, |sim| (None, sim.node(NodeId(0)).value));
        assert_eq!(report.stats.choice_points, 0);
        assert_eq!(report.stats.terminals, 1);
        assert_eq!(report.terminals, vec![5]);
    }

    #[test]
    fn violations_carry_replayable_traces() {
        // "22 must never be the final value" — violated on exactly
        // the order that delivers 11 first.
        let mut explorer = Explorer::new(racing_sim(), explore_cfg());
        let report = explorer.run(
            |_| None,
            |sim| {
                let v = sim.node(NodeId(0)).value;
                let violation = (v == 22).then(|| ("no-22".to_string(), format!("value={v}")));
                (violation, v)
            },
        );
        assert_eq!(report.violations.len(), 1);
        let violation = &report.violations[0];
        assert_eq!(violation.violation.0, "no-22");
        let replayed = explorer.replay(&violation.trace);
        assert_eq!(replayed.node(NodeId(0)).value, 22);
        assert_eq!(report.stats.terminals, 2);
    }

    #[test]
    fn exploration_is_deterministic() {
        let run = || {
            let mut explorer = Explorer::new(racing_sim(), explore_cfg());
            let report = explorer.run(|_| None::<()>, |sim| (None, sim.node(NodeId(0)).value));
            (report.stats, report.terminals)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn schedule_dist_is_deterministic_per_seed() {
        let dist = ScheduleDist::uniform(
            42,
            SendFaults {
                discard: 0.3,
                delay: 0.3,
                delay_by: SimTime::from_millis(20.0),
                duplicate: 0.3,
            },
        );
        let run = |seed: u64| {
            let mut sim = racing_sim();
            sim.set_schedule_dist(dist.with_seed(seed));
            sim.run_until(SimTime::from_secs(1.0));
            (sim.stats(), sim.node(NodeId(0)).value)
        };
        assert_eq!(run(7), run(7));
        // Across many seeds the perturbations actually happen.
        let mut perturbed = 0u64;
        for seed in 0..64 {
            let (stats, _) = run(seed);
            perturbed +=
                stats.schedule_discards + stats.schedule_delays + stats.schedule_duplicates;
        }
        assert!(perturbed > 0, "schedule faults never triggered");
    }
}
