//! Scheduled fault injection.

use crate::actor::{NodeId, SiteId};
use crate::time::SimTime;

/// A fault (or repair) applied to the simulation at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Crash a single node: it stops receiving messages and timers.
    CrashNode(NodeId),
    /// Crash every node in a site (the natural-disaster outcome for a
    /// flooded control site).
    CrashSite(SiteId),
    /// Sever a site's WAN links while leaving its LAN intact (the
    /// paper's *site isolation* attack).
    IsolateSite(SiteId),
    /// Undo a site isolation.
    HealSite(SiteId),
}

/// A time-ordered schedule of fault actions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    entries: Vec<(SimTime, FaultAction)>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an action at `at`, keeping the plan sorted by time.
    ///
    /// Entries form a total order on `(time, insertion sequence)`:
    /// equal-time actions are applied in the order they were added to
    /// the plan. The insert goes through a binary search for the
    /// upper bound of `at` rather than a whole-vec re-sort, so the
    /// tie order is structural — not an artifact of sort stability —
    /// and explorer replays of a plan are schedule-stable.
    pub fn at(mut self, at: SimTime, action: FaultAction) -> Self {
        let pos = self.entries.partition_point(|&(t, _)| t <= at);
        self.entries.insert(pos, (at, action));
        self
    }

    /// The scheduled actions in time order.
    pub fn entries(&self) -> &[(SimTime, FaultAction)] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_stays_sorted() {
        let plan = FaultPlan::new()
            .at(SimTime::from_secs(5.0), FaultAction::CrashNode(NodeId(1)))
            .at(SimTime::from_secs(1.0), FaultAction::IsolateSite(SiteId(0)))
            .at(SimTime::from_secs(3.0), FaultAction::HealSite(SiteId(0)));
        let times: Vec<f64> = plan.entries().iter().map(|(t, _)| t.as_secs()).collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn equal_time_entries_keep_insertion_order() {
        let t = SimTime::from_secs(2.0);
        let plan = FaultPlan::new()
            .at(t, FaultAction::IsolateSite(SiteId(0)))
            .at(SimTime::from_secs(1.0), FaultAction::CrashNode(NodeId(0)))
            .at(t, FaultAction::HealSite(SiteId(0)))
            .at(t, FaultAction::IsolateSite(SiteId(1)));
        assert_eq!(
            plan.entries(),
            &[
                (SimTime::from_secs(1.0), FaultAction::CrashNode(NodeId(0))),
                (t, FaultAction::IsolateSite(SiteId(0))),
                (t, FaultAction::HealSite(SiteId(0))),
                (t, FaultAction::IsolateSite(SiteId(1))),
            ]
        );
    }

    #[test]
    fn empty_plan() {
        let plan = FaultPlan::new();
        assert_eq!(plan.entries(), &[]);
    }
}
