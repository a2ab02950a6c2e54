//! System states before and after the cyberattack.

use ct_scada::Architecture;
use std::fmt;

/// Status of one control site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteStatus {
    /// Functional and reachable.
    Up,
    /// Destroyed/disabled by the natural disaster: its servers are
    /// not running at all.
    Flooded,
    /// Running but cut off from the network by the attacker.
    Isolated,
}

impl SiteStatus {
    /// Whether the site can currently serve the system (running *and*
    /// reachable).
    pub(crate) fn is_functional(self) -> bool {
        self == SiteStatus::Up
    }

    /// Whether the site's servers are running (flooding stops them;
    /// isolation does not).
    pub fn is_running(self) -> bool {
        self != SiteStatus::Flooded
    }
}

/// The system immediately after the natural disaster, before any
/// cyberattack: which control sites the hurricane knocked out.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PostDisasterState {
    flooded: Vec<bool>,
}

impl PostDisasterState {
    /// Builds the state from per-site flood flags (primary first).
    ///
    /// # Panics
    ///
    /// Panics if the flag count does not match the architecture's
    /// site count.
    pub fn new(architecture: Architecture, flooded: Vec<bool>) -> Self {
        assert_eq!(
            flooded.len(),
            architecture.site_count(),
            "one flood flag per control site"
        );
        Self { flooded }
    }

    /// All sites survived the disaster.
    pub fn all_up(architecture: Architecture) -> Self {
        Self {
            flooded: vec![false; architecture.site_count()],
        }
    }

    /// Per-site flood flags, primary first.
    pub fn flooded(&self) -> &[bool] {
        &self.flooded
    }

    /// Number of control sites.
    pub(crate) fn site_count(&self) -> usize {
        self.flooded.len()
    }
}

/// Per-site state after the full compound threat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SiteState {
    /// Availability status.
    pub status: SiteStatus,
    /// Compromised servers in this site.
    pub intrusions: usize,
}

/// The complete post-compound-threat system state that Table I
/// classifies.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SystemState {
    /// The architecture under evaluation.
    pub architecture: Architecture,
    /// Per control site, primary first.
    pub sites: Vec<SiteState>,
}

impl SystemState {
    /// Lifts a post-disaster state into a system state with no attack
    /// applied yet.
    pub fn from_post_disaster(architecture: Architecture, post: &PostDisasterState) -> Self {
        assert_eq!(post.site_count(), architecture.site_count());
        Self {
            architecture,
            sites: post
                .flooded()
                .iter()
                .map(|&f| SiteState {
                    status: if f {
                        SiteStatus::Flooded
                    } else {
                        SiteStatus::Up
                    },
                    intrusions: 0,
                })
                .collect(),
        }
    }

    /// Indices of functional (up) sites.
    pub(crate) fn functional_sites(&self) -> Vec<usize> {
        (0..self.sites.len())
            .filter(|&i| self.sites[i].status.is_functional())
            .collect()
    }

    /// The site currently *acting* for primary/cold-backup
    /// architectures: the first functional site in priority order, if
    /// any.
    pub(crate) fn acting_site(&self) -> Option<usize> {
        self.functional_sites().first().copied()
    }

    /// Marks a site isolated.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range or the site is flooded
    /// (there is nothing left to isolate).
    pub fn isolate(&mut self, site: usize) {
        let s = &mut self.sites[site];
        assert_ne!(
            s.status,
            SiteStatus::Flooded,
            "cannot isolate a flooded site"
        );
        s.status = SiteStatus::Isolated;
    }

    /// Adds a server intrusion in a site.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range or the site is flooded
    /// (a destroyed server cannot be compromised).
    pub fn intrude(&mut self, site: usize) {
        let s = &mut self.sites[site];
        assert_ne!(
            s.status,
            SiteStatus::Flooded,
            "cannot compromise a destroyed server"
        );
        s.intrusions += 1;
    }

    /// Total intrusions in functional sites — the intrusions that can
    /// actually influence system behaviour.
    pub fn effective_intrusions(&self) -> usize {
        self.sites
            .iter()
            .filter(|s| s.status.is_functional())
            .map(|s| s.intrusions)
            .sum()
    }
}

impl fmt::Display for SystemState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [", self.architecture)?;
        for (i, s) in self.sites.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            let tag = match s.status {
                SiteStatus::Up => "up",
                SiteStatus::Flooded => "flooded",
                SiteStatus::Isolated => "isolated",
            };
            write!(f, "s{i}:{tag}/{}", s.intrusions)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_semantics() {
        assert!(SiteStatus::Up.is_functional() && SiteStatus::Up.is_running());
        assert!(!SiteStatus::Flooded.is_functional() && !SiteStatus::Flooded.is_running());
        assert!(!SiteStatus::Isolated.is_functional() && SiteStatus::Isolated.is_running());
    }

    #[test]
    fn post_disaster_shape_checked() {
        let p = PostDisasterState::new(Architecture::C6_6, vec![true, false]);
        assert_eq!(p.flooded(), [true, false]);
        assert_eq!(
            PostDisasterState::all_up(Architecture::C6P6P6).site_count(),
            3
        );
    }

    #[test]
    #[should_panic(expected = "one flood flag per control site")]
    fn post_disaster_wrong_arity_panics() {
        let _ = PostDisasterState::new(Architecture::C2, vec![false, true]);
    }

    #[test]
    fn lifting_and_mutation() {
        let post = PostDisasterState::new(Architecture::C6_6, vec![true, false]);
        let mut s = SystemState::from_post_disaster(Architecture::C6_6, &post);
        assert_eq!(s.functional_sites(), vec![1]);
        assert_eq!(s.acting_site(), Some(1));
        s.intrude(1);
        assert_eq!(s.effective_intrusions(), 1);
        s.isolate(1);
        assert_eq!(s.acting_site(), None);
        // Isolated-site intrusions are not effective.
        assert_eq!(s.effective_intrusions(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot compromise a destroyed server")]
    fn cannot_intrude_flooded_site() {
        let post = PostDisasterState::new(Architecture::C2, vec![true]);
        let mut s = SystemState::from_post_disaster(Architecture::C2, &post);
        s.intrude(0);
    }

    #[test]
    fn display_is_informative() {
        let post = PostDisasterState::all_up(Architecture::C2_2);
        let s = SystemState::from_post_disaster(Architecture::C2_2, &post);
        let txt = s.to_string();
        assert!(txt.contains("2-2") && txt.contains("s0:up/0"));
    }
}
