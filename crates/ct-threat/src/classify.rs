//! Table I: classifying a post-compound-threat system state into an
//! operational state.

use crate::state::SystemState;
use ct_scada::Architecture;
use std::fmt;

/// The paper's color-coded operational states (Sec. V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OperationalState {
    /// Fully operational.
    Green,
    /// Down until the cold-backup control center activates
    /// (minutes-scale disruption).
    Orange,
    /// Not operational until repairs or the attack ends.
    Red,
    /// Safety compromised: the system can behave incorrectly.
    Gray,
}

impl OperationalState {
    /// All states in severity order (least severe first). The derived
    /// `Ord` follows this order, so `max()` picks the worst outcome —
    /// which is exactly what the worst-case attacker maximizes.
    pub const ALL: [OperationalState; 4] = [
        OperationalState::Green,
        OperationalState::Orange,
        OperationalState::Red,
        OperationalState::Gray,
    ];

    /// The paper's color name.
    pub(crate) fn color(self) -> &'static str {
        match self {
            OperationalState::Green => "green",
            OperationalState::Orange => "orange",
            OperationalState::Red => "red",
            OperationalState::Gray => "gray",
        }
    }
}

impl fmt::Display for OperationalState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.color())
    }
}

/// Server intrusions that currently influence system correctness.
///
/// Intrusions only matter in sites whose servers are running and
/// reachable, and — for primary/cold-backup architectures — only in
/// the site that is currently *acting*: a compromised server in a
/// still-cold backup site serves nothing. (The worst-case attacker
/// never wastes intrusions on non-acting sites, so this refinement
/// only matters when classifying arbitrary states.)
fn relevant_intrusions(state: &SystemState) -> usize {
    match state.architecture {
        Architecture::C6P6P6 => state.effective_intrusions(),
        _ => state
            .acting_site()
            .map(|s| state.sites[s].intrusions)
            .unwrap_or(0),
    }
}

/// Applies Table I to a system state.
///
/// # Panics
///
/// Panics if the state's site count does not match its architecture
/// (unreachable for states built through this crate's constructors).
pub fn classify(state: &SystemState) -> OperationalState {
    assert_eq!(
        state.sites.len(),
        state.architecture.site_count(),
        "malformed system state"
    );
    let arch = state.architecture;
    if relevant_intrusions(state) >= arch.gray_threshold() {
        return OperationalState::Gray;
    }
    match arch {
        Architecture::C2 | Architecture::C6 => {
            if state.sites[0].status.is_functional() {
                OperationalState::Green
            } else {
                OperationalState::Red
            }
        }
        Architecture::C2_2 | Architecture::C6_6 => {
            let primary = state.sites[0].status;
            let backup = state.sites[1].status;
            if primary.is_functional() {
                OperationalState::Green
            } else if backup.is_functional() {
                OperationalState::Orange
            } else {
                OperationalState::Red
            }
        }
        Architecture::C6P6P6 => {
            if state.functional_sites().len() >= arch.min_sites_for_green() {
                OperationalState::Green
            } else {
                OperationalState::Red
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{PostDisasterState, SiteState, SiteStatus};

    fn state(arch: Architecture, sites: Vec<(SiteStatus, usize)>) -> SystemState {
        SystemState {
            architecture: arch,
            sites: sites
                .into_iter()
                .map(|(status, intrusions)| SiteState { status, intrusions })
                .collect(),
        }
    }

    use SiteStatus::{Flooded, Isolated, Up};

    #[test]
    fn severity_order() {
        assert!(OperationalState::Green < OperationalState::Orange);
        assert!(OperationalState::Orange < OperationalState::Red);
        assert!(OperationalState::Red < OperationalState::Gray);
    }

    // ---- Table I row "2" ----

    #[test]
    fn table1_config_2() {
        use Architecture::C2;
        assert_eq!(classify(&state(C2, vec![(Up, 0)])), OperationalState::Green);
        assert_eq!(
            classify(&state(C2, vec![(Flooded, 0)])),
            OperationalState::Red
        );
        assert_eq!(
            classify(&state(C2, vec![(Isolated, 0)])),
            OperationalState::Red
        );
        assert_eq!(classify(&state(C2, vec![(Up, 1)])), OperationalState::Gray);
    }

    // ---- Table I row "2-2" ----

    #[test]
    fn table1_config_2_2() {
        use Architecture::C2_2;
        assert_eq!(
            classify(&state(C2_2, vec![(Up, 0), (Up, 0)])),
            OperationalState::Green
        );
        assert_eq!(
            classify(&state(C2_2, vec![(Flooded, 0), (Up, 0)])),
            OperationalState::Orange
        );
        assert_eq!(
            classify(&state(C2_2, vec![(Isolated, 0), (Up, 0)])),
            OperationalState::Orange
        );
        assert_eq!(
            classify(&state(C2_2, vec![(Flooded, 0), (Isolated, 0)])),
            OperationalState::Red
        );
        assert_eq!(
            classify(&state(C2_2, vec![(Up, 1), (Up, 0)])),
            OperationalState::Gray
        );
        // Intrusion in the acting backup after primary failure.
        assert_eq!(
            classify(&state(C2_2, vec![(Flooded, 0), (Up, 1)])),
            OperationalState::Gray
        );
        // Intrusion in a cold, non-acting backup does nothing yet.
        assert_eq!(
            classify(&state(C2_2, vec![(Up, 0), (Up, 1)])),
            OperationalState::Green
        );
    }

    // ---- Table I row "6" ----

    #[test]
    fn table1_config_6() {
        use Architecture::C6;
        assert_eq!(classify(&state(C6, vec![(Up, 0)])), OperationalState::Green);
        assert_eq!(classify(&state(C6, vec![(Up, 1)])), OperationalState::Green);
        assert_eq!(classify(&state(C6, vec![(Up, 2)])), OperationalState::Gray);
        assert_eq!(
            classify(&state(C6, vec![(Flooded, 0)])),
            OperationalState::Red
        );
        assert_eq!(
            classify(&state(C6, vec![(Isolated, 1)])),
            OperationalState::Red
        );
    }

    // ---- Table I row "6-6" ----

    #[test]
    fn table1_config_6_6() {
        use Architecture::C6_6;
        assert_eq!(
            classify(&state(C6_6, vec![(Up, 1), (Up, 0)])),
            OperationalState::Green
        );
        assert_eq!(
            classify(&state(C6_6, vec![(Isolated, 0), (Up, 1)])),
            OperationalState::Orange
        );
        assert_eq!(
            classify(&state(C6_6, vec![(Isolated, 0), (Up, 2)])),
            OperationalState::Gray
        );
        assert_eq!(
            classify(&state(C6_6, vec![(Flooded, 0), (Flooded, 0)])),
            OperationalState::Red
        );
        assert_eq!(
            classify(&state(C6_6, vec![(Up, 2), (Up, 0)])),
            OperationalState::Gray
        );
    }

    // ---- Table I row "6+6+6" ----

    #[test]
    fn table1_config_6p6p6() {
        use Architecture::C6P6P6;
        assert_eq!(
            classify(&state(C6P6P6, vec![(Up, 0), (Up, 0), (Up, 0)])),
            OperationalState::Green
        );
        // One site down (either way): still green.
        assert_eq!(
            classify(&state(C6P6P6, vec![(Flooded, 0), (Up, 0), (Up, 0)])),
            OperationalState::Green
        );
        assert_eq!(
            classify(&state(C6P6P6, vec![(Isolated, 0), (Up, 1), (Up, 0)])),
            OperationalState::Green
        );
        // Two sites down: red.
        assert_eq!(
            classify(&state(C6P6P6, vec![(Flooded, 0), (Flooded, 0), (Up, 1)])),
            OperationalState::Red
        );
        assert_eq!(
            classify(&state(C6P6P6, vec![(Flooded, 0), (Isolated, 0), (Up, 0)])),
            OperationalState::Red
        );
        // Two effective intrusions across sites: gray.
        assert_eq!(
            classify(&state(C6P6P6, vec![(Up, 1), (Up, 1), (Up, 0)])),
            OperationalState::Gray
        );
        // Intrusions inside an isolated site cannot vote: not gray.
        assert_eq!(
            classify(&state(C6P6P6, vec![(Isolated, 2), (Up, 0), (Up, 0)])),
            OperationalState::Green
        );
    }

    #[test]
    fn pristine_states_are_green_for_all() {
        for arch in Architecture::ALL {
            let post = PostDisasterState::all_up(arch);
            let s = SystemState::from_post_disaster(arch, &post);
            assert_eq!(classify(&s), OperationalState::Green, "{arch}");
        }
    }
}
