//! Outcome probability profiles — the bars of Figures 6-11.

use ct_threat::OperationalState;
use std::fmt;

/// The distribution of operational states over an ensemble of
/// realizations: the paper's per-configuration probability profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OutcomeProfile {
    counts: [usize; 4],
}

impl OutcomeProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` realizations with the same outcome — the weighted
    /// form used when outcomes are evaluated per distinct flood
    /// pattern rather than per realization.
    pub fn record_n(&mut self, outcome: OperationalState, n: usize) {
        self.counts[Self::slot(outcome)] += n;
    }

    fn slot(state: OperationalState) -> usize {
        match state {
            OperationalState::Green => 0,
            OperationalState::Orange => 1,
            OperationalState::Red => 2,
            OperationalState::Gray => 3,
        }
    }

    /// Total realizations recorded.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Count of a specific outcome.
    pub(crate) fn count(&self, state: OperationalState) -> usize {
        self.counts[Self::slot(state)]
    }

    /// Probability of a specific outcome (0 for an empty profile).
    pub(crate) fn fraction(&self, state: OperationalState) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(state) as f64 / total as f64
        }
    }

    /// Probability of the green state.
    pub fn green(&self) -> f64 {
        self.fraction(OperationalState::Green)
    }

    /// Probability of the orange state.
    pub fn orange(&self) -> f64 {
        self.fraction(OperationalState::Orange)
    }

    /// Probability of the red state.
    pub fn red(&self) -> f64 {
        self.fraction(OperationalState::Red)
    }

    /// Probability of the gray state.
    pub fn gray(&self) -> f64 {
        self.fraction(OperationalState::Gray)
    }

    /// Whether two profiles agree within `tol` on every state.
    pub fn approx_eq(&self, other: &OutcomeProfile, tol: f64) -> bool {
        OperationalState::ALL
            .iter()
            .all(|&s| (self.fraction(s) - other.fraction(s)).abs() <= tol)
    }
}

impl fmt::Display for OutcomeProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "green {:.1}% / orange {:.1}% / red {:.1}% / gray {:.1}%",
            100.0 * self.green(),
            100.0 * self.orange(),
            100.0 * self.red(),
            100.0 * self.gray()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use OperationalState::*;

    impl OutcomeProfile {
        /// Builds a profile from per-realization outcomes.
        pub(crate) fn from_outcomes(outcomes: impl IntoIterator<Item = OperationalState>) -> Self {
            let mut p = Self::default();
            for o in outcomes {
                p.record_n(o, 1);
            }
            p
        }
    }

    #[test]
    fn counting_and_fractions() {
        let p = OutcomeProfile::from_outcomes([Green, Green, Red, Gray]);
        assert_eq!(p.total(), 4);
        assert_eq!(p.count(Green), 2);
        assert!((p.green() - 0.5).abs() < 1e-12);
        assert!((p.orange() - 0.0).abs() < 1e-12);
        assert!((p.red() - 0.25).abs() < 1e-12);
        assert!((p.gray() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_profile_is_all_zero() {
        let p = OutcomeProfile::new();
        assert_eq!(p.total(), 0);
        assert_eq!(p.green(), 0.0);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut weighted = OutcomeProfile::new();
        weighted.record_n(Green, 3);
        weighted.record_n(Gray, 2);
        let repeated = OutcomeProfile::from_outcomes([Green, Green, Green, Gray, Gray]);
        assert_eq!(weighted, repeated);
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = OutcomeProfile::from_outcomes(vec![Green; 95].into_iter().chain(vec![Red; 5]));
        let b = OutcomeProfile::from_outcomes(vec![Green; 94].into_iter().chain(vec![Red; 6]));
        assert!(a.approx_eq(&b, 0.02));
        assert!(!a.approx_eq(&b, 0.001));
    }

    #[test]
    fn display_percentages() {
        let p = OutcomeProfile::from_outcomes([Green, Red]);
        assert_eq!(
            p.to_string(),
            "green 50.0% / orange 0.0% / red 50.0% / gray 0.0%"
        );
    }
}
