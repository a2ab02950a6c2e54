//! Expected-downtime metrics: turning operational-state profiles into
//! time-based availability figures.
//!
//! The paper's states are qualitative ("orange ... on the order of
//! minutes" of downtime; red until "components are repaired, or an
//! attack ends"). This module attaches durations to the states and
//! computes the expected unavailability of each architecture per
//! threat event — the quantity a deployment planner would trade off
//! against cost. Duration assumptions are explicit and sweepable.

use crate::error::CoreError;
use crate::pipeline::CaseStudy;
use crate::profile::OutcomeProfile;
use ct_scada::{oahu::SiteChoice, Architecture};
use ct_threat::{OperationalState, ThreatScenario};
use std::fmt;

/// Downtime attributed to each operational state, in hours per event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DowntimeModel {
    /// Cold-backup activation time (orange), hours. The paper says
    /// "on the order of minutes"; the default is conservative.
    pub orange_hours: f64,
    /// Time to repair flooded control sites or outlast an isolation
    /// attack (red), hours.
    pub red_hours: f64,
    /// Effective loss duration when safety is compromised (gray):
    /// intrusion detection + restoration + state validation, hours.
    /// Gray is typically *worse* than red — the system was actively
    /// wrong, not just absent.
    pub gray_hours: f64,
}

impl Default for DowntimeModel {
    fn default() -> Self {
        Self {
            orange_hours: 0.5,
            red_hours: 72.0,
            gray_hours: 120.0,
        }
    }
}

impl DowntimeModel {
    /// Hours of downtime attributed to one realization ending in
    /// `state`.
    pub(crate) fn hours_for(&self, state: OperationalState) -> f64 {
        match state {
            OperationalState::Green => 0.0,
            OperationalState::Orange => self.orange_hours,
            OperationalState::Red => self.red_hours,
            OperationalState::Gray => self.gray_hours,
        }
    }

    /// Expected downtime (hours per threat event) for a profile.
    pub fn expected_hours(&self, profile: &OutcomeProfile) -> f64 {
        OperationalState::ALL
            .iter()
            .map(|&s| profile.fraction(s) * self.hours_for(s))
            .sum()
    }
}

/// Expected downtime per architecture for one scenario/siting.
#[derive(Debug, Clone, PartialEq)]
pub struct DowntimeReport {
    /// The scenario evaluated.
    pub(crate) scenario: ThreatScenario,
    /// The backup siting evaluated.
    pub(crate) choice: SiteChoice,
    /// `(architecture, expected hours per event)` rows.
    pub(crate) rows: Vec<(Architecture, f64)>,
}

impl DowntimeReport {
    /// Expected hours for one architecture.
    pub fn hours(&self, architecture: Architecture) -> Option<f64> {
        self.rows
            .iter()
            .find(|(a, _)| *a == architecture)
            .map(|(_, h)| *h)
    }
}

impl fmt::Display for DowntimeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Expected downtime per event — {}:", self.scenario)?;
        for (arch, hours) in &self.rows {
            writeln!(
                f,
                "  {:<8} {:8.2} h",
                format!("\"{}\"", arch.label()),
                hours
            )?;
        }
        Ok(())
    }
}

/// Computes the expected downtime of every architecture under a
/// scenario, given a duration model.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn downtime_report(
    study: &CaseStudy,
    scenario: ThreatScenario,
    choice: SiteChoice,
    model: &DowntimeModel,
) -> Result<DowntimeReport, CoreError> {
    let rows = Architecture::ALL
        .iter()
        .map(|&arch| {
            study
                .profile(arch, scenario, choice)
                .map(|p| (arch, model.expected_hours(&p)))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(DowntimeReport {
        scenario,
        choice,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::CaseStudyConfig;
    use std::sync::OnceLock;

    fn study() -> &'static CaseStudy {
        static STUDY: OnceLock<CaseStudy> = OnceLock::new();
        STUDY.get_or_init(|| {
            CaseStudy::build(
                &CaseStudyConfig::builder()
                    .realizations(150)
                    .build()
                    .unwrap(),
            )
            .unwrap()
        })
    }

    #[test]
    fn duration_mapping() {
        let m = DowntimeModel::default();
        assert_eq!(m.hours_for(OperationalState::Green), 0.0);
        assert!(m.hours_for(OperationalState::Gray) > m.hours_for(OperationalState::Red));
        assert!(m.hours_for(OperationalState::Red) > m.hours_for(OperationalState::Orange));
    }

    #[test]
    fn expected_hours_linear_in_profile() {
        use OperationalState::*;
        let m = DowntimeModel::default();
        let p = OutcomeProfile::from_outcomes([Green, Red]);
        assert!((m.expected_hours(&p) - m.red_hours / 2.0).abs() < 1e-9);
        assert_eq!(
            m.expected_hours(&OutcomeProfile::from_outcomes([Green])),
            0.0
        );
    }

    #[test]
    fn stronger_architectures_have_less_downtime() {
        let m = DowntimeModel::default();
        let report = downtime_report(
            study(),
            ThreatScenario::HurricaneIntrusionIsolation,
            SiteChoice::Waiau,
            &m,
        )
        .unwrap();
        let h = |a| report.hours(a).unwrap();
        // The paper's severity ordering under the full compound
        // threat: 6+6+6 < 6-6 < 6 and the gray-prone industry configs
        // are worst of all.
        assert!(h(Architecture::C6P6P6) < h(Architecture::C6_6));
        assert!(h(Architecture::C6_6) < h(Architecture::C6));
        assert!(h(Architecture::C2) > h(Architecture::C6P6P6));
        assert!(h(Architecture::C2) >= h(Architecture::C6));
    }

    #[test]
    fn kahe_siting_reduces_downtime() {
        let m = DowntimeModel::default();
        let waiau =
            downtime_report(study(), ThreatScenario::Hurricane, SiteChoice::Waiau, &m).unwrap();
        let kahe =
            downtime_report(study(), ThreatScenario::Hurricane, SiteChoice::Kahe, &m).unwrap();
        for arch in [Architecture::C2_2, Architecture::C6_6, Architecture::C6P6P6] {
            assert!(
                kahe.hours(arch).unwrap() < waiau.hours(arch).unwrap(),
                "{arch} should benefit from the Kahe backup"
            );
        }
        // Single-site configs are indifferent to the backup siting.
        assert_eq!(kahe.hours(Architecture::C2), waiau.hours(Architecture::C2));
    }

    #[test]
    fn report_display_renders_all_rows() {
        let m = DowntimeModel::default();
        let report =
            downtime_report(study(), ThreatScenario::Hurricane, SiteChoice::Waiau, &m).unwrap();
        let text = report.to_string();
        for arch in Architecture::ALL {
            assert!(text.contains(arch.label()));
        }
    }
}
