//! The paper's evaluation figures as reproducible artifacts.

use crate::error::CoreError;
use crate::pipeline::CaseStudy;
use crate::profile::OutcomeProfile;
use ct_scada::{oahu::SiteChoice, Architecture};
use ct_threat::ThreatScenario;
use std::fmt;

/// The six evaluation figures of the paper (Figs. 6-11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Figure {
    /// Fig. 6: hurricane only; Honolulu + Waiau + DRFortress.
    Fig6,
    /// Fig. 7: hurricane + server intrusion; Waiau siting.
    Fig7,
    /// Fig. 8: hurricane + site isolation; Waiau siting.
    Fig8,
    /// Fig. 9: hurricane + intrusion + isolation; Waiau siting.
    Fig9,
    /// Fig. 10: hurricane only; Honolulu + Kahe + DRFortress.
    Fig10,
    /// Fig. 11: hurricane + server intrusion; Kahe siting.
    Fig11,
}

impl Figure {
    /// All six figures in paper order.
    pub const ALL: [Figure; 6] = [
        Figure::Fig6,
        Figure::Fig7,
        Figure::Fig8,
        Figure::Fig9,
        Figure::Fig10,
        Figure::Fig11,
    ];

    /// The threat scenario the figure evaluates.
    pub fn scenario(self) -> ThreatScenario {
        match self {
            Figure::Fig6 | Figure::Fig10 => ThreatScenario::Hurricane,
            Figure::Fig7 | Figure::Fig11 => ThreatScenario::HurricaneIntrusion,
            Figure::Fig8 => ThreatScenario::HurricaneIsolation,
            Figure::Fig9 => ThreatScenario::HurricaneIntrusionIsolation,
        }
    }

    /// The backup-site choice the figure uses.
    pub fn site_choice(self) -> SiteChoice {
        match self {
            Figure::Fig10 | Figure::Fig11 => SiteChoice::Kahe,
            _ => SiteChoice::Waiau,
        }
    }

    /// The paper's figure number.
    pub fn number(self) -> u32 {
        match self {
            Figure::Fig6 => 6,
            Figure::Fig7 => 7,
            Figure::Fig8 => 8,
            Figure::Fig9 => 9,
            Figure::Fig10 => 10,
            Figure::Fig11 => 11,
        }
    }

    /// The paper's caption for the figure.
    pub(crate) fn caption(self) -> String {
        let sites = match self.site_choice() {
            SiteChoice::Waiau => "Honolulu + Waiau + DRFortress",
            SiteChoice::Kahe => "Honolulu + Kahe + DRFortress",
        };
        format!(
            "Operational Profiles in {} Scenario ({})",
            self.scenario(),
            sites
        )
    }
}

impl fmt::Display for Figure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fig. {}", self.number())
    }
}

/// One reproduced figure: a profile per architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureData {
    /// Which figure this is.
    pub figure: Figure,
    /// The hazard engine the profiles were computed under. The paper's
    /// figures are surge figures; renderers label any other engine so
    /// a wind or compound table can never pass for the original.
    pub hazard: ct_hazard::HazardSpec,
    /// `(architecture, profile)` rows in the paper's order.
    pub rows: Vec<(Architecture, OutcomeProfile)>,
}

impl FigureData {
    /// The profile for one architecture.
    pub fn profile(&self, architecture: Architecture) -> Option<&OutcomeProfile> {
        self.rows
            .iter()
            .find(|(a, _)| *a == architecture)
            .map(|(_, p)| p)
    }
}

/// Reproduces one figure from a prepared case study.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn reproduce(study: &CaseStudy, figure: Figure) -> Result<FigureData, CoreError> {
    let _span = ct_obs::span("figure_reproduce");
    let rows = Architecture::ALL
        .iter()
        .map(|&arch| {
            study
                .profile(arch, figure.scenario(), figure.site_choice())
                .map(|p| (arch, p))
        })
        .collect::<Result<Vec<_>, _>>()?;
    ct_obs::add(ct_obs::names::FIGURES_REPRODUCED, 1);
    Ok(FigureData {
        figure,
        hazard: study.hazard(),
        rows,
    })
}

/// Reproduces all six figures.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn reproduce_all(study: &CaseStudy) -> Result<Vec<FigureData>, CoreError> {
    let _span = ct_obs::span("figures");
    Figure::ALL.iter().map(|&f| reproduce(study, f)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::CaseStudyConfig;

    #[test]
    fn metadata_matches_the_paper() {
        assert_eq!(Figure::Fig6.scenario(), ThreatScenario::Hurricane);
        assert_eq!(
            Figure::Fig9.scenario(),
            ThreatScenario::HurricaneIntrusionIsolation
        );
        assert_eq!(Figure::Fig10.site_choice(), SiteChoice::Kahe);
        assert_eq!(Figure::Fig7.site_choice(), SiteChoice::Waiau);
        assert_eq!(Figure::Fig11.number(), 11);
        assert!(Figure::Fig8.caption().contains("Site Isolation"));
        assert_eq!(Figure::Fig6.to_string(), "Fig. 6");
    }

    #[test]
    fn reproduce_produces_five_rows_per_figure() {
        let study = CaseStudy::build(&CaseStudyConfig::builder().realizations(50).build().unwrap())
            .unwrap();
        let data = reproduce(&study, Figure::Fig8).unwrap();
        assert_eq!(data.rows.len(), 5);
        assert!(data.profile(Architecture::C6P6P6).is_some());
        // Fig. 8 shape: single-site configs are never green.
        assert_eq!(data.profile(Architecture::C2).unwrap().green(), 0.0);
        assert_eq!(data.profile(Architecture::C6).unwrap().green(), 0.0);
    }
}
