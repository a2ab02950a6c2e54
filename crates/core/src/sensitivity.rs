//! Hazard-intensity sensitivity: the case study repeated across
//! Saffir-Simpson categories.
//!
//! The paper evaluates a single Category 2 scenario. This module
//! sweeps the storm category (all other ensemble parameters fixed) to
//! show how the architecture ranking and the siting advantage evolve
//! with hazard intensity — the robustness check a reviewer would ask
//! for.

use crate::error::CoreError;
use crate::pipeline::{CaseStudy, CaseStudyConfig};
use crate::profile::OutcomeProfile;
use ct_hydro::{Category, EnsembleConfig};
use ct_scada::{oahu::SiteChoice, Architecture};
use ct_threat::ThreatScenario;

/// Case-study outcomes for one storm category.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoryPoint {
    /// Storm intensity class.
    pub category: Category,
    /// Honolulu control-center flood probability at this intensity.
    pub p_honolulu_flood: f64,
    /// `(architecture, profile)` under the evaluated scenario.
    pub(crate) rows: Vec<(Architecture, OutcomeProfile)>,
}

impl CategoryPoint {
    /// Profile for one architecture.
    pub fn profile(&self, architecture: Architecture) -> Option<&OutcomeProfile> {
        self.rows
            .iter()
            .find(|(a, _)| *a == architecture)
            .map(|(_, p)| p)
    }
}

/// Sweeps storm categories, rebuilding the hazard ensemble for each
/// and evaluating every architecture under `scenario`.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn category_sweep(
    base: &CaseStudyConfig,
    categories: &[Category],
    scenario: ThreatScenario,
    choice: SiteChoice,
) -> Result<Vec<CategoryPoint>, CoreError> {
    let _span = ct_obs::span("category_sweep");
    categories
        .iter()
        .map(|&category| {
            let config = CaseStudyConfig {
                ensemble: EnsembleConfig {
                    category,
                    ..base.ensemble.clone()
                },
                ..base.clone()
            };
            let study = CaseStudy::build(&config)?;
            let p_honolulu_flood = study.flood_probability(ct_scada::oahu::HONOLULU_CC)?;
            let rows = Architecture::ALL
                .iter()
                .map(|&arch| study.profile(arch, scenario, choice).map(|p| (arch, p)))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(CategoryPoint {
                category,
                p_honolulu_flood,
                rows,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> &'static [CategoryPoint] {
        use std::sync::OnceLock;
        static SWEEP: OnceLock<Vec<CategoryPoint>> = OnceLock::new();
        SWEEP.get_or_init(|| {
            category_sweep(
                &CaseStudyConfig::builder()
                    .realizations(200)
                    .build()
                    .unwrap(),
                &[Category::Cat1, Category::Cat2, Category::Cat4],
                ThreatScenario::Hurricane,
                SiteChoice::Waiau,
            )
            .unwrap()
        })
    }

    #[test]
    fn flood_probability_grows_with_intensity() {
        let points = sweep();
        assert_eq!(points.len(), 3);
        assert!(
            points[0].p_honolulu_flood <= points[1].p_honolulu_flood,
            "Cat1 {} vs Cat2 {}",
            points[0].p_honolulu_flood,
            points[1].p_honolulu_flood
        );
        assert!(
            points[1].p_honolulu_flood < points[2].p_honolulu_flood,
            "Cat2 {} vs Cat4 {}",
            points[1].p_honolulu_flood,
            points[2].p_honolulu_flood
        );
    }

    #[test]
    fn green_probability_shrinks_with_intensity() {
        let points = sweep();
        let g = |p: &CategoryPoint| p.profile(Architecture::C2).unwrap().green();
        assert!(g(&points[0]) >= g(&points[1]));
        assert!(g(&points[1]) > g(&points[2]));
    }

    #[test]
    fn correlation_structure_survives_intensity() {
        // At every intensity, all architectures still share the
        // hurricane-only profile with the Waiau backup (the paper's
        // Fig. 6 effect is not a Cat-2 artifact).
        for point in sweep() {
            let base = point.profile(Architecture::C2).unwrap();
            for arch in Architecture::ALL {
                assert!(
                    point.profile(arch).unwrap().approx_eq(base, 1e-9),
                    "{arch} diverges at {}",
                    point.category
                );
            }
        }
    }
}
