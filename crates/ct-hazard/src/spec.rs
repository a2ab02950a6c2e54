//! [`HazardSpec`] — the CLI-parsable hazard selector.

use crate::compound::CompoundHazard;
use crate::model::HazardModel;
use crate::surge::SurgeHazard;
use crate::wind::WindFragilityHazard;
use ct_geo::Dem;
use ct_hydro::{ParametricSurge, Stations, SurgeCalibration};
use std::fmt;
use std::str::FromStr;

/// Which hazard engine a run uses. This is the *configuration-level*
/// name a user types (`ct run --hazard wind`); [`HazardSpec::build`]
/// turns it into the live [`HazardModel`] once the coastal stations
/// are known.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum HazardSpec {
    /// Storm-surge inundation (the paper's original hazard; default).
    #[default]
    Surge,
    /// Wind-gust fragility of the assets.
    Wind,
    /// Surge ∪ wind under per-asset max severity.
    Compound,
}

impl HazardSpec {
    /// All specs, in CLI listing order.
    pub const ALL: [HazardSpec; 3] = [HazardSpec::Surge, HazardSpec::Wind, HazardSpec::Compound];

    /// The CLI keyword (`surge` | `wind` | `compound`).
    pub fn keyword(self) -> &'static str {
        match self {
            HazardSpec::Surge => "surge",
            HazardSpec::Wind => "wind",
            HazardSpec::Compound => "compound",
        }
    }

    /// Builds the live model for this spec: the surge model is
    /// calibrated against the terrain's coastal `stations`, the wind
    /// model uses the default fragility parameterization (it needs no
    /// bathymetry, so `stations` only feed the surge part), and
    /// `compound` is the union of both.
    pub fn build(self, stations: &Stations, calibration: SurgeCalibration) -> Box<dyn HazardModel> {
        let surge = || SurgeHazard::new(ParametricSurge::new(stations.clone(), calibration));
        match self {
            HazardSpec::Surge => Box::new(surge()),
            HazardSpec::Wind => Box::new(WindFragilityHazard::default()),
            HazardSpec::Compound => Box::new(
                CompoundHazard::union(vec![
                    Box::new(surge()),
                    Box::new(WindFragilityHazard::default()),
                ])
                .expect("two parts is never empty"),
            ),
        }
    }

    /// [`HazardSpec::build`] over the stations measured on `dem`.
    #[deprecated(note = "use `HazardSpec::build` with `Stations::from_dem(dem)`")]
    pub fn build_model(self, dem: &Dem, calibration: SurgeCalibration) -> Box<dyn HazardModel> {
        self.build(&Stations::from_dem(dem), calibration)
    }
}

impl fmt::Display for HazardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// Rejection for [`HazardSpec::from_str`]; quotes the input verbatim
/// so CLI errors are actionable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseHazardSpecError {
    input: String,
}

impl fmt::Display for ParseHazardSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown hazard '{}' (expected surge | wind | compound)",
            self.input
        )
    }
}

impl std::error::Error for ParseHazardSpecError {}

impl FromStr for HazardSpec {
    type Err = ParseHazardSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        HazardSpec::ALL
            .into_iter()
            .find(|spec| spec.keyword().eq_ignore_ascii_case(s))
            .ok_or_else(|| ParseHazardSpecError {
                input: s.to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_geo::terrain::{synthesize_oahu, OahuTerrainConfig};

    #[test]
    fn keyword_round_trips_and_is_case_insensitive() {
        for spec in HazardSpec::ALL {
            assert_eq!(spec.keyword().parse::<HazardSpec>().unwrap(), spec);
            assert_eq!(spec.to_string().parse::<HazardSpec>().unwrap(), spec);
            assert_eq!(
                spec.keyword()
                    .to_ascii_uppercase()
                    .parse::<HazardSpec>()
                    .unwrap(),
                spec
            );
        }
        assert_eq!(HazardSpec::default(), HazardSpec::Surge);
    }

    #[test]
    fn junk_is_rejected_with_the_input_quoted() {
        for junk in ["", "surge+wind", "windd", " wind", "flood"] {
            let e = junk.parse::<HazardSpec>().unwrap_err();
            assert!(e.to_string().contains(junk), "must quote {junk:?}: {e}");
        }
    }

    #[test]
    fn built_models_carry_the_expected_ids() {
        let stations = Stations::from_dem(&synthesize_oahu(&OahuTerrainConfig::default()));
        let cal = SurgeCalibration::default();
        assert_eq!(HazardSpec::Surge.build(&stations, cal).hazard_id(), "surge");
        assert_eq!(HazardSpec::Wind.build(&stations, cal).hazard_id(), "wind");
        assert_eq!(
            HazardSpec::Compound.build(&stations, cal).hazard_id(),
            "compound(surge+wind)"
        );
    }
}
