//! The Oahu, Hawaii case-study topology (paper Fig. 4) and the
//! paper's control-site choices.
//!
//! Coordinates are approximate real locations of the named facilities;
//! elevations come from the synthetic DEM, whose construction pins the
//! geographic facts the case study depends on (low-lying south shore,
//! elevated west coast).

use crate::architecture::{Architecture, SitePlan};
use crate::asset::{Asset, AssetKind};
use crate::error::ScadaError;
use crate::topology::Topology;
use ct_geo::LatLon;
use std::sync::OnceLock;

/// Asset id of the Honolulu control center.
pub const HONOLULU_CC: &str = "honolulu-cc";
/// Asset id of the Waiau power plant (the paper's first backup-site
/// choice: central, well-connected — and, it turns out, flood-correlated
/// with Honolulu).
pub const WAIAU: &str = "waiau-pp";
/// Asset id of the Kahe power plant (the paper's alternative backup
/// choice: the site least impacted by the hurricane).
pub const KAHE: &str = "kahe-pp";
/// Asset id of the DRFortress data center.
pub const DRFORTRESS: &str = "drfortress-dc";
/// Asset id of the AlohaNAP data center.
pub const ALOHANAP: &str = "alohanap-dc";

/// Which asset hosts the backup control center (the paper's Sec. VII
/// siting comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteChoice {
    /// Honolulu + Waiau (+ DRFortress): the connectivity-driven choice
    /// analysed in Figs. 6-9.
    Waiau,
    /// Honolulu + Kahe (+ DRFortress): the hazard-aware choice of
    /// Figs. 10-11.
    Kahe,
}

impl SiteChoice {
    /// The backup site's asset id.
    pub(crate) fn backup_asset(self) -> &'static str {
        match self {
            SiteChoice::Waiau => WAIAU,
            SiteChoice::Kahe => KAHE,
        }
    }

    /// The CLI keyword for this choice; the `FromStr` impl
    /// accepts it back, so `choice.to_string().parse()` round-trips.
    pub fn keyword(self) -> &'static str {
        match self {
            SiteChoice::Waiau => "waiau",
            SiteChoice::Kahe => "kahe",
        }
    }
}

impl std::fmt::Display for SiteChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A site-choice string was not one of the CLI keywords.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSiteChoiceError {
    /// The rejected input.
    pub(crate) input: String,
}

impl std::fmt::Display for ParseSiteChoiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown backup site '{}' (expected waiau or kahe)",
            self.input
        )
    }
}

impl std::error::Error for ParseSiteChoiceError {}

impl std::str::FromStr for SiteChoice {
    type Err = ParseSiteChoiceError;

    /// Parses the CLI keywords `waiau` and `kahe` (case-insensitive).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "waiau" => Ok(SiteChoice::Waiau),
            "kahe" => Ok(SiteChoice::Kahe),
            _ => Err(ParseSiteChoiceError { input: s.into() }),
        }
    }
}

/// Builds the Oahu power-asset topology.
///
/// # Panics
///
/// Never panics in practice: the asset list is static and free of
/// duplicate ids (enforced by a test).
pub fn topology() -> Topology {
    let a = Asset::new;
    Topology::builder("Oahu, Hawaii")
        // Control sites and data centers.
        .asset(a(
            HONOLULU_CC,
            "Honolulu Control Center",
            AssetKind::ControlCenter,
            LatLon::new(21.307, -157.858),
        ))
        .asset(a(
            DRFORTRESS,
            "DRFortress Data Center",
            AssetKind::DataCenter,
            LatLon::new(21.320, -157.872),
        ))
        .asset(a(
            ALOHANAP,
            "AlohaNAP Data Center",
            AssetKind::DataCenter,
            LatLon::new(21.335, -157.915),
        ))
        // Generation.
        .asset(a(
            WAIAU,
            "Waiau Power Plant",
            AssetKind::PowerPlant,
            LatLon::new(21.388, -157.950),
        ))
        .asset(a(
            KAHE,
            "Kahe Power Plant",
            AssetKind::PowerPlant,
            LatLon::new(21.356, -158.122),
        ))
        .asset(a(
            "campbell-pp",
            "Campbell Industrial Park Plant",
            AssetKind::PowerPlant,
            LatLon::new(21.310, -158.085),
        ))
        .asset(a(
            "kalaeloa-pp",
            "Kalaeloa Cogeneration Plant",
            AssetKind::PowerPlant,
            LatLon::new(21.315, -158.070),
        ))
        .asset(a(
            "waialua-pp",
            "Waialua Hydro Plant",
            AssetKind::PowerPlant,
            LatLon::new(21.570, -158.120),
        ))
        // Substations ringing the island.
        .asset(a(
            "sub-archer",
            "Archer Substation",
            AssetKind::Substation,
            LatLon::new(21.310, -157.862),
        ))
        .asset(a(
            "sub-iwilei",
            "Iwilei Substation",
            AssetKind::Substation,
            LatLon::new(21.317, -157.870),
        ))
        .asset(a(
            "sub-school",
            "School Street Substation",
            AssetKind::Substation,
            LatLon::new(21.330, -157.860),
        ))
        .asset(a(
            "sub-kamoku",
            "Kamoku Substation",
            AssetKind::Substation,
            LatLon::new(21.280, -157.830),
        ))
        .asset(a(
            "sub-pukele",
            "Pukele Substation",
            AssetKind::Substation,
            LatLon::new(21.300, -157.790),
        ))
        .asset(a(
            "sub-koolau",
            "Koolau Substation",
            AssetKind::Substation,
            LatLon::new(21.380, -157.790),
        ))
        .asset(a(
            "sub-kahuku",
            "Kahuku Substation",
            AssetKind::Substation,
            LatLon::new(21.670, -157.970),
        ))
        .asset(a(
            "sub-wahiawa",
            "Wahiawa Substation",
            AssetKind::Substation,
            LatLon::new(21.500, -158.020),
        ))
        .asset(a(
            "sub-ewa",
            "Ewa Nui Substation",
            AssetKind::Substation,
            LatLon::new(21.340, -158.030),
        ))
        .asset(a(
            "sub-makalapa",
            "Makalapa Substation",
            AssetKind::Substation,
            LatLon::new(21.350, -157.940),
        ))
        .asset(a(
            "sub-halawa",
            "Halawa Substation",
            AssetKind::Substation,
            LatLon::new(21.370, -157.920),
        ))
        .asset(a(
            "sub-waianae",
            "Waianae Substation",
            AssetKind::Substation,
            LatLon::new(21.430, -158.170),
        ))
        .build()
        .expect("static asset list has unique ids")
}

/// Effective equipment height (m) added at commercial data centers:
/// DRFortress and AlohaNAP house equipment on raised floors with flood
/// protection, unlike the switchyard-level 0.5 m assumption used for
/// plants and substations. (The paper's ADCIRC data likewise never
/// floods the data centers; see EXPERIMENTS.md.)
pub(crate) const DATA_CENTER_PLATFORM_M: f64 = 2.5;

/// Derives the case-study POIs for the hazard model from the DEM,
/// applying two documented hydraulic couplings the paper's inundation
/// data exhibits:
///
/// 1. **South-plain hydraulic unit.** In the paper's realizations the
///    Honolulu control center and Waiau flood in *exactly the same*
///    realizations ("the primary... and the backup... experience
///    strongly correlated failures... relatively close together and at
///    similar altitude levels", Sec. VI-A, with Fig. 8 showing the
///    converse direction). We model the Honolulu plain / Pearl Harbor
///    lowland as one hydraulic unit: Waiau's flood profile is
///    evaluated at the unit's reference profile (the Honolulu control
///    center) against the same south-shore station.
/// 2. **Data-center flood hardening** (`DATA_CENTER_PLATFORM_M`).
///
/// # Errors
///
/// Fails if any asset lies outside the DEM or in the sea.
pub fn case_study_pois(dem: &ct_geo::Dem) -> Result<Vec<ct_hydro::Poi>, ScadaError> {
    use ct_hydro::StationId;
    let topo = topology();
    let mut pois = topo.to_pois(dem)?;
    let reference = pois
        .iter()
        .find(|p| p.id == HONOLULU_CC)
        .expect("topology contains the Honolulu control center")
        .clone();
    for poi in &mut pois {
        match poi.id.as_str() {
            WAIAU => {
                poi.ground_elevation_m = reference.ground_elevation_m;
                poi.shore_distance_km = reference.shore_distance_km;
                poi.station_override = Some(StationId::South);
            }
            HONOLULU_CC => {
                poi.station_override = Some(StationId::South);
            }
            DRFORTRESS | ALOHANAP => {
                poi.ground_elevation_m += DATA_CENTER_PLATFORM_M;
            }
            _ => {}
        }
    }
    Ok(pois)
}

/// The paper's control-site plan for an architecture and backup
/// choice: Honolulu primary; Waiau or Kahe backup; DRFortress as the
/// third (data-center) site for `6+6+6`.
///
/// Single-site architectures (`2`, `6`) use Honolulu alone, so the
/// backup choice does not affect them.
///
/// # Errors
///
/// Propagates site-plan validation errors (cannot occur for the
/// built-in topology).
pub fn site_plan(architecture: Architecture, choice: SiteChoice) -> Result<SitePlan, ScadaError> {
    // Built once: every profile asks for a plan, and the topology
    // never changes.
    static TOPOLOGY: OnceLock<Topology> = OnceLock::new();
    let topo = TOPOLOGY.get_or_init(topology);
    let ids: Vec<String> = match architecture.site_count() {
        1 => vec![HONOLULU_CC.to_string()],
        2 => vec![HONOLULU_CC.to_string(), choice.backup_asset().to_string()],
        _ => vec![
            HONOLULU_CC.to_string(),
            choice.backup_asset().to_string(),
            DRFORTRESS.to_string(),
        ],
    };
    SitePlan::new(architecture, topo, ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_geo::terrain::{synthesize_oahu, OahuTerrainConfig};

    #[test]
    fn topology_builds_with_named_sites() {
        let t = topology();
        for id in [HONOLULU_CC, WAIAU, KAHE, DRFORTRESS, ALOHANAP] {
            assert!(t.asset(id).is_some(), "missing {id}");
        }
        assert!(t.assets().len() >= 18, "Fig. 4 shows a dense topology");
        let of_kind = |kind| t.assets().iter().filter(|a| a.kind == kind).count();
        assert!(of_kind(AssetKind::Substation) >= 10);
        assert!(of_kind(AssetKind::PowerPlant) >= 4);
    }

    #[test]
    fn all_assets_are_on_land() {
        let dem = synthesize_oahu(&OahuTerrainConfig::default());
        let pois = topology().to_pois(&dem).expect("every asset on land");
        assert_eq!(pois.len(), topology().assets().len());
    }

    #[test]
    fn site_profiles_match_the_papers_geography() {
        let dem = synthesize_oahu(&OahuTerrainConfig::default());
        let t = topology();
        let elev = |id: &str| dem.elevation_at(t.asset(id).unwrap().pos).unwrap();
        // Honolulu and Waiau low-lying; Kahe markedly higher.
        assert!(elev(HONOLULU_CC) < 6.0);
        assert!(elev(WAIAU) < 4.0);
        assert!(elev(KAHE) > 2.0 * elev(HONOLULU_CC));
    }

    #[test]
    fn site_plans_for_all_architectures() {
        for arch in Architecture::ALL {
            for choice in [SiteChoice::Waiau, SiteChoice::Kahe] {
                let plan = site_plan(arch, choice).unwrap();
                assert_eq!(plan.site_asset_ids().len(), arch.site_count());
                assert_eq!(plan.primary(), HONOLULU_CC);
                if arch.site_count() >= 2 {
                    assert_eq!(plan.site_asset_ids()[1], choice.backup_asset());
                }
            }
        }
    }

    #[test]
    fn case_study_pois_apply_couplings() {
        let dem = synthesize_oahu(&OahuTerrainConfig::default());
        let pois = case_study_pois(&dem).unwrap();
        let get = |id: &str| pois.iter().find(|p| p.id == id).unwrap();
        // Waiau shares Honolulu's flood profile and station.
        assert_eq!(
            get(WAIAU).ground_elevation_m,
            get(HONOLULU_CC).ground_elevation_m
        );
        assert_eq!(
            get(WAIAU).station_override,
            Some(ct_hydro::StationId::South)
        );
        // Data centers are raised above the DEM ground level.
        let ground = dem.elevation_at(get(DRFORTRESS).pos).unwrap();
        assert!(get(DRFORTRESS).ground_elevation_m > ground + 2.0);
        // Everything else untouched.
        let kahe_ground = dem.elevation_at(get(KAHE).pos).unwrap();
        assert!((get(KAHE).ground_elevation_m - kahe_ground).abs() < 1e-9);
        assert_eq!(get(KAHE).station_override, None);
    }

    #[test]
    fn backup_choice_only_matters_with_multiple_sites() {
        let a = site_plan(Architecture::C6, SiteChoice::Waiau).unwrap();
        let b = site_plan(Architecture::C6, SiteChoice::Kahe).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn site_choice_keywords_round_trip() {
        assert_eq!("waiau".parse(), Ok(SiteChoice::Waiau));
        assert_eq!("Kahe".parse(), Ok(SiteChoice::Kahe));
        let err = "maui".parse::<SiteChoice>().unwrap_err();
        assert!(err.to_string().contains("maui"));
        assert!(err.to_string().contains("waiau"));
    }
}
