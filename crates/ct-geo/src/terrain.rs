//! The Oahu preset for the region-generic terrain synthesizer.
//!
//! The real analysis in the paper used USGS terrain plus an ADCIRC
//! coastal mesh. Neither is redistributable, so this module builds a
//! *synthetic but geographically faithful* Oahu: the island outline,
//! Pearl Harbor inlet, the Wai'anae and Ko'olau ranges, a low southern
//! coastal plain (Honolulu/Ewa), a steep west coast, and region-specific
//! offshore shelf profiles. What matters downstream is that the named
//! SCADA sites sit at realistic elevations and surge exposures; tests in
//! `ct-scada` pin those properties.
//!
//! The actual synthesis lives in `region`; this module encodes
//! Oahu as a [`RegionTerrainSpec`] preset. The preset is bit-identical
//! to the original hard-wired generator (a DEM-digest pin in `core`
//! asserts this).

use crate::coords::{EnuKm, LatLon};
use crate::dem::Dem;
use crate::region::{synthesize_region, CoastSector, RegionTerrainSpec, RidgeSpec, SectorRule};

/// Projection origin used for all Oahu work: roughly the island centre.
pub(crate) const OAHU_ORIGIN: LatLon = LatLon {
    lat: 21.45,
    lon: -158.0,
};

/// Coastal exposure regions of the island, classified by which stretch
/// of coastline a point drains to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum CoastRegion {
    /// Wai'anae (leeward) coast: steep terrain, narrow shelf.
    West,
    /// Honolulu / Ewa plain: low-lying, broad shallow shelf.
    South,
    /// North shore: moderate slopes.
    North,
    /// Windward (Ko'olau) coast.
    East,
}

impl CoastRegion {
    /// Onshore terrain slope for the region, metres per km inland.
    pub(crate) fn terrain_slope_m_per_km(self) -> f64 {
        match self {
            CoastRegion::West => 9.0,
            CoastRegion::South => 1.1,
            CoastRegion::North => 4.0,
            CoastRegion::East => 5.0,
        }
    }

    /// Offshore sea-floor slope, metres of depth per km offshore.
    pub(crate) fn shelf_slope_m_per_km(self) -> f64 {
        match self {
            CoastRegion::West => 60.0,
            CoastRegion::South => 10.0,
            CoastRegion::North => 30.0,
            CoastRegion::East => 40.0,
        }
    }
}

/// Configuration for [`synthesize_oahu`].
#[derive(Debug, Clone, PartialEq)]
pub struct OahuTerrainConfig {
    /// Noise seed; terrain is fully determined by the config.
    pub seed: u64,
    /// Raster cell size in km.
    pub cell_km: f64,
    /// Small-scale elevation noise amplitude in metres (near coast).
    pub noise_amp_m: f64,
}

impl Default for OahuTerrainConfig {
    fn default() -> Self {
        Self {
            seed: 0x0A44_5EED,
            cell_km: 0.5,
            noise_amp_m: 0.8,
        }
    }
}

/// The island outline vertices, in order.
fn oahu_outline_points() -> Vec<LatLon> {
    let pts = [
        (21.575, -158.281), // Ka'ena Point (west tip)
        (21.640, -158.120), // Waialua Bay
        (21.710, -157.980), // Kahuku Point (north tip)
        (21.610, -157.850), // La'ie
        (21.510, -157.830), // Ka'a'awa
        (21.420, -157.740), // Kane'ohe Bay
        (21.310, -157.650), // Makapu'u (east tip)
        (21.250, -157.710), // Sandy Beach
        (21.255, -157.810), // Diamond Head
        (21.285, -157.860), // Honolulu waterfront
        (21.300, -157.940), // Ke'ehi / airport
        (21.308, -157.972), // Pearl Harbor entrance (east)
        (21.315, -158.010), // 'Ewa Beach
        (21.300, -158.100), // Barbers Point
        (21.350, -158.130), // Kahe Point
        (21.450, -158.190), // Wai'anae
    ];
    pts.iter()
        .map(|&(lat, lon)| LatLon::new(lat, lon))
        .collect()
}

/// Pearl Harbor water body vertices, cut out of the island.
fn pearl_harbor_points() -> Vec<LatLon> {
    let pts = [
        (21.308, -157.974), // entrance, east side
        (21.302, -157.992), // entrance, west side
        (21.330, -158.008),
        (21.365, -158.018), // West Loch
        (21.392, -157.998), // Middle Loch
        (21.400, -157.978), // East Loch, north end
        (21.384, -157.960), // East Loch, east shore
        (21.345, -157.955),
        (21.322, -157.962),
    ];
    pts.iter()
        .map(|&(lat, lon)| LatLon::new(lat, lon))
        .collect()
}

/// The Oahu case study expressed as a region spec.
///
/// The sector table holds the `CoastRegion`s West, South, North and
/// East in that order, and the rules give a point the region of its
/// nearest shoreline point. The spec-driven generator reproduces the
/// original elevation field bit for bit.
pub fn oahu_region_spec(config: &OahuTerrainConfig) -> RegionTerrainSpec {
    let sector = |r: CoastRegion| CoastSector {
        terrain_slope_m_per_km: r.terrain_slope_m_per_km(),
        shelf_slope_m_per_km: r.shelf_slope_m_per_km(),
    };
    RegionTerrainSpec {
        name: "oahu".to_string(),
        origin: OAHU_ORIGIN,
        outline: oahu_outline_points(),
        inland_waters: vec![pearl_harbor_points()],
        ridges: vec![
            // Wai'anae range along the west side.
            RidgeSpec {
                a: LatLon::new(21.42, -158.16),
                b: LatLon::new(21.55, -158.20),
                height_m: 900.0,
                width_km: 3.5,
            },
            // Ko'olau range along the east side.
            RidgeSpec {
                a: LatLon::new(21.30, -157.72),
                b: LatLon::new(21.62, -157.95),
                height_m: 750.0,
                width_km: 3.5,
            },
        ],
        sectors: vec![
            sector(CoastRegion::West),
            sector(CoastRegion::South),
            sector(CoastRegion::North),
            sector(CoastRegion::East),
        ],
        sector_rules: vec![
            SectorRule {
                max_east: Some(-12.5),
                max_north: Some(18.0),
                min_north: None,
                sector: 0,
            },
            SectorRule {
                max_east: None,
                max_north: Some(-9.0),
                min_north: None,
                sector: 1,
            },
            SectorRule {
                max_east: None,
                max_north: None,
                min_north: Some(20.0),
                sector: 2,
            },
        ],
        fallback_sector: 3,
        domain_origin: EnuKm::new(-46.0, -40.0),
        extent_km: (92.0, 78.0),
        seed: config.seed,
        cell_km: config.cell_km,
        noise_amp_m: config.noise_amp_m,
    }
}

/// Synthesizes the Oahu DEM.
///
/// The raster covers the island plus ~15 km of surrounding ocean.
pub fn synthesize_oahu(config: &OahuTerrainConfig) -> Dem {
    synthesize_region(&oahu_region_spec(config)).expect("the Oahu preset is a valid region spec")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coords::Projection;
    use crate::polygon::Polygon;

    fn dem() -> Dem {
        synthesize_oahu(&OahuTerrainConfig::default())
    }

    #[test]
    fn island_has_sensible_land_fraction() {
        let d = dem();
        let f = d.land_fraction();
        // Oahu is ~1545 km² inside a 92x78 km domain ≈ 0.21.
        assert!((0.12..0.35).contains(&f), "land fraction {f}");
    }

    #[test]
    fn named_sites_on_land_ocean_is_sea() {
        let d = dem();
        assert!(d.is_land(LatLon::new(21.307, -157.858)), "Honolulu");
        assert!(d.is_land(LatLon::new(21.354, -158.120)), "Kahe area");
        assert!(d.is_land(LatLon::new(21.497, -158.030)), "Central plateau");
        assert!(!d.is_land(LatLon::new(21.10, -158.0)), "open ocean south");
        assert!(
            !d.is_land(LatLon::new(21.36, -157.99)),
            "Pearl Harbor water"
        );
    }

    #[test]
    fn south_shore_is_low_west_coast_is_steep() {
        let d = dem();
        let honolulu = d.elevation_at(LatLon::new(21.307, -157.858)).unwrap();
        assert!(
            (0.5..8.0).contains(&honolulu),
            "Honolulu plain elevation {honolulu}"
        );
        let kahe = d.elevation_at(LatLon::new(21.356, -158.122)).unwrap();
        assert!(kahe > 4.0, "Kahe bluffs elevation {kahe}");
    }

    #[test]
    fn mountains_exist() {
        let d = dem();
        // Ko'olau crest area.
        let koolau = d.elevation_at(LatLon::new(21.45, -157.84)).unwrap();
        assert!(koolau > 300.0, "Ko'olau crest {koolau}");
        // Wai'anae crest area.
        let waianae = d.elevation_at(LatLon::new(21.46, -158.17)).unwrap();
        assert!(waianae > 250.0, "Wai'anae crest {waianae}");
    }

    #[test]
    fn shelf_profiles_differ_by_region() {
        let d = dem();
        let proj = *d.projection();
        // South shore: shallow shelf.
        let south_shore = proj.to_enu(LatLon::new(21.29, -157.88));
        let south = d.mean_offshore_depth(south_shore, 180.0, 4.0).unwrap();
        // West coast: deep quickly.
        let west_shore = proj.to_enu(LatLon::new(21.40, -158.17));
        let west = d.mean_offshore_depth(west_shore, 270.0, 4.0).unwrap();
        assert!(
            west > 2.0 * south,
            "west shelf {west} m should be much deeper than south {south} m"
        );
    }

    #[test]
    fn terrain_is_deterministic() {
        let a = synthesize_oahu(&OahuTerrainConfig::default());
        let b = synthesize_oahu(&OahuTerrainConfig::default());
        assert_eq!(a.elevation_grid().as_slice(), b.elevation_grid().as_slice());
    }

    #[test]
    fn seed_perturbs_noise_only() {
        let cfg = OahuTerrainConfig {
            seed: 999,
            ..OahuTerrainConfig::default()
        };
        let a = synthesize_oahu(&cfg);
        let b = synthesize_oahu(&OahuTerrainConfig::default());
        // Different noise...
        assert_ne!(a.elevation_grid().as_slice(), b.elevation_grid().as_slice());
        // ...but the same macro-structure (land fraction within 2 %).
        assert!((a.land_fraction() - b.land_fraction()).abs() < 0.02);
    }

    #[test]
    fn coast_region_classification() {
        let spec = oahu_region_spec(&OahuTerrainConfig::default());
        let proj = Projection::new(OAHU_ORIGIN);
        let outline = Polygon::new(spec.outline.iter().map(|&p| proj.to_enu(p)).collect());
        let mut walk = outline.unwrap().boundary_walk();
        for (lat, lon, region) in [
            (21.354, -158.125, CoastRegion::West),
            (21.30, -157.86, CoastRegion::South),
            (21.68, -158.0, CoastRegion::North),
            (21.45, -157.80, CoastRegion::East),
            (21.10, -158.0, CoastRegion::South),
            (21.50, -158.30, CoastRegion::West),
        ] {
            let shore = walk.query(proj.to_enu(LatLon::new(lat, lon))).closest;
            let sector = spec.sector_at(shore);
            assert_eq!(
                (sector.terrain_slope_m_per_km, sector.shelf_slope_m_per_km),
                (
                    region.terrain_slope_m_per_km(),
                    region.shelf_slope_m_per_km()
                ),
                "({lat}, {lon}) should be {region:?}"
            );
        }
    }

    #[test]
    fn pearl_harbor_is_inland_water() {
        let d = dem();
        let e = d.elevation_at(LatLon::new(21.36, -157.99)).unwrap();
        assert!(e < 0.0, "harbor should be water, got {e}");
        assert!(e > -30.0, "harbor should be shallow, got {e}");
    }
}
