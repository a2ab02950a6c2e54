//! Coastal reference stations used by the parametric surge model.
//!
//! The parametric model evaluates surge at a small set of named
//! shoreline stations, each characterised by its onshore direction and
//! a *shelf factor* derived from the DEM's offshore bathymetry
//! profile: broad shallow shelves amplify wind-driven setup, steep
//! drop-offs suppress it. Pearl Harbor is a *derived* station — surge
//! inside the harbor is the open-coast south-shore surge scaled by a
//! funnelling factor, which structurally couples harbor-side assets
//! (Waiau) to south-shore assets (Honolulu) exactly as the paper's
//! inundation data does.

use ct_geo::{Dem, LatLon};
use std::fmt;

/// Identifier of a coastal reference station around Oahu.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StationId {
    /// Honolulu waterfront (open south shore).
    South,
    /// 'Ewa Beach (south shore, west of Pearl Harbor).
    Ewa,
    /// Inside Pearl Harbor (derived from [`StationId::South`]).
    PearlHarbor,
    /// Kahe Point (leeward/west coast).
    West,
    /// North shore.
    North,
    /// Windward (east) coast.
    East,
}

impl StationId {
    /// All station identifiers.
    pub const ALL: [StationId; 6] = [
        StationId::South,
        StationId::Ewa,
        StationId::PearlHarbor,
        StationId::West,
        StationId::North,
        StationId::East,
    ];
}

impl fmt::Display for StationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            StationId::South => "South (Honolulu)",
            StationId::Ewa => "Ewa",
            StationId::PearlHarbor => "Pearl Harbor",
            StationId::West => "West (Kahe)",
            StationId::North => "North Shore",
            StationId::East => "Windward",
        };
        f.write_str(name)
    }
}

/// A coastal reference station.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Station {
    /// Which station this is.
    pub id: StationId,
    /// Shoreline position of the station.
    pub pos: LatLon,
    /// Compass bearing pointing inland (degrees clockwise from north);
    /// wind blowing toward this bearing piles water onshore.
    pub onshore_bearing_deg: f64,
    /// Dimensionless surge amplification from the offshore shelf
    /// profile (1.0 = reference 30 m shelf).
    pub shelf_factor: f64,
}

/// The full set of Oahu stations.
#[derive(Debug, Clone, PartialEq)]
pub struct Stations {
    stations: Vec<Station>,
    /// Pearl Harbor funnelling amplification applied to the south
    /// station's open-coast surge.
    pub harbor_amplification: f64,
}

/// Reference shelf depth (m) for `shelf_factor = 1`.
const REFERENCE_DEPTH_M: f64 = 30.0;
/// Range over which the offshore profile is averaged (km).
const SHELF_RANGE_KM: f64 = 4.0;

impl Stations {
    /// Builds the station set, measuring each station's shelf factor
    /// from the DEM bathymetry along its offshore normal.
    pub fn from_dem(dem: &Dem) -> Self {
        let defs: [(StationId, LatLon, f64); 5] = [
            (StationId::South, LatLon::new(21.285, -157.862), 0.0),
            (StationId::Ewa, LatLon::new(21.312, -158.012), 0.0),
            (StationId::West, LatLon::new(21.352, -158.128), 90.0),
            (StationId::North, LatLon::new(21.705, -157.982), 180.0),
            (StationId::East, LatLon::new(21.415, -157.742), 270.0),
        ];
        let mut stations: Vec<Station> = defs
            .iter()
            .map(|&(id, pos, onshore)| {
                let enu = dem.projection().to_enu(pos);
                let shore = dem.nearest_shore(enu).map(|(s, _)| s).unwrap_or(enu);
                let offshore = (onshore + 180.0) % 360.0;
                let depth = dem
                    .mean_offshore_depth(shore, offshore, SHELF_RANGE_KM)
                    .unwrap_or(REFERENCE_DEPTH_M)
                    .max(2.0);
                Station {
                    id,
                    pos,
                    onshore_bearing_deg: onshore,
                    shelf_factor: (REFERENCE_DEPTH_M / depth).sqrt().clamp(0.4, 2.5),
                }
            })
            .collect();
        // Pearl Harbor: positioned at East Loch; surge value is
        // derived, so its shelf factor mirrors the south station's.
        let south_factor = stations
            .iter()
            .find(|s| s.id == StationId::South)
            .expect("south station defined")
            .shelf_factor;
        stations.push(Station {
            id: StationId::PearlHarbor,
            pos: LatLon::new(21.370, -157.975),
            onshore_bearing_deg: 0.0,
            shelf_factor: south_factor,
        });
        Self {
            stations,
            harbor_amplification: 1.3,
        }
    }

    /// Reassembles a station set from its stations, in list order
    /// (which decides [`Stations::nearest`]'s ties), and the harbor
    /// amplification. `None` unless every [`StationId`] appears
    /// exactly once, since [`Stations::get`] relies on that.
    pub fn from_parts(stations: Vec<Station>, harbor_amplification: f64) -> Option<Self> {
        let complete = stations.len() == StationId::ALL.len()
            && StationId::ALL
                .iter()
                .all(|id| stations.iter().filter(|s| s.id == *id).count() == 1);
        complete.then_some(Self {
            stations,
            harbor_amplification,
        })
    }

    /// All stations.
    pub fn iter(&self) -> impl Iterator<Item = &Station> {
        self.stations.iter()
    }

    /// Looks up a station by id.
    pub fn get(&self, id: StationId) -> &Station {
        self.stations
            .iter()
            .find(|s| s.id == id)
            .expect("all station ids are constructed")
    }

    /// The station whose position is nearest to `p` — the station a
    /// point of interest is assigned to.
    ///
    /// Each station's distance is computed once; ties go to the first
    /// station in list order.
    pub fn nearest(&self, p: LatLon) -> &Station {
        let mut best: Option<(&Station, f64)> = None;
        for st in &self.stations {
            let d = st.pos.distance_km(p);
            if best.is_none_or(|(_, best_d)| d.total_cmp(&best_d).is_lt()) {
                best = Some((st, d));
            }
        }
        best.expect("station list non-empty").0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_geo::terrain::{synthesize_oahu, OahuTerrainConfig};

    fn stations() -> Stations {
        Stations::from_dem(&synthesize_oahu(&OahuTerrainConfig::default()))
    }

    #[test]
    fn all_ids_present() {
        let s = stations();
        for id in StationId::ALL {
            let st = s.get(id);
            assert_eq!(st.id, id);
        }
        assert_eq!(s.iter().count(), 6);
    }

    #[test]
    fn from_parts_rebuilds_and_wants_every_id_once() {
        let s = stations();
        let parts: Vec<Station> = s.iter().copied().collect();
        let rebuilt = Stations::from_parts(parts.clone(), s.harbor_amplification).unwrap();
        assert_eq!(rebuilt, s);
        assert!(Stations::from_parts(parts[1..].to_vec(), 1.3).is_none());
        let mut twice = parts.clone();
        twice[1].id = twice[0].id;
        assert!(Stations::from_parts(twice, 1.3).is_none());
    }

    #[test]
    fn south_shelf_amplifies_west_suppresses() {
        let s = stations();
        let south = s.get(StationId::South).shelf_factor;
        let west = s.get(StationId::West).shelf_factor;
        assert!(
            south > 1.0,
            "south shore shallow shelf should amplify, got {south}"
        );
        assert!(west < 0.9, "west steep shelf should suppress, got {west}");
        assert!(south > 1.5 * west, "south {south} vs west {west}");
    }

    #[test]
    fn harbor_mirrors_south_and_amplifies() {
        let s = stations();
        assert_eq!(
            s.get(StationId::PearlHarbor).shelf_factor,
            s.get(StationId::South).shelf_factor
        );
        assert!(s.harbor_amplification > 1.0);
    }

    #[test]
    fn nearest_assignments_match_geography() {
        let s = stations();
        // Honolulu control center -> South.
        assert_eq!(
            s.nearest(LatLon::new(21.307, -157.858)).id,
            StationId::South
        );
        // Waiau (by East Loch) -> Pearl Harbor.
        assert_eq!(
            s.nearest(LatLon::new(21.388, -157.950)).id,
            StationId::PearlHarbor
        );
        // Kahe -> West.
        assert_eq!(s.nearest(LatLon::new(21.356, -158.122)).id, StationId::West);
    }

    #[test]
    fn nearest_is_the_first_minimum() {
        let s = stations();
        // Every station's own position, and a point on the meridian
        // midway between two stations, resolve like `min_by`, which
        // returns the first of equal minima.
        let mut probes: Vec<LatLon> = s.iter().map(|st| st.pos).collect();
        probes.push(LatLon::new(21.5, -157.9));
        for p in probes {
            let want = s
                .iter()
                .min_by(|a, b| a.pos.distance_km(p).total_cmp(&b.pos.distance_km(p)))
                .unwrap();
            assert_eq!(s.nearest(p).id, want.id, "{p}");
        }
        // Duplicate positions: the earlier station wins.
        let dup = Stations {
            stations: vec![
                Station {
                    id: StationId::West,
                    ..*s.get(StationId::South)
                },
                *s.get(StationId::South),
            ],
            harbor_amplification: 1.3,
        };
        assert_eq!(dup.nearest(LatLon::new(21.0, -158.0)).id, StationId::West);
    }

    #[test]
    fn display_names() {
        for id in StationId::ALL {
            assert!(!id.to_string().is_empty());
        }
    }
}
