//! A synthesized DEM computes its land mask from even-odd containment
//! and each elevation cell only when a query reads it. The mask must
//! be exactly `elevation > 0` of the filled raster, including where a
//! cell centre lies on an outline or water-body edge, and every lazily
//! read value must equal the filled raster's bit for bit.

use ct_geo::terrain::{synthesize_oahu, OahuTerrainConfig};
use ct_geo::{
    synthesize_region, CoastSector, Dem, EnuKm, LatLon, Polygon, Projection, RegionTerrainSpec,
    RidgeSpec, SectorRule,
};
use ct_hydro::{Poi, StationId, Stations};

/// Asserts the mask equals `elevation > 0` of the filled raster on
/// every cell, and returns the number of land cells.
fn assert_mask_matches_the_raster(dem: &Dem) -> usize {
    let mask = dem.land_mask().as_slice().to_vec();
    let raster = dem.elevation_grid();
    assert_eq!(mask.len(), raster.as_slice().len());
    for (i, (&land, &e)) in mask.iter().zip(raster.as_slice()).enumerate() {
        let (c, r) = (i % raster.cols(), i / raster.cols());
        assert_eq!(
            land,
            e > 0.0,
            "cell ({c}, {r}) at {:?}: elevation {e}",
            raster.cell_center(c, r)
        );
    }
    mask.iter().filter(|&&l| l).count()
}

#[test]
fn the_mask_is_the_land_of_every_oahu_cell() {
    let dem = synthesize_oahu(&OahuTerrainConfig::default());
    let land = assert_mask_matches_the_raster(&dem);
    assert!((5_000..8_000).contains(&land), "{land} land cells");
}

#[test]
fn the_mask_is_the_land_of_every_toy_octagon_cell() {
    // The 12 km octagon of `ct_geo::region`'s unit tests, with its
    // ridge, sectors and 50 × 50 km domain of 1 km cells.
    let origin = LatLon::new(20.0, -140.0);
    let proj = Projection::new(origin);
    let spec = RegionTerrainSpec {
        name: "toy".into(),
        origin,
        outline: (0..8)
            .map(|i| {
                let theta = f64::from(i) * std::f64::consts::TAU / 8.0;
                proj.to_latlon(EnuKm::new(12.0 * theta.cos(), 12.0 * theta.sin()))
            })
            .collect(),
        inland_waters: Vec::new(),
        ridges: vec![RidgeSpec {
            a: proj.to_latlon(EnuKm::new(-4.0, 0.0)),
            b: proj.to_latlon(EnuKm::new(4.0, 0.0)),
            height_m: 500.0,
            width_km: 3.0,
        }],
        sectors: vec![sector(2.0, 15.0), sector(8.0, 50.0)],
        sector_rules: vec![SectorRule {
            max_east: Some(0.0),
            max_north: None,
            min_north: None,
            sector: 1,
        }],
        fallback_sector: 0,
        domain_origin: EnuKm::new(-25.0, -25.0),
        extent_km: (50.0, 50.0),
        seed: 7,
        cell_km: 1.0,
        noise_amp_m: 0.5,
    };
    let dem = synthesize_region(&spec).unwrap();
    let land = assert_mask_matches_the_raster(&dem);
    assert!((300..600).contains(&land), "{land} land cells");
}

fn sector(terrain_slope_m_per_km: f64, shelf_slope_m_per_km: f64) -> CoastSector {
    CoastSector {
        terrain_slope_m_per_km,
        shelf_slope_m_per_km,
    }
}

/// A rectangle between two latitudes and two longitudes: its edges
/// project onto exact east and north lines.
fn rectangle(south: f64, north: f64, west: f64, east: f64) -> Vec<LatLon> {
    vec![
        LatLon::new(south, west),
        LatLon::new(south, east),
        LatLon::new(north, east),
        LatLon::new(north, west),
    ]
}

/// The projection origin, (20° N, 140° W), which projects to exactly
/// (0, 0): a ring with its south-west vertex here has its south and
/// west edges on the axes.
const CORNER: LatLon = LatLon {
    lat: 20.0,
    lon: -140.0,
};

/// A region whose raster puts the centres of row and column 32 on the
/// axes: its origin, −16.25 km on both, is −(32 + 0.5) cells of
/// 0.5 km, and every centre is a multiple of 0.25 km, so exact.
fn aligned_spec(outline: Vec<LatLon>, inland_waters: Vec<Vec<LatLon>>) -> RegionTerrainSpec {
    RegionTerrainSpec {
        name: "aligned".into(),
        origin: CORNER,
        outline,
        inland_waters,
        ridges: Vec::new(),
        sectors: vec![sector(3.0, 10.0)],
        sector_rules: Vec::new(),
        fallback_sector: 0,
        domain_origin: EnuKm::new(-16.25, -16.25),
        extent_km: (34.0, 34.0),
        seed: 11,
        cell_km: 0.5,
        noise_amp_m: 0.5,
    }
}

/// The cells of `dem` whose centres lie on `ring`'s boundary: at
/// distance exactly 0 from it.
fn cells_on(dem: &Dem, ring: &[LatLon]) -> Vec<(EnuKm, bool)> {
    let projection = *dem.projection();
    let poly = Polygon::new(ring.iter().map(|&p| projection.to_enu(p)).collect()).unwrap();
    let mut walk = poly.boundary_walk();
    let mask = dem.land_mask();
    (0..mask.rows())
        .flat_map(|r| (0..mask.cols()).map(move |c| (c, r)))
        .map(|(c, r)| (mask.cell_center(c, r), *mask.get(c, r).unwrap()))
        .filter(|&(p, _)| walk.query(p).distance_km == 0.0)
        .collect()
}

#[test]
fn centres_on_the_outline_are_sea() {
    let outline = rectangle(CORNER.lat, 20.1, CORNER.lon, -139.88);
    let dem = synthesize_region(&aligned_spec(outline.clone(), Vec::new())).unwrap();
    assert_mask_matches_the_raster(&dem);
    let on_edge = cells_on(&dem, &outline);
    assert!(
        on_edge.iter().any(|&(p, _)| p == EnuKm::new(0.0, 0.0)),
        "a centre lies on the south-west vertex"
    );
    assert!(
        on_edge.len() >= 8,
        "{} centres on the outline",
        on_edge.len()
    );
    assert!(on_edge.iter().all(|&(_, land)| !land));
}

#[test]
fn centres_on_a_water_edge_inside_the_outline_are_decided_by_their_elevation() {
    // A harbour at least 7 km inside the outline: on its edge the
    // open-sea formula runs with a negative outline distance and lifts
    // the cell above sea level, so containment alone would call it sea.
    let outline = rectangle(19.88, 20.14, -140.13, -139.87);
    let harbour = rectangle(CORNER.lat, 20.04, CORNER.lon, -139.94);
    let dem = synthesize_region(&aligned_spec(outline, vec![harbour.clone()])).unwrap();
    assert_mask_matches_the_raster(&dem);
    let on_edge = cells_on(&dem, &harbour);
    assert!(
        on_edge.len() >= 8,
        "{} centres on the harbour",
        on_edge.len()
    );
    assert!(on_edge.iter().all(|&(_, land)| land));
    // Off its edge the harbour is water.
    let inside = dem.projection().to_enu(LatLon::new(20.02, -139.97));
    assert!(dem.elevation_at_enu(inside).unwrap() <= -4.0);
}

/// The bits of every field a build reads from a POI.
fn poi_bits(pois: &[Poi]) -> Vec<(String, u64, u64)> {
    pois.iter()
        .map(|p| {
            (
                p.id.clone(),
                p.ground_elevation_m.to_bits(),
                p.shore_distance_km.to_bits(),
            )
        })
        .collect()
}

fn station_bits(stations: &Stations) -> Vec<(StationId, u64)> {
    stations
        .iter()
        .map(|s| (s.id, s.shelf_factor.to_bits()))
        .collect()
}

#[test]
fn lazy_reads_equal_the_filled_raster_bit_for_bit() {
    let cfg = OahuTerrainConfig::default();
    let lazy = synthesize_oahu(&cfg);
    let filled = synthesize_oahu(&cfg);
    let raster = filled.elevation_grid();
    let projection = *lazy.projection();
    let same = |p: EnuKm| {
        assert_eq!(
            lazy.elevation_at_enu(p).map(f64::to_bits),
            raster.sample(p).map(f64::to_bits),
            "at {p:?}"
        );
    };
    for asset in ct_scada::oahu::topology().assets() {
        same(projection.to_enu(asset.pos));
    }
    // Every sample of the stations' shelf rays: half-cell steps out to
    // 4 km along the offshore normal from the nearest shore cell.
    let stations = Stations::from_dem(&lazy);
    let mut samples = 0;
    for station in stations.iter().filter(|s| s.id != StationId::PearlHarbor) {
        let (shore, _) = lazy.nearest_shore(projection.to_enu(station.pos)).unwrap();
        let theta = ((station.onshore_bearing_deg + 180.0) % 360.0).to_radians();
        let step = raster.cell_km() / 2.0;
        let mut s = step;
        while s <= 4.0 {
            same(EnuKm::new(
                shore.east + theta.sin() * s,
                shore.north + theta.cos() * s,
            ));
            samples += 1;
            s += step;
        }
    }
    assert_eq!(samples, 5 * 16);
}

#[test]
fn oahu_sites_from_a_lazy_dem_equal_the_eager_ones() {
    let cfg = OahuTerrainConfig::default();
    let lazy = synthesize_oahu(&cfg);
    let filled = synthesize_oahu(&cfg);
    let eager = Dem::new(filled.elevation_grid().clone(), *filled.projection());
    assert_eq!(
        poi_bits(&ct_scada::oahu::case_study_pois(&lazy).unwrap()),
        poi_bits(&ct_scada::oahu::case_study_pois(&eager).unwrap())
    );
    assert_eq!(
        station_bits(&Stations::from_dem(&lazy)),
        station_bits(&Stations::from_dem(&eager))
    );
    assert_eq!(
        lazy.land_mask().as_slice(),
        eager.land_mask().as_slice(),
        "the eager mask is the raster's land"
    );
}
