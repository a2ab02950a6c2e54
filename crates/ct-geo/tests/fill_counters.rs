//! The terrain counters of one Oahu DEM: synthesis computes the land
//! mask alone, and filling the raster evaluates every cell with one
//! carried walk per polygon, as synthesis did before cells were
//! computed on read.
//!
//! Kept as the only test of its binary because it reads the
//! process-global counters, which concurrent syntheses would move.

use ct_geo::terrain::{synthesize_oahu, OahuTerrainConfig};
use ct_obs::names::{
    GEO_TERRAIN_CELLS_EVALUATED, GEO_TERRAIN_EDGES_CULLED, GEO_TERRAIN_EDGES_EVALUATED,
};

fn counts() -> [u64; 3] {
    let snap = ct_obs::snapshot();
    [
        GEO_TERRAIN_CELLS_EVALUATED,
        GEO_TERRAIN_EDGES_EVALUATED,
        GEO_TERRAIN_EDGES_CULLED,
    ]
    .map(|name| snap.counter(name).unwrap_or(0))
}

#[test]
fn a_full_fill_evaluates_every_cell_and_the_pinned_edges() {
    ct_obs::reset();
    let dem = synthesize_oahu(&OahuTerrainConfig::default());
    // No Oahu cell centre lies on an edge, so the mask computes none.
    assert_eq!(counts(), [0, 0, 0]);
    let grid = dem.elevation_grid();
    assert_eq!((grid.cols(), grid.rows()), (184, 156));
    assert_eq!(counts(), [184 * 156, 65_165, 458_539]);
    // The raster is filled once; reads after it evaluate nothing.
    dem.elevation_grid();
    dem.elevation_at(ct_geo::LatLon::new(21.307, -157.858))
        .unwrap();
    assert_eq!(counts(), [28_704, 65_165, 458_539]);
}
