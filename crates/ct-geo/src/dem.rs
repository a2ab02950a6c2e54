//! Digital elevation model with land/sea masking and shoreline queries.

use crate::coords::{EnuKm, LatLon, Projection};
use crate::error::GeoError;
use crate::grid::Grid;
use crate::index::ShoreIndex;
use crate::region::{Cells, Terrain};
use std::sync::{Mutex, OnceLock};

/// A digital elevation model over a local east/north domain.
///
/// Elevations are metres above mean sea level; negative values are
/// bathymetry (sea floor below sea level). A cell is *land* when its
/// elevation is strictly positive.
///
/// A DEM from [`Dem::new`] holds its raster. One from
/// [`synthesize_region`](crate::synthesize_region) holds only its land
/// mask and computes a cell's elevation when a query first reads it;
/// [`Dem::elevation_grid`] computes the whole raster once. Either way
/// every query answers the same bits.
#[derive(Debug)]
pub struct Dem {
    /// Whether each cell is land.
    land: Grid<bool>,
    elevation: Elevation,
    projection: Projection,
    /// Cell centres of land cells that touch at least one sea cell.
    coastline: Vec<EnuKm>,
    /// Lazily-built nearest-shore index over `coastline`.
    shore_index: OnceLock<ShoreIndex>,
}

#[derive(Debug)]
enum Elevation {
    /// An explicit raster.
    Raster(Grid<f64>),
    Synthesized(Box<Synthesized>),
}

/// A synthesized terrain, the cells queries have read from it, and
/// the raster once [`Dem::elevation_grid`] has filled it.
#[derive(Debug)]
struct Synthesized {
    terrain: Terrain,
    cells: Mutex<Cells>,
    raster: OnceLock<Grid<f64>>,
}

impl Dem {
    /// Builds a DEM from an elevation grid (metres, negative = sea
    /// floor) and the projection tying the local frame to geography.
    ///
    /// Coastline cells are extracted eagerly at construction.
    pub fn new(elevation: Grid<f64>, projection: Projection) -> Self {
        Self::with_land(
            elevation.map(|&e| e > 0.0),
            Elevation::Raster(elevation),
            projection,
        )
    }

    /// A synthesized DEM: its land mask, and its terrain to compute
    /// cells from.
    pub(crate) fn synthesized(
        land: Grid<bool>,
        projection: Projection,
        terrain: Terrain,
        cells: Cells,
    ) -> Self {
        let elevation = Elevation::Synthesized(Box::new(Synthesized {
            terrain,
            cells: Mutex::new(cells),
            raster: OnceLock::new(),
        }));
        Self::with_land(land, elevation, projection)
    }

    fn with_land(land: Grid<bool>, elevation: Elevation, projection: Projection) -> Self {
        Self {
            coastline: extract_coastline(&land),
            land,
            elevation,
            projection,
            shore_index: OnceLock::new(),
        }
    }

    /// The underlying elevation raster. A synthesized DEM computes it
    /// on the first call.
    pub fn elevation_grid(&self) -> &Grid<f64> {
        match &self.elevation {
            Elevation::Raster(grid) => grid,
            Elevation::Synthesized(lazy) => {
                lazy.raster.get_or_init(|| lazy.terrain.fill(&self.land))
            }
        }
    }

    /// The land mask: whether each cell's elevation is strictly
    /// positive.
    pub fn land_mask(&self) -> &Grid<bool> {
        &self.land
    }

    /// The projection mapping geographic coordinates into the DEM's
    /// local frame.
    pub fn projection(&self) -> &Projection {
        &self.projection
    }

    /// Bilinearly-interpolated elevation (m) at a geographic point.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::OutOfBounds`] when the point falls outside
    /// the raster domain.
    pub fn elevation_at(&self, p: LatLon) -> Result<f64, GeoError> {
        self.elevation_at_enu(self.projection.to_enu(p))
            .ok_or_else(|| GeoError::OutOfBounds {
                what: format!("elevation at {p}"),
            })
    }

    /// Bilinearly-interpolated elevation (m) at a local point, or
    /// `None` outside the domain. Reads at most four cells.
    pub fn elevation_at_enu(&self, p: EnuKm) -> Option<f64> {
        match &self.elevation {
            Elevation::Raster(grid) => grid.sample(p),
            Elevation::Synthesized(lazy) => match lazy.raster.get() {
                Some(grid) => grid.sample(p),
                None => {
                    let mut cells = lazy.cells.lock().expect("DEM cell cache lock");
                    self.land.interpolate(p, |c, r| {
                        cells.elevation(&lazy.terrain, self.land.cell_center(c, r))
                    })
                }
            },
        }
    }

    /// Whether the point is on land (elevation > 0). Points outside
    /// the domain count as sea.
    pub fn is_land(&self, p: LatLon) -> bool {
        self.elevation_at_enu(self.projection.to_enu(p))
            .is_some_and(|e| e > 0.0)
    }

    /// Nearest coastline cell centre to a local point, with its
    /// distance in km. `None` when the DEM contains no coastline.
    ///
    /// Served by a lazily-built `ShoreIndex`; bit-identical to the
    /// linear scan over the coastline cells.
    pub fn nearest_shore(&self, p: EnuKm) -> Option<(EnuKm, f64)> {
        self.shore_index
            .get_or_init(|| ShoreIndex::new(&self.coastline))
            .nearest(p)
    }

    /// Distance from a geographic point to the nearest coastline, km.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::OutOfBounds`] if the DEM has no coastline
    /// at all (fully land or fully sea).
    pub fn distance_to_shore_km(&self, p: LatLon) -> Result<f64, GeoError> {
        self.nearest_shore(self.projection.to_enu(p))
            .map(|(_, d)| d)
            .ok_or_else(|| GeoError::OutOfBounds {
                what: "no coastline in DEM".to_string(),
            })
    }

    /// Mean sea depth (positive metres) along the outward-pointing ray
    /// from `shore` in direction `bearing_deg`, sampled out to
    /// `range_km`. Used to characterise the offshore shelf profile.
    ///
    /// Returns `None` when no sea cells are found along the ray.
    pub fn mean_offshore_depth(
        &self,
        shore: EnuKm,
        bearing_deg: f64,
        range_km: f64,
    ) -> Option<f64> {
        let theta = bearing_deg.to_radians();
        let (de, dn) = (theta.sin(), theta.cos());
        let step = self.land.cell_km() / 2.0;
        let (mut sum, mut count) = (0.0, 0_usize);
        let mut s = step;
        while s <= range_km {
            let q = EnuKm::new(shore.east + de * s, shore.north + dn * s);
            if let Some(e) = self.elevation_at_enu(q) {
                if e < 0.0 {
                    sum += -e;
                    count += 1;
                }
            }
            s += step;
        }
        (count > 0).then(|| sum / count as f64)
    }
}

/// Finds land cells with at least one 4-neighbour sea cell.
fn extract_coastline(land: &Grid<bool>) -> Vec<EnuKm> {
    let mut out = Vec::new();
    let (cols, rows) = (land.cols(), land.rows());
    let sea = |c: usize, r: usize| land.get(c, r).is_some_and(|&l| !l);
    for r in 0..rows {
        for c in 0..cols {
            if land.get(c, r) != Some(&true) {
                continue;
            }
            let near_sea = (c > 0 && sea(c - 1, r))
                || (c + 1 < cols && sea(c + 1, r))
                || (r > 0 && sea(c, r - 1))
                || (r + 1 < rows && sea(c, r + 1));
            if near_sea {
                out.push(land.cell_center(c, r));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coords::LatLon;

    impl Dem {
        /// Fraction of cells that are land.
        pub(crate) fn land_fraction(&self) -> f64 {
            let cells = self.land.as_slice();
            let land = cells.iter().filter(|&&l| l).count();
            land as f64 / cells.len() as f64
        }
    }

    /// A toy island: a 10 km-radius cone centred at the origin,
    /// surrounded by sea deepening outward.
    fn cone_island() -> Dem {
        let origin = EnuKm::new(-25.0, -25.0);
        let grid = Grid::from_fn(50, 50, origin, 1.0, |p| {
            let r = (p.east * p.east + p.north * p.north).sqrt();
            if r < 10.0 {
                (10.0 - r) * 20.0 // up to 200 m at the peak
            } else {
                -(r - 10.0) * 30.0 // deepening sea
            }
        })
        .unwrap();
        Dem::new(grid, Projection::new(LatLon::new(21.45, -158.0)))
    }

    #[test]
    fn land_and_sea_classification() {
        let dem = cone_island();
        let proj = *dem.projection();
        let center = proj.to_latlon(EnuKm::new(0.0, 0.0));
        let far = proj.to_latlon(EnuKm::new(20.0, 0.0));
        assert!(dem.is_land(center));
        assert!(!dem.is_land(far));
    }

    #[test]
    fn coastline_ring_extracted() {
        let dem = cone_island();
        let ring = &dem.coastline;
        assert!(!ring.is_empty());
        for c in ring {
            let r = (c.east * c.east + c.north * c.north).sqrt();
            assert!(
                (8.0..=11.5).contains(&r),
                "coastline cell at radius {r}, expected near 10"
            );
        }
    }

    #[test]
    fn nearest_shore_distance() {
        let dem = cone_island();
        let (_, d) = dem.nearest_shore(EnuKm::new(0.0, 0.0)).unwrap();
        assert!((8.0..=11.0).contains(&d), "got {d}");
        let (_, d) = dem.nearest_shore(EnuKm::new(15.0, 0.0)).unwrap();
        assert!(d < 7.0, "got {d}");
    }

    #[test]
    fn offshore_depth_increases_with_range() {
        let dem = cone_island();
        let shore = EnuKm::new(9.5, 0.0);
        let near = dem.mean_offshore_depth(shore, 90.0, 3.0).unwrap();
        let far = dem.mean_offshore_depth(shore, 90.0, 12.0).unwrap();
        assert!(far > near, "near={near} far={far}");
    }

    #[test]
    fn offshore_depth_none_inland() {
        let dem = cone_island();
        // Pointing inland from the peak: no sea within 5 km.
        assert!(dem
            .mean_offshore_depth(EnuKm::new(-5.0, 0.0), 90.0, 4.0)
            .is_none());
    }

    #[test]
    fn land_fraction_sane() {
        let dem = cone_island();
        let f = dem.land_fraction();
        // Cone of radius 10 in a 50x50 domain: pi*100/2500 ≈ 0.126.
        assert!((0.08..0.2).contains(&f), "got {f}");
    }

    #[test]
    fn elevation_at_out_of_bounds_errors() {
        let dem = cone_island();
        let far = LatLon::new(25.0, -160.0);
        assert!(dem.elevation_at(far).is_err());
    }
}
