//! Region-generic terrain synthesis.
//!
//! [`synthesize_region`] generalizes the Oahu generator: a region is a
//! coastal outline plus inland water bodies, mountain ridges, and a set
//! of *coastal sectors* (per-stretch onshore/offshore slope rules), all
//! captured in a plain-data [`RegionTerrainSpec`]. The Oahu preset in
//! [`crate::terrain`] is the spec the pipeline runs; every field of it
//! feeds the DEM's store key.
//!
//! The elevation formula is shared by every region and kept identical
//! to the original Oahu generator, so the Oahu preset stays
//! bit-identical to the pre-refactor output (pinned by a DEM-digest
//! test in `core`).

use crate::coords::{EnuKm, LatLon, Projection};
use crate::dem::Dem;
use crate::error::GeoError;
use crate::grid::Grid;
use crate::noise::fbm;
use crate::polygon::{BoundaryWalk, Polygon};
use std::collections::HashMap;

/// One coastal sector's slope parameters: how fast the land rises
/// inland and how fast the sea floor drops offshore.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoastSector {
    /// Onshore terrain slope, metres per km inland.
    pub terrain_slope_m_per_km: f64,
    /// Offshore sea-floor slope, metres of depth per km offshore.
    pub shelf_slope_m_per_km: f64,
}

/// A classification rule mapping a shoreline point (the closest
/// boundary point to the query, in local km) to a sector index. Rules
/// are scanned in order; the first rule whose present constraints all
/// hold wins, else [`RegionTerrainSpec::fallback_sector`] applies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SectorRule {
    /// Matches when the shoreline point's east coordinate is ≤ this.
    pub max_east: Option<f64>,
    /// Matches when the shoreline point's north coordinate is ≤ this.
    pub max_north: Option<f64>,
    /// Matches when the shoreline point's north coordinate is ≥ this.
    pub min_north: Option<f64>,
    /// Index into [`RegionTerrainSpec::sectors`].
    pub sector: usize,
}

impl SectorRule {
    fn matches(&self, q: EnuKm) -> bool {
        self.max_east.is_none_or(|v| q.east <= v)
            && self.max_north.is_none_or(|v| q.north <= v)
            && self.min_north.is_none_or(|v| q.north >= v)
    }
}

/// A mountain ridge: a Gaussian elevation profile around the segment
/// `a`–`b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RidgeSpec {
    /// One end of the crest line.
    pub a: LatLon,
    /// The other end of the crest line.
    pub b: LatLon,
    /// Peak height contribution in metres.
    pub height_m: f64,
    /// Gaussian width in km.
    pub width_km: f64,
}

/// Everything needed to synthesize one region's DEM.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionTerrainSpec {
    /// Human-readable region name (also used in digests and figures).
    pub name: String,
    /// Projection origin: roughly the region centre.
    pub origin: LatLon,
    /// Island/coast outline vertices, in order.
    pub outline: Vec<LatLon>,
    /// Inland water bodies (harbors, lagoons) cut out of the land.
    pub inland_waters: Vec<Vec<LatLon>>,
    /// Mountain ridges.
    pub ridges: Vec<RidgeSpec>,
    /// Coastal sectors referenced by the rules.
    pub sectors: Vec<CoastSector>,
    /// Ordered classification rules over shoreline points.
    pub sector_rules: Vec<SectorRule>,
    /// Sector used when no rule matches.
    pub fallback_sector: usize,
    /// South-west corner of the raster domain, local km.
    pub domain_origin: EnuKm,
    /// Domain extent `(east_km, north_km)`.
    pub extent_km: (f64, f64),
    /// Noise seed; terrain is fully determined by the spec.
    pub seed: u64,
    /// Raster cell size in km.
    pub cell_km: f64,
    /// Small-scale elevation noise amplitude in metres (near coast).
    pub noise_amp_m: f64,
}

impl RegionTerrainSpec {
    /// The sector of a shoreline point: a point drains to the sector of
    /// its closest boundary point.
    pub(crate) fn sector_at(&self, shore: EnuKm) -> CoastSector {
        let idx = self
            .sector_rules
            .iter()
            .find(|r| r.matches(shore))
            .map_or(self.fallback_sector, |r| r.sector);
        self.sectors[idx.min(self.sectors.len() - 1)]
    }

    /// Validates structural invariants a synthesis run relies on.
    ///
    /// # Errors
    ///
    /// [`GeoError::DegeneratePolygon`] for an outline or water body
    /// with fewer than three vertices; [`GeoError::EmptyGrid`] for a
    /// non-positive cell size or empty domain or an empty sector
    /// table; [`GeoError::RisingShelf`] for a sector whose sea floor
    /// rises offshore, which could lift open sea above sea level.
    pub(crate) fn validate(&self) -> Result<(), GeoError> {
        if self.outline.len() < 3 {
            return Err(GeoError::DegeneratePolygon {
                vertices: self.outline.len(),
            });
        }
        for w in &self.inland_waters {
            if w.len() < 3 {
                return Err(GeoError::DegeneratePolygon { vertices: w.len() });
            }
        }
        if self.sectors.is_empty()
            || self.cell_km <= 0.0
            || !self.cell_km.is_finite()
            || self.extent_km.0 <= 0.0
            || self.extent_km.1 <= 0.0
        {
            return Err(GeoError::EmptyGrid);
        }
        if let Some(sector) = self
            .sectors
            .iter()
            .position(|s| s.shelf_slope_m_per_km < 0.0)
        {
            return Err(GeoError::RisingShelf { sector });
        }
        Ok(())
    }
}

/// A projected ridge, ready for evaluation in the local frame.
#[derive(Debug)]
struct Ridge {
    a: EnuKm,
    b: EnuKm,
    height_m: f64,
    width_km: f64,
}

impl Ridge {
    fn contribution(&self, p: EnuKm) -> f64 {
        let d = segment_distance(p, self.a, self.b);
        self.height_m * (-(d / self.width_km).powi(2)).exp()
    }
}

/// Distance (km) from `p` to the segment `ab`, all in local km.
fn segment_distance(p: EnuKm, a: EnuKm, b: EnuKm) -> f64 {
    let abe = b.east - a.east;
    let abn = b.north - a.north;
    let len2 = abe * abe + abn * abn;
    let t = if len2 == 0.0 {
        0.0
    } else {
        (((p.east - a.east) * abe + (p.north - a.north) * abn) / len2).clamp(0.0, 1.0)
    };
    p.distance_km(EnuKm::new(a.east + t * abe, a.north + t * abn))
}

fn project_ring(projection: &Projection, ring: &[LatLon]) -> Result<Polygon, GeoError> {
    Polygon::new(ring.iter().map(|&p| projection.to_enu(p)).collect())
}

static CELLS_EVALUATED: ct_obs::CachedCounter =
    ct_obs::CachedCounter::new(ct_obs::names::GEO_TERRAIN_CELLS_EVALUATED);
static EDGES_EVALUATED: ct_obs::CachedCounter =
    ct_obs::CachedCounter::new(ct_obs::names::GEO_TERRAIN_EDGES_EVALUATED);
static EDGES_CULLED: ct_obs::CachedCounter =
    ct_obs::CachedCounter::new(ct_obs::names::GEO_TERRAIN_EDGES_CULLED);

/// Synthesizes a region DEM from its spec.
///
/// The raster covers the outline plus surrounding ocean. The
/// elevation formula is the original Oahu formula, parameterized only
/// through the spec's sectors/ridges/waters — the Oahu preset is
/// bit-identical to the pre-refactor generator.
///
/// Only the land mask is computed here, from even-odd containment; a
/// cell's elevation is computed when a query first reads it, and
/// [`Dem::elevation_grid`] computes every cell in raster order.
///
/// # Errors
///
/// Returns [`GeoError`] for degenerate outlines, an empty domain or a
/// shelf that rises offshore.
pub fn synthesize_region(spec: &RegionTerrainSpec) -> Result<Dem, GeoError> {
    spec.validate()?;
    let projection = Projection::new(spec.origin);
    let terrain = Terrain {
        spec: spec.clone(),
        outline: project_ring(&projection, &spec.outline)?,
        waters: spec
            .inland_waters
            .iter()
            .map(|w| project_ring(&projection, w))
            .collect::<Result<_, _>>()?,
        ridges: spec
            .ridges
            .iter()
            .map(|r| Ridge {
                a: projection.to_enu(r.a),
                b: projection.to_enu(r.b),
                height_m: r.height_m,
                width_km: r.width_km,
            })
            .collect(),
    };
    let cols = (spec.extent_km.0 / spec.cell_km).round() as usize;
    let rows = (spec.extent_km.1 / spec.cell_km).round() as usize;
    let mut cells = Cells {
        walks: Walks::new(&terrain),
        read: HashMap::new(),
    };
    let land = Grid::from_fn(cols, rows, spec.domain_origin, spec.cell_km, |p| {
        cells.is_land(&terrain, p)
    })?;
    ct_obs::add(ct_obs::names::GEO_DEM_SYNTHESIZED, 1);
    Ok(Dem::synthesized(land, projection, terrain, cells))
}

/// A region's terrain in its local frame: the spec with its outline,
/// water bodies and ridges projected.
#[derive(Debug)]
pub(crate) struct Terrain {
    spec: RegionTerrainSpec,
    outline: Polygon,
    waters: Vec<Polygon>,
    ridges: Vec<Ridge>,
}

impl Terrain {
    /// Every cell of the raster shaped like `shape`, in raster order,
    /// with one carried walk per polygon.
    pub(crate) fn fill(&self, shape: &Grid<bool>) -> Grid<f64> {
        let mut walks = Walks::new(self);
        let grid = Grid::from_fn(
            shape.cols(),
            shape.rows(),
            shape.origin(),
            shape.cell_km(),
            |p| elevation_at(self, &mut walks, p),
        )
        .expect("the land mask has a valid shape");
        CELLS_EVALUATED.add(grid.as_slice().len() as u64);
        let (evaluated, culled) = walks.edges();
        EDGES_EVALUATED.add(evaluated);
        EDGES_CULLED.add(culled);
        grid
    }
}

/// The elevation of the cell centred at `p`. Each polygon is walked
/// at most once; the water bodies are combined in spec order, so the
/// first one holding `p` sets an inland-water depth.
fn elevation_at(terrain: &Terrain, walks: &mut Walks, p: EnuKm) -> f64 {
    let Terrain {
        spec,
        ridges: ridge_list,
        ..
    } = terrain;
    let Walks { outline, waters } = walks;
    let shore = outline.query(p);
    let sdf_out = shore.signed_distance_km();
    // Land = inside the outline and outside every inland water body.
    let mut land_sdf = sdf_out;
    let mut inland_water = None;
    for water in waters.iter_mut() {
        // Off the land, a water body's distance can neither make land
        // nor set a depth unless the body holds `p`.
        if !(sdf_out < 0.0 || water.contains(p)) {
            continue;
        }
        let w = water.query(p).signed_distance_km();
        land_sdf = land_sdf.max(-w);
        if inland_water.is_none() && w < 0.0 {
            inland_water = Some(w);
        }
    }
    if land_sdf < 0.0 {
        let dist_inland = -land_sdf;
        let sector = spec.sector_at(shore.closest);
        let base = 0.5 + sector.terrain_slope_m_per_km * dist_inland;
        let ridge: f64 = ridge_list
            .iter()
            .map(|r| r.contribution(p) * (dist_inland / 3.0).min(1.0))
            .sum();
        let amp = spec.noise_amp_m + 0.10 * base;
        let n = amp * fbm(spec.seed, p, 0.15, 4);
        (base + ridge + n).max(0.2)
    } else if let Some(w) = inland_water {
        // Inside an inland water body: shallow, dredged-channel depths.
        -(4.0 + 6.0 * (-w).min(1.5))
    } else {
        // Open sea: shelf deepening away from the region.
        let sector = spec.sector_at(shore.closest);
        let depth = 2.0 + sector.shelf_slope_m_per_km * sdf_out;
        -depth.min(4500.0)
    }
}

/// One walk per polygon, carried from cell to cell.
#[derive(Debug)]
struct Walks {
    outline: BoundaryWalk,
    waters: Vec<BoundaryWalk>,
}

impl Walks {
    fn new(terrain: &Terrain) -> Self {
        Self {
            outline: terrain.outline.boundary_walk(),
            waters: terrain.waters.iter().map(Polygon::boundary_walk).collect(),
        }
    }

    /// Edges evaluated and culled over every query so far.
    fn edges(&self) -> (u64, u64) {
        let walks = || std::iter::once(&self.outline).chain(&self.waters);
        (
            walks().map(BoundaryWalk::edges_evaluated).sum(),
            walks().map(BoundaryWalk::edges_culled).sum(),
        )
    }
}

/// The cells of a synthesized DEM that queries have read, keyed by
/// the bits of their centre, and the walks that computed them.
#[derive(Debug)]
pub(crate) struct Cells {
    walks: Walks,
    read: HashMap<(u64, u64), f64>,
}

impl Cells {
    /// The elevation of the cell centred at `p`, computed on its first
    /// read.
    pub(crate) fn elevation(&mut self, terrain: &Terrain, p: EnuKm) -> f64 {
        let key = (p.east.to_bits(), p.north.to_bits());
        if let Some(&e) = self.read.get(&key) {
            return e;
        }
        let before = self.walks.edges();
        let e = elevation_at(terrain, &mut self.walks, p);
        let after = self.walks.edges();
        CELLS_EVALUATED.add(1);
        EDGES_EVALUATED.add(after.0 - before.0);
        EDGES_CULLED.add(after.1 - before.1);
        self.read.insert(key, e);
        e
    }

    /// Whether the cell centred at `p` is land (elevation > 0), from
    /// containment alone wherever that decides it exactly.
    ///
    /// Land is clamped to at least 0.2 m, inland water lies at or below
    /// −4 m and open sea, off the outline, at or below −2 m. So a cell
    /// off every edge is land exactly when it is inside the outline and
    /// outside every water body. A centre on the outline is at signed
    /// distance ±0, never below 0, so it is sea. A centre on a water
    /// body's edge inside the outline (and in no other water body)
    /// takes the open-sea formula with a negative outline distance,
    /// which can rise above sea level; its elevation is computed.
    fn is_land(&mut self, terrain: &Terrain, p: EnuKm) -> bool {
        if !self.walks.outline.contains(p) || self.walks.outline.touches(p) {
            return false;
        }
        let mut on_water_edge = false;
        for water in &mut self.walks.waters {
            if water.touches(p) {
                on_water_edge = true;
            } else if water.contains(p) {
                return false;
            }
        }
        !on_water_edge || self.elevation(terrain, p) > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_spec() -> RegionTerrainSpec {
        let origin = LatLon::new(20.0, -140.0);
        let proj = Projection::new(origin);
        // A rough 12 km-radius octagon.
        let outline = (0..8)
            .map(|i| {
                let theta = f64::from(i) * std::f64::consts::TAU / 8.0;
                proj.to_latlon(EnuKm::new(12.0 * theta.cos(), 12.0 * theta.sin()))
            })
            .collect();
        RegionTerrainSpec {
            name: "toy".into(),
            origin,
            outline,
            inland_waters: Vec::new(),
            ridges: vec![RidgeSpec {
                a: proj.to_latlon(EnuKm::new(-4.0, 0.0)),
                b: proj.to_latlon(EnuKm::new(4.0, 0.0)),
                height_m: 500.0,
                width_km: 3.0,
            }],
            sectors: vec![
                CoastSector {
                    terrain_slope_m_per_km: 2.0,
                    shelf_slope_m_per_km: 15.0,
                },
                CoastSector {
                    terrain_slope_m_per_km: 8.0,
                    shelf_slope_m_per_km: 50.0,
                },
            ],
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
        }
    }

    #[test]
    fn toy_region_synthesizes_deterministically() {
        let a = synthesize_region(&toy_spec()).unwrap();
        let b = synthesize_region(&toy_spec()).unwrap();
        assert_eq!(a.elevation_grid().as_slice(), b.elevation_grid().as_slice());
        let f = a.land_fraction();
        // ~pi*144 / 2500 ≈ 0.18 of the domain is land.
        assert!((0.1..0.3).contains(&f), "land fraction {f}");
    }

    #[test]
    fn sector_rules_shape_the_shelf() {
        let dem = synthesize_region(&toy_spec()).unwrap();
        // West sector (sector 1) drops off 50 m/km; east only 15 m/km.
        let west = dem
            .elevation_at_enu(EnuKm::new(-20.0, 0.0))
            .expect("in domain");
        let east = dem
            .elevation_at_enu(EnuKm::new(20.0, 0.0))
            .expect("in domain");
        assert!(west < east, "west {west} should be deeper than east {east}");
    }

    #[test]
    fn validate_rejects_degenerate_specs() {
        let mut bad = toy_spec();
        bad.outline.truncate(2);
        assert!(matches!(
            synthesize_region(&bad),
            Err(GeoError::DegeneratePolygon { vertices: 2 })
        ));
        let mut bad = toy_spec();
        bad.cell_km = 0.0;
        assert!(matches!(synthesize_region(&bad), Err(GeoError::EmptyGrid)));
        let mut bad = toy_spec();
        bad.sectors.clear();
        assert!(matches!(synthesize_region(&bad), Err(GeoError::EmptyGrid)));
        let mut bad = toy_spec();
        bad.sectors[1].shelf_slope_m_per_km = -1.0;
        assert!(matches!(
            synthesize_region(&bad),
            Err(GeoError::RisingShelf { sector: 1 })
        ));
    }

    #[test]
    fn inland_waters_cut_out_of_land() {
        let mut spec = toy_spec();
        let proj = Projection::new(spec.origin);
        spec.inland_waters = vec![(0..6)
            .map(|i| {
                let theta = f64::from(i) * std::f64::consts::TAU / 6.0;
                proj.to_latlon(EnuKm::new(6.0 + 2.0 * theta.cos(), 2.0 * theta.sin()))
            })
            .collect()];
        let dem = synthesize_region(&spec).unwrap();
        let e = dem.elevation_at_enu(EnuKm::new(6.0, 0.0)).expect("domain");
        assert!(e < 0.0, "lagoon interior should be water, got {e}");
    }
}
