//! The fused boundary walk that terrain synthesis runs per raster cell
//! must answer exactly what the three per-query polygon methods answer:
//! containment, boundary distance and closest boundary point, compared
//! bit for bit. The walk culls edges by their bounding boxes and seeds
//! the cull from the previous query's nearest edge, so the inputs here
//! include raster scans (the synthesis order), unrelated random points
//! (a seed far from the answer), ties, and points on the boundary.

use ct_geo::terrain::{oahu_region_spec, OahuTerrainConfig};
use ct_geo::{BoundaryWalk, EnuKm, Grid, LatLon, Polygon, Projection, RegionTerrainSpec};
use ct_rand::{cases, SplitMix64};

/// Queries `p` through `walk` and asserts every answer equals the
/// per-query oracle's bit for bit.
fn assert_walk_matches(poly: &Polygon, walk: &mut BoundaryWalk, p: EnuKm) {
    let hit = walk.query(p);
    let closest = poly.closest_boundary_point(p);
    assert_eq!(hit.inside, poly.contains(p), "containment at {p:?}");
    assert_eq!(
        hit.distance_km.to_bits(),
        poly.boundary_distance_km(p).to_bits(),
        "distance at {p:?}"
    );
    assert_eq!(
        (hit.closest.east.to_bits(), hit.closest.north.to_bits()),
        (closest.east.to_bits(), closest.north.to_bits()),
        "closest point at {p:?}: walk {:?}, oracle {closest:?}",
        hit.closest
    );
}

fn polygon(points: &[(f64, f64)]) -> Polygon {
    Polygon::new(points.iter().map(|&(e, n)| EnuKm::new(e, n)).collect()).unwrap()
}

/// The spec's outline and water bodies in its local frame, as
/// synthesis projects them.
fn projected_polygons(spec: &RegionTerrainSpec) -> Vec<Polygon> {
    let projection = Projection::new(spec.origin);
    std::iter::once(&spec.outline)
        .chain(&spec.inland_waters)
        .map(|ring| Polygon::new(ring.iter().map(|&p| projection.to_enu(p)).collect()).unwrap())
        .collect()
}

/// Every cell centre of the spec's raster, in synthesis order.
fn cell_centres(spec: &RegionTerrainSpec) -> Vec<EnuKm> {
    let cols = (spec.extent_km.0 / spec.cell_km).round() as usize;
    let rows = (spec.extent_km.1 / spec.cell_km).round() as usize;
    Grid::from_fn(cols, rows, spec.domain_origin, spec.cell_km, |p| p)
        .unwrap()
        .as_slice()
        .to_vec()
}

/// Walks every cell centre of `spec` over each of its polygons and
/// returns how many queries ran.
fn assert_raster_matches(spec: &RegionTerrainSpec) -> usize {
    let cells = cell_centres(spec);
    for poly in projected_polygons(spec) {
        let mut walk = poly.boundary_walk();
        for &p in &cells {
            assert_walk_matches(&poly, &mut walk, p);
        }
        let edges = poly.vertices().len() as u64;
        assert_eq!(
            walk.edges_evaluated() + walk.edges_culled(),
            edges * cells.len() as u64,
            "every edge is either evaluated or culled"
        );
    }
    cells.len()
}

#[test]
fn walk_matches_the_oracles_on_every_oahu_cell() {
    let spec = oahu_region_spec(&OahuTerrainConfig::default());
    assert_eq!(assert_raster_matches(&spec), 184 * 156);
}

#[test]
fn walk_matches_the_oracles_on_every_toy_region_cell() {
    // The 12 km octagon of `ct_geo::region`'s unit tests, on its
    // 50 × 50 km domain of 1 km cells.
    let origin = LatLon::new(20.0, -140.0);
    let projection = Projection::new(origin);
    let mut spec = oahu_region_spec(&OahuTerrainConfig::default());
    spec.origin = origin;
    spec.outline = (0..8)
        .map(|i| {
            let theta = f64::from(i) * std::f64::consts::TAU / 8.0;
            projection.to_latlon(EnuKm::new(12.0 * theta.cos(), 12.0 * theta.sin()))
        })
        .collect();
    spec.inland_waters.clear();
    spec.domain_origin = EnuKm::new(-25.0, -25.0);
    spec.extent_km = (50.0, 50.0);
    spec.cell_km = 1.0;
    assert_eq!(assert_raster_matches(&spec), 50 * 50);
}

fn random_point(rng: &mut SplitMix64) -> EnuKm {
    EnuKm::new(rng.range_f64(-60.0, 60.0), rng.range_f64(-50.0, 50.0))
}

#[test]
fn walk_matches_the_oracles_at_random_points() {
    // One walk per polygon across all cases, so each query's cull is
    // seeded by an unrelated point's nearest edge.
    let spec = oahu_region_spec(&OahuTerrainConfig::default());
    let polys = projected_polygons(&spec);
    let mut walks: Vec<BoundaryWalk> = polys.iter().map(Polygon::boundary_walk).collect();
    cases(512, |rng| {
        let p = random_point(rng);
        for (poly, walk) in polys.iter().zip(&mut walks) {
            assert_walk_matches(poly, walk, p);
        }
    });
}

#[test]
fn walk_matches_the_oracles_on_random_lattice_polygons() {
    // Star-shaped polygons whose vertices and queries sit on a 0.1 km
    // lattice: ties between edges, points on vertices and edges, and
    // repeated vertices are common.
    let lattice =
        |rng: &mut SplitMix64, half: u64| (rng.below(2 * half + 1) as f64 - half as f64) / 10.0;
    cases(256, |rng| {
        let n = 3 + rng.below(10) as usize;
        let vertices: Vec<EnuKm> = (0..n)
            .map(|i| {
                let theta = i as f64 * std::f64::consts::TAU / n as f64;
                let r = f64::from(1 + rng.below(60) as u32) / 10.0;
                EnuKm::new(
                    (r * theta.cos() * 10.0).round() / 10.0,
                    (r * theta.sin() * 10.0).round() / 10.0,
                )
            })
            .collect();
        let poly = Polygon::new(vertices.clone()).unwrap();
        let mut walk = poly.boundary_walk();
        for &v in &vertices {
            assert_walk_matches(&poly, &mut walk, v);
        }
        for _ in 0..64 {
            let p = EnuKm::new(lattice(rng, 80), lattice(rng, 80));
            assert_walk_matches(&poly, &mut walk, p);
        }
    });
}

#[test]
fn points_on_a_vertex_or_an_edge_are_at_distance_zero() {
    let poly = polygon(&[(0.1, 0.1), (7.3, 0.1), (7.3, 4.7), (0.1, 4.7)]);
    let mut walk = poly.boundary_walk();
    for p in [
        EnuKm::new(0.1, 0.1),
        EnuKm::new(7.3, 4.7),
        EnuKm::new(3.7, 0.1),
        EnuKm::new(7.3, 2.9),
    ] {
        assert_walk_matches(&poly, &mut walk, p);
        assert_eq!(walk.query(p).distance_km, 0.0, "{p:?} is on the boundary");
    }
    // A point on a slanted edge, where rounding leaves a tiny distance.
    let slanted = polygon(&[(0.0, 0.0), (0.7, 0.3), (0.2, 0.9)]);
    let mut walk = slanted.boundary_walk();
    for p in [
        EnuKm::new(0.35, 0.15),
        EnuKm::new(0.7, 0.3),
        EnuKm::new(0.45, 0.6),
    ] {
        assert_walk_matches(&slanted, &mut walk, p);
        assert!(walk.query(p).distance_km < 1e-12);
    }
}

#[test]
fn the_first_edge_in_walk_order_wins_a_tie() {
    // The square's centre is 5 km from all four edges. Edge 0 runs
    // from the last vertex to the first, (0, 10) → (0, 0), so the
    // closest point is its midpoint, even when the previous query left
    // the cull seeded on a later edge.
    let square = polygon(&[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]);
    let centre = EnuKm::new(5.0, 5.0);
    for previous in [
        EnuKm::new(5.0, -1.0),
        EnuKm::new(11.0, 5.0),
        EnuKm::new(5.0, 11.0),
        EnuKm::new(-1.0, 5.0),
    ] {
        let mut walk = square.boundary_walk();
        walk.query(previous);
        assert_walk_matches(&square, &mut walk, centre);
        assert_eq!(walk.query(centre).closest, EnuKm::new(0.0, 5.0));
    }
    // The same on a lattice that does not round exactly: 0.3 km from
    // the west and east edges of [0.1, 0.7] × [0.1, 0.9].
    let oblong = polygon(&[(0.1, 0.1), (0.7, 0.1), (0.7, 0.9), (0.1, 0.9)]);
    for previous in [EnuKm::new(0.8, 0.5), EnuKm::new(0.4, 0.95)] {
        let mut walk = oblong.boundary_walk();
        walk.query(previous);
        for p in [
            EnuKm::new(0.4, 0.5),
            EnuKm::new(0.4, 0.4),
            EnuKm::new(0.4, 0.6),
        ] {
            assert_walk_matches(&oblong, &mut walk, p);
        }
    }
}

#[test]
fn a_zero_length_edge_is_walked_like_any_other() {
    let poly = polygon(&[
        (0.0, 0.0),
        (10.0, 0.0),
        (10.0, 0.0),
        (10.0, 10.0),
        (0.0, 10.0),
    ]);
    let mut walk = poly.boundary_walk();
    for p in [
        EnuKm::new(10.0, 0.0),
        EnuKm::new(12.0, -1.0),
        EnuKm::new(11.0, 0.0),
        EnuKm::new(9.0, 1.0),
        EnuKm::new(10.0, 5.0),
        EnuKm::new(5.0, 5.0),
    ] {
        assert_walk_matches(&poly, &mut walk, p);
    }
}
