//! Property-based tests for the geospatial substrate.

use ct_geo::{EnuKm, Grid, LatLon, LatLonTrig, Polygon, Projection};
use ct_rand::{cases, SplitMix64};

fn island_latlon(rng: &mut SplitMix64) -> LatLon {
    LatLon::new(rng.range_f64(21.2, 21.75), rng.range_f64(-158.3, -157.6))
}

/// The precomputed-trig form is bit-identical to `LatLon`'s
/// haversine and bearing, and the haversine is bitwise symmetric:
/// the spatial index gates centre-to-point while its brute-force
/// contract reads point-to-centre.
#[test]
fn trig_form_matches_latlon_bitwise() {
    cases(256, |rng| {
        let a = LatLon::new(rng.range_f64(-80.0, 80.0), rng.range_f64(-179.0, 179.0));
        let b = LatLon::new(rng.range_f64(-80.0, 80.0), rng.range_f64(-179.0, 179.0));
        let (ta, tb) = (LatLonTrig::new(a), LatLonTrig::new(b));
        assert_eq!(ta.distance_km(&tb).to_bits(), a.distance_km(b).to_bits());
        assert_eq!(b.distance_km(a).to_bits(), a.distance_km(b).to_bits());
        assert_eq!(ta.bearing_deg(&tb).to_bits(), a.bearing_deg(b).to_bits());
    });
}

/// destination(bearing, d) lands exactly d away (great-circle).
#[test]
fn destination_distance_round_trip() {
    cases(256, |rng| {
        let p = island_latlon(rng);
        let bearing = rng.range_f64(0.0, 360.0);
        let d = rng.range_f64(0.1, 500.0);
        let q = p.destination(bearing, d);
        assert!(
            (p.distance_km(q) - d).abs() < 0.05,
            "{} vs {}",
            p.distance_km(q),
            d
        );
    });
}

/// The local projection round-trips everywhere in the island
/// domain.
#[test]
fn projection_round_trip() {
    cases(256, |rng| {
        let p = island_latlon(rng);
        let proj = Projection::new(LatLon::new(21.45, -158.0));
        let back = proj.to_latlon(proj.to_enu(p));
        assert!((back.lat - p.lat).abs() < 1e-9);
        assert!((back.lon - p.lon).abs() < 1e-9);
    });
}

/// Triangle inequality for the haversine metric.
#[test]
fn haversine_triangle_inequality() {
    cases(256, |rng| {
        let (a, b, c) = (island_latlon(rng), island_latlon(rng), island_latlon(rng));
        assert!(a.distance_km(c) <= a.distance_km(b) + b.distance_km(c) + 1e-9);
    });
}

/// Signed distance agrees with containment for arbitrary convex
/// quadrilaterals.
#[test]
fn polygon_sdf_sign_matches_containment() {
    cases(256, |rng| {
        let cx = rng.range_f64(-10.0, 10.0);
        let cy = rng.range_f64(-10.0, 10.0);
        let r = rng.range_f64(1.0, 20.0);
        let p = EnuKm::new(rng.range_f64(-40.0, 40.0), rng.range_f64(-40.0, 40.0));
        // A square centred at (cx, cy) with half-width r.
        let poly = Polygon::new(vec![
            EnuKm::new(cx - r, cy - r),
            EnuKm::new(cx + r, cy - r),
            EnuKm::new(cx + r, cy + r),
            EnuKm::new(cx - r, cy + r),
        ])
        .expect("square");
        let sdf = poly.boundary_walk().query(p).signed_distance_km();
        // Skip points within numerical reach of the boundary.
        if sdf.abs() <= 1e-6 {
            return;
        }
        assert_eq!(sdf < 0.0, poly.contains(p), "sdf {} at {:?}", sdf, p);
        // And the unsigned distance to the closest boundary point is
        // consistent.
        let q = poly.closest_boundary_point(p);
        assert!((p.distance_km(q) - sdf.abs()).abs() < 1e-9);
    });
}

/// Bilinear sampling at a cell centre returns the stored value.
#[test]
fn grid_sample_at_centers() {
    cases(256, |rng| {
        let cols = 2 + rng.below(18) as usize;
        let rows = 2 + rng.below(18) as usize;
        let cell = rng.range_f64(0.1, 5.0);
        let g = Grid::from_fn(cols, rows, EnuKm::new(-3.0, 4.0), cell, |p| {
            (p.east * 13.7).sin() + (p.north * 3.1).cos()
        })
        .expect("grid");
        let c = rng.below(cols as u64) as usize;
        let r = rng.below(rows as u64) as usize;
        let center = g.cell_center(c, r);
        let sampled = g.sample(center).expect("inside");
        assert!((sampled - *g.get(c, r).unwrap()).abs() < 1e-9);
    });
}

/// Value noise stays in [-1, 1] and is seed-deterministic.
#[test]
fn noise_bounded_and_deterministic() {
    cases(256, |rng| {
        let seed = rng.next_u64();
        let p = EnuKm::new(rng.range_f64(-500.0, 500.0), rng.range_f64(-500.0, 500.0));
        let freq = rng.range_f64(0.01, 4.0);
        let v = ct_geo::noise::value_noise(seed, p, freq);
        assert!((-1.0..=1.0).contains(&v));
        assert_eq!(v, ct_geo::noise::value_noise(seed, p, freq));
    });
}

#[test]
fn oahu_terrain_land_iff_positive_elevation() {
    use ct_geo::terrain::{synthesize_oahu, OahuTerrainConfig};
    let dem = synthesize_oahu(&OahuTerrainConfig::default());
    // is_land and elevation sign agree at a lattice of probes.
    for lat_i in 0..12 {
        for lon_i in 0..12 {
            let p = LatLon::new(21.23 + lat_i as f64 * 0.04, -158.28 + lon_i as f64 * 0.055);
            if let Ok(e) = dem.elevation_at(p) {
                assert_eq!(dem.is_land(p), e > 0.0, "at {p}: elevation {e}");
            }
        }
    }
}
