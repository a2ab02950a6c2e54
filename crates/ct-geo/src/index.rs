//! Uniform-grid spatial indexes.
//!
//! Two index types back the hazard-footprint→asset mapping:
//!
//! - [`ShoreIndex`]: buckets coastline cell centres in the local
//!   east/north frame and answers nearest-neighbour queries by an
//!   expanding ring search. Results are *bit-identical* to the linear
//!   scan (`iter().min_by(total_cmp)`): the same distance expression is
//!   evaluated, and ties break to the lowest point index, which is
//!   exactly the first-minimum element the linear scan returns.
//! - [`SpatialIndex`]: buckets geographic points by degree windows and
//!   answers "all points strictly within `r` km of a centre" queries.
//!   The grid has about one point per bucket (`ceil(sqrt(n))` per
//!   axis, at most 64), so a query never walks more buckets than the
//!   index has points. Buckets give a conservative candidate superset;
//!   an exact haversine filter (`distance_km < r`, strict, matching
//!   the wind kernel's footprint gate) produces the hits. Candidate
//!   and hit volumes are reported to the `spatial.candidates` /
//!   `spatial.hits` counters, one batched add per query, so counts
//!   stay deterministic across worker-thread counts.
//!
//! Contract: query footprints must not wrap the ±180° antimeridian;
//! Oahu's, a few hundred km around 158° W, never come near it.

use crate::coords::{EnuKm, LatLon, LatLonTrig, EARTH_RADIUS_KM};

static QUERIES: ct_obs::CachedCounter = ct_obs::CachedCounter::new(ct_obs::names::SPATIAL_QUERIES);
static CANDIDATES: ct_obs::CachedCounter =
    ct_obs::CachedCounter::new(ct_obs::names::SPATIAL_CANDIDATES);
static HITS: ct_obs::CachedCounter = ct_obs::CachedCounter::new(ct_obs::names::SPATIAL_HITS);

/// A uniform-grid nearest-neighbour index over local-frame points.
#[derive(Debug, Clone)]
pub struct ShoreIndex {
    points: Vec<EnuKm>,
    origin: EnuKm,
    cell_km: f64,
    cols: usize,
    rows: usize,
    buckets: Vec<Vec<u32>>,
}

impl ShoreIndex {
    /// Builds the index. Bucket size adapts to the point density so
    /// typical queries touch O(1) buckets.
    pub fn new(points: &[EnuKm]) -> Self {
        if points.is_empty() {
            return Self {
                points: Vec::new(),
                origin: EnuKm::new(0.0, 0.0),
                cell_km: 1.0,
                cols: 0,
                rows: 0,
                buckets: Vec::new(),
            };
        }
        let (mut min_e, mut max_e) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_n, mut max_n) = (f64::INFINITY, f64::NEG_INFINITY);
        for p in points {
            min_e = min_e.min(p.east);
            max_e = max_e.max(p.east);
            min_n = min_n.min(p.north);
            max_n = max_n.max(p.north);
        }
        let span_e = (max_e - min_e).max(1e-9);
        let span_n = (max_n - min_n).max(1e-9);
        let cell_km = (span_e * span_n / points.len() as f64)
            .sqrt()
            .clamp(0.5, 8.0);
        let cols = ((span_e / cell_km).ceil() as usize).max(1);
        let rows = ((span_n / cell_km).ceil() as usize).max(1);
        let origin = EnuKm::new(min_e, min_n);
        let mut buckets = vec![Vec::new(); cols * rows];
        for (i, p) in points.iter().enumerate() {
            let (c, r) = bucket_of(*p, origin, cell_km, cols, rows);
            buckets[r * cols + c].push(i as u32);
        }
        Self {
            points: points.to_vec(),
            origin,
            cell_km,
            cols,
            rows,
            buckets,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Nearest indexed point to `p` with its distance in km, or `None`
    /// for an empty index. Equals the linear scan
    /// `points.iter().map(|&c| (c, c.distance_km(p))).min_by(total_cmp)`
    /// bit for bit (ties break to the lowest index, i.e. the first
    /// minimum in iteration order).
    pub fn nearest(&self, p: EnuKm) -> Option<(EnuKm, f64)> {
        if self.points.is_empty() {
            return None;
        }
        let (bc, br) = bucket_of(p, self.origin, self.cell_km, self.cols, self.rows);
        let mut best: Option<(usize, f64)> = None;
        let max_ring = self.cols.max(self.rows);
        for ring in 0..=max_ring {
            if let Some((_, best_d)) = best {
                // Buckets at ring `ring` lie entirely outside the rect
                // covered by rings 0..ring; if the rect's interior
                // already clears best_d around p, no farther ring can
                // improve on (or tie) the current best.
                if self.ring_lower_bound(p, bc, br, ring) > best_d {
                    break;
                }
            }
            self.scan_ring(p, bc, br, ring, &mut best);
        }
        best.map(|(i, d)| (self.points[i], d))
    }

    /// Distance from `p` to the boundary of the rect of buckets with
    /// Chebyshev index < `ring` around `(bc, br)`; 0 when `p` is
    /// outside that rect (no pruning possible yet).
    fn ring_lower_bound(&self, p: EnuKm, bc: usize, br: usize, ring: usize) -> f64 {
        if ring == 0 {
            return 0.0;
        }
        let k = (ring - 1) as f64;
        let lo_e = self.origin.east + (bc as f64 - k) * self.cell_km;
        let hi_e = self.origin.east + (bc as f64 + k + 1.0) * self.cell_km;
        let lo_n = self.origin.north + (br as f64 - k) * self.cell_km;
        let hi_n = self.origin.north + (br as f64 + k + 1.0) * self.cell_km;
        (p.east - lo_e)
            .min(hi_e - p.east)
            .min(p.north - lo_n)
            .min(hi_n - p.north)
            .max(0.0)
    }

    fn scan_ring(
        &self,
        p: EnuKm,
        bc: usize,
        br: usize,
        ring: usize,
        best: &mut Option<(usize, f64)>,
    ) {
        let lo_c = bc.saturating_sub(ring);
        let hi_c = (bc + ring).min(self.cols.saturating_sub(1));
        let lo_r = br.saturating_sub(ring);
        let hi_r = (br + ring).min(self.rows.saturating_sub(1));
        for r in lo_r..=hi_r {
            for c in lo_c..=hi_c {
                // Only the ring's perimeter; inner buckets were
                // scanned by previous rings.
                let on_ring = c.max(bc) - c.min(bc) == ring || r.max(br) - r.min(br) == ring;
                if !on_ring && ring > 0 {
                    continue;
                }
                for &i in &self.buckets[r * self.cols + c] {
                    let i = i as usize;
                    let d = self.points[i].distance_km(p);
                    let better = match *best {
                        None => true,
                        Some((bi, bd)) => d < bd || (d == bd && i < bi),
                    };
                    if better {
                        *best = Some((i, d));
                    }
                }
            }
        }
    }
}

fn bucket_of(p: EnuKm, origin: EnuKm, cell_km: f64, cols: usize, rows: usize) -> (usize, usize) {
    let c = ((p.east - origin.east) / cell_km).floor();
    let r = ((p.north - origin.north) / cell_km).floor();
    let c = if c.is_finite() && c > 0.0 {
        c as usize
    } else {
        0
    };
    let r = if r.is_finite() && r > 0.0 {
        r as usize
    } else {
        0
    };
    (c.min(cols.saturating_sub(1)), r.min(rows.saturating_sub(1)))
}

/// A uniform-grid range-query index over geographic points.
#[derive(Debug, Clone)]
pub struct SpatialIndex {
    sites: Vec<LatLonTrig>,
    min_lat: f64,
    min_lon: f64,
    lat_step: f64,
    lon_step: f64,
    cols: usize,
    rows: usize,
    buckets: Vec<Vec<u32>>,
}

/// Buckets per grid axis: `ceil(sqrt(n))`, at most 64.
const MAX_AXIS_BUCKETS: usize = 64;

impl SpatialIndex {
    /// Builds the index over `points` (asset positions).
    pub fn new(points: Vec<LatLon>) -> Self {
        let sites = points.iter().map(|&p| LatLonTrig::new(p)).collect();
        if points.is_empty() {
            return Self {
                sites,
                min_lat: 0.0,
                min_lon: 0.0,
                lat_step: 1.0,
                lon_step: 1.0,
                cols: 0,
                rows: 0,
                buckets: Vec::new(),
            };
        }
        let (mut min_lat, mut max_lat) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_lon, mut max_lon) = (f64::INFINITY, f64::NEG_INFINITY);
        for p in &points {
            min_lat = min_lat.min(p.lat);
            max_lat = max_lat.max(p.lat);
            min_lon = min_lon.min(p.lon);
            max_lon = max_lon.max(p.lon);
        }
        let axis = ((points.len() as f64).sqrt().ceil() as usize).clamp(1, MAX_AXIS_BUCKETS) as f64;
        let lat_step = ((max_lat - min_lat) / axis).max(1e-3);
        let lon_step = ((max_lon - min_lon) / axis).max(1e-3);
        let cols = (((max_lon - min_lon) / lon_step).ceil() as usize).max(1);
        let rows = (((max_lat - min_lat) / lat_step).ceil() as usize).max(1);
        let mut buckets = vec![Vec::new(); cols * rows];
        for (i, p) in points.iter().enumerate() {
            let c = (((p.lon - min_lon) / lon_step) as usize).min(cols - 1);
            let r = (((p.lat - min_lat) / lat_step) as usize).min(rows - 1);
            buckets[r * cols + c].push(i as u32);
        }
        Self {
            sites,
            min_lat,
            min_lon,
            lat_step,
            lon_step,
            cols,
            rows,
            buckets,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Indices of all points strictly within `radius_km` of `center`,
    /// ascending. Exactly equals the brute-force filter
    /// `points[i].distance_km(center) < radius_km`.
    ///
    /// Reports the scanned candidate count, the hit count, and the
    /// query itself to the `spatial.candidates` / `spatial.hits` /
    /// `spatial.queries` counters (one add each per query), so
    /// `candidates / queries` is the observable mean scan width.
    pub fn within_km(&self, center: LatLon, radius_km: f64) -> Vec<usize> {
        let mut hits = Vec::new();
        self.for_each_within(&LatLonTrig::new(center), radius_km, |i, _, _| hits.push(i));
        hits.sort_unstable();
        hits
    }

    /// Visits every point strictly within `radius_km` of `center`, in
    /// bucket order, as `(index, point, distance_km)`. The distance is
    /// the haversine from `center` to the point, the same value the
    /// filter compared, so callers reuse it instead of recomputing it.
    /// The point is borrowed from the index, so callers may keep it.
    /// The hit set and the counters are those of
    /// [`within_km`](Self::within_km).
    pub fn for_each_within<'a>(
        &'a self,
        center: &LatLonTrig,
        radius_km: f64,
        mut visit: impl FnMut(usize, &'a LatLonTrig, f64),
    ) {
        QUERIES.add(1);
        // `partial_cmp` so a NaN radius lands in the empty arm rather
        // than scanning with NaN window bounds.
        let positive = radius_km.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
        if self.sites.is_empty() || !positive {
            CANDIDATES.add(0);
            HITS.add(0);
            return;
        }
        let center_pos = center.pos();
        // Conservative degree window: |Δlat| ≤ r/R exactly (meridian
        // haversine is linear in Δlat); |Δlon| ≤ (π/2)·(r/R)/cos φ
        // using the smallest cosine over the latitude band.
        let radius_rad = radius_km / EARTH_RADIUS_KM;
        let dlat_deg = radius_rad.to_degrees();
        let band_lat = (center_pos.lat.abs() + dlat_deg).min(89.0);
        let min_cos = band_lat.to_radians().cos().max(0.01);
        let dlon_deg = (std::f64::consts::FRAC_PI_2 * radius_rad / min_cos).to_degrees();

        let lo_r = (((center_pos.lat - dlat_deg - self.min_lat) / self.lat_step).floor()).max(0.0);
        let hi_r = ((center_pos.lat + dlat_deg - self.min_lat) / self.lat_step).floor();
        let lo_c = (((center_pos.lon - dlon_deg - self.min_lon) / self.lon_step).floor()).max(0.0);
        let hi_c = ((center_pos.lon + dlon_deg - self.min_lon) / self.lon_step).floor();
        let mut hits = 0u64;
        let mut candidates = 0u64;
        if hi_r >= 0.0 && hi_c >= 0.0 {
            let lo_r = lo_r as usize;
            let hi_r = (hi_r as usize).min(self.rows.saturating_sub(1));
            let lo_c = lo_c as usize;
            let hi_c = (hi_c as usize).min(self.cols.saturating_sub(1));
            for r in lo_r..=hi_r {
                for c in lo_c..=hi_c {
                    let bucket = &self.buckets[r * self.cols + c];
                    candidates += bucket.len() as u64;
                    for &i in bucket {
                        let i = i as usize;
                        let site = &self.sites[i];
                        let d = center.distance_km(site);
                        if d < radius_km {
                            hits += 1;
                            visit(i, site, d);
                        }
                    }
                }
            }
        }
        CANDIDATES.add(candidates);
        HITS.add(hits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_rand::{cases, SplitMix64};

    fn linear_nearest(points: &[EnuKm], p: EnuKm) -> Option<(EnuKm, f64)> {
        points
            .iter()
            .map(|&c| (c, c.distance_km(p)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    fn brute_within(points: &[LatLon], center: LatLon, radius_km: f64) -> Vec<usize> {
        (0..points.len())
            .filter(|&i| points[i].distance_km(center) < radius_km)
            .collect()
    }

    #[test]
    fn empty_indexes_answer_empty() {
        assert!(ShoreIndex::new(&[]).nearest(EnuKm::new(0.0, 0.0)).is_none());
        assert!(SpatialIndex::new(Vec::new())
            .within_km(LatLon::new(0.0, 0.0), 100.0)
            .is_empty());
    }

    #[test]
    fn single_point_nearest() {
        let pts = [EnuKm::new(3.0, 4.0)];
        let idx = ShoreIndex::new(&pts);
        let (q, d) = idx.nearest(EnuKm::new(0.0, 0.0)).unwrap();
        assert_eq!(q, pts[0]);
        assert_eq!(d, pts[0].distance_km(EnuKm::new(0.0, 0.0)));
    }

    #[test]
    fn duplicate_points_tie_break_to_first() {
        // Two identical points: the linear scan returns the first.
        let pts = [EnuKm::new(1.0, 1.0), EnuKm::new(1.0, 1.0)];
        let idx = ShoreIndex::new(&pts);
        let got = idx.nearest(EnuKm::new(0.0, 0.0));
        let want = linear_nearest(&pts, EnuKm::new(0.0, 0.0));
        assert_eq!(got, want);
    }

    /// `n` points drawn uniformly in `[e0, e1) x [n0, n1)`.
    fn points(
        rng: &mut SplitMix64,
        n: u64,
        (e0, e1): (f64, f64),
        (n0, n1): (f64, f64),
    ) -> Vec<(f64, f64)> {
        (0..n)
            .map(|_| (rng.range_f64(e0, e1), rng.range_f64(n0, n1)))
            .collect()
    }

    #[test]
    fn nearest_matches_linear_scan() {
        cases(256, |rng| {
            let n = 1 + rng.below(199);
            let pts = points(rng, n, (-60.0, 60.0), (-45.0, 45.0));
            let n = 1 + rng.below(19);
            let queries = points(rng, n, (-90.0, 90.0), (-70.0, 70.0));
            let pts: Vec<EnuKm> = pts.iter().map(|&(e, n)| EnuKm::new(e, n)).collect();
            let idx = ShoreIndex::new(&pts);
            for &(e, n) in &queries {
                let q = EnuKm::new(e, n);
                let got = idx.nearest(q);
                let want = linear_nearest(&pts, q);
                assert_eq!(
                    got.map(|(p, d)| (p.east.to_bits(), p.north.to_bits(), d.to_bits())),
                    want.map(|(p, d)| (p.east.to_bits(), p.north.to_bits(), d.to_bits()))
                );
            }
        });
    }

    #[test]
    fn within_km_matches_brute_force() {
        cases(256, |rng| {
            let n = 1 + rng.below(299);
            let pts = points(rng, n, (5.0, 50.0), (-170.0, -60.0));
            let center_lat = rng.range_f64(0.0, 55.0);
            let center_lon = rng.range_f64(-175.0, -55.0);
            let radius = rng.range_f64(1.0, 2000.0);
            let pts: Vec<LatLon> = pts.iter().map(|&(la, lo)| LatLon::new(la, lo)).collect();
            let idx = SpatialIndex::new(pts.clone());
            let center = LatLon::new(center_lat, center_lon);
            let got = idx.within_km(center, radius);
            let want = brute_within(&pts, center, radius);
            assert_eq!(got, want);
        });
    }

    #[test]
    fn grid_is_sized_to_its_points() {
        // Twenty points spread over an island: ceil(sqrt(20)) = 5
        // buckets per axis, so at most 25 buckets for 20 points (a
        // fixed 64x64 grid walked 4096 per query).
        let pts: Vec<LatLon> = (0..20)
            .map(|i| {
                LatLon::new(
                    21.25 + f64::from(i % 5) * 0.1,
                    -158.25 + f64::from(i / 5) * 0.15,
                )
            })
            .collect();
        let idx = SpatialIndex::new(pts.clone());
        assert!(idx.buckets.len() <= 25, "{} buckets", idx.buckets.len());
        assert_eq!(idx.buckets.iter().map(Vec::len).sum::<usize>(), 20);
        // A footprint covering every point still answers exactly.
        let center = LatLon::new(21.4, -158.0);
        assert_eq!(
            idx.within_km(center, 400.0),
            brute_within(&pts, center, 400.0)
        );
        // Large point sets stop growing at 64 buckets per axis.
        let many: Vec<LatLon> = (0..10_000)
            .map(|i| LatLon::new(f64::from(i % 100) * 0.01, f64::from(i / 100) * 0.01))
            .collect();
        assert!(SpatialIndex::new(many).buckets.len() <= 64 * 64);
    }

    #[test]
    fn for_each_within_reports_the_gate_distance() {
        let pts: Vec<LatLon> = (0..30)
            .map(|i| LatLon::new(20.0 + f64::from(i) * 0.2, -158.0 + f64::from(i % 7) * 0.3))
            .collect();
        let idx = SpatialIndex::new(pts.clone());
        let center = LatLon::new(21.0, -157.5);
        let mut seen = Vec::new();
        idx.for_each_within(&LatLonTrig::new(center), 150.0, |i, site, d| {
            assert_eq!(site.pos(), pts[i]);
            assert_eq!(d.to_bits(), center.distance_km(pts[i]).to_bits());
            seen.push(i);
        });
        seen.sort_unstable();
        assert_eq!(seen, brute_within(&pts, center, 150.0));
    }

    #[test]
    fn counters_report_candidates_and_hits() {
        let pts: Vec<LatLon> = (0..100)
            .map(|i| {
                LatLon::new(
                    20.0 + f64::from(i % 10) * 0.5,
                    -158.0 + f64::from(i / 10) * 0.5,
                )
            })
            .collect();
        let idx = SpatialIndex::new(pts);
        // Other tests share the global registry, so assert on deltas
        // with >= rather than equality.
        let before = ct_obs::snapshot();
        let hits = idx.within_km(LatLon::new(20.2, -157.9), 40.0);
        assert!(!hits.is_empty());
        let after = ct_obs::snapshot();
        let delta =
            |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
        let cand = delta(ct_obs::names::SPATIAL_CANDIDATES);
        let hit = delta(ct_obs::names::SPATIAL_HITS);
        assert!(hit >= hits.len() as u64, "hit delta {hit} < {}", hits.len());
        assert!(cand >= hit, "candidates {cand} must cover hits {hit}");
    }
}
