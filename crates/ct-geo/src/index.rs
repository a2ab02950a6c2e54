//! A uniform-grid nearest-neighbour index over coastline points.
//!
//! [`ShoreIndex`] buckets coastline cell centres in the local
//! east/north frame and answers nearest-neighbour queries by an
//! expanding ring search. Results are *bit-identical* to the linear
//! scan (`iter().min_by(total_cmp)`): the same distance expression is
//! evaluated, and ties break to the lowest point index, which is
//! exactly the first-minimum element the linear scan returns.

use crate::coords::EnuKm;

/// A uniform-grid nearest-neighbour index over local-frame points.
#[derive(Debug, Clone)]
pub(crate) struct ShoreIndex {
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
    pub(crate) fn new(points: &[EnuKm]) -> Self {
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

    /// Nearest indexed point to `p` with its distance in km, or `None`
    /// for an empty index. Equals the linear scan
    /// `points.iter().map(|&c| (c, c.distance_km(p))).min_by(total_cmp)`
    /// bit for bit (ties break to the lowest index, i.e. the first
    /// minimum in iteration order).
    pub(crate) fn nearest(&self, p: EnuKm) -> Option<(EnuKm, f64)> {
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

    #[test]
    fn empty_indexes_answer_empty() {
        assert!(ShoreIndex::new(&[]).nearest(EnuKm::new(0.0, 0.0)).is_none());
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
}
