//! Closed polygons with containment and boundary-distance queries,
//! and the one-walk form of the three that terrain synthesis runs per
//! raster cell.

use crate::coords::EnuKm;
use crate::error::GeoError;

/// A closed simple polygon in the local east/north plane (km).
///
/// Vertices are stored in order; the closing edge from the last vertex
/// back to the first is implicit. Winding order does not matter.
///
/// [`Polygon::contains`], [`Polygon::boundary_distance_km`] and
/// [`Polygon::closest_boundary_point`] each walk every edge for one
/// point. They are the reference that [`Polygon::boundary_walk`], which
/// terrain synthesis runs, is tested against bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    vertices: Vec<EnuKm>,
}

impl Polygon {
    /// Creates a polygon from a vertex list.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::DegeneratePolygon`] if fewer than three
    /// vertices are supplied.
    pub fn new(vertices: Vec<EnuKm>) -> Result<Self, GeoError> {
        if vertices.len() < 3 {
            return Err(GeoError::DegeneratePolygon {
                vertices: vertices.len(),
            });
        }
        Ok(Self { vertices })
    }

    /// The vertex list (closing edge implicit).
    pub fn vertices(&self) -> &[EnuKm] {
        &self.vertices
    }

    /// Tests whether `p` lies inside the polygon (even-odd rule).
    /// Points exactly on the boundary may go either way.
    pub fn contains(&self, p: EnuKm) -> bool {
        let mut inside = false;
        let n = self.vertices.len();
        let mut j = n - 1;
        for i in 0..n {
            let vi = self.vertices[i];
            let vj = self.vertices[j];
            if (vi.north > p.north) != (vj.north > p.north) {
                let t = (p.north - vi.north) / (vj.north - vi.north);
                let x = vi.east + t * (vj.east - vi.east);
                if p.east < x {
                    inside = !inside;
                }
            }
            j = i;
        }
        inside
    }

    /// Unsigned distance from `p` to the polygon boundary, in km.
    pub fn boundary_distance_km(&self, p: EnuKm) -> f64 {
        let mut best = f64::INFINITY;
        let n = self.vertices.len();
        let mut j = n - 1;
        for i in 0..n {
            best = best.min(segment_distance(p, self.vertices[j], self.vertices[i]));
            j = i;
        }
        best
    }

    /// Closest point on the polygon boundary to `p`.
    pub fn closest_boundary_point(&self, p: EnuKm) -> EnuKm {
        let mut best = f64::INFINITY;
        let mut best_pt = self.vertices[0];
        let n = self.vertices.len();
        let mut j = n - 1;
        for i in 0..n {
            let q = segment_closest_point(p, self.vertices[j], self.vertices[i]);
            let d = p.distance_km(q);
            if d < best {
                best = d;
                best_pt = q;
            }
            j = i;
        }
        best_pt
    }

    /// A walk over the edges prepared for a stream of queries, such as
    /// the cell centres of a raster scan.
    pub fn boundary_walk(&self) -> BoundaryWalk {
        let n = self.vertices.len();
        let edges = (0..n)
            .map(|i| Edge::new(self.vertices[(i + n - 1) % n], self.vertices[i]))
            .collect();
        BoundaryWalk {
            edges,
            seed: 0,
            row_north: f64::NAN,
            crossings: Vec::new(),
            row_edges: Vec::new(),
            evaluated: 0,
            culled: 0,
        }
    }
}

/// What one walk of a polygon's edges finds about a point; each field
/// is bit-identical to the answer of the matching [`Polygon`] query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundaryHit {
    /// Even-odd containment, as [`Polygon::contains`].
    pub inside: bool,
    /// Unsigned boundary distance, as [`Polygon::boundary_distance_km`].
    pub distance_km: f64,
    /// Closest boundary point, as [`Polygon::closest_boundary_point`].
    pub closest: EnuKm,
}

impl BoundaryHit {
    /// Signed distance: negative inside, positive outside.
    pub fn signed_distance_km(&self) -> f64 {
        if self.inside {
            -self.distance_km
        } else {
            self.distance_km
        }
    }
}

/// Slack (km) on the distance an edge's bounding box must exceed
/// before the walk culls it. Rounding moves a computed segment
/// distance or box bound by a few ulps of the coordinates, under
/// 1e-11 km for any point within an Earth radius of the origin; the
/// slack keeps a culled edge's computed distance strictly above the
/// best one, so a cull can change neither the minimum nor which edge
/// first reaches it.
const CULL_SLACK_KM: f64 = 1e-9;

/// One edge, from the previous vertex `a` to the vertex `b`, with its
/// bounding box.
#[derive(Debug, Clone, Copy)]
struct Edge {
    a: EnuKm,
    b: EnuKm,
    min: EnuKm,
    max: EnuKm,
}

impl Edge {
    fn new(a: EnuKm, b: EnuKm) -> Self {
        Self {
            a,
            b,
            min: EnuKm::new(a.east.min(b.east), a.north.min(b.north)),
            max: EnuKm::new(a.east.max(b.east), a.north.max(b.north)),
        }
    }

    /// Squared distance from `p` to the bounding box: a lower bound on
    /// the squared distance to the segment.
    fn box_distance2(&self, p: EnuKm) -> f64 {
        let de = (self.min.east - p.east)
            .max(p.east - self.max.east)
            .max(0.0);
        let dn = (self.min.north - p.north)
            .max(p.north - self.max.north)
            .max(0.0);
        de * de + dn * dn
    }
}

/// A polygon's edges prepared for many queries: one walk per query
/// answers containment, boundary distance and closest point together.
///
/// The crossings of the even-odd rule depend only on the query's
/// north, so they are computed once per raster row. An edge's closest
/// point and distance are computed only when its bounding box comes
/// within the best distance so far (plus a slack of 1e-9 km); the bound
/// starts at the distance to the previous query's nearest edge, which
/// for neighbouring cells is usually the answer.
#[derive(Debug, Clone)]
pub struct BoundaryWalk {
    edges: Vec<Edge>,
    /// The previous query's nearest edge.
    seed: usize,
    /// The north the crossings were computed for (NaN before any).
    row_north: f64,
    /// East coordinates where the row crosses an edge.
    crossings: Vec<f64>,
    /// Edges whose north span, widened by the cull slack, holds the
    /// row.
    row_edges: Vec<usize>,
    evaluated: u64,
    culled: u64,
}

impl BoundaryWalk {
    /// Containment, boundary distance and closest boundary point of `p`.
    pub fn query(&mut self, p: EnuKm) -> BoundaryHit {
        let inside = self.contains(p);
        let seed = self.edges[self.seed];
        let seed_pt = segment_closest_point(p, seed.a, seed.b);
        let seed_d = p.distance_km(seed_pt);
        let mut reach2 = (seed_d + CULL_SLACK_KM).powi(2);
        let mut best = f64::INFINITY;
        let mut best_pt = self.edges[0].b;
        let mut best_edge = self.seed;
        for (i, e) in self.edges.iter().enumerate() {
            let (q, d) = if i == self.seed {
                (seed_pt, seed_d)
            } else if e.box_distance2(p) > reach2 {
                self.culled += 1;
                continue;
            } else {
                self.evaluated += 1;
                let q = segment_closest_point(p, e.a, e.b);
                (q, p.distance_km(q))
            };
            // The first strict minimum wins, as in the per-query walk.
            if d < best {
                best = d;
                best_pt = q;
                best_edge = i;
                if d < seed_d {
                    reach2 = (d + CULL_SLACK_KM).powi(2);
                }
            }
        }
        self.evaluated += 1;
        self.seed = best_edge;
        BoundaryHit {
            inside,
            distance_km: best,
            closest: best_pt,
        }
    }

    /// Even-odd containment of `p`, as [`Polygon::contains`], from the
    /// crossings of `p`'s row.
    pub(crate) fn contains(&mut self, p: EnuKm) -> bool {
        self.at_row(p.north);
        self.crossings.iter().filter(|&&x| p.east < x).count() % 2 == 1
    }

    /// Whether `p` lies on the boundary, that is whether
    /// [`Self::query`] would find it at distance exactly 0: some edge's
    /// closest point, computed with the same expressions, is `p`
    /// itself. Rounding keeps that point within the cull slack of the
    /// edge's bounding box, so only edges whose box comes that close
    /// are tried. Counted in neither edge counter.
    pub(crate) fn touches(&mut self, p: EnuKm) -> bool {
        self.at_row(p.north);
        self.row_edges.iter().any(|&i| {
            let e = self.edges[i];
            e.box_distance2(p) <= CULL_SLACK_KM * CULL_SLACK_KM
                && p.distance_km(segment_closest_point(p, e.a, e.b)) == 0.0
        })
    }

    /// Edges whose closest point and distance were computed, over all
    /// queries so far.
    pub fn edges_evaluated(&self) -> u64 {
        self.evaluated
    }

    /// Edges skipped by the bounding-box cull, over all queries so far.
    pub fn edges_culled(&self) -> u64 {
        self.culled
    }

    /// Prepares the row at `north`, unless it is the current one: its
    /// even-odd crossings, with the expressions of
    /// [`Polygon::contains`], and the edges whose north span, widened
    /// by the cull slack, holds it.
    fn at_row(&mut self, north: f64) {
        if north.to_bits() == self.row_north.to_bits() {
            return;
        }
        self.row_north = north;
        self.crossings.clear();
        self.row_edges.clear();
        for (i, e) in self.edges.iter().enumerate() {
            let (vi, vj) = (e.b, e.a);
            if (vi.north > north) != (vj.north > north) {
                let t = (north - vi.north) / (vj.north - vi.north);
                self.crossings.push(vi.east + t * (vj.east - vi.east));
            }
            if e.min.north - CULL_SLACK_KM <= north && north <= e.max.north + CULL_SLACK_KM {
                self.row_edges.push(i);
            }
        }
    }
}

/// Distance from point `p` to segment `ab`.
fn segment_distance(p: EnuKm, a: EnuKm, b: EnuKm) -> f64 {
    p.distance_km(segment_closest_point(p, a, b))
}

/// Closest point to `p` on segment `ab`.
fn segment_closest_point(p: EnuKm, a: EnuKm, b: EnuKm) -> EnuKm {
    let abe = b.east - a.east;
    let abn = b.north - a.north;
    let len2 = abe * abe + abn * abn;
    if len2 == 0.0 {
        return a;
    }
    let t = (((p.east - a.east) * abe + (p.north - a.north) * abn) / len2).clamp(0.0, 1.0);
    EnuKm::new(a.east + t * abe, a.north + t * abn)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Polygon {
        Polygon::new(vec![
            EnuKm::new(0.0, 0.0),
            EnuKm::new(10.0, 0.0),
            EnuKm::new(10.0, 10.0),
            EnuKm::new(0.0, 10.0),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_degenerate() {
        assert!(matches!(
            Polygon::new(vec![EnuKm::default(), EnuKm::default()]),
            Err(GeoError::DegeneratePolygon { vertices: 2 })
        ));
    }

    #[test]
    fn containment() {
        let sq = square();
        assert!(sq.contains(EnuKm::new(5.0, 5.0)));
        assert!(!sq.contains(EnuKm::new(-1.0, 5.0)));
        assert!(!sq.contains(EnuKm::new(5.0, 10.5)));
    }

    #[test]
    fn signed_distance_signs() {
        let mut walk = square().boundary_walk();
        let inner = walk.query(EnuKm::new(5.0, 5.0)).signed_distance_km();
        assert!((inner + 5.0).abs() < 1e-12);
        let outer = walk.query(EnuKm::new(13.0, 5.0)).signed_distance_km();
        assert!((outer - 3.0).abs() < 1e-12);
    }

    #[test]
    fn closest_point_on_edge() {
        let sq = square();
        let q = sq.closest_boundary_point(EnuKm::new(5.0, -3.0));
        assert!((q.east - 5.0).abs() < 1e-12 && q.north.abs() < 1e-12);
        // Corner case: nearest to a vertex.
        let q = sq.closest_boundary_point(EnuKm::new(12.0, 12.0));
        assert!((q.east - 10.0).abs() < 1e-12 && (q.north - 10.0).abs() < 1e-12);
    }

    #[test]
    fn concave_polygon_containment() {
        // An L-shape: the notch at top-right is outside.
        let l = Polygon::new(vec![
            EnuKm::new(0.0, 0.0),
            EnuKm::new(10.0, 0.0),
            EnuKm::new(10.0, 5.0),
            EnuKm::new(5.0, 5.0),
            EnuKm::new(5.0, 10.0),
            EnuKm::new(0.0, 10.0),
        ])
        .unwrap();
        assert!(l.contains(EnuKm::new(2.0, 8.0)));
        assert!(!l.contains(EnuKm::new(8.0, 8.0)));
        assert!(l.contains(EnuKm::new(8.0, 2.0)));
    }
}
