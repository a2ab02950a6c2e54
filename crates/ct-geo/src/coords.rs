//! Geographic coordinates and a local tangent-plane projection.

use std::fmt;

/// Mean Earth radius in kilometres (spherical approximation).
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// A geographic coordinate in degrees (WGS-84 latitude/longitude,
/// spherical Earth approximation for distances).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatLon {
    /// Latitude in degrees, positive north.
    pub lat: f64,
    /// Longitude in degrees, positive east.
    pub lon: f64,
}

impl LatLon {
    /// Creates a coordinate.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `lat` is outside `[-90, 90]` or `lon`
    /// outside `[-180, 180]`.
    pub fn new(lat: f64, lon: f64) -> Self {
        debug_assert!(
            (-90.0..=90.0).contains(&lat),
            "latitude out of range: {lat}"
        );
        debug_assert!(
            (-180.0..=180.0).contains(&lon),
            "longitude out of range: {lon}"
        );
        Self { lat, lon }
    }

    /// Great-circle (haversine) distance to `other` in kilometres.
    pub fn distance_km(&self, other: LatLon) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
    }

    /// Initial bearing from `self` to `other` in degrees clockwise from
    /// north, in `[0, 360)`.
    pub fn bearing_deg(&self, other: LatLon) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlon = lon2 - lon1;
        let y = dlon.sin() * lat2.cos();
        let x = lat1.cos() * lat2.sin() - lat1.sin() * lat2.cos() * dlon.cos();
        (y.atan2(x).to_degrees() + 360.0) % 360.0
    }

    /// Destination point after travelling `distance_km` along the given
    /// initial bearing (degrees clockwise from north).
    pub fn destination(&self, bearing_deg: f64, distance_km: f64) -> LatLon {
        let delta = distance_km / EARTH_RADIUS_KM;
        let theta = bearing_deg.to_radians();
        let lat1 = self.lat.to_radians();
        let lon1 = self.lon.to_radians();
        let lat2 = (lat1.sin() * delta.cos() + lat1.cos() * delta.sin() * theta.cos()).asin();
        let lon2 = lon1
            + (theta.sin() * delta.sin() * lat1.cos()).atan2(delta.cos() - lat1.sin() * lat2.sin());
        LatLon {
            lat: lat2.to_degrees(),
            lon: ((lon2.to_degrees() + 540.0) % 360.0) - 180.0,
        }
    }
}

/// A [`LatLon`] with its radians and latitude sine/cosine computed
/// once, for kernels that measure one point against many others.
///
/// [`distance_km`](Self::distance_km) and
/// [`bearing_deg`](Self::bearing_deg) evaluate the same expressions as
/// the [`LatLon`] methods, in the same order, so their results are
/// bit-identical; only the per-point trig is reused.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatLonTrig {
    pos: LatLon,
    lat_rad: f64,
    lon_rad: f64,
    sin_lat: f64,
    cos_lat: f64,
}

impl LatLonTrig {
    /// Precomputes the trig of `pos`.
    pub fn new(pos: LatLon) -> Self {
        let lat_rad = pos.lat.to_radians();
        Self {
            pos,
            lat_rad,
            lon_rad: pos.lon.to_radians(),
            sin_lat: lat_rad.sin(),
            cos_lat: lat_rad.cos(),
        }
    }

    /// The coordinate in degrees.
    pub fn pos(&self) -> LatLon {
        self.pos
    }

    /// Bit-identical to `self.pos().distance_km(other.pos())`.
    pub fn distance_km(&self, other: &LatLonTrig) -> f64 {
        let dlat = other.lat_rad - self.lat_rad;
        let dlon = other.lon_rad - self.lon_rad;
        let a =
            (dlat / 2.0).sin().powi(2) + self.cos_lat * other.cos_lat * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
    }

    /// Bit-identical to `self.pos().bearing_deg(other.pos())`.
    pub fn bearing_deg(&self, other: &LatLonTrig) -> f64 {
        bearing_vector_deg(self.bearing_vector(other))
    }

    /// The vector `(y, x)` whose angle [`bearing_deg`](Self::bearing_deg)
    /// takes: `y / |(y, x)|` and `x / |(y, x)|` are the sine and cosine
    /// of the bearing to `other`.
    pub fn bearing_vector(&self, other: &LatLonTrig) -> (f64, f64) {
        let dlon = other.lon_rad - self.lon_rad;
        let y = dlon.sin() * other.cos_lat;
        let x = self.cos_lat * other.sin_lat - self.sin_lat * other.cos_lat * dlon.cos();
        (y, x)
    }

    /// The sine of the latitude.
    pub fn sin_lat(&self) -> f64 {
        self.sin_lat
    }

    /// The point's unit vector `(cos φ cos λ, cos φ sin λ, sin φ)`. The
    /// chord `|u - v|` between two points never exceeds their
    /// great-circle distance on the unit sphere.
    pub fn unit_vector(&self) -> [f64; 3] {
        self.frame()[0]
    }

    /// The point's [`unit_vector`](Self::unit_vector) and the unit
    /// vectors east and north of it, from one `sin_cos`. The dot
    /// products of `other`'s unit vector with the east and north
    /// vectors are, up to rounding, the `(y, x)` of
    /// [`bearing_vector`](Self::bearing_vector).
    pub fn frame(&self) -> [[f64; 3]; 3] {
        let (sin_lon, cos_lon) = self.lon_rad.sin_cos();
        [
            [self.cos_lat * cos_lon, self.cos_lat * sin_lon, self.sin_lat],
            [-sin_lon, cos_lon, 0.0],
            [
                -self.sin_lat * cos_lon,
                -self.sin_lat * sin_lon,
                self.cos_lat,
            ],
        ]
    }
}

/// The bearing in degrees clockwise from north, in `[0, 360)`, of a
/// [`LatLonTrig::bearing_vector`]; bit-identical to
/// [`LatLonTrig::bearing_deg`].
pub fn bearing_vector_deg((y, x): (f64, f64)) -> f64 {
    (y.atan2(x).to_degrees() + 360.0) % 360.0
}

impl fmt::Display for LatLon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4})", self.lat, self.lon)
    }
}

/// A point in a local east/north tangent plane, in kilometres.
///
/// Produced by [`Projection::to_enu`]; the projection origin maps to
/// `(0, 0)`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnuKm {
    /// Kilometres east of the projection origin.
    pub east: f64,
    /// Kilometres north of the projection origin.
    pub north: f64,
}

impl EnuKm {
    /// Creates a point from east/north offsets in kilometres.
    pub fn new(east: f64, north: f64) -> Self {
        Self { east, north }
    }

    /// Euclidean distance to `other` in kilometres.
    pub fn distance_km(&self, other: EnuKm) -> f64 {
        ((self.east - other.east).powi(2) + (self.north - other.north).powi(2)).sqrt()
    }
}

impl fmt::Display for EnuKm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:+.2}E, {:+.2}N] km", self.east, self.north)
    }
}

/// An equirectangular local tangent-plane projection centred on an
/// origin coordinate.
///
/// Accurate to well under 1 % over island-scale domains (~100 km),
/// which is all the analysis requires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Projection {
    origin: LatLon,
    cos_lat0: f64,
}

impl Projection {
    /// Creates a projection centred on `origin`.
    pub fn new(origin: LatLon) -> Self {
        Self {
            origin,
            cos_lat0: origin.lat.to_radians().cos(),
        }
    }

    /// The projection origin.
    pub fn origin(&self) -> LatLon {
        self.origin
    }

    /// Projects a geographic coordinate to local east/north kilometres.
    pub fn to_enu(&self, p: LatLon) -> EnuKm {
        let km_per_deg = EARTH_RADIUS_KM * std::f64::consts::PI / 180.0;
        EnuKm {
            east: (p.lon - self.origin.lon) * km_per_deg * self.cos_lat0,
            north: (p.lat - self.origin.lat) * km_per_deg,
        }
    }

    /// Inverse projection from local east/north kilometres.
    pub fn to_latlon(&self, p: EnuKm) -> LatLon {
        let km_per_deg = EARTH_RADIUS_KM * std::f64::consts::PI / 180.0;
        LatLon {
            lat: self.origin.lat + p.north / km_per_deg,
            lon: self.origin.lon + p.east / (km_per_deg * self.cos_lat0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OAHU: LatLon = LatLon {
        lat: 21.45,
        lon: -158.0,
    };

    #[test]
    fn haversine_known_distance() {
        // Honolulu to Kahe is roughly 29 km.
        let honolulu = LatLon::new(21.307, -157.858);
        let kahe = LatLon::new(21.354, -158.129);
        let d = honolulu.distance_km(kahe);
        assert!((25.0..35.0).contains(&d), "got {d}");
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = LatLon::new(21.3, -157.9);
        let b = LatLon::new(21.6, -158.2);
        assert!((a.distance_km(b) - b.distance_km(a)).abs() < 1e-9);
        assert!(a.distance_km(a).abs() < 1e-12);
    }

    #[test]
    fn trig_form_is_bit_identical_to_latlon() {
        let pts = [
            LatLon::new(21.307, -157.858),
            LatLon::new(19.2, -158.35),
            LatLon::new(25.9, -163.1),
            LatLon::new(-33.9, 151.2),
            LatLon::new(21.307, -157.858),
        ];
        for &a in &pts {
            for &b in &pts {
                let (ta, tb) = (LatLonTrig::new(a), LatLonTrig::new(b));
                assert_eq!(ta.pos(), a);
                assert_eq!(ta.distance_km(&tb).to_bits(), a.distance_km(b).to_bits());
                assert_eq!(ta.bearing_deg(&tb).to_bits(), a.bearing_deg(b).to_bits());
            }
        }
    }

    #[test]
    fn frame_dot_products_give_the_bearing_vector() {
        let pts = [
            LatLon::new(21.307, -157.858),
            LatLon::new(19.2, -158.35),
            LatLon::new(25.9, -163.1),
            LatLon::new(-33.9, 151.2),
            LatLon::new(0.0, 179.9),
        ];
        let dot = |a: &[f64; 3], b: &[f64; 3]| a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
        for &a in &pts {
            let [unit, east, north] = LatLonTrig::new(a).frame();
            assert!((dot(&unit, &unit) - 1.0).abs() < 1e-15);
            assert!(dot(&unit, &east).abs() < 1e-15 && dot(&unit, &north).abs() < 1e-15);
            assert!(dot(&east, &north).abs() < 1e-15);
            for &b in &pts {
                let (ta, tb) = (LatLonTrig::new(a), LatLonTrig::new(b));
                let (y, x) = ta.bearing_vector(&tb);
                let u = tb.unit_vector();
                assert!((dot(&east, &u) - y).abs() < 1e-15, "{a} to {b}");
                assert!((dot(&north, &u) - x).abs() < 1e-15, "{a} to {b}");
            }
        }
    }

    #[test]
    fn bearing_cardinal_directions() {
        let a = LatLon::new(21.0, -158.0);
        assert!((a.bearing_deg(LatLon::new(22.0, -158.0)) - 0.0).abs() < 1e-6);
        let east = a.bearing_deg(LatLon::new(21.0, -157.0));
        assert!((east - 90.0).abs() < 0.5, "got {east}");
        let south = a.bearing_deg(LatLon::new(20.0, -158.0));
        assert!((south - 180.0).abs() < 1e-6);
    }

    #[test]
    fn destination_round_trips_distance() {
        let a = LatLon::new(21.3, -158.0);
        for bearing in [0.0, 45.0, 133.0, 270.0] {
            let b = a.destination(bearing, 42.0);
            assert!((a.distance_km(b) - 42.0).abs() < 0.01);
        }
    }

    #[test]
    fn projection_round_trip() {
        let proj = Projection::new(OAHU);
        let p = LatLon::new(21.31, -157.86);
        let enu = proj.to_enu(p);
        let back = proj.to_latlon(enu);
        assert!((back.lat - p.lat).abs() < 1e-9);
        assert!((back.lon - p.lon).abs() < 1e-9);
    }

    #[test]
    fn projection_matches_haversine_locally() {
        let proj = Projection::new(OAHU);
        let a = LatLon::new(21.31, -157.86);
        let b = LatLon::new(21.50, -158.20);
        let planar = proj.to_enu(a).distance_km(proj.to_enu(b));
        let sphere = a.distance_km(b);
        let rel = (planar - sphere).abs() / sphere;
        assert!(rel < 0.01, "relative error {rel}");
    }

    #[test]
    fn enu_distance() {
        let a = EnuKm::new(0.0, 0.0);
        let b = EnuKm::new(3.0, 4.0);
        assert!((a.distance_km(b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            LatLon::new(21.3, -157.8).to_string(),
            "(21.3000, -157.8000)"
        );
        assert!(EnuKm::new(1.0, -2.0).to_string().contains('E'));
    }
}
