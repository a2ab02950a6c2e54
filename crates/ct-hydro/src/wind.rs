//! Parametric cyclone wind and pressure field (Holland 1980).

use crate::error::HydroError;
use ct_geo::LatLon;

/// Air density at sea level, kg/m³.
pub(crate) const AIR_DENSITY: f64 = 1.15;

/// Surface inflow angle every [`HollandWindField::new`] field starts
/// with, degrees.
pub(crate) const INFLOW_ANGLE_DEG: f64 = 20.0;

/// A wind observation at a point: speed and the compass direction the
/// air is moving *toward*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindSample {
    /// Wind speed in m/s.
    pub speed_ms: f64,
    /// Direction of air motion, degrees clockwise from north.
    pub(crate) toward_deg: f64,
}

impl WindSample {
    /// Component of the wind blowing toward `bearing_deg` (m/s,
    /// negative when blowing away).
    pub fn component_toward(&self, bearing_deg: f64) -> f64 {
        let delta = (self.toward_deg - bearing_deg).to_radians();
        self.speed_ms * delta.cos()
    }
}

/// The Coriolis parameter `2 Ω sin(φ)` (1/s) at a latitude of sine
/// `sin_lat`.
pub(crate) fn coriolis_at(sin_lat: f64) -> f64 {
    2.0 * 7.2921e-5 * sin_lat
}

/// Holland (1980) parametric gradient-wind model of a tropical
/// cyclone, with a simple forward-motion asymmetry term.
///
/// The model gives azimuthal wind speed
/// `V(r) = sqrt(B Δp / ρ (Rmax/r)^B exp(-(Rmax/r)^B) + (r f / 2)²) - r f / 2`
/// and surface pressure `p(r) = p_c + Δp exp(-(Rmax/r)^B)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HollandWindField {
    /// Central pressure, hPa.
    pub(crate) central_pressure_hpa: f64,
    /// Ambient (environmental) pressure, hPa.
    pub(crate) ambient_pressure_hpa: f64,
    /// Radius of maximum winds, km.
    pub rmax_km: f64,
    /// Holland shape parameter `B` (typically 1.0-2.5).
    pub(crate) b: f64,
    /// Latitude used for the Coriolis parameter, degrees.
    pub(crate) latitude_deg: f64,
    /// Storm forward velocity: heading (deg clockwise from north).
    pub(crate) motion_toward_deg: f64,
    /// Storm forward speed, m/s.
    pub(crate) motion_speed_ms: f64,
    /// Surface inflow angle, degrees (wind spirals inward by this
    /// much relative to pure circular flow).
    pub(crate) inflow_angle_deg: f64,
}

impl HollandWindField {
    /// Creates a field, validating physical parameters.
    ///
    /// # Errors
    ///
    /// Returns [`HydroError::InvalidParameter`] when the pressure
    /// deficit is non-positive, `rmax_km <= 0`, or `b` is outside
    /// `(0.5, 3.5)`.
    pub fn new(
        central_pressure_hpa: f64,
        ambient_pressure_hpa: f64,
        rmax_km: f64,
        b: f64,
        latitude_deg: f64,
    ) -> Result<Self, HydroError> {
        let deficit_hpa = ambient_pressure_hpa - central_pressure_hpa;
        if deficit_hpa.is_nan() || deficit_hpa <= 0.0 {
            return Err(HydroError::InvalidParameter {
                name: "pressure deficit",
                value: deficit_hpa,
            });
        }
        if rmax_km.is_nan() || rmax_km <= 0.0 {
            return Err(HydroError::InvalidParameter {
                name: "rmax_km",
                value: rmax_km,
            });
        }
        if !(0.5..3.5).contains(&b) {
            return Err(HydroError::InvalidParameter {
                name: "b",
                value: b,
            });
        }
        Ok(Self {
            central_pressure_hpa,
            ambient_pressure_hpa,
            rmax_km,
            b,
            latitude_deg,
            motion_toward_deg: 0.0,
            motion_speed_ms: 0.0,
            inflow_angle_deg: INFLOW_ANGLE_DEG,
        })
    }

    /// Sets the storm translation used for the asymmetry term.
    pub fn with_motion(mut self, toward_deg: f64, speed_ms: f64) -> Self {
        self.motion_toward_deg = toward_deg;
        self.motion_speed_ms = speed_ms;
        self
    }

    /// Pressure deficit `Δp` in Pa.
    pub(crate) fn pressure_deficit_pa(&self) -> f64 {
        (self.ambient_pressure_hpa - self.central_pressure_hpa) * 100.0
    }

    /// Coriolis parameter `f = 2 Ω sin(φ)` (1/s).
    pub(crate) fn coriolis(&self) -> f64 {
        coriolis_at(self.latitude_deg.to_radians().sin())
    }

    /// Maximum gradient wind speed (m/s), at `r = Rmax` ignoring the
    /// (small) Coriolis correction.
    pub fn max_gradient_wind_ms(&self) -> f64 {
        (self.b * self.pressure_deficit_pa() / (AIR_DENSITY * std::f64::consts::E)).sqrt()
    }

    /// Azimuthal gradient wind speed at radial distance `r_km` from
    /// the centre (m/s).
    pub fn gradient_wind_ms(&self, r_km: f64) -> f64 {
        if r_km <= 1e-6 {
            return 0.0;
        }
        let r_m = r_km * 1000.0;
        let x = (self.rmax_km / r_km).powf(self.b);
        let term = self.b * self.pressure_deficit_pa() / AIR_DENSITY * x * (-x).exp();
        let rf2 = r_m * self.coriolis().abs() / 2.0;
        (term + rf2 * rf2).sqrt() - rf2
    }

    /// Wind at geographic point `p` for a storm centred at `center`.
    ///
    /// Circulation is counter-clockwise (northern hemisphere), rotated
    /// inward by the inflow angle, plus a forward-motion asymmetry
    /// that peaks near the radius of maximum winds on the right of the
    /// track.
    pub fn wind_at(&self, center: LatLon, p: LatLon) -> WindSample {
        let r_km = center.distance_km(p);
        let v_rot = self.gradient_wind_ms(r_km);
        if r_km <= 1e-6 {
            return WindSample {
                speed_ms: 0.0,
                toward_deg: 0.0,
            };
        }
        let beta = center.bearing_deg(p);
        // Counter-clockwise circulation: at bearing β from the centre,
        // tangential flow is toward β - 90°; inflow rotates it further
        // toward the centre.
        let toward = beta - 90.0 - self.inflow_angle_deg;
        let toward_rad = toward.to_radians();
        let (ve, vn) = (v_rot * toward_rad.sin(), v_rot * toward_rad.cos());
        // Forward-motion asymmetry, peaking at r = Rmax.
        let asym = 2.0 * (r_km * self.rmax_km) / (r_km * r_km + self.rmax_km * self.rmax_km);
        let m_rad = self.motion_toward_deg.to_radians();
        let me = 0.6 * self.motion_speed_ms * asym * m_rad.sin();
        let mn = 0.6 * self.motion_speed_ms * asym * m_rad.cos();
        let (we, wn) = (ve + me, vn + mn);
        let speed = (we * we + wn * wn).sqrt();
        let dir = (we.atan2(wn).to_degrees() + 360.0) % 360.0;
        WindSample {
            speed_ms: speed,
            toward_deg: dir,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cat2_field() -> HollandWindField {
        HollandWindField::new(970.0, 1010.0, 30.0, 1.6, 21.4).unwrap()
    }

    #[test]
    fn validation() {
        assert!(HollandWindField::new(1010.0, 1010.0, 30.0, 1.6, 21.0).is_err());
        assert!(HollandWindField::new(970.0, 1010.0, 0.0, 1.6, 21.0).is_err());
        assert!(HollandWindField::new(970.0, 1010.0, 30.0, 5.0, 21.0).is_err());
    }

    #[test]
    fn max_wind_is_hurricane_strength_for_cat2_deficit() {
        let f = cat2_field();
        let vmax = f.max_gradient_wind_ms();
        assert!((38.0..55.0).contains(&vmax), "vmax {vmax}");
    }

    #[test]
    fn wind_peaks_near_rmax() {
        let f = cat2_field();
        let at_rmax = f.gradient_wind_ms(30.0);
        assert!(at_rmax > f.gradient_wind_ms(5.0));
        assert!(at_rmax > f.gradient_wind_ms(120.0));
        // The analytic peak of the Holland profile is at Rmax.
        assert!(at_rmax >= f.gradient_wind_ms(25.0) - 1e-9);
        assert!(at_rmax >= f.gradient_wind_ms(35.0) - 1e-9);
    }

    #[test]
    fn wind_decays_far_away() {
        let f = cat2_field();
        assert!(f.gradient_wind_ms(500.0) < 8.0);
        assert_eq!(f.gradient_wind_ms(0.0), 0.0);
    }

    #[test]
    fn circulation_is_counterclockwise() {
        let f = cat2_field();
        let center = LatLon::new(21.0, -158.0);
        // Point east of the centre: wind should be mostly northward.
        let east = center.destination(90.0, 30.0);
        let w = f.wind_at(center, east);
        let north_component = w.component_toward(0.0);
        assert!(north_component > 0.5 * w.speed_ms, "wind {w:?}");
    }

    #[test]
    fn inflow_spirals_inward() {
        let f = cat2_field();
        let center = LatLon::new(21.0, -158.0);
        let east = center.destination(90.0, 30.0);
        let w = f.wind_at(center, east);
        // Component toward the centre (bearing 270 from the point).
        assert!(w.component_toward(270.0) > 0.0, "no inflow: {w:?}");
    }

    #[test]
    fn moving_storm_is_stronger_on_the_right() {
        // Storm moving north: its right side is east.
        let f = cat2_field().with_motion(0.0, 6.0);
        let center = LatLon::new(21.0, -158.0);
        let east = f.wind_at(center, center.destination(90.0, 30.0));
        let west = f.wind_at(center, center.destination(270.0, 30.0));
        assert!(
            east.speed_ms > west.speed_ms + 3.0,
            "east {} west {}",
            east.speed_ms,
            west.speed_ms
        );
    }

    #[test]
    fn component_toward_projection() {
        let w = WindSample {
            speed_ms: 10.0,
            toward_deg: 0.0,
        };
        assert!((w.component_toward(0.0) - 10.0).abs() < 1e-9);
        assert!(w.component_toward(90.0).abs() < 1e-9);
        assert!((w.component_toward(180.0) + 10.0).abs() < 1e-9);
    }
}
