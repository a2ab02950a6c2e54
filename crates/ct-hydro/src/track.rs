//! Storm tracks: the path of a cyclone centre over time.

use crate::error::HydroError;
use ct_geo::LatLon;

/// A single fix on a storm track.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackPoint {
    /// Hours since the start of the simulation window.
    pub t_hours: f64,
    /// Storm centre position.
    pub pos: LatLon,
}

/// A storm track: a piecewise-linear path of the cyclone centre.
#[derive(Debug, Clone, PartialEq)]
pub struct StormTrack {
    points: Vec<TrackPoint>,
}

impl StormTrack {
    /// Creates a track from fixes ordered by time.
    ///
    /// # Errors
    ///
    /// Returns [`HydroError::DegenerateTrack`] for fewer than two
    /// points, or [`HydroError::NonMonotonicTrack`] when times do not
    /// strictly increase.
    pub fn new(points: Vec<TrackPoint>) -> Result<Self, HydroError> {
        if points.len() < 2 {
            return Err(HydroError::DegenerateTrack {
                points: points.len(),
            });
        }
        if points.windows(2).any(|w| w[1].t_hours <= w[0].t_hours) {
            return Err(HydroError::NonMonotonicTrack);
        }
        Ok(Self { points })
    }

    /// Builds a straight-line track from `start`, travelling toward
    /// `heading_deg` at `speed_ms` for `duration_hours`.
    ///
    /// # Errors
    ///
    /// Returns [`HydroError::InvalidParameter`] for non-positive
    /// duration or speed.
    pub fn straight(
        start: LatLon,
        heading_deg: f64,
        speed_ms: f64,
        duration_hours: f64,
    ) -> Result<Self, HydroError> {
        if duration_hours.is_nan() || duration_hours <= 0.0 {
            return Err(HydroError::InvalidParameter {
                name: "duration_hours",
                value: duration_hours,
            });
        }
        if speed_ms.is_nan() || speed_ms <= 0.0 {
            return Err(HydroError::InvalidParameter {
                name: "speed_ms",
                value: speed_ms,
            });
        }
        let total_km = speed_ms * duration_hours * 3.6;
        let end = start.destination(heading_deg, total_km);
        Self::new(vec![
            TrackPoint {
                t_hours: 0.0,
                pos: start,
            },
            TrackPoint {
                t_hours: duration_hours,
                pos: end,
            },
        ])
    }

    /// Start and end of the simulated window, in hours.
    pub fn time_span_hours(&self) -> (f64, f64) {
        (
            self.points.first().expect("non-empty").t_hours,
            self.points.last().expect("non-empty").t_hours,
        )
    }

    /// Interpolated storm-centre position at `t_hours`, clamped to the
    /// track's time span.
    pub fn position(&self, t_hours: f64) -> LatLon {
        let first = self.points.first().expect("non-empty");
        let last = self.points.last().expect("non-empty");
        if t_hours <= first.t_hours {
            return first.pos;
        }
        if t_hours >= last.t_hours {
            return last.pos;
        }
        for w in self.points.windows(2) {
            if t_hours <= w[1].t_hours {
                let f = (t_hours - w[0].t_hours) / (w[1].t_hours - w[0].t_hours);
                return LatLon::new(
                    w[0].pos.lat + f * (w[1].pos.lat - w[0].pos.lat),
                    w[0].pos.lon + f * (w[1].pos.lon - w[0].pos.lon),
                );
            }
        }
        last.pos
    }

    /// Storm translation at `t_hours`: `(heading toward deg, speed m/s)`.
    pub fn motion(&self, t_hours: f64) -> (f64, f64) {
        self.segment_motion(self.segment_at(t_hours))
    }

    /// Index of the segment whose motion applies at `t_hours`: the
    /// first one ending at or after it, else the last.
    pub(crate) fn segment_at(&self, t_hours: f64) -> usize {
        self.points
            .windows(2)
            .position(|w| t_hours <= w[1].t_hours)
            .unwrap_or(self.points.len() - 2)
    }

    /// Translation along segment `seg`: `(heading toward deg, speed m/s)`.
    pub(crate) fn segment_motion(&self, seg: usize) -> (f64, f64) {
        let (a, b) = (self.points[seg], self.points[seg + 1]);
        let dist_km = a.pos.distance_km(b.pos);
        let dt_s = (b.t_hours - a.t_hours) * 3600.0;
        let heading = a.pos.bearing_deg(b.pos);
        (heading, dist_km * 1000.0 / dt_s)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Closest approach of `track` to `p`: `(t_hours, distance_km)`,
    /// sampled every `step_hours` from the track's start. The kernel
    /// reports the distance from [`StormParams::peak_scan`]; this scalar
    /// form is the oracle its tests compare with.
    ///
    /// [`StormParams::peak_scan`]: crate::StormParams::peak_scan
    pub(crate) fn closest_approach(track: &StormTrack, p: LatLon, step_hours: f64) -> (f64, f64) {
        let (t0, t1) = track.time_span_hours();
        let mut best = (t0, track.position(t0).distance_km(p));
        let mut t = t0;
        while t <= t1 {
            let d = track.position(t).distance_km(p);
            if d < best.1 {
                best = (t, d);
            }
            t += step_hours;
        }
        best
    }

    #[test]
    fn rejects_bad_tracks() {
        assert!(matches!(
            StormTrack::new(vec![TrackPoint {
                t_hours: 0.0,
                pos: LatLon::new(20.0, -158.0)
            }]),
            Err(HydroError::DegenerateTrack { points: 1 })
        ));
        let p = |t: f64| TrackPoint {
            t_hours: t,
            pos: LatLon::new(20.0, -158.0),
        };
        assert!(matches!(
            StormTrack::new(vec![p(0.0), p(0.0)]),
            Err(HydroError::NonMonotonicTrack)
        ));
        assert!(StormTrack::straight(LatLon::new(20.0, -158.0), 0.0, 6.0, 0.0).is_err());
        assert!(StormTrack::straight(LatLon::new(20.0, -158.0), 0.0, -1.0, 24.0).is_err());
    }

    #[test]
    fn straight_track_geometry() {
        let start = LatLon::new(19.0, -158.0);
        let track = StormTrack::straight(start, 0.0, 6.0, 24.0).unwrap();
        // 6 m/s for 24 h = 518.4 km due north.
        let end = track.position(24.0);
        assert!((start.distance_km(end) - 518.4).abs() < 1.0);
        assert!(end.lat > start.lat);
        assert!((end.lon - start.lon).abs() < 0.01);
    }

    #[test]
    fn position_clamps_and_interpolates() {
        let track = StormTrack::straight(LatLon::new(19.0, -158.0), 0.0, 6.0, 24.0).unwrap();
        assert_eq!(track.position(-5.0), track.position(0.0));
        assert_eq!(track.position(50.0), track.position(24.0));
        let mid = track.position(12.0);
        assert!((mid.lat - (19.0 + (track.position(24.0).lat - 19.0) / 2.0)).abs() < 1e-9);
    }

    #[test]
    fn motion_reports_heading_and_speed() {
        let track = StormTrack::straight(LatLon::new(19.0, -158.0), 0.0, 6.0, 24.0).unwrap();
        let (heading, speed) = track.motion(12.0);
        assert!(!(1.0..=359.0).contains(&heading), "heading {heading}");
        assert!((speed - 6.0).abs() < 0.1, "speed {speed}");
    }

    #[test]
    fn closest_approach_finds_ca() {
        // Track passing due north along lon -158.3; observer at -158.0.
        let track = StormTrack::straight(LatLon::new(19.5, -158.3), 0.0, 6.0, 48.0).unwrap();
        let obs = LatLon::new(21.3, -158.0);
        let (t, d) = closest_approach(&track, obs, 0.25);
        assert!(d < 40.0, "closest distance {d}");
        assert!(t > 4.0 && t < 40.0, "closest time {t}");
    }
}
