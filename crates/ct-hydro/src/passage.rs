//! The storm-passage kernel: the peak of a wind-derived value at a set
//! of points over a storm's passage, each time step's centre trig and
//! Holland field built once and shared by every point in range.
//!
//! [`StormParams::peak_scan`] walks the passage `t0, t0 + dt, …` up to
//! the track's end exactly as the scalar scans do. At each step the
//! caller's range gate reports the points in range together with their
//! haversine distance from the centre, the value the gate already
//! computed. The scan then folds each point's peak:
//!
//! 1. First the point's in-range step whose distance lies closest to
//!    `rmax_km`, where the Holland profile peaks (ties go to the first
//!    such step).
//! 2. Then every other in-range step, in time order. A step computes
//!    the gradient wind `v_rot` and the asymmetry weight `asym` first;
//!    when `(|v_rot| + 0.6·v_motion·asym)·(1 + 1e-12)` is at or below
//!    the running peak, the wind cannot raise it, and the bearing, the
//!    inflow rotation and the final `sqrt` are skipped. A NaN bound
//!    never skips.
//!
//! Every evaluated expression keeps the operand order of
//! [`HollandWindField::wind_at`], and the peaks equal the time-ordered
//! scalar scans bit for bit: `max` over non-NaN values does not depend
//! on the order, and a skipped value is at most the running peak. The
//! scan reports its work to `hydro.peak_scan.evaluated` and
//! `hydro.peak_scan.skipped`, one add each per scan.

use crate::ensemble::StormParams;
use crate::error::HydroError;
use crate::wind::{HollandWindField, WindSample, AIR_DENSITY};
use ct_geo::LatLonTrig;
use std::cmp::Ordering;

static EVALUATED: ct_obs::CachedCounter =
    ct_obs::CachedCounter::new(ct_obs::names::HYDRO_PEAK_SCAN_EVALUATED);
static SKIPPED: ct_obs::CachedCounter =
    ct_obs::CachedCounter::new(ct_obs::names::HYDRO_PEAK_SCAN_SKIPPED);

/// Relative slack on the skip bound, far above the few ulps by which a
/// computed speed can exceed `|v_rot| + 0.6·v_motion·asym`.
const BOUND_SLACK: f64 = 1.0 + 1e-12;

/// East and north wind components (m/s) at a point, as a peak scan
/// evaluates them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindVector {
    /// Eastward component, m/s.
    pub east_ms: f64,
    /// Northward component, m/s.
    pub north_ms: f64,
}

impl WindVector {
    /// The calm eye: what [`HollandWindField::wind_at`] returns within
    /// `1e-6` km of the centre.
    const CALM: Self = Self {
        east_ms: 0.0,
        north_ms: 0.0,
    };

    /// Wind speed; bit-identical to `wind_at(..).speed_ms`.
    pub fn speed_ms(self) -> f64 {
        (self.east_ms * self.east_ms + self.north_ms * self.north_ms).sqrt()
    }

    /// Speed and direction; bit-identical to `wind_at(..)`.
    pub fn sample(self) -> WindSample {
        WindSample {
            speed_ms: self.speed_ms(),
            toward_deg: (self.east_ms.atan2(self.north_ms).to_degrees() + 360.0) % 360.0,
        }
    }
}

/// The points a peak scan's range gate reports in range at one step;
/// see [`StormParams::peak_scan`].
#[derive(Debug)]
pub struct InRange<'p> {
    rmax_km: f64,
    step: u32,
    hits: Vec<Hit<'p>>,
    /// Per point, the hit evaluated first and its `|r - rmax|`.
    first: Vec<Option<(usize, f64)>>,
}

/// One in-range `(step, point)` pair.
#[derive(Debug)]
struct Hit<'p> {
    step: u32,
    point: u32,
    r_km: f64,
    site: &'p LatLonTrig,
}

impl<'p> InRange<'p> {
    /// Reports point `point` at `site`, `r_km` from this step's centre
    /// (`centre.distance_km(site)`).
    ///
    /// # Panics
    ///
    /// If `point` is not below the scan's point count.
    pub fn push(&mut self, point: usize, site: &'p LatLonTrig, r_km: f64) {
        let key = (r_km - self.rmax_km).abs();
        let first = &mut self.first[point];
        if first.is_none_or(|(_, best)| key < best) {
            *first = Some((self.hits.len(), key));
        }
        self.hits.push(Hit {
            step: self.step,
            point: point as u32,
            r_km,
            site,
        });
    }
}

/// The time steps of a storm passage; see [`StormParams::passage`].
#[derive(Debug, Clone)]
struct Passage<'a> {
    storm: &'a StormParams,
    step_hours: f64,
    t: f64,
    t_end: f64,
    /// Motion of the last segment looked up, which every step on that
    /// segment shares.
    motion: Option<(usize, (f64, f64))>,
}

/// One time step of a storm passage: the storm centre and its wind
/// field.
#[derive(Debug, Clone)]
struct PassageStep {
    center: LatLonTrig,
    field: Result<StepField, HydroError>,
}

/// A [`HollandWindField`] with the constants of one step hoisted.
#[derive(Debug, Clone, Copy)]
struct StepField {
    rmax_km: f64,
    b: f64,
    /// `b · Δp / ρ`.
    b_dp_rho: f64,
    /// `|f|`, the Coriolis parameter's magnitude.
    abs_coriolis: f64,
    inflow_angle_deg: f64,
    /// `0.6 · v_motion`.
    motion_06: f64,
    motion_sin: f64,
    motion_cos: f64,
}

impl StormParams {
    /// The passage of this storm scanned every `step_hours`, from the
    /// track's start while `t` stays at or before its end.
    fn passage(&self, step_hours: f64) -> Passage<'_> {
        let (t0, t1) = self.track.time_span_hours();
        Passage {
            storm: self,
            step_hours,
            t: t0,
            t_end: t1,
            motion: None,
        }
    }

    /// The peak of `value` at each of `points` points over this storm's
    /// passage scanned every `step_hours`, as the module docs describe.
    ///
    /// At every step, `gate` gets the storm centre and reports each
    /// point in range through [`InRange::push`]. `value` maps a point's
    /// wind to the quantity whose peak is taken; it must not exceed the
    /// wind speed. Peaks start at `0.0`, so a point never in range
    /// peaks at `0.0`. Equals, bit for bit, the time-ordered fold
    /// `peak = peak.max(value(i, wind))` over the in-range steps, up to
    /// the sign of a zero peak.
    ///
    /// # Errors
    ///
    /// The error [`StormParams::wind_field`] returns for unphysical
    /// storm parameters, if any point is in range at any step. It
    /// depends on the storm alone, not on the step.
    pub fn peak_scan<'p>(
        &self,
        step_hours: f64,
        points: usize,
        mut gate: impl FnMut(&LatLonTrig, &mut InRange<'p>),
        value: impl Fn(usize, WindVector) -> f64,
    ) -> Result<Vec<f64>, HydroError> {
        let mut in_range = InRange {
            rmax_km: self.rmax_km,
            step: 0,
            hits: Vec::new(),
            first: vec![None; points],
        };
        let steps: Vec<PassageStep> = self
            .passage(step_hours)
            .inspect(|step| {
                gate(&step.center, &mut in_range);
                in_range.step += 1;
            })
            .collect();
        let InRange { hits, first, .. } = in_range;
        let mut peaks = vec![0.0_f64; points];
        let mut evaluated = 0_u64;
        let mut skipped = 0_u64;
        // Each point's likely-peak step, with nothing yet to bound it.
        for &(h, _) in first.iter().flatten() {
            let hit = &hits[h];
            let step = &steps[hit.step as usize];
            let field = step.field.as_ref().map_err(Clone::clone)?;
            let point = hit.point as usize;
            if let Some(w) = field.wind_above(&step.center, hit.site, hit.r_km, f64::NEG_INFINITY) {
                peaks[point] = peaks[point].max(value(point, w));
            }
            evaluated += 1;
        }
        for (h, hit) in hits.iter().enumerate() {
            let point = hit.point as usize;
            if first[point].is_some_and(|(f, _)| f == h) {
                continue;
            }
            let step = &steps[hit.step as usize];
            let field = step.field.as_ref().map_err(Clone::clone)?;
            match field.wind_above(&step.center, hit.site, hit.r_km, peaks[point]) {
                Some(w) => {
                    peaks[point] = peaks[point].max(value(point, w));
                    evaluated += 1;
                }
                None => skipped += 1,
            }
        }
        EVALUATED.add(evaluated);
        SKIPPED.add(skipped);
        Ok(peaks)
    }
}

impl Iterator for Passage<'_> {
    type Item = PassageStep;

    fn next(&mut self) -> Option<PassageStep> {
        // The scalar scans' `while t <= t_end`, NaN included.
        if self.t.partial_cmp(&self.t_end).is_none_or(Ordering::is_gt) {
            return None;
        }
        let t = self.t;
        self.t += self.step_hours;
        let storm = self.storm;
        let center = storm.track.position(t);
        let seg = storm.track.segment_at(t);
        let (heading, speed) = match self.motion {
            Some((cached, motion)) if cached == seg => motion,
            _ => {
                let motion = storm.track.segment_motion(seg);
                self.motion = Some((seg, motion));
                motion
            }
        };
        // The same field `StormParams::wind_field(t)` builds.
        let field = HollandWindField::new(
            storm.central_pressure_hpa,
            storm.ambient_pressure_hpa,
            storm.rmax_km,
            storm.b,
            center.lat,
        )
        .map(|f| StepField::new(&f.with_motion(heading, speed)));
        Some(PassageStep {
            center: LatLonTrig::new(center),
            field,
        })
    }
}

impl StepField {
    fn new(f: &HollandWindField) -> Self {
        let m_rad = f.motion_toward_deg.to_radians();
        Self {
            rmax_km: f.rmax_km,
            b: f.b,
            b_dp_rho: f.b * f.pressure_deficit_pa() / AIR_DENSITY,
            abs_coriolis: f.coriolis().abs(),
            inflow_angle_deg: f.inflow_angle_deg,
            motion_06: 0.6 * f.motion_speed_ms,
            motion_sin: m_rad.sin(),
            motion_cos: m_rad.cos(),
        }
    }

    /// The wind at `site`, given `r_km = center.distance_km(site)`, or
    /// `None` when its speed provably cannot exceed `peak`.
    /// Bit-identical to `storm.wind_field(t)?.wind_at(center, site)`.
    fn wind_above(
        &self,
        center: &LatLonTrig,
        site: &LatLonTrig,
        r_km: f64,
        peak: f64,
    ) -> Option<WindVector> {
        if r_km <= 1e-6 {
            return Some(WindVector::CALM);
        }
        // Gradient wind, `HollandWindField::gradient_wind_ms`.
        let r_m = r_km * 1000.0;
        let x = (self.rmax_km / r_km).powf(self.b);
        let term = self.b_dp_rho * x * (-x).exp();
        let rf2 = r_m * self.abs_coriolis / 2.0;
        let v_rot = (term + rf2 * rf2).sqrt() - rf2;
        let asym = 2.0 * (r_km * self.rmax_km) / (r_km * r_km + self.rmax_km * self.rmax_km);
        let motion = self.motion_06 * asym;
        // The triangle inequality on the two terms below.
        if (v_rot.abs() + motion.abs()) * BOUND_SLACK <= peak {
            return None;
        }
        // Inflow-rotated circulation plus the motion asymmetry,
        // `HollandWindField::wind_at`.
        let beta = center.bearing_deg(site);
        let toward_rad = (beta - 90.0 - self.inflow_angle_deg).to_radians();
        let (ve, vn) = (v_rot * toward_rad.sin(), v_rot * toward_rad.cos());
        Some(WindVector {
            east_ms: ve + motion * self.motion_sin,
            north_ms: vn + motion * self.motion_cos,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::{EnsembleConfig, TrackEnsemble};
    use crate::track::{StormTrack, TrackPoint};
    use ct_geo::LatLon;

    fn storm(track: StormTrack) -> StormParams {
        StormParams {
            track,
            central_pressure_hpa: 966.0,
            ambient_pressure_hpa: 1010.0,
            rmax_km: 35.0,
            b: 1.6,
            tide_m: 0.3,
        }
    }

    /// The steps are the scalar scan's: `position(t)` at
    /// `t = t0, t0 + dt, …` while `t <= t_end`.
    fn assert_steps_match_scalar_scan(storm: &StormParams, step_hours: f64) {
        let (t0, t1) = storm.track.time_span_hours();
        let mut steps = storm.passage(step_hours);
        let mut t = t0;
        while t <= t1 {
            let step = steps.next().expect("one step per scan time");
            assert_eq!(step.center.pos(), storm.track.position(t), "t={t}");
            t += step_hours;
        }
        assert!(steps.next().is_none());
    }

    #[test]
    fn steps_match_the_scalar_scan() {
        let storms = TrackEnsemble::new(EnsembleConfig {
            realizations: 25,
            ..EnsembleConfig::default()
        })
        .unwrap()
        .generate();
        for s in &storms {
            assert_steps_match_scalar_scan(s, 0.5);
            assert_steps_match_scalar_scan(s, 1.0);
        }
        // A bent two-segment track, whose motion changes mid-passage.
        let bent = StormTrack::new(vec![
            TrackPoint {
                t_hours: 0.0,
                pos: LatLon::new(19.0, -158.6),
            },
            TrackPoint {
                t_hours: 10.0,
                pos: LatLon::new(20.6, -158.3),
            },
            TrackPoint {
                t_hours: 24.0,
                pos: LatLon::new(22.4, -157.4),
            },
        ])
        .unwrap();
        assert_steps_match_scalar_scan(&storm(bent), 0.75);
    }

    #[test]
    fn unphysical_storms_report_the_field_error_only_when_in_range() {
        let mut s =
            storm(StormTrack::straight(LatLon::new(19.2, -158.35), 5.0, 6.0, 48.0).unwrap());
        s.central_pressure_hpa = s.ambient_pressure_hpa;
        let site = LatLonTrig::new(LatLon::new(21.3, -157.9));
        let scan = |radius_km: f64| {
            s.peak_scan(
                1.0,
                1,
                |center, in_range| {
                    let r = center.distance_km(&site);
                    if r < radius_km {
                        in_range.push(0, &site, r);
                    }
                },
                |_, w| w.speed_ms(),
            )
        };
        assert_eq!(scan(400.0).unwrap_err(), s.wind_field(0.0).unwrap_err());
        assert_eq!(scan(0.0).unwrap(), vec![0.0]);
    }

    #[test]
    fn the_calm_vector_is_the_calm_eye_sample() {
        let f = HollandWindField::new(966.0, 1010.0, 35.0, 1.6, 21.0).unwrap();
        let eye = LatLon::new(21.0, -158.0);
        assert_eq!(WindVector::CALM.sample(), f.wind_at(eye, eye));
    }
}
