//! The storm-passage kernel: the peak of a wind-derived value at a set
//! of sites over a storm's passage, each time step's centre trig and
//! Holland field built once and shared by every site.
//!
//! [`StormParams::peak_scan`] walks the passage `t0, t0 + dt, …` up to
//! the track's end exactly as the scalar scans do. A site is in range
//! of a step when its haversine distance from the centre is below
//! 400 km. The sites are [`ScanSites`], prepared once per study:
//! each site's trig, its unit vector on the sphere, and what its peak
//! is of ([`PeakOf`]). Each site's peak starts at `0.0`. The site is
//! evaluated first at the step whose chord distance lies closest to
//! `rmax_km`, where the Holland profile peaks (ties go to the first
//! such step), then at every other step in time order. A `(step,
//! site)` pair that provably cannot raise the running peak is dropped
//! by the cheapest of three tests that shows it:
//!
//! 1. **Culled**, before any trig, in one of two ways.
//!    - **By distance.** The chord `|u_c − u_s|` between the unit
//!      vectors of centre and site is never longer than their arc, so
//!      `R·|u_c − u_s|·(1 − 1e-9) − 1e-6` km bounds the haversine from
//!      below. A table built once per storm bounds the wind speed
//!      beyond each of a geometric series of radii `r` from `rmax` out
//!      to the gate: `(T/(sqrt(T + c²) + c) + max over steps of
//!      0.6·v_motion · asym(r))·(1 + 1e-9)`, with `T = b·Δp/ρ ·
//!      x·e^(−x)` at `x = (rmax/r)^b`, `c = r·1000·f_min/2·(1 − 1e-9)`
//!      for `f_min` the least `|f|` over the steps, and `asym(r) =
//!      2·r·rmax/(r² + rmax²)`. The first term is the gradient wind
//!      `sqrt(T + c²) − c` in a form free of cancellation; it falls as
//!      `c` rises and rises with `T`. Past `rmax`, `T` and `asym` fall
//!      with `r` while every step's `c` at a distance of at least `r`
//!      is at least the row's, so a row bounds every speed at or
//!      beyond its radius. A suffix max keeps the table
//!      non-increasing. A site's *reach* is the smallest tabled radius
//!      whose bound is at or below its peak, recomputed only when the
//!      peak rises. A pair whose lower bound is at or past the reach,
//!      or past the gate, is culled.
//!    - **By side**, for a component toward a bearing `b`, and only
//!      for a pair whose chord is within that of an arc of `400·(1 −
//!      1e-9)` km, so surely in range. Each step keeps its centre's
//!      east and north unit vectors; their dot products with the
//!      site's unit vector are the bearing vector `(y, x)` up to
//!      rounding. The circulation's component toward `b` is
//!      `v_rot ≥ 0` times `(x·cos φ + y·sin φ)/|(y, x)|` (φ as in test
//!      3). When that sum is at or below `−1e-12`, which no rounding of
//!      either vector's parts, all of size at most 1, can cross, the
//!      circulation blows away from `b`, and the value is at most the
//!      drift's `max(0, 0.6·v_motion·cos(m − b))`. The pair is culled
//!      when that plus `1e-9·(sqrt(b·Δp/(ρ·e)) + 0.6·v_motion)`, a
//!      slack on the largest speed the pair can have, is at or below
//!      the peak. A NaN or zero bearing vector never culls.
//! 2. **Skipped by the speed bound.** The haversine `r` and the
//!    gradient wind `v_rot` are computed; when
//!    `(|v_rot| + 0.6·v_motion·asym)·(1 + 1e-12)` is at or below the
//!    peak, the bearing, the inflow rotation and the final `sqrt` are
//!    not.
//! 3. **Skipped by the direction bound**, for a component toward a
//!    bearing `b`. The component is
//!    `v_rot·cos(β − φ) + 0.6·v_motion·asym·cos(m − b)`, with β the
//!    bearing of the site from the centre, `φ = 90° + inflow + b` and
//!    `m` the storm's heading. β's sine and cosine come from the
//!    bearing vector, with no `atan2`. When that value plus
//!    `1e-9·(|v_rot| + |motion|)` is at or below the peak, the
//!    `atan2`/`sin`/`cos`/`atan2`/`cos` chain is not computed.
//!
//! Every evaluated expression keeps the operands and order of
//! [`HollandWindField::wind_at`] and the scalar scans, and the peaks
//! equal those scans bit for bit: `max` over non-NaN values does not
//! depend on the order, and each bound exceeds what it bounds by a
//! slack far above rounding, so a dropped value is at most the running
//! peak. A NaN bound never drops a pair. The scan reports its work to
//! `hydro.peak_scan.evaluated`, `hydro.peak_scan.skipped` (tests 2 and
//! 3) and `hydro.peak_scan.culled` (test 1, and a pair whose haversine
//! is at or past the gate), one add each per scan, so the three sum to
//! the steps times the sites. The step evaluated first computes its
//! haversine only when its chord bound is below the gate.

use crate::ensemble::StormParams;
use crate::error::HydroError;
use crate::wind::{coriolis_at, HollandWindField, WindSample, AIR_DENSITY, INFLOW_ANGLE_DEG};
use ct_geo::{bearing_vector_deg, LatLon, LatLonTrig, EARTH_RADIUS_KM};
use std::cmp::Ordering;

static EVALUATED: ct_obs::CachedCounter =
    ct_obs::CachedCounter::new(ct_obs::names::HYDRO_PEAK_SCAN_EVALUATED);
static SKIPPED: ct_obs::CachedCounter =
    ct_obs::CachedCounter::new(ct_obs::names::HYDRO_PEAK_SCAN_SKIPPED);
static CULLED: ct_obs::CachedCounter =
    ct_obs::CachedCounter::new(ct_obs::names::HYDRO_PEAK_SCAN_CULLED);

/// The footprint gate, km: a site is in range of a step when its
/// haversine distance from the storm centre is below this. Beyond it
/// the Cat 1-5 wind contribution is negligible.
const GATE_KM: f64 = 400.0;

/// Relative slack on the speed bound, far above the few ulps by which a
/// computed speed can exceed `|v_rot| + 0.6·v_motion·asym`.
const BOUND_SLACK: f64 = 1.0 + 1e-12;
/// Relative slack on the bound table.
const TABLE_SLACK: f64 = 1.0 + 1e-9;
/// Relative slack that shrinks the bound table's Coriolis term.
const CORIOLIS_SLACK: f64 = 1.0 - 1e-9;
/// Absolute slack on the side of the centre a site lies on, far above
/// the rounding by which the frame's dot products and the bearing
/// vector, both of size at most 1, can differ.
const SIDE_SLACK: f64 = 1e-12;
/// Slack on the direction bound, relative to `|v_rot| + |motion|`.
const DIRECTION_SLACK: f64 = 1e-9;
/// Relative and absolute (km) slack on the chord lower bound.
const CHORD_SLACK: f64 = 1.0 - 1e-9;
const CHORD_SLACK_KM: f64 = 1e-6;
/// Ratio of consecutive radii in the bound table, and its most rows.
const TABLE_RATIO: f64 = 1.1;
const TABLE_ROWS: usize = 64;

/// Checks a peak scan's time step: finite and positive, without which
/// the passage never ends.
///
/// # Errors
///
/// [`HydroError::InvalidParameter`] for any other step.
pub fn check_scan_step(step_hours: f64) -> Result<(), HydroError> {
    if step_hours.is_finite() && step_hours > 0.0 {
        Ok(())
    } else {
        Err(HydroError::InvalidParameter {
            name: "scan_step_hours",
            value: step_hours,
        })
    }
}

/// What a peak scan takes the peak of at a site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PeakOf {
    /// The wind speed, m/s.
    Speed,
    /// The wind's component toward a compass bearing in degrees
    /// ([`WindSample::component_toward`]), m/s.
    Toward(f64),
}

/// The sites of a peak scan, prepared once and shared by every storm.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanSites {
    sites: Vec<ScanSite>,
}

#[derive(Debug, Clone, PartialEq)]
struct ScanSite {
    trig: LatLonTrig,
    unit: [f64; 3],
    value: SiteValue,
}

/// A [`PeakOf`] with the trig of a component's bearing `b` hoisted.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SiteValue {
    Speed,
    Toward {
        bearing_deg: f64,
        sin_b: f64,
        cos_b: f64,
        /// Sine and cosine of `φ = 90° + inflow + b`: the circulation
        /// blows toward `b` at sites that bear φ from the centre.
        sin_phi: f64,
        cos_phi: f64,
    },
}

impl ScanSites {
    /// Prepares `sites`, each a position and what its peak is of.
    pub fn new(sites: impl IntoIterator<Item = (LatLon, PeakOf)>) -> Self {
        let sites = sites
            .into_iter()
            .map(|(pos, of)| {
                let trig = LatLonTrig::new(pos);
                let value = match of {
                    PeakOf::Speed => SiteValue::Speed,
                    PeakOf::Toward(b) => {
                        let (sin_b, cos_b) = b.to_radians().sin_cos();
                        let phi = (90.0 + INFLOW_ANGLE_DEG + b).to_radians();
                        let (sin_phi, cos_phi) = phi.sin_cos();
                        SiteValue::Toward {
                            bearing_deg: b,
                            sin_b,
                            cos_b,
                            sin_phi,
                            cos_phi,
                        }
                    }
                };
                ScanSite {
                    trig,
                    unit: trig.unit_vector(),
                    value,
                }
            })
            .collect();
        Self { sites }
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether there are no sites.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }
}

impl ScanSite {
    /// For a `Toward` site on the far side of the circulation at
    /// `step`, where `v_rot ≥ 0` blows away from its bearing `b`, a
    /// bound on its value from the drift alone, slack included; else
    /// `None`. A NaN or zero bearing vector gives `None`.
    fn offshore_bound(&self, step: &PassageStep, field: &StormField) -> Option<f64> {
        let SiteValue::Toward {
            sin_b,
            cos_b,
            sin_phi,
            cos_phi,
            ..
        } = self.value
        else {
            return None;
        };
        // The bearing vector `(y, x)`, up to rounding; the rotation's
        // component toward `b` has the sign of `x·cos φ + y·sin φ`.
        // A NaN sum is not at or below the slack.
        let (y, x) = (dot(&step.east, &self.unit), dot(&step.north, &self.unit));
        (x * cos_phi + y * sin_phi <= -SIDE_SLACK).then(|| {
            // `0.6·v_motion·asym·cos(m − b)`, with `asym` in [0, 1].
            let motion = step.motion;
            let drift = (motion.motion_06 * (motion.cos * cos_b + motion.sin * sin_b)).max(0.0);
            drift + DIRECTION_SLACK * (field.v_max + motion.motion_06.abs())
        })
    }
}

impl SiteValue {
    /// The value of wind `w`, as the scalar scans compute it.
    fn of(self, w: WindVector) -> f64 {
        match self {
            SiteValue::Speed => w.speed_ms(),
            SiteValue::Toward { bearing_deg, .. } => w.sample().component_toward(bearing_deg),
        }
    }
}

/// East and north wind components (m/s) at a point, as a peak scan
/// evaluates them.
#[derive(Debug, Clone, Copy, PartialEq)]
struct WindVector {
    east_ms: f64,
    north_ms: f64,
}

impl WindVector {
    /// The calm eye: what [`HollandWindField::wind_at`] returns within
    /// `1e-6` km of the centre.
    const CALM: Self = Self {
        east_ms: 0.0,
        north_ms: 0.0,
    };

    /// Wind speed; bit-identical to `wind_at(..).speed_ms`.
    fn speed_ms(self) -> f64 {
        (self.east_ms * self.east_ms + self.north_ms * self.north_ms).sqrt()
    }

    /// Speed and direction; bit-identical to `wind_at(..)`.
    fn sample(self) -> WindSample {
        WindSample {
            speed_ms: self.speed_ms(),
            toward_deg: (self.east_ms.atan2(self.north_ms).to_degrees() + 360.0) % 360.0,
        }
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
    motion: Option<(usize, StepMotion)>,
}

/// The storm's translation over one track segment.
#[derive(Debug, Clone, Copy)]
struct StepMotion {
    /// `0.6 · v_motion`.
    motion_06: f64,
    /// Sine and cosine of the heading.
    sin: f64,
    cos: f64,
}

/// One time step of a storm passage: the storm centre and the parts of
/// its wind field that vary by step.
#[derive(Debug, Clone)]
struct PassageStep {
    center: LatLonTrig,
    unit: [f64; 3],
    /// The unit vectors east and north of the centre.
    east: [f64; 3],
    north: [f64; 3],
    /// `|f|`, the Coriolis parameter's magnitude at the centre.
    abs_coriolis: f64,
    motion: StepMotion,
}

/// The constants of a storm's Holland field, shared by every step.
#[derive(Debug, Clone, Copy)]
struct StormField {
    rmax_km: f64,
    b: f64,
    /// `b · Δp / ρ`.
    b_dp_rho: f64,
    /// `sqrt(b · Δp / (ρ · e))`, the Holland speed's peak: no step's
    /// `v_rot` exceeds it.
    v_max: f64,
}

/// Bounds on a storm's wind speed beyond a geometric series of radii.
#[derive(Debug, Clone)]
struct BoundTable {
    /// Per tabled radius `r`, in increasing order: a bound on the speed
    /// at every distance of at least `r`, non-increasing down the
    /// rows, and the squared chord at and past which a pair lies at
    /// least `r` away.
    rows: Vec<(f64, f64)>,
}

/// What a scan did, added to the counters once per scan.
#[derive(Debug, Default)]
struct Work {
    evaluated: u64,
    skipped: u64,
    culled: u64,
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

    /// The peak over this storm's passage, scanned every `step_hours`,
    /// of each site's value, as the module docs describe. A site never
    /// in range peaks at `0.0`. Equals, bit for bit, the time-ordered
    /// fold `peak = peak.max(value(wind))` over each site's in-range
    /// steps, up to the sign of a zero peak.
    ///
    /// When `closest_km` is given, each of its entries receives its
    /// site's closest approach: the least haversine distance from any
    /// step's centre, in range or not.
    ///
    /// # Errors
    ///
    /// [`check_scan_step`]'s error for a step that is not finite and
    /// positive. Else the error [`StormParams::wind_field`] returns for
    /// unphysical storm parameters, if any site is in range at any step;
    /// it depends on the storm alone, not on the step.
    ///
    /// # Panics
    ///
    /// If `closest_km`'s length is not the site count.
    pub fn peak_scan(
        &self,
        step_hours: f64,
        sites: &ScanSites,
        closest_km: Option<&mut [f64]>,
    ) -> Result<Vec<f64>, HydroError> {
        let (peaks, work) = self.scan(step_hours, sites, closest_km)?;
        EVALUATED.add(work.evaluated);
        SKIPPED.add(work.skipped);
        CULLED.add(work.culled);
        Ok(peaks)
    }

    /// [`StormParams::peak_scan`], with the work it did.
    fn scan(
        &self,
        step_hours: f64,
        sites: &ScanSites,
        mut closest_km: Option<&mut [f64]>,
    ) -> Result<(Vec<f64>, Work), HydroError> {
        check_scan_step(step_hours)?;
        if let Some(closest) = &closest_km {
            assert_eq!(closest.len(), sites.len(), "one closest approach per site");
        }
        let steps: Vec<PassageStep> = self.passage(step_hours).collect();
        let field = StormField::new(self);
        // An unphysical storm has no table: only the gate culls, and its
        // first in-range pair reports the field error.
        let table = field.as_ref().ok().map(|f| {
            let max_motion_06 = steps
                .iter()
                .map(|s| s.motion.motion_06.abs())
                .fold(0.0, f64::max);
            let f_min = steps
                .iter()
                .map(|s| s.abs_coriolis)
                .fold(f64::INFINITY, f64::min);
            BoundTable::new(f, max_motion_06, f_min)
        });
        let in_gate = chord2_within(GATE_KM);
        let mut work = Work::default();
        let mut chords = Vec::with_capacity(steps.len());
        let mut peaks = Vec::with_capacity(sites.len());
        for (i, site) in sites.sites.iter().enumerate() {
            chords.clear();
            chords.extend(steps.iter().map(|step| chord2(&step.unit, &site.unit)));
            let closest = closest_km.as_deref_mut().map(|c| &mut c[i]);
            let scan = SiteScan {
                field: &field,
                table: table.as_ref(),
                steps: &steps,
                chords: &chords,
                in_gate,
                site,
            };
            peaks.push(scan.peak(closest, &mut work)?);
        }
        Ok((peaks, work))
    }
}

/// One site's scan over a passage.
struct SiteScan<'a> {
    field: &'a Result<StormField, HydroError>,
    table: Option<&'a BoundTable>,
    steps: &'a [PassageStep],
    /// The squared chord from each step's centre to the site.
    chords: &'a [f64],
    /// [`chord2_within`] the gate.
    in_gate: f64,
    site: &'a ScanSite,
}

impl SiteScan<'_> {
    /// The site's peak, and its closest approach into `closest`.
    fn peak(&self, closest: Option<&mut f64>, work: &mut Work) -> Result<f64, HydroError> {
        let site = self.site;
        let limit_at = |peak| self.table.map_or(chord2_limit(GATE_KM), |t| t.limit(peak));
        let mut peak = 0.0_f64;
        let mut limit = limit_at(peak);
        let prime = self.prime_step();
        if let Some(s) = prime.filter(|&s| self.chords[s] < chord2_limit(GATE_KM)) {
            let step = &self.steps[s];
            let r_km = step.center.distance_km(&site.trig);
            if r_km < GATE_KM {
                let field = self.field.as_ref().map_err(Clone::clone)?;
                if let Some(v) = field.value_above(step, site, r_km, f64::NEG_INFINITY) {
                    peak = peak.max(v);
                }
                work.evaluated += 1;
                limit = limit_at(peak);
            } else {
                work.culled += 1;
            }
        } else if prime.is_some() {
            work.culled += 1;
        }
        // The closest approach so far, and the squared chord at and past
        // which a step cannot come closer.
        let mut min_km = f64::INFINITY;
        let mut min_limit = f64::INFINITY;
        let track_closest = closest.is_some();
        for (s, (step, &c2)) in self.steps.iter().zip(self.chords).enumerate() {
            let mut r = None;
            if track_closest && c2 < min_limit {
                let d = step.center.distance_km(&site.trig);
                if d < min_km {
                    min_km = d;
                    min_limit = chord2_limit(d);
                }
                r = Some(d);
            }
            if Some(s) == prime {
                continue;
            }
            if c2 >= limit || (c2 < self.in_gate && self.offshore_at_most(step, peak)) {
                work.culled += 1;
                continue;
            }
            let r_km = r.unwrap_or_else(|| step.center.distance_km(&site.trig));
            // Out of range, NaN included.
            if r_km.partial_cmp(&GATE_KM).is_none_or(Ordering::is_ge) {
                work.culled += 1;
                continue;
            }
            let field = self.field.as_ref().map_err(Clone::clone)?;
            match field.value_above(step, site, r_km, peak) {
                Some(v) => {
                    let old = peak;
                    peak = peak.max(v);
                    if peak > old {
                        limit = limit_at(peak);
                    }
                    work.evaluated += 1;
                }
                None => work.skipped += 1,
            }
        }
        if let Some(closest) = closest {
            *closest = min_km;
        }
        Ok(peak)
    }

    /// Whether [`ScanSite::offshore_bound`] shows that `step` cannot
    /// raise `peak`; never for an unphysical storm.
    fn offshore_at_most(&self, step: &PassageStep, peak: f64) -> bool {
        self.field
            .as_ref()
            .ok()
            .and_then(|field| self.site.offshore_bound(step, field))
            .is_some_and(|bound| bound <= peak)
    }

    /// The step whose chord distance lies closest to `rmax_km` (the
    /// first of ties), or `None` for an unphysical storm.
    fn prime_step(&self) -> Option<usize> {
        let field = self.field.as_ref().ok()?;
        let target = (field.rmax_km / EARTH_RADIUS_KM).powi(2);
        let mut best: Option<(usize, f64)> = None;
        for (s, &c2) in self.chords.iter().enumerate() {
            let key = (c2 - target).abs();
            if best.is_none_or(|(_, k)| key < k) {
                best = Some((s, key));
            }
        }
        best.map(|(s, _)| s)
    }
}

/// `|u - v|²`.
fn chord2(u: &[f64; 3], v: &[f64; 3]) -> f64 {
    let (dx, dy, dz) = (u[0] - v[0], u[1] - v[1], u[2] - v[2]);
    dx * dx + dy * dy + dz * dz
}

/// `u · v`.
fn dot(u: &[f64; 3], v: &[f64; 3]) -> f64 {
    u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
}

/// The squared chord below which the haversine is below `km`: that of
/// an arc of `km·(1 − 1e-9)`.
fn chord2_within(km: f64) -> f64 {
    let chord = 2.0 * (km * CHORD_SLACK / (2.0 * EARTH_RADIUS_KM)).sin();
    chord * chord
}

/// The squared chord at and past which the chord lower bound
/// `R·chord·(1 − 1e-9) − 1e-6` is at least `km`, so the haversine is.
fn chord2_limit(km: f64) -> f64 {
    let chord = (km + CHORD_SLACK_KM) / (EARTH_RADIUS_KM * CHORD_SLACK);
    chord * chord
}

impl StormField {
    /// The constants every step's [`HollandWindField`] shares; the
    /// field's error for unphysical storm parameters.
    fn new(storm: &StormParams) -> Result<Self, HydroError> {
        // The latitude moves only the Coriolis term, which each step
        // takes from its own centre.
        let f = HollandWindField::new(
            storm.central_pressure_hpa,
            storm.ambient_pressure_hpa,
            storm.rmax_km,
            storm.b,
            0.0,
        )?;
        let b_dp_rho = f.b * f.pressure_deficit_pa() / AIR_DENSITY;
        Ok(Self {
            rmax_km: f.rmax_km,
            b: f.b,
            b_dp_rho,
            v_max: (b_dp_rho * (-1.0_f64).exp()).sqrt(),
        })
    }

    /// The value at `site` of the wind at `step`, given `r_km =
    /// center.distance_km(site)`, or `None` when it provably cannot
    /// exceed `peak`. Bit-identical to the value of
    /// `storm.wind_field(t)?.wind_at(center, site)`.
    fn value_above(
        &self,
        step: &PassageStep,
        site: &ScanSite,
        r_km: f64,
        peak: f64,
    ) -> Option<f64> {
        if r_km <= 1e-6 {
            return Some(site.value.of(WindVector::CALM));
        }
        // Gradient wind, `HollandWindField::gradient_wind_ms`.
        let r_m = r_km * 1000.0;
        let x = (self.rmax_km / r_km).powf(self.b);
        let term = self.b_dp_rho * x * (-x).exp();
        let rf2 = r_m * step.abs_coriolis / 2.0;
        let v_rot = (term + rf2 * rf2).sqrt() - rf2;
        let asym = 2.0 * (r_km * self.rmax_km) / (r_km * r_km + self.rmax_km * self.rmax_km);
        let motion = step.motion.motion_06 * asym;
        // The triangle inequality on the two terms below.
        let spread = v_rot.abs() + motion.abs();
        if spread * BOUND_SLACK <= peak {
            return None;
        }
        let (y, x) = step.center.bearing_vector(&site.trig);
        if let SiteValue::Toward {
            sin_b,
            cos_b,
            sin_phi,
            cos_phi,
            ..
        } = site.value
        {
            let rotation = v_rot * (x * cos_phi + y * sin_phi) / (x * x + y * y).sqrt();
            let drift = motion * (step.motion.cos * cos_b + step.motion.sin * sin_b);
            if rotation + drift + DIRECTION_SLACK * spread <= peak {
                return None;
            }
        }
        // Inflow-rotated circulation plus the motion asymmetry,
        // `HollandWindField::wind_at`.
        let beta = bearing_vector_deg((y, x));
        let toward_rad = (beta - 90.0 - INFLOW_ANGLE_DEG).to_radians();
        let (ve, vn) = (v_rot * toward_rad.sin(), v_rot * toward_rad.cos());
        Some(site.value.of(WindVector {
            east_ms: ve + motion * step.motion.sin,
            north_ms: vn + motion * step.motion.cos,
        }))
    }
}

impl BoundTable {
    /// The table for a storm whose field is `field`, whose fastest
    /// step moves at `max_motion_06 / 0.6` and whose least `|f|` over
    /// its steps is `f_min`.
    fn new(field: &StormField, max_motion_06: f64, f_min: f64) -> Self {
        let rmax = field.rmax_km;
        let mut rows = Vec::new();
        let mut r = rmax;
        while r < GATE_KM && rows.len() < TABLE_ROWS {
            let x = (rmax / r).powf(field.b);
            let term = field.b_dp_rho * x * (-x).exp();
            // `sqrt(term + c²) − c`, which falls as `c` rises, at the
            // least `c` of any step `r` or more away.
            let c = r * 1000.0 * f_min / 2.0 * CORIOLIS_SLACK;
            let v_rot = term / ((term + c * c).sqrt() + c);
            let asym = 2.0 * (r * rmax) / (r * r + rmax * rmax);
            rows.push((
                (v_rot + max_motion_06 * asym) * TABLE_SLACK,
                chord2_limit(r),
            ));
            r *= TABLE_RATIO;
        }
        Self::from_rows(rows)
    }

    /// A table over `(bound, chord² limit)` rows, the bounds made
    /// non-increasing by a suffix max. A NaN bound bounds nothing.
    fn from_rows(mut rows: Vec<(f64, f64)>) -> Self {
        let mut max = f64::NEG_INFINITY;
        for (bound, _) in rows.iter_mut().rev() {
            if bound.is_nan() {
                *bound = f64::INFINITY;
            }
            max = max.max(*bound);
            *bound = max;
        }
        Self { rows }
    }

    /// The squared chord at and past which a pair cannot raise `peak`:
    /// that of the site's reach, else of the gate.
    fn limit(&self, peak: f64) -> f64 {
        let k = self.rows.partition_point(|&(bound, _)| bound > peak);
        self.rows
            .get(k)
            .map_or(chord2_limit(GATE_KM), |&(_, limit)| limit)
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
        let seg = storm.track.segment_at(t);
        let motion = match self.motion {
            Some((cached, motion)) if cached == seg => motion,
            _ => {
                // `HollandWindField::with_motion(heading, speed)`.
                let (heading, speed) = storm.track.segment_motion(seg);
                let m_rad = heading.to_radians();
                let motion = StepMotion {
                    motion_06: 0.6 * speed,
                    sin: m_rad.sin(),
                    cos: m_rad.cos(),
                };
                self.motion = Some((seg, motion));
                motion
            }
        };
        let center = LatLonTrig::new(storm.track.position(t));
        let [unit, east, north] = center.frame();
        Some(PassageStep {
            // `HollandWindField::coriolis` at the centre's latitude.
            abs_coriolis: coriolis_at(center.sin_lat()).abs(),
            unit,
            east,
            north,
            center,
            motion,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::{EnsembleConfig, TrackEnsemble};
    use crate::track::{StormTrack, TrackPoint};
    use ct_rand::cases;

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
            let field = storm.wind_field(t).unwrap();
            assert_eq!(step.abs_coriolis, field.coriolis().abs(), "t={t}");
            assert_eq!(step.motion.motion_06, 0.6 * field.motion_speed_ms);
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

    fn one_site(pos: LatLon) -> ScanSites {
        ScanSites::new([(pos, PeakOf::Speed)])
    }

    #[test]
    fn unphysical_storms_report_the_field_error_only_when_in_range() {
        let mut s =
            storm(StormTrack::straight(LatLon::new(19.2, -158.35), 5.0, 6.0, 48.0).unwrap());
        s.central_pressure_hpa = s.ambient_pressure_hpa;
        let near = one_site(LatLon::new(21.3, -157.9));
        let far = one_site(LatLon::new(21.3, -150.0));
        assert_eq!(
            s.peak_scan(1.0, &near, None).unwrap_err(),
            s.wind_field(0.0).unwrap_err()
        );
        assert_eq!(s.peak_scan(1.0, &far, None).unwrap(), vec![0.0]);
    }

    /// Only the rejection is exercised: a scan with a zero or negative
    /// step would never end. NaN and infinite steps end after one step
    /// unguarded, so those reach the kernel's own check.
    #[test]
    fn non_positive_and_non_finite_steps_are_rejected() {
        for step in [0.0, -0.0, -1.0, f64::NEG_INFINITY, f64::INFINITY, f64::NAN] {
            assert!(
                matches!(
                    check_scan_step(step),
                    Err(HydroError::InvalidParameter {
                        name: "scan_step_hours",
                        ..
                    })
                ),
                "step {step}"
            );
        }
        assert!(check_scan_step(0.5).is_ok());
        let s = storm(StormTrack::straight(LatLon::new(19.2, -158.35), 5.0, 6.0, 48.0).unwrap());
        let sites = one_site(LatLon::new(21.3, -157.9));
        for step in [f64::NAN, f64::INFINITY] {
            assert!(s.peak_scan(step, &sites, None).is_err(), "step {step}");
        }
    }

    /// Every (step, site) pair a scan is offered lands in exactly one
    /// of its three counts: near sites, a site past the gate at every
    /// step, and sites whose chord and haversine straddle the gate.
    #[test]
    fn each_scan_counts_every_pair_once() {
        cases(128, |rng| {
            let start = LatLon::new(rng.range_f64(10.0, 30.0), rng.range_f64(-165.0, -150.0));
            let mut s = storm(
                StormTrack::straight(
                    start,
                    rng.range_f64(0.0, 360.0),
                    rng.range_f64(0.0, 15.0),
                    rng.range_f64(6.0, 48.0),
                )
                .unwrap(),
            );
            s.rmax_km = rng.range_f64(5.0, 80.0);
            s.b = rng.range_f64(0.6, 3.4);
            s.central_pressure_hpa = rng.range_f64(900.0, 1005.0);
            let step_hours = rng.range_f64(0.25, 2.0);
            let steps = s.passage(step_hours).count() as u64;
            let far = start.destination(rng.range_f64(0.0, 360.0), 5000.0);
            let mut sites = vec![(far, PeakOf::Speed)];
            for _ in 0..6 {
                let km = match rng.below(3) {
                    0 => GATE_KM + rng.range_f64(-1e-3, 1e-3),
                    _ => rng.range_f64(0.0, 2.0 * GATE_KM),
                };
                let of = match rng.below(2) {
                    0 => PeakOf::Speed,
                    _ => PeakOf::Toward(rng.range_f64(0.0, 360.0)),
                };
                sites.push((start.destination(rng.range_f64(0.0, 360.0), km), of));
            }
            for (k, &site) in sites.iter().enumerate() {
                let (peaks, work) = s.scan(step_hours, &ScanSites::new([site]), None).unwrap();
                let counted = work.evaluated + work.skipped + work.culled;
                assert_eq!(counted, steps, "{site:?}: {work:?}");
                if k == 0 {
                    assert_eq!((peaks[0], work.culled), (0.0, steps), "{work:?}");
                }
            }
            let all = ScanSites::new(sites);
            let mut closest = vec![0.0; all.len()];
            let (_, work) = s.scan(step_hours, &all, Some(&mut closest)).unwrap();
            let counted = work.evaluated + work.skipped + work.culled;
            assert_eq!(counted, steps * all.len() as u64, "{work:?}");
        });
    }

    #[test]
    fn the_calm_vector_is_the_calm_eye_sample() {
        let f = HollandWindField::new(966.0, 1010.0, 35.0, 1.6, 21.0).unwrap();
        let eye = LatLon::new(21.0, -158.0);
        assert_eq!(WindVector::CALM.sample(), f.wind_at(eye, eye));
    }

    /// A pair at haversine distance `d` is never culled at a limit of
    /// `d`: the chord bound stays below the haversine, coincident and
    /// near-coincident points included. A pair whose chord is within
    /// the gate's is in range.
    #[test]
    fn the_chord_bounds_bracket_the_haversine() {
        let in_gate = chord2_within(GATE_KM);
        cases(1024, |rng| {
            let a = LatLon::new(rng.range_f64(-60.0, 60.0), rng.range_f64(-170.0, 170.0));
            let km = match rng.below(4) {
                0 => 0.0,
                1 => rng.range_f64(0.0, 1e-6),
                2 => GATE_KM + rng.range_f64(-1e-3, 1e-3),
                _ => rng.range_f64(0.0, 2.0 * GATE_KM),
            };
            let b = a.destination(rng.range_f64(0.0, 360.0), km);
            let (ta, tb) = (LatLonTrig::new(a), LatLonTrig::new(b));
            let d = ta.distance_km(&tb);
            let c2 = chord2(&ta.unit_vector(), &tb.unit_vector());
            assert!(c2 < chord2_limit(d), "{a} to {b}: d {d}, chord² {c2}");
            assert!(
                c2 >= in_gate || d < GATE_KM,
                "{a} to {b}: d {d}, chord² {c2}"
            );
        });
    }

    /// Every pair the offshore bound is given for has a `wind_at`
    /// component toward the site's bearing at or below it: coincident
    /// and near-coincident centres, and sites at right angles to the
    /// circulation's onshore direction, included.
    #[test]
    fn the_offshore_bound_bounds_every_component_it_is_given_for() {
        let mut bounded = 0;
        cases(256, |rng| {
            let start = LatLon::new(rng.range_f64(-10.0, 50.0), rng.range_f64(-170.0, 170.0));
            let heading = rng.range_f64(0.0, 360.0);
            let mut s = storm(
                StormTrack::straight(start, heading, rng.range_f64(0.0, 15.0), 24.0).unwrap(),
            );
            s.rmax_km = rng.range_f64(5.0, 80.0);
            s.b = rng.range_f64(0.6, 3.4);
            s.central_pressure_hpa = rng.range_f64(900.0, 1005.0);
            let field = StormField::new(&s).unwrap();
            // `t = k` exactly, so step k is the scalar scan's `t = k`.
            let steps: Vec<PassageStep> = s.passage(1.0).collect();
            for _ in 0..32 {
                let k = rng.below(steps.len() as u64) as usize;
                let step = &steps[k];
                let onshore = match rng.below(3) {
                    0 => heading,
                    _ => rng.range_f64(0.0, 360.0),
                };
                // The circulation blows toward `onshore` at sites bearing
                // φ from the centre; ±90° from φ it blows across it.
                let phi = 90.0 + INFLOW_ANGLE_DEG + onshore;
                let bearing = match rng.below(3) {
                    0 => phi + 90.0 + rng.range_f64(-1e-6, 1e-6),
                    1 => phi - 90.0 + rng.range_f64(-1e-6, 1e-6),
                    _ => rng.range_f64(0.0, 360.0),
                };
                let km = match rng.below(4) {
                    0 => 0.0,
                    1 => rng.range_f64(0.0, 1e-3),
                    _ => rng.range_f64(0.0, GATE_KM),
                };
                let pos = step.center.pos().destination(bearing.rem_euclid(360.0), km);
                let sites = ScanSites::new([(pos, PeakOf::Toward(onshore))]);
                if let Some(bound) = sites.sites[0].offshore_bound(step, &field) {
                    let wind = s
                        .wind_field(k as f64)
                        .unwrap()
                        .wind_at(step.center.pos(), pos);
                    let value = wind.component_toward(onshore);
                    assert!(value <= bound, "k {k}, {pos}: {value} > {bound}");
                    bounded += 1;
                }
            }
        });
        assert!(bounded > 2000, "only {bounded} pairs bounded");
        // A speed site is never bounded so.
        let s = storm(StormTrack::straight(LatLon::new(19.2, -158.35), 5.0, 6.0, 48.0).unwrap());
        let step = s.passage(1.0).next().unwrap();
        let field = StormField::new(&s).unwrap();
        let north = step.center.pos().destination(0.0, 100.0);
        assert!(one_site(north).sites[0]
            .offshore_bound(&step, &field)
            .is_none());
    }

    #[test]
    fn the_bound_table_is_non_increasing_and_bounds_every_speed_past_its_radius() {
        // The suffix max orders even rows that arrive out of order.
        let table =
            BoundTable::from_rows(vec![(3.0, 1.0), (5.0, 2.0), (f64::NAN, 3.0), (1.0, 4.0)]);
        let bounds: Vec<f64> = table.rows.iter().map(|r| r.0).collect();
        assert_eq!(
            bounds,
            vec![f64::INFINITY; 3]
                .into_iter()
                .chain([1.0])
                .collect::<Vec<_>>()
        );
        assert_eq!(table.limit(1.0), 4.0);
        assert_eq!(table.limit(0.5), chord2_limit(GATE_KM));
        // Every storm speed at distance r, at a centre whose |f| is at
        // least the floor's and moving at most the table's fastest
        // motion, is at most the bound of each tabled radius at or
        // below r.
        cases(128, |rng| {
            let mut s =
                storm(StormTrack::straight(LatLon::new(19.2, -158.35), 5.0, 6.0, 48.0).unwrap());
            s.rmax_km = rng.range_f64(5.0, 80.0);
            s.b = rng.range_f64(0.6, 3.4);
            s.central_pressure_hpa = rng.range_f64(900.0, 1005.0);
            let max_motion = rng.range_f64(0.0, 15.0);
            let floor_deg = match rng.below(3) {
                0 => 0.0,
                _ => rng.range_f64(0.0, 70.0),
            };
            let f_min = coriolis_at(floor_deg.to_radians().sin()).abs();
            let table = BoundTable::new(&StormField::new(&s).unwrap(), 0.6 * max_motion, f_min);
            let radii: Vec<f64> = (0..table.rows.len() as i32)
                .map(|k| s.rmax_km * TABLE_RATIO.powi(k))
                .collect();
            for _ in 0..40 {
                let lat = match rng.below(3) {
                    0 => floor_deg,
                    _ => rng.range_f64(floor_deg, 75.0),
                };
                let lat = if rng.below(2) == 0 { lat } else { -lat };
                let motion = match rng.below(2) {
                    0 => max_motion,
                    _ => rng.range_f64(0.0, max_motion),
                };
                let f = HollandWindField::new(
                    s.central_pressure_hpa,
                    s.ambient_pressure_hpa,
                    s.rmax_km,
                    s.b,
                    lat,
                )
                .unwrap()
                .with_motion(rng.range_f64(0.0, 360.0), motion);
                // Just past a tabled radius, where its row is tightest,
                // or anywhere in the table's span.
                let r = match rng.below(2) {
                    0 => {
                        (radii[rng.below(radii.len() as u64) as usize] * (1.0 + 1e-8)).min(GATE_KM)
                    }
                    _ => rng.range_f64(s.rmax_km, GATE_KM),
                };
                let center = LatLon::new(lat, -158.0);
                let speed = f.wind_at(center, center.destination(rng.range_f64(0.0, 360.0), r));
                for (&radius, &(bound, _)) in radii.iter().zip(&table.rows) {
                    if radius <= r * (1.0 - 1e-9) {
                        assert!(speed.speed_ms <= bound, "r {r}: {speed:?} > {bound}");
                    }
                }
            }
        });
    }
}
