//! The storm-passage kernel: the peak of a wind-derived value at a set
//! of sites over a storm's passage, each time step's centre trig and
//! Holland field built once and shared by every site.
//!
//! [`StormParams::peak_scan`] walks the passage `t0, t0 + dt, …` up to
//! the track's end exactly as the scalar scans do. A site is in range
//! of a step when its haversine distance from the centre is below
//! 400 km. The sites are [`ScanSites`], prepared once per study:
//! each site's trig, its unit vector on the sphere, and what its peak
//! is of ([`PeakOf`]). Each site's peak starts at `0.0`, and its pairs
//! are visited in an order that raises it early:
//!
//! - **A speed site** first at the step whose chord distance lies
//!   closest to `rmax_km`, where the Holland profile peaks, then at
//!   every other step in time order.
//! - **A component toward `b`** first at the step whose unit vector
//!   lies nearest by chord to the point `rmax_km` from the site
//!   opposite φ (test 3), `cos δ·u_s − sin δ·t_s` for `δ = rmax/R` and
//!   `t_s` the site's unit tangent along φ: from there the circulation
//!   blows toward `b` at the Holland peak. Every other step is then
//!   tested against the site's reach and, if it passes, given its
//!   onshore bound (both test 1); a bound at or below the peak culls
//!   the pair. The pairs left are visited best-first: highest bound
//!   first, ties in step order, a bound that bounds nothing (`None`,
//!   NaN, every pair of an unphysical storm) as `+∞`. Once the next
//!   bound is at or below the running peak, every pair left is culled.
//!
//! Ties for the first step go to the first such step. The order does
//! not touch the output: the peak is a max over non-NaN values, which
//! does not depend on the order, and a pair is dropped only by a bound
//! at or below the running peak, which only rises. A `(step, site)`
//! pair that provably cannot raise the running peak is dropped by the
//! cheapest of three tests that shows it:
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
//!      beyond its radius; a last row sits at the gate. A suffix max
//!      keeps the table non-increasing. Each row's `x` is the row
//!      before's times `1.1^(−b)`, one `powf` per table (the gate row
//!      takes its own): after at most 64 products it is within about
//!      `64·b` ulp (~2e-14) of its own `powf`, far inside the `1 ±
//!      1e-9` slacks on the `speed`, `v_hi` and `v_lo` columns. A
//!      site's *reach* is the smallest tabled radius whose bound is at
//!      or below its peak, recomputed only when the peak rises. A pair
//!      whose lower bound is at or past the reach, or past the gate, is
//!      culled.
//!    - **By its onshore bound**, for a component toward a bearing
//!      `b`. Each step keeps its centre's east and north unit vectors;
//!      their dot products with the site's unit vector are the bearing
//!      vector `(y, x)` up to rounding, and the rotation's component
//!      toward `b` is `v_rot ≥ 0` times `cos(β − φ) = (x·cos φ + y·sin
//!      φ)/n` (β and φ as in test 3), `n = |(y, x)|`. The chord `c`
//!      brackets the haversine in `[r_lo, r_hi]`, `r_lo` as above and
//!      `r_hi = R·c·(1 + c²/20)·(1 + 1e-9) + 1e-6` km. For `n ≥ 1e-4`
//!      the cosine is at most `ĉ`, the quotient plus `1e-9`, and the
//!      rotation at most `v_hi(r_lo)·ĉ` when `ĉ ≥ 0`, `v_lo(r_hi)·ĉ`
//!      when `ĉ < 0` and `r_lo ≥ rmax`, else 0. The table's `v_hi`
//!      column is its first term alone (`v_max = sqrt(b·Δp/(ρ·e))`
//!      short of `rmax`); `v_lo` is the same term at `f_max`, the
//!      largest `|f|` over the steps, with `c` raised and the result
//!      lowered by `1e-9`, and bounds every `v_rot` from `rmax` out to
//!      its radius from below, since `v_rot` falls past `rmax`. It is
//!      read at the lesser of `r_hi` and the gate: a pair past the gate
//!      is out of range, so any bound serves it. For `n < 1e-4` the
//!      rotation is at most 0 when `x·cos φ + y·sin φ` is at or below
//!      `−1e-12`, which no rounding of either vector's parts, all of
//!      size at most 1, can cross; else nothing is bounded. The drift
//!      `0.6·v_motion·asym·cos(m − b)` is at most its factor times
//!      `asym`'s largest value over `[r_lo, r_hi]` when the factor is
//!      positive, its smallest when negative. The pair is culled when
//!      the two bounds plus `1e-9·(v_max + 0.6·v_motion)` are at or
//!      below the peak, so also at a peak of `0.0`, where the
//!      circulation blows offshore harder than the drift onshore. A
//!      NaN part never culls.
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
//! the steps times the sites.
//!
//! A site's closest approach, when asked for, is its own pass over the
//! chords before the peak's. It is seeded with the haversine at the
//! step of least chord; only a step whose chord bound is below the
//! running minimum computes another, so a scan computes about one per
//! site for it, and the peak's pairs reuse them. A pair computes its
//! haversine only past test 1, so each step and site cost at most one.
//! `hydro.peak_scan.haversines` counts every haversine a scan computes,
//! for its pairs and its closest approaches, one add per scan.

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
static HAVERSINES: ct_obs::CachedCounter =
    ct_obs::CachedCounter::new(ct_obs::names::HYDRO_PEAK_SCAN_HAVERSINES);

/// The footprint gate, km: a site is in range of a step when its
/// haversine distance from the storm centre is below this. Beyond it
/// the Cat 1-5 wind contribution is negligible.
const GATE_KM: f64 = 400.0;

/// Relative slack on the speed bound, far above the few ulps by which a
/// computed speed can exceed `|v_rot| + 0.6·v_motion·asym`.
const BOUND_SLACK: f64 = 1.0 + 1e-12;
/// Relative slacks, up and down, on the bound table and the chord
/// bracket.
const SLACK_UP: f64 = 1.0 + 1e-9;
const SLACK_DOWN: f64 = 1.0 - 1e-9;
/// Absolute slack (km) on the chord bracket.
const CHORD_SLACK_KM: f64 = 1e-6;
/// Absolute slack on the side of the centre a site lies on, far above
/// the rounding by which the frame's dot products and the bearing
/// vector, both of size at most 1, can differ.
const SIDE_SLACK: f64 = 1e-12;
/// The least bearing-vector length whose cosine the onshore bound
/// takes, and the absolute slack on that cosine: at that length the
/// vectors' absolute rounding moves it by about `1e-12`.
const MIN_BEARING_NORM: f64 = 1e-4;
const COSINE_SLACK: f64 = 1e-9;
/// Slack on the direction bound, relative to `|v_rot| + |motion|`.
const DIRECTION_SLACK: f64 = 1e-9;
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
        /// The site's unit tangent along φ.
        tangent: [f64; 3],
    },
}

impl ScanSites {
    /// Prepares `sites`, each a position and what its peak is of.
    pub fn new(sites: impl IntoIterator<Item = (LatLon, PeakOf)>) -> Self {
        let sites = sites
            .into_iter()
            .map(|(pos, of)| {
                let trig = LatLonTrig::new(pos);
                let [unit, east, north] = trig.frame();
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
                            tangent: [0, 1, 2].map(|k| cos_phi * north[k] + sin_phi * east[k]),
                        }
                    }
                };
                ScanSite { trig, unit, value }
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
    /// For a `Toward` site, a bound on its value at `step`, slack
    /// included, from `c2`, the squared chord between the two, and the
    /// storm's `table`. `None` for a speed site, and for a bearing
    /// vector too short to take a cosine from that does not show the
    /// circulation blowing away from `b`. NaN parts give a NaN bound or
    /// `None`.
    fn onshore_bound(
        &self,
        step: &PassageStep,
        field: &StormField,
        table: &BoundTable,
        c2: f64,
    ) -> Option<f64> {
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
        // component toward `b` is `v_rot ≥ 0` times `side / n`.
        let (y, x) = (dot(&step.east, &self.unit), dot(&step.north, &self.unit));
        let side = x * cos_phi + y * sin_phi;
        let n = (x * x + y * y).sqrt();
        let (r_lo, r_hi) = chord_bracket(c2);
        let rotation = if n >= MIN_BEARING_NORM {
            let cos = side / n + COSINE_SLACK;
            if cos >= 0.0 {
                table.v_hi(r_lo, field.v_max) * cos
            } else if r_lo >= field.rmax_km {
                table.v_lo(r_hi) * cos
            } else {
                0.0
            }
        } else if side <= -SIDE_SLACK {
            0.0
        } else {
            return None;
        };
        // `0.6·v_motion·asym·cos(m − b)`, at `asym`'s extreme over the
        // bracket on the side of the drift's sign.
        let motion = step.motion;
        let toward = motion.motion_06 * (motion.cos * cos_b + motion.sin * sin_b);
        let (asym_lo, asym_hi) = asym_range(field.rmax_km, r_lo, r_hi);
        let drift = toward * if toward >= 0.0 { asym_hi } else { asym_lo };
        Some(rotation + drift + DIRECTION_SLACK * (field.v_max + motion.motion_06.abs()))
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

/// Bounds on a storm's wind beyond a geometric series of radii, one
/// row per radius in increasing order.
#[derive(Debug, Clone)]
struct BoundTable {
    rows: Vec<BoundRow>,
}

/// The bounds at one tabled radius `r`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BoundRow {
    radius_km: f64,
    /// The squared chord at and past which a pair lies at least `r`
    /// away.
    chord2: f64,
    /// A bound on the speed at every distance of at least `r`,
    /// non-increasing down the rows.
    speed: f64,
    /// A bound on `v_rot` at every distance of at least `r`,
    /// non-increasing down the rows.
    v_hi: f64,
    /// A lower bound on `v_rot` at every distance from `rmax` to `r`.
    v_lo: f64,
}

/// What a scan did, added to the counters once per scan.
#[derive(Debug, Default)]
struct Work {
    evaluated: u64,
    skipped: u64,
    culled: u64,
    haversines: u64,
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
        HAVERSINES.add(work.haversines);
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
        let passage = self.passage(step_hours);
        let mut steps = Vec::with_capacity(passage.capacity());
        steps.extend(passage);
        let field = StormField::new(self);
        // An unphysical storm has no table: only the gate culls, and its
        // first in-range pair reports the field error.
        let table = field
            .as_ref()
            .ok()
            .map(|f| BoundTable::for_steps(f, &steps));
        let mut work = Work::default();
        // Buffers every site reuses.
        let mut chords = Vec::with_capacity(steps.len());
        let (mut known, mut candidates) = (Vec::new(), Vec::new());
        let mut peaks = Vec::with_capacity(sites.len());
        for (i, site) in sites.sites.iter().enumerate() {
            chords.clear();
            chords.extend(steps.iter().map(|step| chord2(&step.unit, &site.unit)));
            known.clear();
            let mut scan = SiteScan {
                field: &field,
                table: table.as_ref(),
                steps: &steps,
                chords: &chords,
                site,
                known: &mut known,
                work: &mut work,
            };
            if let Some(closest) = closest_km.as_deref_mut() {
                closest[i] = scan.closest();
            }
            peaks.push(scan.peak(&mut candidates)?);
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
    site: &'a ScanSite,
    /// The haversines the closest approach computed, by step, for the
    /// peak's pairs to reuse.
    known: &'a mut Vec<(usize, f64)>,
    work: &'a mut Work,
}

/// A site's running peak, and the squared chord at and past which a
/// pair cannot raise it.
struct Running {
    peak: f64,
    limit: f64,
}

impl SiteScan<'_> {
    /// The site's peak, in the order the module docs describe;
    /// `candidates` is a buffer for the best-first order.
    fn peak(&mut self, candidates: &mut Vec<(f64, usize)>) -> Result<f64, HydroError> {
        let mut run = Running {
            peak: 0.0,
            limit: self.limit_at(0.0),
        };
        let prime = self.prime_step();
        if let Some(s) = prime {
            self.visit(s, &mut run)?;
        }
        let others = (0..self.steps.len()).filter(|&s| Some(s) != prime);
        if let SiteValue::Speed = self.site.value {
            for s in others {
                self.visit(s, &mut run)?;
            }
            return Ok(run.peak);
        }
        candidates.clear();
        for s in others {
            if self.chords[s] >= run.limit {
                self.work.culled += 1;
                continue;
            }
            let bound = self.onshore_bound(s);
            if bound <= run.peak {
                self.work.culled += 1;
                continue;
            }
            candidates.push((bound, s));
        }
        // Highest bound first, ties in step order: the peak rises
        // soonest, and the first bound at or below it ends the scan.
        candidates.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        for (k, &(bound, s)) in candidates.iter().enumerate() {
            if bound <= run.peak {
                self.work.culled += (candidates.len() - k) as u64;
                break;
            }
            self.visit(s, &mut run)?;
        }
        Ok(run.peak)
    }

    /// Visits pair `s`: culled at or past the running limit or the gate,
    /// else evaluated against the running peak or skipped. Inlined into
    /// each loop: most pairs leave at the first test, and a call per
    /// pair slowed the speed sites' loop by a few percent.
    #[inline(always)]
    fn visit(&mut self, s: usize, run: &mut Running) -> Result<(), HydroError> {
        if self.chords[s] >= run.limit {
            self.work.culled += 1;
            return Ok(());
        }
        let r_km = self.distance(s);
        // Out of range, NaN included.
        if r_km.partial_cmp(&GATE_KM).is_none_or(Ordering::is_ge) {
            self.work.culled += 1;
            return Ok(());
        }
        let field = self.field.as_ref().map_err(Clone::clone)?;
        match field.value_above(&self.steps[s], self.site, r_km, run.peak) {
            Some(v) => {
                let old = run.peak;
                run.peak = run.peak.max(v);
                if run.peak > old {
                    run.limit = self.limit_at(run.peak);
                }
                self.work.evaluated += 1;
            }
            None => self.work.skipped += 1,
        }
        Ok(())
    }

    /// The least haversine distance from any step's centre, seeded at
    /// the step of least chord: only a step whose chord bound is below
    /// the running minimum computes another.
    fn closest(&mut self) -> f64 {
        let (mut min_km, mut limit) = (f64::INFINITY, f64::INFINITY);
        let seed = argmin(self.chords.iter().copied());
        let rest = (0..self.chords.len()).filter(|&s| Some(s) != seed);
        for s in seed.into_iter().chain(rest) {
            if self.chords[s] < limit {
                let d = self.haversine(s);
                self.known.push((s, d));
                if d < min_km {
                    min_km = d;
                    limit = chord2_limit(d);
                }
            }
        }
        min_km
    }

    /// The haversine distance from step `s`'s centre to the site, the
    /// closest approach's if it computed it.
    fn distance(&mut self, s: usize) -> f64 {
        match self.known.iter().find(|&&(k, _)| k == s) {
            Some(&(_, d)) => d,
            None => self.haversine(s),
        }
    }

    /// The haversine distance from step `s`'s centre to the site.
    fn haversine(&mut self, s: usize) -> f64 {
        self.work.haversines += 1;
        self.steps[s].center.distance_km(&self.site.trig)
    }

    /// The squared chord at and past which a pair cannot raise `peak`.
    fn limit_at(&self, peak: f64) -> f64 {
        self.table.map_or(chord2_limit(GATE_KM), |t| t.limit(peak))
    }

    /// [`ScanSite::onshore_bound`] at pair `s`, `+∞` where it bounds
    /// nothing: `None`, NaN, and every pair of an unphysical storm.
    fn onshore_bound(&self, s: usize) -> f64 {
        let (Ok(field), Some(table)) = (self.field, self.table) else {
            return f64::INFINITY;
        };
        self.site
            .onshore_bound(&self.steps[s], field, table, self.chords[s])
            .filter(|bound| !bound.is_nan())
            .unwrap_or(f64::INFINITY)
    }

    /// The step evaluated first (the first of ties), or `None` for an
    /// unphysical storm. For a speed site, the step whose chord
    /// distance lies closest to `rmax_km`, where the Holland profile
    /// peaks. For a component toward `b`, the step whose unit vector
    /// lies nearest by chord to the point `rmax_km` from the site
    /// opposite φ, `cos δ·u_s − sin δ·t_s` for `δ = rmax/R` and `t_s`
    /// the site's tangent along φ: from there the circulation blows
    /// toward `b` at the Holland peak.
    fn prime_step(&self) -> Option<usize> {
        let field = self.field.as_ref().ok()?;
        match self.site.value {
            SiteValue::Speed => {
                let target = (field.rmax_km / EARTH_RADIUS_KM).powi(2);
                argmin(self.chords.iter().map(|&c2| (c2 - target).abs()))
            }
            SiteValue::Toward { tangent, .. } => {
                let (sin_d, cos_d) = (field.rmax_km / EARTH_RADIUS_KM).sin_cos();
                let unit = &self.site.unit;
                let aim = [0, 1, 2].map(|k| cos_d * unit[k] - sin_d * tangent[k]);
                argmin(self.steps.iter().map(|step| chord2(&step.unit, &aim)))
            }
        }
    }
}

/// The index of the least of `keys`, the first of ties; `None` for no
/// keys.
fn argmin(keys: impl Iterator<Item = f64>) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (s, key) in keys.enumerate() {
        if best.is_none_or(|(_, b)| key < b) {
            best = Some((s, key));
        }
    }
    best.map(|(s, _)| s)
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

/// The squared chord at and past which the chord lower bound
/// `R·chord·(1 − 1e-9) − 1e-6` is at least `km`, so the haversine is.
fn chord2_limit(km: f64) -> f64 {
    let chord = (km + CHORD_SLACK_KM) / (EARTH_RADIUS_KM * SLACK_DOWN);
    chord * chord
}

/// Bounds `(r_lo, r_hi)`, km, on the haversine of a pair at squared
/// chord `c2` within the gate's. The arc of a chord `c` on the unit
/// sphere is `2·asin(c/2) = c·(1 + c²/24 + 3c⁴/640 + …)`, at most
/// `c·(1 + c²/20)` for `c` below 1.
fn chord_bracket(c2: f64) -> (f64, f64) {
    let chord = c2.sqrt();
    (
        EARTH_RADIUS_KM * chord * SLACK_DOWN - CHORD_SLACK_KM,
        EARTH_RADIUS_KM * chord * (1.0 + c2 / 20.0) * SLACK_UP + CHORD_SLACK_KM,
    )
}

/// The least and largest `asym(r) = 2·r·rmax/(r² + rmax²)` over `r` in
/// `[lo, hi]`, for `lo ≥ −rmax`: `asym` rises to 1 at `rmax` and
/// falls past it.
fn asym_range(rmax: f64, lo: f64, hi: f64) -> (f64, f64) {
    let asym = |r: f64| 2.0 * (r * rmax) / (r * r + rmax * rmax);
    let (at_lo, at_hi) = (asym(lo), asym(hi));
    let max = if hi <= rmax {
        at_hi
    } else if lo >= rmax {
        at_lo
    } else {
        1.0
    };
    (at_lo.min(at_hi), max)
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
    /// The table for a storm whose field is `field` over `steps`.
    fn for_steps(field: &StormField, steps: &[PassageStep]) -> Self {
        let max_motion_06 = steps
            .iter()
            .map(|s| s.motion.motion_06.abs())
            .fold(0.0, f64::max);
        let f_min = steps
            .iter()
            .map(|s| s.abs_coriolis)
            .fold(f64::INFINITY, f64::min);
        let f_max = steps.iter().map(|s| s.abs_coriolis).fold(0.0, f64::max);
        Self::new(field, max_motion_06, f_min, f_max)
    }

    /// The table for a storm whose field is `field`, whose fastest
    /// step moves at `max_motion_06 / 0.6` and whose least and largest
    /// `|f|` over its steps are `f_min` and `f_max`.
    fn new(field: &StormField, max_motion_06: f64, f_min: f64, f_max: f64) -> Self {
        let rmax = field.rmax_km;
        let row = |r: f64, x: f64| {
            let term = field.b_dp_rho * x * (-x).exp();
            // `sqrt(term + c²) − c`, which falls as `c` rises, at the
            // least `c` of any step `r` or more away, and at the largest
            // of any step.
            let c = r * 1000.0 * f_min / 2.0 * SLACK_DOWN;
            let v_rot = term / ((term + c * c).sqrt() + c);
            let c_max = r * 1000.0 * f_max / 2.0 * SLACK_UP;
            let v_lo = term / ((term + c_max * c_max).sqrt() + c_max) * SLACK_DOWN;
            let asym = 2.0 * (r * rmax) / (r * r + rmax * rmax);
            BoundRow {
                radius_km: r,
                chord2: chord2_limit(r),
                speed: (v_rot + max_motion_06 * asym) * SLACK_UP,
                v_hi: v_rot * SLACK_UP,
                v_lo,
            }
        };
        let mut rows: Vec<BoundRow> = radii(rmax, field.b).map(|(r, x)| row(r, x)).collect();
        if rmax < GATE_KM {
            rows.push(row(GATE_KM, (rmax / GATE_KM).powf(field.b)));
        }
        Self::from_rows(rows)
    }

    /// A table over `rows`, the upper bounds made non-increasing by a
    /// suffix max. A NaN upper bound bounds nothing.
    fn from_rows(mut rows: Vec<BoundRow>) -> Self {
        let (mut speed, mut v_hi) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for row in rows.iter_mut().rev() {
            speed = suffix_max(&mut row.speed, speed);
            v_hi = suffix_max(&mut row.v_hi, v_hi);
        }
        Self { rows }
    }

    /// The squared chord at and past which a pair cannot raise `peak`:
    /// that of the site's reach, else of the gate.
    fn limit(&self, peak: f64) -> f64 {
        let k = self.rows.partition_point(|row| row.speed > peak);
        self.rows
            .get(k)
            .map_or(chord2_limit(GATE_KM), |row| row.chord2)
    }

    /// A bound on `v_rot` at every distance of at least `r_km`:
    /// `v_max` short of the first row.
    fn v_hi(&self, r_km: f64, v_max: f64) -> f64 {
        let k = self.rows.partition_point(|row| row.radius_km <= r_km);
        k.checked_sub(1).map_or(v_max, |k| self.rows[k].v_hi)
    }

    /// A lower bound on `v_rot` at every distance from `rmax` to the
    /// lesser of `r_km` and the gate, past which a pair is out of range
    /// and any bound serves; 0 for a table without rows.
    fn v_lo(&self, r_km: f64) -> f64 {
        let r_km = r_km.min(GATE_KM);
        let k = self.rows.partition_point(|row| row.radius_km < r_km);
        self.rows.get(k).map_or(0.0, |row| row.v_lo)
    }
}

/// The bound table's radii short of the gate, `rmax·1.1^k` for at most
/// [`TABLE_ROWS`] rows, each with its `x = (rmax/r)^b`. Row `k`'s `x` is
/// row `k − 1`'s times `1.1^(−b)`, one `powf` for the series: after at
/// most 64 products it is within about `64·b` ulp (~2e-14) of the row's
/// own `powf`, far inside the rows' `1e-9` slacks.
fn radii(rmax: f64, b: f64) -> impl Iterator<Item = (f64, f64)> {
    let ratio_b = TABLE_RATIO.powf(-b);
    std::iter::successors(Some((rmax, 1.0)), move |&(r, x)| {
        Some((r * TABLE_RATIO, x * ratio_b))
    })
    .take_while(|&(r, _)| r < GATE_KM)
    .take(TABLE_ROWS)
}

/// Raises `bound` to `max`, a NaN bound to infinity, and returns the
/// new running max.
fn suffix_max(bound: &mut f64, max: f64) -> f64 {
    if bound.is_nan() {
        *bound = f64::INFINITY;
    }
    *bound = bound.max(max);
    *bound
}

impl Passage<'_> {
    /// A capacity for the steps left, `(t_end − t)/dt + 1` and one more
    /// for the rounding of the running `t`, up to 4096 steps: a vector
    /// of that many does not grow as the passage fills it.
    fn capacity(&self) -> usize {
        // `as` takes NaN and negatives to 0.
        let gaps = ((self.t_end - self.t) / self.step_hours) as usize;
        gaps.saturating_add(2).min(1 << 12)
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
    /// step, and sites whose chord and haversine straddle the gate. A
    /// pair costs at most one haversine, and the closest approach, the
    /// least over every step, one at the step of least chord and one at
    /// each step whose chord bound is below that step's haversine.
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
                let one = ScanSites::new([site]);
                let (peaks, work) = s.scan(step_hours, &one, None).unwrap();
                let counted = work.evaluated + work.skipped + work.culled;
                assert_eq!(counted, steps, "{site:?}: {work:?}");
                assert!(work.haversines <= steps, "{site:?}: {work:?}");
                if k == 0 {
                    assert_eq!((peaks[0], work.culled), (0.0, steps), "{work:?}");
                }
                let mut closest = [0.0];
                let (with_peaks, with) = s.scan(step_hours, &one, Some(&mut closest)).unwrap();
                assert_eq!(with_peaks, peaks);
                let trig = LatLonTrig::new(site.0);
                let distances: Vec<f64> = s
                    .passage(step_hours)
                    .map(|step| step.center.distance_km(&trig))
                    .collect();
                let least = distances.iter().copied().fold(f64::INFINITY, f64::min);
                assert_eq!(closest[0], least, "{site:?}");
                let chords: Vec<f64> = s
                    .passage(step_hours)
                    .map(|step| chord2(&step.unit, &one.sites[0].unit))
                    .collect();
                let nearest = (0..chords.len())
                    .reduce(|a, b| if chords[b] < chords[a] { b } else { a })
                    .unwrap();
                let near = chords
                    .iter()
                    .filter(|&&c2| c2 < chord2_limit(distances[nearest]))
                    .count() as u64;
                assert!(
                    with.haversines <= work.haversines + near,
                    "{site:?}: {with:?} against {work:?} and {near} near steps"
                );
            }
            let all = ScanSites::new(sites);
            let mut closest = vec![0.0; all.len()];
            let (_, work) = s.scan(step_hours, &all, Some(&mut closest)).unwrap();
            let counted = work.evaluated + work.skipped + work.culled;
            assert_eq!(counted, steps * all.len() as u64, "{work:?}");
        });
    }

    /// The time-ordered scalar fold a scan must equal: per site the
    /// largest `wind_at(..).component_toward(b)` over its in-range
    /// steps from `0.0`, zero's sign dropped, and its least haversine
    /// over every step; the field error at the first in-range pair.
    fn toward_fold(
        s: &StormParams,
        step_hours: f64,
        sites: &[(LatLon, f64)],
    ) -> Result<(Vec<f64>, Vec<f64>), HydroError> {
        let mut peaks = vec![0.0_f64; sites.len()];
        let mut closest = vec![f64::INFINITY; sites.len()];
        let (t0, t1) = s.track.time_span_hours();
        let mut t = t0;
        while t <= t1 {
            let center = s.track.position(t);
            for (k, &(pos, b)) in sites.iter().enumerate() {
                let d = center.distance_km(pos);
                closest[k] = closest[k].min(d);
                if d < GATE_KM {
                    let v = s.wind_field(t)?.wind_at(center, pos).component_toward(b);
                    peaks[k] = peaks[k].max(v);
                }
            }
            t += step_hours;
        }
        Ok((peaks.iter().map(|p| p + 0.0).collect(), closest))
    }

    /// Surge sites visited best-first give the time-ordered fold's
    /// peaks and closest approaches bit for bit: 1–8 sites at random
    /// bearings, sites about the gate's distance from a step, sites
    /// never in range, and steps mirrored about a site across the
    /// circulation's onshore direction there, whose onshore bounds tie.
    /// Every pair is counted once and costs at most one haversine; an
    /// unphysical storm returns the field error.
    #[test]
    fn best_first_toward_scans_equal_the_time_ordered_fold() {
        let (mut positive, mut ties, mut errors) = (0, 0, 0);
        cases(256, |rng| {
            let start = LatLon::new(rng.range_f64(10.0, 30.0), rng.range_f64(-165.0, -150.0));
            let mut sites = Vec::new();
            let mirrored = rng.below(4) == 0;
            let (mut s, step_hours) = if mirrored {
                // A track along a parallel, its steps at exact binary
                // longitudes mirrored about the meridian of a site north
                // or south of it, where φ is 0° or 180°.
                let half = f64::from(1 << rng.below(4));
                let (lon, d_lon) = (-158.0, 1.0 / 16.0);
                let point = |t_hours, lon| TrackPoint {
                    t_hours,
                    pos: LatLon::new(start.lat, lon),
                };
                let track = StormTrack::new(vec![
                    point(0.0, lon - half * d_lon),
                    point(2.0 * half, lon + half * d_lon),
                ])
                .unwrap();
                let d_lat = rng.range_f64(0.2, 3.0);
                for (d_lat, phi) in [(d_lat, 0.0), (-d_lat, 180.0)] {
                    let b = (phi - 90.0 - INFLOW_ANGLE_DEG).rem_euclid(360.0);
                    sites.push((LatLon::new(start.lat + d_lat, lon), b));
                }
                (storm(track), 1.0)
            } else {
                let track = StormTrack::straight(
                    start,
                    rng.range_f64(0.0, 360.0),
                    rng.range_f64(0.5, 15.0),
                    rng.range_f64(6.0, 48.0),
                )
                .unwrap();
                (storm(track), rng.range_f64(0.25, 2.0))
            };
            s.rmax_km = rng.range_f64(5.0, 80.0);
            s.b = rng.range_f64(0.6, 3.4);
            s.central_pressure_hpa = rng.range_f64(900.0, 1005.0);
            let steps: Vec<PassageStep> = s.passage(step_hours).collect();
            for _ in 0..=rng.below(8 - sites.len() as u64) {
                let center = steps[rng.below(steps.len() as u64) as usize].center.pos();
                let km = match rng.below(4) {
                    0 => GATE_KM + rng.range_f64(-1e-3, 1e-3),
                    1 => 5000.0,
                    _ => rng.range_f64(0.0, 1.5 * GATE_KM),
                };
                let pos = center.destination(rng.range_f64(0.0, 360.0), km);
                sites.push((pos, rng.range_f64(0.0, 360.0)));
            }
            let scan_sites = ScanSites::new(sites.iter().map(|&(pos, b)| (pos, PeakOf::Toward(b))));
            if mirrored {
                // Positive bounds that tie bit for bit, which only the
                // step index orders.
                let field = StormField::new(&s).unwrap();
                let table = BoundTable::for_steps(&field, &steps);
                for site in &scan_sites.sites[..2] {
                    let bound = |step: &PassageStep| {
                        let c2 = chord2(&step.unit, &site.unit);
                        site.onshore_bound(step, &field, &table, c2)
                    };
                    ties += (0..steps.len() / 2)
                        .filter(|&k| {
                            let a = bound(&steps[k]).filter(|&a| a > 0.0);
                            a.is_some() && a == bound(&steps[steps.len() - 1 - k])
                        })
                        .count();
                }
            }
            let mut closest = vec![0.0; sites.len()];
            let pairs = (steps.len() * sites.len()) as u64;
            let (peaks, work) = s.scan(step_hours, &scan_sites, Some(&mut closest)).unwrap();
            let (want_peaks, want_closest) = toward_fold(&s, step_hours, &sites).unwrap();
            let bits = |v: &[f64]| v.iter().map(|p| (p + 0.0).to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&peaks), bits(&want_peaks), "{sites:?}");
            assert_eq!(bits(&closest), bits(&want_closest), "{sites:?}");
            assert_eq!(
                work.evaluated + work.skipped + work.culled,
                pairs,
                "{work:?}"
            );
            assert!(work.haversines <= pairs, "{work:?}");
            positive += peaks.iter().filter(|&&p| p > 0.0).count();
            // The same storm without a pressure deficit.
            s.central_pressure_hpa = s.ambient_pressure_hpa;
            let want = toward_fold(&s, step_hours, &sites).map(|(zeros, _)| zeros);
            errors += usize::from(want.is_err());
            assert_eq!(s.peak_scan(step_hours, &scan_sites, None), want);
        });
        assert!(positive > 300, "only {positive} positive peaks");
        assert!(ties > 10, "only {ties} tied bounds");
        assert!(errors > 100, "only {errors} field errors");
    }

    /// Two steps mirrored about a site's meridian tie for closest up
    /// to rounding, which orders their chords the other way in about one
    /// case in 25; the closest approach is still the least haversine.
    #[test]
    fn the_closest_approach_is_the_least_haversine_at_rounding_ties() {
        cases(512, |rng| {
            let (lat, lon) = (rng.range_f64(10.0, 30.0), rng.range_f64(-165.0, -150.0));
            let delta = rng.range_f64(0.001, 0.3);
            let point = |t_hours, lon| TrackPoint {
                t_hours,
                pos: LatLon::new(lat, lon),
            };
            let s = storm(
                StormTrack::new(vec![point(0.0, lon - delta), point(1.0, lon + delta)]).unwrap(),
            );
            let site = LatLon::new(lat + rng.range_f64(-3.0, 3.0), lon);
            let mut closest = [0.0];
            s.peak_scan(1.0, &one_site(site), Some(&mut closest))
                .unwrap();
            let least = [0.0, 1.0]
                .map(|t| s.track.position(t).distance_km(site))
                .into_iter()
                .fold(f64::INFINITY, f64::min);
            assert_eq!(closest[0], least, "{site}");
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
    /// near-coincident points included. The chord bracket holds the
    /// haversine out to twice the gate.
    #[test]
    fn the_chord_bounds_bracket_the_haversine() {
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
            let (r_lo, r_hi) = chord_bracket(c2);
            assert!(r_lo < d && d < r_hi, "{a} to {b}: {r_lo} < {d} < {r_hi}");
        });
    }

    /// Every in-range pair the onshore bound is given for has a
    /// `wind_at` component toward the site's bearing at or below it:
    /// coincident and near-coincident centres, bearing vectors about
    /// `1e-4` long, distances about `rmax`, sites at right angles to
    /// the circulation's onshore direction, sites it blows offshore at
    /// and drift against the bearing included. Many bounds are at or
    /// below 0, so the pair is culled at a peak of `0.0`.
    #[test]
    fn the_onshore_bound_bounds_every_component_it_is_given_for() {
        let (mut bounded, mut at_zero) = (0, 0);
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
            let coriolis = steps.iter().map(|s| s.abs_coriolis);
            let table = BoundTable::new(
                &field,
                steps[0].motion.motion_06,
                coriolis.clone().fold(f64::INFINITY, f64::min),
                coriolis.fold(0.0, f64::max),
            );
            let min_norm_km = MIN_BEARING_NORM * EARTH_RADIUS_KM;
            for _ in 0..32 {
                let k = rng.below(steps.len() as u64) as usize;
                let step = &steps[k];
                let onshore = match rng.below(3) {
                    0 => heading,
                    1 => heading + 180.0,
                    _ => rng.range_f64(0.0, 360.0),
                };
                // The circulation blows toward `onshore` at sites bearing
                // φ from the centre, away from it at φ + 180°, and across
                // it ±90° from φ.
                let phi = 90.0 + INFLOW_ANGLE_DEG + onshore;
                let bearing = match rng.below(4) {
                    0 => phi + 90.0 + rng.range_f64(-1e-6, 1e-6),
                    1 => phi - 90.0 + rng.range_f64(-1e-6, 1e-6),
                    2 => phi + 180.0 + rng.range_f64(-60.0, 60.0),
                    _ => rng.range_f64(0.0, 360.0),
                };
                let km = match rng.below(6) {
                    0 => 0.0,
                    1 => rng.range_f64(0.0, 1e-3),
                    2 => min_norm_km * rng.range_f64(1.0 - 1e-6, 1.0 + 1e-6),
                    3 => s.rmax_km * rng.range_f64(0.99, 1.01),
                    4 => GATE_KM - rng.range_f64(0.0, 1.0),
                    _ => rng.range_f64(0.0, GATE_KM),
                };
                let pos = step.center.pos().destination(bearing.rem_euclid(360.0), km);
                let sites = ScanSites::new([(pos, PeakOf::Toward(onshore.rem_euclid(360.0)))]);
                let site = &sites.sites[0];
                let c2 = chord2(&step.unit, &site.unit);
                let Some(bound) = site.onshore_bound(step, &field, &table, c2) else {
                    continue;
                };
                let wind = s.wind_field(k as f64).unwrap();
                if step.center.distance_km(&site.trig) >= GATE_KM {
                    continue;
                }
                let value = wind
                    .wind_at(step.center.pos(), pos)
                    .component_toward(onshore.rem_euclid(360.0));
                assert!(value <= bound, "k {k}, {pos}: {value} > {bound}");
                bounded += 1;
                at_zero += u32::from(bound <= 0.0);
            }
        });
        assert!(bounded > 5000, "only {bounded} pairs bounded");
        assert!(at_zero > 2500, "only {at_zero} bounds at or below 0");
        // A speed site is never bounded so.
        let s = storm(StormTrack::straight(LatLon::new(19.2, -158.35), 5.0, 6.0, 48.0).unwrap());
        let step = s.passage(1.0).next().unwrap();
        let field = StormField::new(&s).unwrap();
        let table = BoundTable::new(&field, 3.6, step.abs_coriolis, step.abs_coriolis);
        let site = &one_site(step.center.pos().destination(0.0, 100.0)).sites[0];
        let c2 = chord2(&step.unit, &site.unit);
        assert!(site.onshore_bound(&step, &field, &table, c2).is_none());
    }

    /// Each tabled radius's `x`, a product of the ratio's power, is
    /// within `1e-12` relative of the `powf` at that radius.
    #[test]
    fn the_tabled_powers_match_powf() {
        cases(256, |rng| {
            let (rmax, b) = (rng.range_f64(5.0, 80.0), rng.range_f64(0.6, 3.4));
            let rows: Vec<(f64, f64)> = radii(rmax, b).collect();
            assert!(!rows.is_empty() && rows.len() <= TABLE_ROWS);
            for (r, x) in rows {
                let want = (rmax / r).powf(b);
                assert!(
                    (x - want).abs() <= 1e-12 * want,
                    "r {r}: {x} against {want}"
                );
            }
        });
    }

    #[test]
    fn the_bound_table_is_non_increasing_and_bounds_every_speed_past_its_radius() {
        // The suffix max orders even rows that arrive out of order.
        let row = |bound, chord2| BoundRow {
            radius_km: chord2,
            chord2,
            speed: bound,
            v_hi: bound,
            v_lo: 0.0,
        };
        let table = BoundTable::from_rows(vec![
            row(3.0, 1.0),
            row(5.0, 2.0),
            row(f64::NAN, 3.0),
            row(1.0, 4.0),
        ]);
        let want: Vec<f64> = vec![f64::INFINITY; 3].into_iter().chain([1.0]).collect();
        let column = |pick: fn(&BoundRow) -> f64| table.rows.iter().map(pick).collect::<Vec<_>>();
        assert_eq!(column(|r| r.speed), want);
        assert_eq!(column(|r| r.v_hi), want);
        assert_eq!(table.limit(1.0), 4.0);
        assert_eq!(table.limit(0.5), chord2_limit(GATE_KM));
        // Every storm speed at distance r, at a centre whose |f| is at
        // least the floor's and moving at most the table's fastest
        // motion, is at most the bound of each tabled radius at or
        // below r, and so is its `v_rot`. Where |f| is also at most the
        // ceiling's, that `v_rot` is at least the lower bound of each
        // tabled radius at or past r.
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
            let ceiling_deg = match rng.below(3) {
                0 => floor_deg,
                _ => rng.range_f64(floor_deg, 75.0),
            };
            let f_at = |deg: f64| coriolis_at(deg.to_radians().sin()).abs();
            let table = BoundTable::new(
                &StormField::new(&s).unwrap(),
                0.6 * max_motion,
                f_at(floor_deg),
                f_at(ceiling_deg),
            );
            let last = table.rows.last().unwrap();
            assert_eq!(last.radius_km, GATE_KM, "the last row is the gate's");
            for _ in 0..40 {
                let lat = match rng.below(4) {
                    0 => floor_deg,
                    1 => ceiling_deg,
                    _ => floor_deg + (ceiling_deg - floor_deg) * rng.unit_f64(),
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
                // Just past or short of a tabled radius, where its rows
                // are tightest, or anywhere in the table's span.
                let radius = table.rows[rng.below(table.rows.len() as u64) as usize].radius_km;
                let r = match rng.below(3) {
                    0 => (radius * (1.0 + 1e-8)).min(GATE_KM),
                    1 => (radius * (1.0 - 1e-8)).max(s.rmax_km),
                    _ => rng.range_f64(s.rmax_km, GATE_KM),
                };
                let center = LatLon::new(lat, -158.0);
                let speed = f.wind_at(center, center.destination(rng.range_f64(0.0, 360.0), r));
                let v_rot = f.gradient_wind_ms(r);
                for row in &table.rows {
                    if row.radius_km <= r * (1.0 - 1e-9) {
                        assert!(speed.speed_ms <= row.speed, "r {r}: {speed:?} > {row:?}");
                        assert!(v_rot <= row.v_hi, "r {r}: {v_rot} > {row:?}");
                    }
                    if row.radius_km >= r * (1.0 + 1e-9) {
                        assert!(v_rot >= row.v_lo, "r {r}: {v_rot} < {row:?}");
                    }
                }
            }
        });
    }
}
