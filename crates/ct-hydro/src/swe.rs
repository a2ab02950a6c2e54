//! 2-D depth-averaged shallow-water surge solver.
//!
//! This is the laptop-scale equivalent of the ADCIRC run that produced
//! the paper's hurricane realizations: an explicit finite-difference
//! solver for the shallow-water equations with wind stress, atmospheric
//! pressure-gradient forcing, Manning bottom friction, and
//! wetting/drying, run over the synthetic Oahu DEM.
//!
//! The solver is deliberately first-order and robust rather than
//! high-order: the analysis only consumes *peak* coastal water levels,
//! and the parametric model ([`crate::ParametricSurge`]) is calibrated
//! against it. See `EXPERIMENTS.md` for the agreement record.

use crate::ensemble::StormParams;
use crate::error::HydroError;
use ct_geo::{Dem, EnuKm, Grid, Projection};

/// Water density (kg/m³).
const RHO_WATER: f64 = 1025.0;
/// Gravitational acceleration (m/s²).
const G: f64 = 9.81;

/// Configuration of the shallow-water solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShallowWaterConfig {
    /// Solver cell size, km (the DEM is resampled to this resolution).
    pub cell_km: f64,
    /// CFL number used to pick the time step (0 < cfl < 1).
    pub cfl: f64,
    /// Wind/pressure forcing refresh interval, simulated minutes.
    pub forcing_update_minutes: f64,
    /// Manning roughness coefficient for bottom friction.
    pub manning_n: f64,
    /// Minimum water depth (m) for a cell to be considered wet.
    pub dry_tolerance_m: f64,
    /// Bathymetry is clipped to this depth (m); surge dynamics are a
    /// nearshore phenomenon and clipping keeps the time step usable.
    pub max_depth_m: f64,
    /// Hours simulated before/after the storm's closest approach to
    /// the domain centre.
    pub window_before_hours: f64,
    /// See `window_before_hours`.
    pub window_after_hours: f64,
}

impl Default for ShallowWaterConfig {
    fn default() -> Self {
        Self {
            cell_km: 1.5,
            cfl: 0.35,
            forcing_update_minutes: 10.0,
            manning_n: 0.025,
            dry_tolerance_m: 0.05,
            max_depth_m: 300.0,
            window_before_hours: 12.0,
            window_after_hours: 6.0,
        }
    }
}

/// Result of a surge simulation: the envelope of maximum water-surface
/// elevation reached in every cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SurgeOutcome {
    /// Maximum water-surface elevation (m above MSL) per cell; `NAN`
    /// for cells that never wetted.
    pub max_eta: Grid<f64>,
    /// Bed elevation used by the solver (m, negative = sea floor).
    pub bed: Grid<f64>,
    /// Number of time steps executed.
    pub steps: usize,
    /// Time step used (s).
    pub dt_s: f64,
    /// Peak water speed observed (m/s) — a stability diagnostic.
    pub max_speed_ms: f64,
}

impl SurgeOutcome {
    /// Maximum water level at a local point (m above MSL), `None`
    /// outside the domain or where the cell never wetted.
    pub fn water_level_at(&self, p: EnuKm) -> Option<f64> {
        let (c, r) = self.max_eta.cell_of(p)?;
        let v = *self.max_eta.get(c, r)?;
        if v.is_nan() {
            None
        } else {
            Some(v)
        }
    }

    /// Peak water-surface elevation over the *sea* cells within
    /// `radius_km` of `p` — the coastal surge reading. Land cells are
    /// excluded: a briefly-wetted bluff records a water level near its
    /// own ground elevation, which is a splash artifact, not surge.
    pub fn coastal_peak_near(&self, p: EnuKm, radius_km: f64) -> Option<f64> {
        let reach = (radius_km / self.max_eta.cell_km()).ceil() as isize;
        let (c0, r0) = self.max_eta.cell_of(p)?;
        let (cols, rows) = (self.max_eta.cols() as isize, self.max_eta.rows() as isize);
        let mut best: Option<f64> = None;
        for dr in -reach..=reach {
            for dc in -reach..=reach {
                let (c, r) = (c0 as isize + dc, r0 as isize + dr);
                if c < 0 || r < 0 || c >= cols || r >= rows {
                    continue;
                }
                let (c, r) = (c as usize, r as usize);
                if *self.bed.get(c, r).expect("in range") >= 0.0 {
                    continue;
                }
                let v = *self.max_eta.get(c, r).expect("in range");
                if !v.is_nan() {
                    best = Some(best.map_or(v, |b: f64| b.max(v)));
                }
            }
        }
        best
    }
}

/// External forcing applied to the water column.
pub trait Forcing {
    /// Wind stress vector (N/m², east and north components) at local
    /// point `p` and simulation time `t_s` seconds.
    fn wind_stress(&self, t_s: f64, p: EnuKm) -> (f64, f64);

    /// Atmospheric pressure (Pa) at `p`, `t_s`.
    fn pressure_pa(&self, _t_s: f64, _p: EnuKm) -> f64 {
        101_000.0
    }

    /// Still-water offset (tide), m.
    fn tide_m(&self) -> f64 {
        0.0
    }

    /// Initial free-surface perturbation (m) added on top of the
    /// still-water level at `p`. Defaults to flat; validation cases
    /// (seiche oscillation) override it.
    fn initial_eta_m(&self, _p: EnuKm) -> f64 {
        0.0
    }

    /// Simulated window `(start_s, end_s)`.
    fn window_s(&self) -> (f64, f64);
}

/// Constant uniform wind stress — used for validation tests (wind
/// setup in a closed basin has a textbook steady-state answer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformWind {
    /// Eastward wind stress, N/m².
    pub tau_east: f64,
    /// Northward wind stress, N/m².
    pub tau_north: f64,
    /// Duration to simulate, s.
    pub duration_s: f64,
}

impl Forcing for UniformWind {
    fn wind_stress(&self, _t_s: f64, _p: EnuKm) -> (f64, f64) {
        (self.tau_east, self.tau_north)
    }

    fn window_s(&self) -> (f64, f64) {
        (0.0, self.duration_s)
    }
}

/// Hurricane forcing derived from [`StormParams`].
#[derive(Debug, Clone)]
pub struct StormForcing<'a> {
    storm: &'a StormParams,
    projection: Projection,
    window_s: (f64, f64),
}

impl<'a> StormForcing<'a> {
    /// Builds forcing for `storm` over a window of
    /// `[ca - before, ca + after]` hours around the storm's closest
    /// approach to `domain_center`.
    pub fn new(
        storm: &'a StormParams,
        projection: Projection,
        domain_center: EnuKm,
        before_hours: f64,
        after_hours: f64,
    ) -> Self {
        let center_ll = projection.to_latlon(domain_center);
        let (t_ca, _) = storm.track.closest_approach(center_ll, 0.25);
        let (t0, t1) = storm.track.time_span_hours();
        let start = (t_ca - before_hours).max(t0);
        let end = (t_ca + after_hours).min(t1);
        Self {
            storm,
            projection,
            window_s: (start * 3600.0, end * 3600.0),
        }
    }

    fn drag_coefficient(speed: f64) -> f64 {
        ((0.8 + 0.065 * speed) * 1e-3).min(2.4e-3)
    }
}

impl Forcing for StormForcing<'_> {
    fn wind_stress(&self, t_s: f64, p: EnuKm) -> (f64, f64) {
        let t_h = t_s / 3600.0;
        let center = self.storm.track.position(t_h);
        let Ok(field) = self.storm.wind_field(t_h) else {
            return (0.0, 0.0);
        };
        let w = field.wind_at(center, self.projection.to_latlon(p));
        let cd = Self::drag_coefficient(w.speed_ms);
        let tau = crate::wind::AIR_DENSITY * cd * w.speed_ms * w.speed_ms;
        let dir = w.toward_deg.to_radians();
        (tau * dir.sin(), tau * dir.cos())
    }

    fn pressure_pa(&self, t_s: f64, p: EnuKm) -> f64 {
        let t_h = t_s / 3600.0;
        let center = self.storm.track.position(t_h);
        let r_km = center.distance_km(self.projection.to_latlon(p));
        let Ok(field) = self.storm.wind_field(t_h) else {
            return 101_000.0;
        };
        field.pressure_hpa(r_km) * 100.0
    }

    fn tide_m(&self) -> f64 {
        self.storm.tide_m
    }

    fn window_s(&self) -> (f64, f64) {
        self.window_s
    }
}

/// The explicit shallow-water solver.
#[derive(Debug, Clone)]
pub struct ShallowWaterSolver {
    config: ShallowWaterConfig,
    bed: Grid<f64>,
    projection: Projection,
}

impl ShallowWaterSolver {
    /// Builds a solver over a DEM, resampling the bed to the solver
    /// resolution and clipping deep bathymetry.
    pub fn new(dem: &Dem, config: ShallowWaterConfig) -> Self {
        let src = dem.elevation_grid();
        let (ext_e, ext_n) = src.extent_km();
        let cols = (ext_e / config.cell_km).floor().max(4.0) as usize;
        let rows = (ext_n / config.cell_km).floor().max(4.0) as usize;
        let bed = Grid::from_fn(cols, rows, src.origin(), config.cell_km, |p| {
            src.sample(p)
                .unwrap_or(-config.max_depth_m)
                .max(-config.max_depth_m)
        })
        .expect("non-empty solver grid");
        Self {
            config,
            bed,
            projection: *dem.projection(),
        }
    }

    /// Builds a solver directly from a bed grid (used by validation
    /// tests with analytic basins).
    pub fn from_bed(bed: Grid<f64>, projection: Projection, config: ShallowWaterConfig) -> Self {
        Self {
            config,
            bed,
            projection,
        }
    }

    /// The solver's bed grid.
    pub fn bed(&self) -> &Grid<f64> {
        &self.bed
    }

    /// The solver's configuration.
    pub fn config(&self) -> &ShallowWaterConfig {
        &self.config
    }

    /// The projection tying the bed grid to geographic coordinates.
    pub fn projection(&self) -> &Projection {
        &self.projection
    }

    /// Simulates a hurricane and returns the surge envelope.
    ///
    /// # Errors
    ///
    /// Returns [`HydroError::SolverDiverged`] if the state becomes
    /// non-finite.
    pub fn run(&self, storm: &StormParams) -> Result<SurgeOutcome, HydroError> {
        let (ext_e, ext_n) = self.bed.extent_km();
        let center = EnuKm::new(
            self.bed.origin().east + ext_e / 2.0,
            self.bed.origin().north + ext_n / 2.0,
        );
        let forcing = StormForcing::new(
            storm,
            self.projection,
            center,
            self.config.window_before_hours,
            self.config.window_after_hours,
        );
        self.run_forced(&forcing)
    }

    /// Simulates with arbitrary forcing.
    ///
    /// # Errors
    ///
    /// Returns [`HydroError::SolverDiverged`] if the state becomes
    /// non-finite.
    pub fn run_forced(&self, forcing: &dyn Forcing) -> Result<SurgeOutcome, HydroError> {
        Ok(self.simulate(forcing, None)?.0)
    }

    /// Simulates with arbitrary forcing, additionally recording the
    /// water-surface elevation at `probe` every time step — the
    /// time-series view used by the numerical validation tests (e.g.
    /// the seiche-period check against Merian's formula).
    ///
    /// Returns the surge outcome and `(t_s, eta_m)` samples.
    ///
    /// # Errors
    ///
    /// Returns [`HydroError::SolverDiverged`] if the state becomes
    /// non-finite.
    pub fn run_forced_with_probe(
        &self,
        forcing: &dyn Forcing,
        probe: EnuKm,
    ) -> Result<(SurgeOutcome, Vec<(f64, f64)>), HydroError> {
        self.simulate(forcing, Some(probe))
    }

    /// The time-stepping kernel: full row-major sweeps over every cell,
    /// with the forcing sampled per cell. The step-local buffers are
    /// allocated once per run and swapped or re-zeroed between steps.
    fn simulate(
        &self,
        forcing: &dyn Forcing,
        probe: Option<EnuKm>,
    ) -> Result<(SurgeOutcome, Vec<(f64, f64)>), HydroError> {
        let cfg = &self.config;
        let cols = self.bed.cols();
        let rows = self.bed.rows();
        let n = cols * rows;
        let dx = cfg.cell_km * 1000.0;
        let bed = self.bed.as_slice();
        let tide = forcing.tide_m();

        // State: water-surface elevation and velocities at cell centres.
        let mut eta: Vec<f64> = Vec::with_capacity(n);
        for r in 0..rows {
            for c2 in 0..cols {
                let z = bed[r * cols + c2];
                if z < tide {
                    let p = self.bed.cell_center(c2, r);
                    eta.push(tide + forcing.initial_eta_m(p));
                } else {
                    eta.push(z);
                }
            }
        }
        let mut u = vec![0.0f64; n];
        let mut v = vec![0.0f64; n];
        let mut max_eta = vec![f64::NAN; n];
        let mut tau_e = vec![0.0f64; n];
        let mut tau_n = vec![0.0f64; n];
        let mut p_atm = vec![101_000.0f64; n];
        // Step-local scratch: the momentum update writes every cell of
        // `new_u`/`new_v`, `new_eta` is refilled from `eta` before the
        // fluxes land, and the smoothing increments are zeroed after use.
        let mut new_u = vec![0.0f64; n];
        let mut new_v = vec![0.0f64; n];
        let mut new_eta = vec![0.0f64; n];
        let mut d_eta = vec![0.0f64; n];
        let mut du = vec![0.0f64; n];
        let mut dv = vec![0.0f64; n];

        // Time step from the (clipped) deepest water.
        let max_h = bed.iter().map(|&z| (tide - z).max(0.0)).fold(0.0, f64::max);
        let c = (G * max_h).sqrt().max(1.0);
        let dt = (cfg.cfl * dx / (c + 10.0)).max(0.05);
        let (t_start, t_end) = forcing.window_s();
        let steps = ((t_end - t_start) / dt).ceil() as usize;
        let forcing_every = ((cfg.forcing_update_minutes * 60.0 / dt).round() as usize).max(1);
        let idx = |cc: usize, rr: usize| rr * cols + cc;
        let probe_idx = probe
            .and_then(|p| self.bed.cell_of(p))
            .map(|(c, r)| idx(c, r));
        let mut series: Vec<(f64, f64)> = Vec::new();
        let mut max_speed: f64 = 0.0;

        for step in 0..steps {
            let t = t_start + step as f64 * dt;
            if step % forcing_every == 0 {
                for r in 0..rows {
                    for c2 in 0..cols {
                        let i = idx(c2, r);
                        let p = self.bed.cell_center(c2, r);
                        let (te, tn) = forcing.wind_stress(t, p);
                        tau_e[i] = te;
                        tau_n[i] = tn;
                        p_atm[i] = forcing.pressure_pa(t, p);
                    }
                }
            }

            // Momentum update on wet cells.
            for r in 0..rows {
                for c2 in 0..cols {
                    let i = idx(c2, r);
                    let h = eta[i] - bed[i];
                    if h <= cfg.dry_tolerance_m {
                        new_u[i] = 0.0;
                        new_v[i] = 0.0;
                        continue;
                    }
                    let grad = |a: usize, b: usize, d: f64| {
                        // Surface + pressure gradient between wet cells;
                        // one-sided near dry neighbours.
                        (eta[b] - eta[a] + (p_atm[b] - p_atm[a]) / (RHO_WATER * G)) / d
                    };
                    let wet = |j: usize| eta[j] - bed[j] > cfg.dry_tolerance_m;
                    // East gradient.
                    let ge = {
                        let left = c2 > 0 && wet(idx(c2 - 1, r));
                        let right = c2 + 1 < cols && wet(idx(c2 + 1, r));
                        match (left, right) {
                            (true, true) => grad(idx(c2 - 1, r), idx(c2 + 1, r), 2.0 * dx),
                            (true, false) => grad(idx(c2 - 1, r), i, dx),
                            (false, true) => grad(i, idx(c2 + 1, r), dx),
                            (false, false) => 0.0,
                        }
                    };
                    let gn = {
                        let south = r > 0 && wet(idx(c2, r - 1));
                        let north = r + 1 < rows && wet(idx(c2, r + 1));
                        match (south, north) {
                            (true, true) => grad(idx(c2, r - 1), idx(c2, r + 1), 2.0 * dx),
                            (true, false) => grad(idx(c2, r - 1), i, dx),
                            (false, true) => grad(i, idx(c2, r + 1), dx),
                            (false, false) => 0.0,
                        }
                    };
                    let h_eff = h.max(0.5);
                    let speed = (u[i] * u[i] + v[i] * v[i]).sqrt();
                    // Manning friction, semi-implicit for stability.
                    let cf = G * cfg.manning_n * cfg.manning_n * speed / h_eff.powf(4.0 / 3.0);
                    let denom = 1.0 + dt * cf;
                    new_u[i] = (u[i] + dt * (-G * ge + tau_e[i] / (RHO_WATER * h_eff))) / denom;
                    new_v[i] = (v[i] + dt * (-G * gn + tau_n[i] / (RHO_WATER * h_eff))) / denom;
                    // Hard speed clamp: keeps the explicit scheme from
                    // blowing up during violent wetting fronts.
                    let sp = (new_u[i] * new_u[i] + new_v[i] * new_v[i]).sqrt();
                    if sp > 15.0 {
                        new_u[i] *= 15.0 / sp;
                        new_v[i] *= 15.0 / sp;
                    }
                    max_speed = max_speed.max(sp.min(15.0));
                }
            }
            std::mem::swap(&mut u, &mut new_u);
            std::mem::swap(&mut v, &mut new_v);

            // Continuity: upwind face fluxes with overtopping.
            new_eta.copy_from_slice(&eta);
            for r in 0..rows {
                for c2 in 0..cols {
                    let i = idx(c2, r);
                    // East face between i and i+1.
                    if c2 + 1 < cols {
                        let j = idx(c2 + 1, r);
                        let u_face = 0.5 * (u[i] + u[j]);
                        let sill = bed[i].max(bed[j]);
                        let h_face = if u_face > 0.0 {
                            (eta[i] - sill).max(0.0)
                        } else {
                            (eta[j] - sill).max(0.0)
                        };
                        let flux = u_face * h_face * dt / dx;
                        new_eta[i] -= flux;
                        new_eta[j] += flux;
                    }
                    // North face between i and i+cols.
                    if r + 1 < rows {
                        let j = idx(c2, r + 1);
                        let v_face = 0.5 * (v[i] + v[j]);
                        let sill = bed[i].max(bed[j]);
                        let h_face = if v_face > 0.0 {
                            (eta[i] - sill).max(0.0)
                        } else {
                            (eta[j] - sill).max(0.0)
                        };
                        let flux = v_face * h_face * dt / dx;
                        new_eta[i] -= flux;
                        new_eta[j] += flux;
                    }
                }
            }
            std::mem::swap(&mut eta, &mut new_eta);

            // Conservative smoothing: a collocated (A-grid) scheme
            // supports checkerboard modes; exchanging a small fraction
            // of the surface difference across wet-wet faces damps
            // them without losing mass. Velocities get plain
            // diffusion.
            let smooth = 0.02;
            for r in 0..rows {
                for c2 in 0..cols {
                    let i = idx(c2, r);
                    if eta[i] - bed[i] <= cfg.dry_tolerance_m {
                        continue;
                    }
                    if c2 + 1 < cols {
                        let j = idx(c2 + 1, r);
                        if eta[j] - bed[j] > cfg.dry_tolerance_m {
                            let ex = smooth * (eta[j] - eta[i]);
                            d_eta[i] += ex;
                            d_eta[j] -= ex;
                        }
                    }
                    if r + 1 < rows {
                        let j = idx(c2, r + 1);
                        if eta[j] - bed[j] > cfg.dry_tolerance_m {
                            let ex = smooth * (eta[j] - eta[i]);
                            d_eta[i] += ex;
                            d_eta[j] -= ex;
                        }
                    }
                }
            }
            for i in 0..n {
                eta[i] += d_eta[i];
                d_eta[i] = 0.0;
            }
            for r in 0..rows {
                for c2 in 0..cols {
                    let i = idx(c2, r);
                    let mut su = 0.0;
                    let mut sv = 0.0;
                    let mut count = 0.0;
                    let mut visit = |j: usize| {
                        su += u[j];
                        sv += v[j];
                        count += 1.0;
                    };
                    if c2 > 0 {
                        visit(idx(c2 - 1, r));
                    }
                    if c2 + 1 < cols {
                        visit(idx(c2 + 1, r));
                    }
                    if r > 0 {
                        visit(idx(c2, r - 1));
                    }
                    if r + 1 < rows {
                        visit(idx(c2, r + 1));
                    }
                    if count > 0.0 {
                        du[i] = 0.05 * (su / count - u[i]);
                        dv[i] = 0.05 * (sv / count - v[i]);
                    }
                }
            }
            for i in 0..n {
                u[i] += du[i];
                v[i] += dv[i];
                du[i] = 0.0;
                dv[i] = 0.0;
            }

            // Open-boundary relaxation toward the tidal still level.
            for r in 0..rows {
                for c2 in [0usize, cols - 1] {
                    let i = idx(c2, r);
                    if bed[i] < tide {
                        eta[i] += 0.2 * (tide - eta[i]);
                    }
                }
            }
            for c2 in 0..cols {
                for r in [0usize, rows - 1] {
                    let i = idx(c2, r);
                    if bed[i] < tide {
                        eta[i] += 0.2 * (tide - eta[i]);
                    }
                }
            }

            // Track the wet envelope; detect divergence cheaply.
            let mut any_nonfinite = false;
            for i in 0..n {
                let h = eta[i] - bed[i];
                // `h > tol` proves eta[i] is finite here, so "NaN or
                // smaller" is exactly the old `!(max >= eta)` test and
                // the update collapses to a plain store.
                if h > cfg.dry_tolerance_m && (max_eta[i].is_nan() || max_eta[i] < eta[i]) {
                    max_eta[i] = eta[i];
                }
                if !eta[i].is_finite() {
                    any_nonfinite = true;
                }
            }
            if any_nonfinite {
                return Err(HydroError::SolverDiverged { at_time_s: t });
            }
            if let Some(pi) = probe_idx {
                series.push((t, eta[pi]));
            }
        }

        let mut max_grid = self.bed.map(|_| f64::NAN);
        max_grid.as_mut_slice().copy_from_slice(&max_eta);
        ct_obs::add(ct_obs::names::SWE_SOLVES, 1);
        ct_obs::add(ct_obs::names::SWE_STEPS, steps as u64);
        ct_obs::histogram(
            ct_obs::names::SWE_STEPS_PER_SOLVE,
            &ct_obs::names::SWE_STEPS_PER_SOLVE_BOUNDS,
        )
        .observe(steps as f64);
        Ok((
            SurgeOutcome {
                max_eta: max_grid,
                bed: self.bed.clone(),
                steps,
                dt_s: dt,
                max_speed_ms: max_speed,
            },
            series,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::track::StormTrack;
    use ct_geo::LatLon;

    fn flat_basin(depth_m: f64) -> (Grid<f64>, Projection) {
        // A closed rectangular basin: walls (land) around the rim.
        let cols = 30;
        let rows = 10;
        let grid = Grid::from_fn(cols, rows, EnuKm::new(0.0, 0.0), 1.0, |p| {
            let c = (p.east / 1.0) as usize;
            let r = (p.north / 1.0) as usize;
            if c == 0 || r == 0 || c == cols - 1 || r == rows - 1 {
                5.0
            } else {
                -depth_m
            }
        })
        .unwrap();
        (grid, Projection::new(LatLon::new(21.45, -158.0)))
    }

    fn quiet_config() -> ShallowWaterConfig {
        ShallowWaterConfig {
            cell_km: 1.0,
            ..ShallowWaterConfig::default()
        }
    }

    /// Frictionless tilted initial surface — excites the fundamental
    /// seiche mode. Used by the Merian-period and probe-digest
    /// tests.
    #[derive(Debug)]
    struct Tilt;
    impl Forcing for Tilt {
        fn wind_stress(&self, _: f64, _: EnuKm) -> (f64, f64) {
            (0.0, 0.0)
        }
        fn initial_eta_m(&self, p: EnuKm) -> f64 {
            // Linear tilt across the interior (1..29 km): +-20 cm.
            0.2 * (p.east - 15.0) / 14.0
        }
        fn window_s(&self) -> (f64, f64) {
            (0.0, 10_000.0)
        }
    }

    /// 64-bit FNV-1a over a stream of words.
    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for w in words {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Digest of every number an outcome carries: the step count, then
    /// the bit patterns of `dt_s`, `max_speed_ms`, the bed and the
    /// maximum-elevation envelope.
    fn outcome_digest(out: &SurgeOutcome) -> u64 {
        let scalars = [
            out.steps as u64,
            out.dt_s.to_bits(),
            out.max_speed_ms.to_bits(),
        ];
        let grids = out.bed.as_slice().iter().chain(out.max_eta.as_slice());
        fnv1a(scalars.into_iter().chain(grids.map(|x| x.to_bits())))
    }

    /// Digest of a probe series: `(t_s, eta_m)` bit patterns in order.
    fn series_digest(series: &[(f64, f64)]) -> u64 {
        fnv1a(series.iter().flat_map(|&(t, e)| [t.to_bits(), e.to_bits()]))
    }

    #[test]
    fn lake_at_rest_stays_at_rest() {
        let (bed, proj) = flat_basin(20.0);
        let solver = ShallowWaterSolver::from_bed(bed, proj, quiet_config());
        let calm = UniformWind {
            tau_east: 0.0,
            tau_north: 0.0,
            duration_s: 1800.0,
        };
        let out = solver.run_forced(&calm).unwrap();
        for (_, _, &m) in out.max_eta.iter() {
            if !m.is_nan() {
                assert!(m.abs() < 1e-6, "lake at rest perturbed: {m}");
            }
        }
        assert!(out.max_speed_ms < 1e-6);
    }

    #[test]
    fn wind_setup_tilts_the_basin() {
        // Steady eastward wind over a closed basin piles water up at
        // the east wall: Δη ≈ τ L / (ρ g H).
        let depth = 10.0;
        let (bed, proj) = flat_basin(depth);
        let solver = ShallowWaterSolver::from_bed(bed, proj, quiet_config());
        let tau = 1.0; // strong gale
        let wind = UniformWind {
            tau_east: tau,
            tau_north: 0.0,
            duration_s: 4.0 * 3600.0,
        };
        let out = solver.run_forced(&wind).unwrap();
        let west = out.water_level_at(EnuKm::new(2.5, 5.5)).unwrap();
        let east = out.water_level_at(EnuKm::new(27.5, 5.5)).unwrap();
        assert!(east > west, "east {east} west {west}");
        let expected = tau * 26_000.0 / (RHO_WATER * G * depth);
        let measured = east; // west end max is its initial 0 level
        assert!(
            measured > 0.3 * expected && measured < 3.0 * expected,
            "setup {measured}, analytic scale {expected}"
        );
    }

    #[test]
    fn mass_is_conserved_in_closed_basin() {
        let (bed, proj) = flat_basin(10.0);
        let solver = ShallowWaterSolver::from_bed(bed.clone(), proj, quiet_config());
        let wind = UniformWind {
            tau_east: 0.5,
            tau_north: 0.2,
            duration_s: 3600.0,
        };
        // Boundary relaxation only applies to sea cells on the domain
        // edge; the basin walls are land, so volume is conserved up to
        // the relaxation (walls block it) and floating-point drift.
        let out = solver.run_forced(&wind).unwrap();
        assert!(out.steps > 100);
        // The envelope must be bounded: no runaway growth.
        let (_, max) = {
            let vals: Vec<f64> = out
                .max_eta
                .as_slice()
                .iter()
                .copied()
                .filter(|v| !v.is_nan())
                .collect();
            (
                vals.iter().copied().fold(f64::INFINITY, f64::min),
                vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            )
        };
        assert!(max < 5.0, "unbounded surge in small basin: {max}");
    }

    #[test]
    fn seiche_period_matches_merians_formula() {
        // Fundamental standing wave in a closed rectangular basin:
        // T = 2L / sqrt(gH). Basin: 28 usable km, H = 20 m =>
        // c = 14 m/s, T = 4000 s. Initialize a tilted surface and
        // measure the oscillation period at the east end via upward
        // zero crossings.
        let depth = 20.0;
        let (bed, proj) = flat_basin(depth);
        let solver = ShallowWaterSolver::from_bed(bed, proj, quiet_config());

        let probe = EnuKm::new(27.5, 5.5); // near the east wall
        let (_, series) = solver.run_forced_with_probe(&Tilt, probe).unwrap();
        assert!(series.len() > 200, "need a usable time series");

        // Upward zero crossings of the probe elevation.
        let mut crossings = Vec::new();
        for w in series.windows(2) {
            let ((_, a), (t, b)) = (w[0], w[1]);
            if a <= 0.0 && b > 0.0 {
                crossings.push(t);
            }
        }
        assert!(
            crossings.len() >= 2,
            "no oscillation observed: {} crossings",
            crossings.len()
        );
        let periods: Vec<f64> = crossings.windows(2).map(|w| w[1] - w[0]).collect();
        let mean_period = periods.iter().sum::<f64>() / periods.len() as f64;
        let analytic = 2.0 * 28_000.0 / (9.81f64 * depth).sqrt();
        let rel = (mean_period - analytic).abs() / analytic;
        assert!(
            rel < 0.25,
            "seiche period {mean_period:.0} s vs Merian {analytic:.0} s (rel err {rel:.2})"
        );
    }

    #[test]
    fn tide_raises_still_water_level() {
        let (bed, proj) = flat_basin(10.0);
        let solver = ShallowWaterSolver::from_bed(bed, proj, quiet_config());
        #[derive(Debug)]
        struct TideOnly;
        impl Forcing for TideOnly {
            fn wind_stress(&self, _: f64, _: EnuKm) -> (f64, f64) {
                (0.0, 0.0)
            }
            fn tide_m(&self) -> f64 {
                0.3
            }
            fn window_s(&self) -> (f64, f64) {
                (0.0, 600.0)
            }
        }
        let out = solver.run_forced(&TideOnly).unwrap();
        let mid = out.water_level_at(EnuKm::new(15.5, 5.5)).unwrap();
        assert!((mid - 0.3).abs() < 0.05, "tide level {mid}");
    }

    // The digests below pin the kernel's output bit for bit, so any
    // change to the arithmetic or its order shows up here. Each was
    // measured identically from an active-set kernel and a row-major
    // sweep.

    #[test]
    fn flat_basin_winds_match_pinned_digests() {
        for (tau_east, tau_north, digest) in [
            (0.0, 0.0, 0xc429_d286_a3f5_9126_u64),
            (1.0, 0.0, 0x97d4_5d1e_6140_f342),
            (0.4, -0.7, 0x5bcc_1bdf_3d62_3d13),
        ] {
            let (bed, proj) = flat_basin(12.0);
            let solver = ShallowWaterSolver::from_bed(bed, proj, quiet_config());
            let wind = UniformWind {
                tau_east,
                tau_north,
                duration_s: 3600.0,
            };
            let out = solver.run_forced(&wind).unwrap();
            assert_eq!(
                outcome_digest(&out),
                digest,
                "wind ({tau_east}, {tau_north})"
            );
        }
    }

    #[test]
    fn wetting_front_matches_pinned_digest() {
        // Sloping beach: deep water in the west, a dry berm in the
        // east. Strong eastward wind drives the wetting front onto
        // initially-dry land.
        let cols = 40;
        let rows = 12;
        let grid = Grid::from_fn(cols, rows, EnuKm::new(0.0, 0.0), 1.0, |p| {
            let c = (p.east / 1.0) as usize;
            let r = (p.north / 1.0) as usize;
            if c == 0 || r == 0 || c == cols - 1 || r == rows - 1 {
                5.0
            } else {
                -8.0 + 9.0 * (c as f64) / (cols as f64)
            }
        })
        .unwrap();
        let proj = Projection::new(LatLon::new(21.45, -158.0));
        let solver = ShallowWaterSolver::from_bed(grid, proj, quiet_config());
        let wind = UniformWind {
            tau_east: 1.5,
            tau_north: 0.0,
            duration_s: 2.0 * 3600.0,
        };
        let out = solver.run_forced(&wind).unwrap();
        let wetted_land = out
            .max_eta
            .as_slice()
            .iter()
            .zip(out.bed.as_slice())
            .filter(|(m, &z)| !m.is_nan() && z > 0.0)
            .count();
        assert!(
            wetted_land > 0,
            "beach never wetted; test exercises nothing"
        );
        assert_eq!(outcome_digest(&out), 0x944c_6159_d866_f7d9);
    }

    #[test]
    fn probe_series_matches_pinned_digest() {
        let (bed, proj) = flat_basin(20.0);
        let solver = ShallowWaterSolver::from_bed(bed, proj, quiet_config());
        let probe = EnuKm::new(27.5, 5.5);
        let (out, series) = solver.run_forced_with_probe(&Tilt, probe).unwrap();
        assert_eq!(series.len(), out.steps);
        assert_eq!(outcome_digest(&out), 0xd2a7_66be_9285_3646);
        assert_eq!(series_digest(&series), 0xc87c_b364_765a_af45);
    }

    #[test]
    fn passing_storm_matches_pinned_digest() {
        // A hurricane passing the basin: exercises StormForcing's
        // per-cell wind_stress/pressure_pa calls.
        let (bed, proj) = flat_basin(15.0);
        let solver = ShallowWaterSolver::from_bed(bed, proj, quiet_config());
        let storm = StormParams {
            track: StormTrack::straight(LatLon::new(21.0, -158.3), 20.0, 6.0, 24.0)
                .expect("valid track"),
            central_pressure_hpa: 970.0,
            ambient_pressure_hpa: 1010.0,
            rmax_km: 40.0,
            b: 1.5,
            tide_m: 0.2,
        };
        let forcing = StormForcing::new(&storm, proj, EnuKm::new(15.0, 5.0), 2.0, 1.0);
        let out = solver.run_forced(&forcing).unwrap();
        assert!(out.max_speed_ms > 0.0, "storm produced no motion");
        assert_eq!(outcome_digest(&out), 0x0a5a_6bdb_1f51_3bb2);
    }
}
