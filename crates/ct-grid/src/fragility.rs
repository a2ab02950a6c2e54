//! Hurricane damage to the grid: wind fragility of transmission lines
//! and flood failure of substations.
//!
//! Lines fail with a logistic fragility curve in the peak gust along
//! the span (fragility-modelling practice per Panteli et al., one of
//! the paper's own citations); substations and plants fail when the
//! hazard model floods them above the switch height — the same
//! criterion the SCADA analysis uses.

use crate::network::{BusId, GridNetwork, LineId, OutageSet};
use ct_geo::LatLon;
use ct_hydro::{check_scan_step, HydroError, PeakOf, ScanSites, StormParams};
use std::collections::BTreeSet;

/// Fragility parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DamageModel {
    /// Gust speed (m/s) at which a line span fails with probability
    /// one half.
    pub line_v50_ms: f64,
    /// Logistic spread (m/s) of the line fragility curve.
    pub line_spread_ms: f64,
    /// Gust factor over sustained wind.
    pub gust_factor: f64,
    /// Seed for the per-line failure draws.
    pub seed: u64,
    /// Hours between wind samples along the storm passage.
    pub scan_step_hours: f64,
}

impl Default for DamageModel {
    fn default() -> Self {
        Self {
            line_v50_ms: 85.0,
            line_spread_ms: 8.0,
            gust_factor: 1.3,
            seed: 0xD4_11A6E,
            scan_step_hours: 1.0,
        }
    }
}

/// Damage drawn for one realization.
#[derive(Debug, Clone, PartialEq)]
pub struct DamageSample {
    /// Buses and lines out of service.
    pub outages: OutageSet,
    /// Failure probability evaluated per line (diagnostics, parallel
    /// to the line list).
    pub(crate) line_fail_probability: Vec<f64>,
    /// Peak gust evaluated per line (m/s).
    pub(crate) line_peak_gust_ms: Vec<f64>,
}

impl DamageModel {
    /// Failure probability for a peak gust, logistic in the gust
    /// speed.
    pub fn line_failure_probability(&self, gust_ms: f64) -> f64 {
        1.0 / (1.0 + (-(gust_ms - self.line_v50_ms) / self.line_spread_ms).exp())
    }

    /// The sites [`peak_winds`](Self::peak_winds) scans: each point's
    /// wind speed. Prepare them once and share them across storms.
    pub fn scan_sites(points: impl IntoIterator<Item = LatLon>) -> ScanSites {
        ScanSites::new(points.into_iter().map(|p| (p, PeakOf::Speed)))
    }

    /// The wind kernel: peak sustained wind (m/s) at every site over
    /// the storm passage, scanned at `scan_step_hours` intervals, in
    /// site order. One [`StormParams::peak_scan`]: the Holland field
    /// at every step, for every site within 400 km of the centre, and
    /// bit-identical to that scalar scan per site. An unphysical storm,
    /// whose every step's field errors, peaks at zero everywhere, as
    /// the scalar scan skips such steps.
    ///
    /// # Errors
    ///
    /// [`check_scan_step`]'s error when `scan_step_hours` is not finite
    /// and positive.
    pub fn peak_winds(
        &self,
        storm: &StormParams,
        sites: &ScanSites,
    ) -> Result<Vec<f64>, HydroError> {
        check_scan_step(self.scan_step_hours)?;
        Ok(storm
            .peak_scan(self.scan_step_hours, sites, None)
            .unwrap_or_else(|_| vec![0.0; sites.len()]))
    }

    /// Midpoints of every line span, in line order — the point set the
    /// fragility scan evaluates winds at. Exposed so callers sampling
    /// many storms can prepare its scan sites once.
    pub fn line_midpoints(grid: &GridNetwork) -> Vec<LatLon> {
        grid.lines()
            .iter()
            .map(|line| {
                let a = grid.buses()[line.from.0].pos;
                let b = grid.buses()[line.to.0].pos;
                LatLon::new((a.lat + b.lat) / 2.0, (a.lon + b.lon) / 2.0)
            })
            .collect()
    }

    /// Samples the grid damage for one realization: wind draws per
    /// line (deterministic in `(seed, realization_idx, line)`) from
    /// precomputed per-line peak winds (one entry per line, as returned
    /// by [`peak_winds`](Self::peak_winds) over the line midpoints, so
    /// callers sharing one set of midpoint sites across storms don't
    /// prepare it per realization), plus the flooded buses supplied by
    /// the hazard model.
    pub fn sample_with_peaks(
        &self,
        grid: &GridNetwork,
        flooded_bus_names: &BTreeSet<String>,
        realization_idx: usize,
        peaks: &[f64],
    ) -> DamageSample {
        let mut outages = OutageSet::none();
        for (i, bus) in grid.buses().iter().enumerate() {
            if flooded_bus_names.contains(&bus.name) {
                outages.buses.insert(BusId(i));
            }
        }
        let mut probs = Vec::with_capacity(grid.lines().len());
        let mut gusts = Vec::with_capacity(grid.lines().len());
        for (li, peak) in peaks.iter().enumerate() {
            let gust = self.gust_factor * peak;
            let p = self.line_failure_probability(gust);
            probs.push(p);
            gusts.push(gust);
            if hash_unit(self.seed, realization_idx as u64, li as u64) < p {
                outages.lines.insert(LineId(li));
            }
        }
        DamageSample {
            outages,
            line_fail_probability: probs,
            line_peak_gust_ms: gusts,
        }
    }
}

/// Deterministic uniform draw in `[0, 1)` from a hashed
/// `(seed, realization, element)` triple — the fragility sampler's
/// counter-based RNG, shared with the wind hazard model so per-asset
/// draws stay reproducible under any evaluation order or sharding.
pub fn fragility_draw(seed: u64, realization: u64, element: u64) -> f64 {
    hash_unit(seed, realization, element)
}

/// Deterministic uniform draw in `[0, 1)` from a hashed triple.
fn hash_unit(seed: u64, realization: u64, line: u64) -> f64 {
    let mut x = seed
        ^ realization.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ line.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_hydro::{StormTrack, TrackPoint};

    impl DamageModel {
        /// [`DamageModel::sample_with_peaks`] with the wind scan over the
        /// line midpoints done here.
        fn sample(
            &self,
            grid: &GridNetwork,
            storm: &StormParams,
            flooded_bus_names: &BTreeSet<String>,
            realization_idx: usize,
        ) -> Result<DamageSample, HydroError> {
            let midpoints = Self::scan_sites(Self::line_midpoints(grid));
            let peaks = self.peak_winds(storm, &midpoints)?;
            Ok(self.sample_with_peaks(grid, flooded_bus_names, realization_idx, &peaks))
        }
    }

    fn direct_hit() -> StormParams {
        StormParams {
            track: StormTrack::straight(LatLon::new(19.2, -158.35), 5.0, 6.0, 48.0).expect("valid"),
            central_pressure_hpa: 966.0,
            ambient_pressure_hpa: 1010.0,
            rmax_km: 35.0,
            b: 1.6,
            tide_m: 0.3,
        }
    }

    fn distant() -> StormParams {
        let mut s = direct_hit();
        s.track = StormTrack::straight(LatLon::new(19.2, -163.0), 0.0, 6.0, 48.0).unwrap();
        s
    }

    #[test]
    fn fragility_curve_shape() {
        let m = DamageModel::default();
        assert!(m.line_failure_probability(20.0) < 0.01);
        let p50 = m.line_failure_probability(m.line_v50_ms);
        assert!((p50 - 0.5).abs() < 1e-9);
        assert!(m.line_failure_probability(110.0) > 0.95);
    }

    #[test]
    fn direct_hit_damages_more_than_distant_storm() {
        let grid = crate::oahu::grid();
        let m = DamageModel::default();
        let none = BTreeSet::new();
        let hit = m.sample(&grid, &direct_hit(), &none, 0).unwrap();
        let miss = m.sample(&grid, &distant(), &none, 0).unwrap();
        let sum = |s: &DamageSample| s.line_fail_probability.iter().sum::<f64>();
        assert!(
            sum(&hit) > sum(&miss) + 0.5,
            "{} vs {}",
            sum(&hit),
            sum(&miss)
        );
        assert!(miss.outages.lines.is_empty(), "distant storm broke lines");
    }

    #[test]
    fn flooded_buses_propagate() {
        let grid = crate::oahu::grid();
        let m = DamageModel::default();
        let mut flooded = BTreeSet::new();
        flooded.insert("waiau-pp".to_string());
        let s = m.sample(&grid, &distant(), &flooded, 0).unwrap();
        let waiau = grid.bus_id("waiau-pp").unwrap();
        assert!(s.outages.buses.contains(&waiau));
        assert_eq!(s.outages.buses.len(), 1);
    }

    #[test]
    fn draws_are_deterministic_per_realization() {
        let grid = crate::oahu::grid();
        let m = DamageModel::default();
        let none = BTreeSet::new();
        let a = m.sample(&grid, &direct_hit(), &none, 7).unwrap();
        let b = m.sample(&grid, &direct_hit(), &none, 7).unwrap();
        assert_eq!(a, b);
        let c = m.sample(&grid, &direct_hit(), &none, 8).unwrap();
        // Same probabilities, (very likely) different draws.
        assert_eq!(a.line_fail_probability, c.line_fail_probability);
    }

    #[test]
    fn fragility_curve_is_monotone_in_gust_speed() {
        // The logistic must be strictly increasing over the whole
        // operating range — a fragility curve that ever *decreases*
        // with gust speed would invert the hazard ordering.
        let m = DamageModel::default();
        let mut prev = m.line_failure_probability(0.0);
        let mut gust = 0.5;
        while gust <= 160.0 {
            let p = m.line_failure_probability(gust);
            assert!(p > prev, "p({gust}) = {p} did not increase over {prev}");
            assert!((0.0..=1.0).contains(&p));
            prev = p;
            gust += 0.5;
        }
    }

    #[test]
    fn sample_is_reproducible_and_seed_sensitive() {
        let grid = crate::oahu::grid();
        let base = DamageModel::default();
        let none = BTreeSet::new();
        // Two freshly-constructed models with identical parameters
        // draw identical damage: no hidden RNG state.
        let a = base.sample(&grid, &direct_hit(), &none, 3).unwrap();
        let b = DamageModel::default()
            .sample(&grid, &direct_hit(), &none, 3)
            .unwrap();
        assert_eq!(a, b);
        // A different seed keeps probabilities (physics) but may
        // change draws; the draw function itself must differ.
        let reseeded = DamageModel {
            seed: base.seed + 1,
            ..base
        };
        let c = reseeded.sample(&grid, &direct_hit(), &none, 3).unwrap();
        assert_eq!(a.line_fail_probability, c.line_fail_probability);
        assert_ne!(
            fragility_draw(base.seed, 3, 0),
            fragility_draw(base.seed + 1, 3, 0)
        );
        // The public draw is the sampler's: re-derive the outage set.
        for (li, p) in a.line_fail_probability.iter().enumerate() {
            let failed = fragility_draw(base.seed, 3, li as u64) < *p;
            assert_eq!(
                failed,
                a.outages.lines.contains(&LineId(li)),
                "line {li} draw/outage mismatch"
            );
        }
    }

    /// Storms from a start more than 400 km out: every early step is
    /// outside the footprint, and the second track never enters it.
    fn far_starts() -> [StormParams; 2] {
        let mut from_far_south = direct_hit();
        from_far_south.track =
            StormTrack::straight(LatLon::new(14.5, -158.2), 4.0, 7.0, 60.0).unwrap();
        let mut never_in_range = direct_hit();
        never_in_range.track =
            StormTrack::straight(LatLon::new(15.0, -166.0), 0.0, 6.0, 48.0).unwrap();
        [from_far_south, never_in_range]
    }

    /// Storms that probe the peak scan's order and bound at `site`: a
    /// bent track through it, the calm eye at the step evaluated first;
    /// a track whose stationary leg ties every step on it for closest
    /// to `rmax`; a track never within 400 km; an unphysical storm.
    fn edge_storms(site: LatLon) -> Vec<StormParams> {
        let point = |t_hours, pos| TrackPoint { t_hours, pos };
        let through = StormParams {
            track: StormTrack::new(vec![
                point(0.0, site.destination(200.0, 150.0)),
                point(5.0, site),
                point(12.0, site.destination(30.0, 200.0)),
            ])
            .unwrap(),
            rmax_km: 5.0,
            ..direct_hit()
        };
        let near = site.destination(90.0, 35.0);
        let tied = StormParams {
            track: StormTrack::new(vec![
                point(0.0, near.destination(180.0, 250.0)),
                point(4.0, near),
                point(8.0, near),
                point(14.0, near.destination(20.0, 200.0)),
            ])
            .unwrap(),
            ..direct_hit()
        };
        let far = StormParams {
            track: StormTrack::straight(site.destination(270.0, 900.0), 0.0, 6.0, 24.0).unwrap(),
            ..direct_hit()
        };
        let unphysical = StormParams {
            central_pressure_hpa: 1010.0,
            ..direct_hit()
        };
        vec![through, tied, far, unphysical]
    }

    /// The scalar reference scan: peak sustained wind at `p`, the
    /// Holland field rebuilt at every step within 400 km, steps whose
    /// field errors skipped.
    fn peak_wind_at(m: &DamageModel, storm: &StormParams, p: LatLon) -> f64 {
        let (t0, t1) = storm.track.time_span_hours();
        let mut peak: f64 = 0.0;
        let mut t = t0;
        while t <= t1 {
            let center = storm.track.position(t);
            if center.distance_km(p) < 400.0 {
                if let Ok(field) = storm.wind_field(t) {
                    peak = peak.max(field.wind_at(center, p).speed_ms);
                }
            }
            t += m.scan_step_hours;
        }
        peak
    }

    fn assert_kernel_matches_scalar(m: &DamageModel, storm: &StormParams, points: &[LatLon]) {
        let peaks = m
            .peak_winds(storm, &DamageModel::scan_sites(points.iter().copied()))
            .unwrap();
        assert_eq!(peaks.len(), points.len());
        for (i, &p) in points.iter().enumerate() {
            let scalar = peak_wind_at(m, storm, p);
            assert_eq!(
                scalar.to_bits(),
                peaks[i].to_bits(),
                "point {i}: scalar {scalar} vs kernel {}",
                peaks[i]
            );
        }
    }

    #[test]
    fn batched_peak_winds_match_the_scalar_scan_bitwise() {
        // 200 ensemble storms plus far-start and edge tracks, over the grid's
        // buses and line midpoints.
        let m = DamageModel::default();
        let grid = crate::oahu::grid();
        let mut points: Vec<LatLon> = grid.buses().iter().map(|b| b.pos).collect();
        points.extend(DamageModel::line_midpoints(&grid));
        let mut storms = ct_hydro::TrackEnsemble::new(ct_hydro::EnsembleConfig {
            realizations: 200,
            ..ct_hydro::EnsembleConfig::default()
        })
        .unwrap()
        .generate();
        storms.extend(far_starts());
        storms.extend(edge_storms(points[0]));
        for storm in &storms {
            assert_kernel_matches_scalar(&m, storm, &points);
        }
    }

    #[test]
    fn peak_winds_match_the_scalar_scan_on_edge_storms() {
        let m = DamageModel::default();
        let grid = crate::oahu::grid();
        let points: Vec<LatLon> = grid.buses().iter().map(|b| b.pos).collect();
        let sites = DamageModel::scan_sites(points.iter().copied());
        let [far, never] = far_starts();
        let mut storms = vec![direct_hit(), distant(), far, never.clone()];
        storms.extend(edge_storms(points[0]));
        for storm in &storms {
            assert_kernel_matches_scalar(&m, storm, &points);
        }
        let unphysical = storms.last().unwrap();
        for storm in [unphysical, &never] {
            assert!(m
                .peak_winds(storm, &sites)
                .unwrap()
                .iter()
                .all(|&v| v == 0.0));
        }
        let none = DamageModel::scan_sites([]);
        assert!(m.peak_winds(&direct_hit(), &none).unwrap().is_empty());
    }

    /// Only the rejection is exercised: a scan with this step would
    /// never end.
    #[test]
    fn a_non_positive_scan_step_is_rejected() {
        let m = DamageModel {
            scan_step_hours: 0.0,
            ..DamageModel::default()
        };
        let grid = crate::oahu::grid();
        let sites = DamageModel::scan_sites(DamageModel::line_midpoints(&grid));
        assert!(matches!(
            m.peak_winds(&direct_hit(), &sites),
            Err(HydroError::InvalidParameter {
                name: "scan_step_hours",
                ..
            })
        ));
        assert!(m.sample(&grid, &direct_hit(), &BTreeSet::new(), 0).is_err());
    }

    #[test]
    fn shared_sites_give_the_per_storm_samples_bitwise() {
        // One set of midpoint sites shared across storms (as
        // `grid_impact` does) gives the gusts `sample` computes with
        // its own sites per storm.
        let m = DamageModel::default();
        let grid = crate::oahu::grid();
        let shared = DamageModel::scan_sites(DamageModel::line_midpoints(&grid));
        let none = BTreeSet::new();
        for (r, storm) in [direct_hit(), distant()].iter().enumerate() {
            let row = m.peak_winds(storm, &shared).unwrap();
            let sampled = m.sample(&grid, storm, &none, r).unwrap();
            assert_eq!(row.len(), sampled.line_peak_gust_ms.len());
            for (i, (peak, gust)) in row.iter().zip(&sampled.line_peak_gust_ms).enumerate() {
                assert_eq!(
                    (m.gust_factor * peak).to_bits(),
                    gust.to_bits(),
                    "storm {r} line {i}"
                );
            }
        }
    }

    #[test]
    fn hash_unit_is_uniformish() {
        let n = 4000;
        let mean: f64 = (0..n).map(|i| hash_unit(1, i, 3)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.03, "mean {mean}");
    }
}
