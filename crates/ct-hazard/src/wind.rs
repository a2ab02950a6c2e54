//! The wind-fragility hazard: Holland wind field + logistic gust
//! fragility, mapped onto the pipeline's severity axis.

use crate::fragility::{fragility_draw, DamageModel};
use crate::model::HazardModel;
use crate::prepared::PoiPrepared;
use ct_hydro::{FloodThreshold, HydroError, Poi, Realization, ScanSites, StormParams};
use ct_store::StableHasher;

/// Severity cap (m). The exceedance ratio `p / u` is unbounded as the
/// uniform draw approaches zero; capping keeps severities finite for
/// exports and histograms without affecting any realistic threshold
/// (sensitivity sweeps stay far below this).
pub const MAX_SEVERITY_M: f64 = 1.0e3;

/// Wind damage to assets, driven by the Holland wind kernel and the
/// logistic fragility curve of the [`DamageModel`] it wraps.
///
/// # Severity semantics
///
/// For asset `j` of realization `i`, the model evaluates the peak
/// gust over the storm passage at the asset's position, the logistic
/// failure probability `p` at that gust, and the deterministic
/// uniform draw `u = fragility_draw(seed, i, j)`. Severity is the
/// *fragility exceedance depth*
///
/// ```text
/// severity_m = switch_height_m · p / u        (capped at MAX_SEVERITY_M)
/// ```
///
/// so at the paper's default 0.5 m threshold an asset fails exactly
/// when `u < p` — the plain fragility draw — while raising the
/// threshold in a sensitivity sweep demands a proportionally stronger
/// exceedance, and severity remains monotone in gust speed for a
/// fixed draw. Diagnostics: `tide_m` carries the storm's tide anomaly
/// (unused by wind failures), `max_station_surge_m` carries the
/// largest per-asset peak gust in m/s.
///
/// The POIs' scan sites are prepared once per POI set, not once per
/// storm.
#[derive(Debug, Clone)]
pub struct WindFragilityHazard {
    damage: DamageModel,
    sites: PoiPrepared<ScanSites>,
}

impl Default for WindFragilityHazard {
    fn default() -> Self {
        Self::new(DamageModel::default())
    }
}

impl WindFragilityHazard {
    /// Wraps a fragility parameterization.
    pub fn new(damage: DamageModel) -> Self {
        Self {
            damage,
            sites: PoiPrepared::default(),
        }
    }

    /// The fragility parameters.
    pub fn damage(&self) -> &DamageModel {
        &self.damage
    }

    /// The severity mapping for one asset (see the type docs).
    fn severity_m(&self, gust_ms: f64, draw: f64) -> f64 {
        let p = self.damage.line_failure_probability(gust_ms);
        let switch_height_m = FloodThreshold::default().depth_m();
        (switch_height_m * p / draw.max(f64::MIN_POSITIVE)).min(MAX_SEVERITY_M)
    }
}

impl HazardModel for WindFragilityHazard {
    fn hazard_id(&self) -> String {
        "wind".to_string()
    }

    fn digest_params(&self, h: &mut StableHasher) {
        let d = &self.damage;
        h.write_f64(d.line_v50_ms);
        h.write_f64(d.line_spread_ms);
        h.write_f64(d.gust_factor);
        h.write_u64(d.seed);
        h.write_f64(d.scan_step_hours);
    }

    fn evaluate(
        &self,
        index: usize,
        storm: &StormParams,
        pois: &[Poi],
    ) -> Result<Realization, HydroError> {
        // The storm-passage wind kernel: one Holland field per time
        // step, bit-identical to the per-POI scalar scan (see
        // `DamageModel::peak_winds`).
        let peaks = self.sites.with(
            pois,
            |pois| DamageModel::scan_sites(pois.iter().map(|poi| poi.pos)),
            |sites| self.damage.peak_winds(storm, sites),
        )?;
        let mut max_gust_ms: f64 = 0.0;
        let inundation_m = peaks
            .iter()
            .enumerate()
            .map(|(j, peak)| {
                let gust = self.damage.gust_factor * peak;
                max_gust_ms = max_gust_ms.max(gust);
                let u = fragility_draw(self.damage.seed, index as u64, j as u64);
                self.severity_m(gust, u)
            })
            .collect();
        Ok(Realization {
            index,
            tide_m: storm.tide_m,
            max_station_surge_m: max_gust_ms,
            inundation_m,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_geo::LatLon;
    use ct_hydro::StormTrack;

    fn direct_hit() -> StormParams {
        StormParams {
            track: StormTrack::straight(LatLon::new(19.2, -158.35), 5.0, 6.0, 48.0).unwrap(),
            central_pressure_hpa: 966.0,
            ambient_pressure_hpa: 1010.0,
            rmax_km: 35.0,
            b: 1.6,
            tide_m: 0.3,
        }
    }

    fn distant() -> StormParams {
        let mut s = direct_hit();
        s.track = StormTrack::straight(LatLon::new(19.2, -170.0), 0.0, 6.0, 48.0).unwrap();
        s
    }

    fn pois() -> Vec<Poi> {
        vec![
            Poi::with_site_profile("a", LatLon::new(21.31, -157.86), 3.0, 0.5),
            Poi::with_site_profile("b", LatLon::new(21.36, -158.12), 60.0, 1.2),
        ]
    }

    #[test]
    fn evaluation_is_deterministic_and_index_seeded() {
        let hazard = WindFragilityHazard::default();
        let a = hazard.evaluate(4, &direct_hit(), &pois()).unwrap();
        let b = hazard.evaluate(4, &direct_hit(), &pois()).unwrap();
        assert_eq!(a, b);
        let c = hazard.evaluate(5, &direct_hit(), &pois()).unwrap();
        // Same storm, different realization index: different draws.
        assert_ne!(a.inundation_m, c.inundation_m);
        assert_eq!(a.index, 4);
        assert_eq!(a.tide_m, 0.3);
    }

    #[test]
    fn severity_is_finite_nonnegative_and_storm_sensitive() {
        let hazard = WindFragilityHazard::default();
        let hit = hazard.evaluate(0, &direct_hit(), &pois()).unwrap();
        let miss = hazard.evaluate(0, &distant(), &pois()).unwrap();
        for r in [&hit, &miss] {
            for &s in &r.inundation_m {
                assert!(s.is_finite() && s >= 0.0, "severity {s}");
            }
        }
        assert!(hit.max_station_surge_m > miss.max_station_surge_m);
        let sum = |r: &Realization| r.inundation_m.iter().sum::<f64>();
        assert!(sum(&hit) >= sum(&miss));
    }

    #[test]
    fn default_threshold_reproduces_the_fragility_draw() {
        let hazard = WindFragilityHazard::default();
        let threshold = FloodThreshold::default();
        let storm = direct_hit();
        let pois = pois();
        let r = hazard.evaluate(7, &storm, &pois).unwrap();
        let damage = hazard.damage();
        let sites = DamageModel::scan_sites(pois.iter().map(|poi| poi.pos));
        let peaks = damage.peak_winds(&storm, &sites).unwrap();
        for (j, peak) in peaks.iter().enumerate() {
            let gust = damage.gust_factor * peak;
            let p = damage.line_failure_probability(gust);
            let u = fragility_draw(hazard.damage().seed, 7, j as u64);
            assert_eq!(
                threshold.is_flooded(r.inundation_m[j]),
                u < p,
                "asset {j}: threshold failure must equal the draw"
            );
        }
    }

    #[test]
    fn severity_is_monotone_in_gust_for_a_fixed_draw() {
        let hazard = WindFragilityHazard::default();
        let mut prev = hazard.severity_m(0.0, 0.25);
        for gust in 1..300 {
            let s = hazard.severity_m(gust as f64, 0.25);
            assert!(s >= prev, "severity fell at gust {gust}");
            prev = s;
        }
        assert!(prev <= MAX_SEVERITY_M);
    }

    #[test]
    fn a_non_positive_scan_step_is_an_error() {
        let hazard = WindFragilityHazard::new(DamageModel {
            scan_step_hours: -1.0,
            ..DamageModel::default()
        });
        assert!(hazard.evaluate(0, &direct_hit(), &pois()).is_err());
    }

    #[test]
    fn digest_separates_parameterizations() {
        let digest = |hz: &WindFragilityHazard| {
            let mut h = StableHasher::new();
            hz.digest_params(&mut h);
            h.finish()
        };
        let base = WindFragilityHazard::default();
        assert_eq!(digest(&base), digest(&WindFragilityHazard::default()));
        let reseeded = WindFragilityHazard::new(DamageModel {
            seed: 99,
            ..DamageModel::default()
        });
        assert_ne!(digest(&base), digest(&reseeded));
    }
}
