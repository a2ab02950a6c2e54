//! Wind fragility of assets: a logistic failure curve in the peak gust
//! (fragility-modelling practice per Panteli et al., one of the paper's
//! own citations) and the counter-based uniform draw it is compared
//! against. [`WindFragilityHazard`](crate::WindFragilityHazard) maps
//! the pair onto the pipeline's severity axis.

use ct_geo::LatLon;
use ct_hydro::{check_scan_step, HydroError, PeakOf, ScanSites, StormParams};

/// Fragility parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DamageModel {
    /// Gust speed (m/s) at which an asset fails with probability one
    /// half.
    pub line_v50_ms: f64,
    /// Logistic spread (m/s) of the fragility curve.
    pub line_spread_ms: f64,
    /// Gust factor over sustained wind.
    pub gust_factor: f64,
    /// Seed for the per-asset failure draws.
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

impl DamageModel {
    /// Failure probability for a peak gust, logistic in the gust
    /// speed.
    pub fn line_failure_probability(&self, gust_ms: f64) -> f64 {
        1.0 / (1.0 + (-(gust_ms - self.line_v50_ms) / self.line_spread_ms).exp())
    }

    /// The sites [`peak_winds`](Self::peak_winds) scans: each point's
    /// wind speed. Prepare them once and share them across storms.
    pub(crate) fn scan_sites(points: impl IntoIterator<Item = LatLon>) -> ScanSites {
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
}

/// Deterministic uniform draw in `[0, 1)` from a hashed
/// `(seed, realization, asset)` triple — the wind hazard's
/// counter-based RNG, so per-asset draws stay reproducible under any
/// evaluation order or sharding.
pub fn fragility_draw(seed: u64, realization: u64, asset: u64) -> f64 {
    hash_unit(seed, realization, asset)
}

/// Deterministic uniform draw in `[0, 1)` from a hashed triple.
fn hash_unit(seed: u64, realization: u64, asset: u64) -> f64 {
    let mut x = seed
        ^ realization.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ asset.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_hydro::StormTrack;

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

    #[test]
    fn fragility_curve_shape() {
        let m = DamageModel::default();
        assert!(m.line_failure_probability(20.0) < 0.01);
        let p50 = m.line_failure_probability(m.line_v50_ms);
        assert!((p50 - 0.5).abs() < 1e-9);
        assert!(m.line_failure_probability(110.0) > 0.95);
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
    fn draws_are_pure_and_seed_sensitive() {
        let seed = DamageModel::default().seed;
        assert_eq!(fragility_draw(seed, 3, 0), fragility_draw(seed, 3, 0));
        assert_ne!(fragility_draw(seed, 3, 0), fragility_draw(seed + 1, 3, 0));
    }

    /// Only the rejection is exercised: a scan with this step would
    /// never end.
    #[test]
    fn a_non_positive_scan_step_is_rejected() {
        let m = DamageModel {
            scan_step_hours: 0.0,
            ..DamageModel::default()
        };
        let sites = DamageModel::scan_sites([LatLon::new(21.31, -157.86)]);
        assert!(matches!(
            m.peak_winds(&direct_hit(), &sites),
            Err(HydroError::InvalidParameter {
                name: "scan_step_hours",
                ..
            })
        ));
    }

    #[test]
    fn no_sites_scan_to_no_peaks() {
        let none = DamageModel::scan_sites([]);
        let peaks = DamageModel::default().peak_winds(&direct_hit(), &none);
        assert!(peaks.unwrap().is_empty());
    }

    #[test]
    fn hash_unit_is_uniformish() {
        let n = 4000;
        let mean: f64 = (0..n).map(|i| hash_unit(1, i, 3)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.03, "mean {mean}");
    }
}
