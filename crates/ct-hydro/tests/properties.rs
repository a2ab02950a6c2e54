//! Property-based tests for the hurricane hazard substrate.

use ct_geo::LatLon;
use ct_hydro::{
    Category, EnsembleConfig, FloodThreshold, HollandWindField, Poi, StormTrack, SurgeCalibration,
    TrackEnsemble,
};
use ct_rand::{cases, SplitMix64};

fn random_field(rng: &mut SplitMix64) -> HollandWindField {
    let deficit = rng.range_f64(20.0, 90.0);
    let rmax = rng.range_f64(18.0, 55.0);
    let b = rng.range_f64(1.0, 2.2);
    HollandWindField::new(1010.0 - deficit, 1010.0, rmax, b, 21.4).expect("parameters in range")
}

/// Wind speed is non-negative everywhere and the radial profile
/// peaks at the radius of maximum winds — up to the small inward
/// shift the Coriolis correction introduces (the cyclostrophic
/// term is stationary at R_max while the Coriolis penalty keeps
/// growing with r, so the true maximum sits slightly inside).
#[test]
fn holland_profile_shape() {
    let check = |field: &HollandWindField, r: f64| {
        let v = field.gradient_wind_ms(r);
        assert!(v >= 0.0, "negative wind {v}");
        let at_rmax = field.gradient_wind_ms(field.rmax_km);
        assert!(
            v <= at_rmax + 0.35,
            "profile exceeds peak at r={r}: {v} vs {at_rmax}"
        );
        // Far field decays well below the peak.
        if r > 4.0 * field.rmax_km {
            assert!(v < 0.8 * at_rmax, "no far-field decay at r={r}");
        }
    };
    // The weakest, flattest profile just inside R_max, where the
    // Coriolis shift is largest: a case an earlier random search found.
    let flat = HollandWindField::new(990.0, 1010.0, 40.45140423817755, 1.0, 21.4).unwrap();
    check(&flat, 38.986373143429816);
    cases(256, |rng| {
        let field = random_field(rng);
        check(&field, rng.range_f64(0.1, 600.0));
    });
}

/// Wind speed at a geographic point never exceeds the gradient
/// peak plus the full translation contribution.
#[test]
fn wind_at_bounded() {
    cases(256, |rng| {
        let moving = random_field(rng).with_motion(15.0, 7.0);
        let bearing = rng.range_f64(0.0, 360.0);
        let d = rng.range_f64(1.0, 300.0);
        let center = LatLon::new(21.0, -158.0);
        let sample = moving.wind_at(center, center.destination(bearing, d));
        let cap = moving.max_gradient_wind_ms() + 0.6 * 7.0 + 1e-6;
        assert!(sample.speed_ms <= cap, "{} > {}", sample.speed_ms, cap);
    });
}

/// Track interpolation stays within the segment's bounding box.
#[test]
fn track_position_bounded() {
    cases(256, |rng| {
        let heading = rng.range_f64(0.0, 360.0);
        let speed = rng.range_f64(3.5, 9.0);
        let hours = rng.range_f64(6.0, 48.0);
        let t = rng.range_f64(0.0, 48.0);
        let start = LatLon::new(19.0, -158.0);
        let track = StormTrack::straight(start, heading, speed, hours).expect("valid");
        let end = track.position(hours);
        let p = track.position(t.min(hours));
        let (lo_lat, hi_lat) = (start.lat.min(end.lat), start.lat.max(end.lat));
        assert!(p.lat >= lo_lat - 1e-9 && p.lat <= hi_lat + 1e-9);
    });
}

/// Inundation is monotone in surge and antitone in elevation.
#[test]
fn inundation_monotonicity() {
    cases(256, |rng| {
        let surge_a = rng.range_f64(0.0, 8.0);
        let delta = rng.range_f64(0.0, 3.0);
        let elev = rng.range_f64(0.2, 12.0);
        let dist = rng.range_f64(0.0, 6.0);
        let cal = SurgeCalibration::default();
        let low = Poi::with_site_profile("p", LatLon::new(21.3, -157.9), elev, dist);
        let a = low.inundation_m(surge_a, &cal);
        let b = low.inundation_m(surge_a + delta, &cal);
        assert!(b >= a, "more surge produced less water");
        let higher = Poi::with_site_profile("q", LatLon::new(21.3, -157.9), elev + 1.0, dist);
        assert!(higher.inundation_m(surge_a, &cal) <= a);
    });
}

/// Flood threshold classification is a threshold function.
#[test]
fn flood_threshold_is_monotone() {
    cases(256, |rng| {
        let thr = FloodThreshold::new(rng.range_f64(0.0, 3.0)).expect("valid");
        let (d1, d2) = (rng.range_f64(0.0, 5.0), rng.range_f64(0.0, 5.0));
        if d1 <= d2 && thr.is_flooded(d1) {
            assert!(thr.is_flooded(d2));
        }
    });
}

/// Ensembles are deterministic per seed.
#[test]
fn ensemble_seed_determinism() {
    cases(256, |rng| {
        let cfg = EnsembleConfig {
            realizations: 5,
            seed: rng.next_u64(),
            ..EnsembleConfig::default()
        };
        let a = TrackEnsemble::new(cfg.clone()).expect("cfg").generate();
        let b = TrackEnsemble::new(cfg).expect("cfg").generate();
        assert_eq!(a, b);
    });
}

/// Sampled pressure deficits always match the requested category.
#[test]
fn ensemble_respects_category() {
    cases(256, |rng| {
        let category = Category::ALL[rng.below(Category::ALL.len() as u64) as usize];
        let cfg = EnsembleConfig {
            realizations: 8,
            seed: rng.next_u64(),
            category,
            ..EnsembleConfig::default()
        };
        let (lo, hi) = category.pressure_deficit_range_hpa();
        for storm in TrackEnsemble::new(cfg).expect("cfg").generate() {
            let d = storm.pressure_deficit_hpa();
            assert!((lo..=hi).contains(&d), "{category}: deficit {d}");
        }
    });
}
