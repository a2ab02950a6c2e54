//! Cross-validation of the fast parametric surge model against the
//! 2-D shallow-water solver (the ADCIRC stand-in) on a set of
//! characteristic storms.
//!
//! Absolute levels are not expected to match — the parametric model is
//! calibrated as an *effective* flood level including wave effects —
//! but both models must agree on the spatial pattern (which coasts
//! take the surge) and on storm-strength ordering.

use ct_geo::terrain::{synthesize_oahu, OahuTerrainConfig};
use ct_geo::{Dem, LatLon};
use ct_hydro::{
    ParametricSurge, ShallowWaterConfig, ShallowWaterSolver, StationId, Stations, StormParams,
    StormTrack, SurgeCalibration,
};
use std::sync::OnceLock;

fn dem() -> &'static Dem {
    static DEM: OnceLock<Dem> = OnceLock::new();
    DEM.get_or_init(|| synthesize_oahu(&OahuTerrainConfig::default()))
}

/// Coarse, fast solver configuration for CI-friendly runtimes.
fn coarse() -> ShallowWaterConfig {
    ShallowWaterConfig {
        cell_km: 3.0,
        window_before_hours: 8.0,
        window_after_hours: 4.0,
        ..ShallowWaterConfig::default()
    }
}

fn storm(passing_lon: f64, deficit_hpa: f64) -> StormParams {
    StormParams {
        track: StormTrack::straight(LatLon::new(19.2, passing_lon), 5.0, 6.0, 48.0)
            .expect("valid track"),
        central_pressure_hpa: 1010.0 - deficit_hpa,
        ambient_pressure_hpa: 1010.0,
        rmax_km: 35.0,
        b: 1.6,
        tide_m: 0.2,
    }
}

fn solver_peak(outcome: &ct_hydro::swe::SurgeOutcome, station: StationId) -> f64 {
    let stations = Stations::from_dem(dem());
    let pos = stations.get(station).pos;
    let enu = dem().projection().to_enu(pos);
    outcome.coastal_peak_near(enu, 8.0).unwrap_or(0.0)
}

/// 64-bit FNV-1a over the step count and the bit patterns of every
/// number in `outcome`: `dt_s`, `max_speed_ms`, the bed and the
/// maximum-elevation envelope.
fn outcome_digest(outcome: &ct_hydro::swe::SurgeOutcome) -> u64 {
    let scalars = [
        outcome.steps as u64,
        outcome.dt_s.to_bits(),
        outcome.max_speed_ms.to_bits(),
    ];
    let grids = outcome
        .bed
        .as_slice()
        .iter()
        .chain(outcome.max_eta.as_slice());
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in scalars.into_iter().chain(grids.map(|x| x.to_bits())) {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn both_models_put_the_surge_on_the_southern_shelf() {
    let solver = ShallowWaterSolver::new(dem(), coarse());
    let s = storm(-158.35, 44.0); // direct hit passing just west
    let outcome = solver.run(&s).expect("solver stays stable");
    // Every number of this solve is pinned; the digest was measured
    // identically from an active-set kernel and a row-major sweep.
    assert_eq!(outcome_digest(&outcome), 0x6a31_f67a_50b4_b8f9);

    let parametric = ParametricSurge::new(Stations::from_dem(dem()), SurgeCalibration::default());
    let fast = parametric.station_surge(&s).unwrap();

    // Shallow-shelf stations (South/Ewa) must dominate the suppressed
    // windward/north coasts in BOTH models.
    let solver_shelf =
        solver_peak(&outcome, StationId::South).max(solver_peak(&outcome, StationId::Ewa));
    let solver_far = solver_peak(&outcome, StationId::East);
    assert!(
        solver_shelf > solver_far,
        "solver: shelf {solver_shelf} vs windward {solver_far}"
    );

    let fast_shelf = fast.get(StationId::South).max(fast.get(StationId::Ewa));
    let fast_far = fast.get(StationId::East);
    assert!(
        fast_shelf > fast_far,
        "parametric: {fast_shelf} vs {fast_far}"
    );
}

#[test]
fn both_models_agree_a_distant_storm_is_harmless() {
    let solver = ShallowWaterSolver::new(dem(), coarse());
    let s = storm(-160.5, 44.0); // passes ~260 km west
    let outcome = solver.run(&s).expect("solver stays stable");
    let peak = [
        StationId::South,
        StationId::Ewa,
        StationId::West,
        StationId::North,
        StationId::East,
    ]
    .iter()
    .map(|&id| solver_peak(&outcome, id))
    .fold(0.0f64, f64::max);
    assert!(peak < 1.0, "solver distant-storm surge {peak}");

    let parametric = ParametricSurge::new(Stations::from_dem(dem()), SurgeCalibration::default());
    let fast = parametric.station_surge(&s).unwrap();
    assert!(
        fast.max_surge_m() < 1.0,
        "parametric {}",
        fast.max_surge_m()
    );
}

#[test]
fn both_models_scale_with_storm_intensity() {
    let solver = ShallowWaterSolver::new(dem(), coarse());
    let weak = solver.run(&storm(-158.35, 25.0)).unwrap();
    let strong = solver.run(&storm(-158.35, 60.0)).unwrap();
    let weak_peak = solver_peak(&weak, StationId::Ewa);
    let strong_peak = solver_peak(&strong, StationId::Ewa);
    assert!(
        strong_peak > weak_peak,
        "solver: strong {strong_peak} <= weak {weak_peak}"
    );

    let parametric = ParametricSurge::new(Stations::from_dem(dem()), SurgeCalibration::default());
    let pw = parametric.station_surge(&storm(-158.35, 25.0)).unwrap();
    let ps = parametric.station_surge(&storm(-158.35, 60.0)).unwrap();
    assert!(ps.get(StationId::Ewa) > pw.get(StationId::Ewa));
}

#[test]
fn solver_stays_stable_across_track_sweep() {
    let solver = ShallowWaterSolver::new(dem(), coarse());
    for lon in [-158.9, -158.5, -158.2, -157.9, -157.5] {
        let outcome = solver.run(&storm(lon, 44.0)).expect("stable");
        assert!(
            outcome.max_speed_ms < 15.0,
            "speed clamp reached for track at {lon}: likely instability"
        );
    }
}
