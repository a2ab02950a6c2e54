//! End-to-end contracts of the pluggable hazard engine.
//!
//! The load-bearing one: routing the original surge model through the
//! [`HazardModel`] trait must be *bit-identical* to the pre-refactor
//! hard-wired pipeline (kept here as [`build_reference_surge`]) —
//! every realization f64, every figure byte, every Table I
//! probability. The seam is then
//! proven by running the wind-fragility and compound hazards through
//! the same pipeline end-to-end, and by showing the artifact store
//! keeps the three engines' records apart.

use compound_threats::artifact::base_key;
use compound_threats::figures::{reproduce_all, Figure};
use compound_threats::parallel::{default_threads, par_map_dynamic};
use compound_threats::prelude::*;
use compound_threats::report::figure_csv;
use ct_geo::terrain::synthesize_oahu;
use ct_geo::LatLon;
use ct_hydro::{ParametricSurge, Poi, RealizationSet, Stations, StormParams, TrackEnsemble};
use ct_store::StableHasher;

/// Large enough for the acceptance criterion (n ≥ 200) while keeping
/// the test suite's wall-clock sane.
const EQUIVALENCE_N: usize = 200;

fn config(hazard: HazardSpec, realizations: usize) -> CaseStudyConfig {
    CaseStudyConfig::builder()
        .hazard(hazard)
        .realizations(realizations)
        .build()
        .unwrap()
}

/// Unique scratch directory for one test, removed on drop.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!(
            "ct-hazard-engine-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&root).ok();
        Self(root)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn figures_csv(study: &CaseStudy) -> String {
    reproduce_all(study)
        .unwrap()
        .iter()
        .map(figure_csv)
        .collect()
}

/// Every (figure, architecture) profile — the Table I probabilities
/// the paper reports.
fn all_profiles(study: &CaseStudy) -> Vec<(Figure, Architecture, OutcomeProfile)> {
    Figure::ALL
        .iter()
        .flat_map(|&fig| {
            Architecture::ALL.iter().map(move |&arch| {
                let p = study
                    .profile(arch, fig.scenario(), fig.site_choice())
                    .unwrap();
                (fig, arch, p)
            })
        })
        .collect()
}

/// The pre-refactor, hard-wired surge pipeline, kept as ground truth:
/// Oahu terrain → POIs → [`ParametricSurge`] →
/// [`RealizationSet::evaluate_storm`] per sampled storm, with no
/// [`HazardModel`] indirection and no store. `config.hazard` is
/// ignored here by construction.
fn build_reference_surge(config: &CaseStudyConfig) -> RealizationSet {
    let dem = synthesize_oahu(&config.terrain);
    let pois = ct_scada::oahu::case_study_pois(&dem).unwrap();
    let model = ParametricSurge::new(Stations::from_dem(&dem), config.calibration);
    let storms = TrackEnsemble::new(config.ensemble.clone())
        .unwrap()
        .generate();
    let threads = if config.threads == 0 {
        default_threads()
    } else {
        config.threads
    };
    let indexed: Vec<(usize, StormParams)> = storms.into_iter().enumerate().collect();
    let poi_stations = model.poi_stations(&pois);
    let realizations = par_map_dynamic(&indexed, threads, |(i, storm)| {
        RealizationSet::evaluate_storm(*i, storm, &model, &pois, &poi_stations)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()
    .unwrap();
    RealizationSet::from_parts(pois, realizations)
}

/// Digests of the study the reference pipeline gave at
/// `EQUIVALENCE_N` surge realizations, pinned when that study could
/// still be built as a `CaseStudy`: its figure CSV and every profile.
const REFERENCE_FIGURES_DIGEST: &str = "12772a130deefeaf8db717778bb42135";
const REFERENCE_PROFILES_DIGEST: &str = "663cb38d94f68d75b07fb373609ef47b";

fn csv_digest(csv: &str) -> String {
    let mut h = StableHasher::new();
    h.write_str(csv);
    h.finish().to_hex()
}

fn profiles_digest(profiles: &[(Figure, Architecture, OutcomeProfile)]) -> String {
    let mut h = StableHasher::new();
    for (fig, arch, p) in profiles {
        h.write_u32(fig.number());
        h.write_str(arch.label());
        for f in [p.green(), p.orange(), p.red(), p.gray()] {
            h.write_f64(f);
        }
        h.write_usize(p.total());
    }
    h.finish().to_hex()
}

/// The tentpole acceptance criterion: surge through the trait is
/// bit-identical to the pre-refactor hard-wired pipeline at n ≥ 200 —
/// in the raw realizations, in every profile, and in the rendered
/// figure CSV, with and without a store in the path.
#[test]
fn surge_via_trait_is_bit_identical_to_the_reference_pipeline() {
    let config = config(HazardSpec::Surge, EQUIVALENCE_N);
    let reference = build_reference_surge(&config);
    let via_trait = CaseStudy::build(&config).unwrap();

    // RealizationSet's PartialEq compares every f64, so equality here
    // is bit equality of the whole ensemble.
    assert_eq!(&reference, via_trait.realizations());

    // The store-backed path reproduces the same bytes, cold and warm.
    let scratch = Scratch::new("equivalence");
    let store = Store::open(&scratch.0).unwrap();
    let cold = CaseStudy::build_with_store(&config, Some(&store)).unwrap();
    let warm = CaseStudy::build_with_store(&config, Some(&store)).unwrap();
    assert_eq!(&reference, cold.realizations());
    assert_eq!(&reference, warm.realizations());
    for study in [&via_trait, &cold, &warm] {
        assert_eq!(
            profiles_digest(&all_profiles(study)),
            REFERENCE_PROFILES_DIGEST
        );
        assert_eq!(csv_digest(&figures_csv(study)), REFERENCE_FIGURES_DIGEST);
    }
}

/// The seam proof: wind and compound run the full pipeline end-to-end
/// (build → profiles → figures) and produce hazard-consistent results.
#[test]
fn wind_and_compound_run_end_to_end() {
    let surge = CaseStudy::build(&config(HazardSpec::Surge, 60)).unwrap();
    let wind = CaseStudy::build(&config(HazardSpec::Wind, 60)).unwrap();
    let compound = CaseStudy::build(&config(HazardSpec::Compound, 60)).unwrap();

    for (study, spec) in [(&wind, HazardSpec::Wind), (&compound, HazardSpec::Compound)] {
        assert_eq!(study.hazard(), spec);
        assert_eq!(study.realizations().len(), 60);
        let csv = figures_csv(study);
        assert!(csv.contains("figure,config"), "renders figures: {spec}");
        // Classification runs: every profile's fractions sum to 1.
        for (fig, arch, p) in all_profiles(study) {
            let total = p.green() + p.orange() + p.red() + p.gray();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "{spec}/{fig}/{arch}: profile sums to {total}"
            );
        }
        // Non-surge figures are visibly labelled.
        let data = reproduce_all(study).unwrap();
        let table = compound_threats::report::figure_table(&data[0]);
        assert!(table.contains(&format!("[hazard: {spec}]")));
    }

    // Compound severity is the per-asset max of its parts, so every
    // asset the surge or wind hazard fails, the compound fails too
    // (union semantics), and its severities dominate both.
    let threshold = surge.realizations().threshold();
    for i in 0..60 {
        let s = &surge.realizations().realizations()[i];
        let w = &wind.realizations().realizations()[i];
        let c = &compound.realizations().realizations()[i];
        for j in 0..s.inundation_m.len() {
            assert_eq!(
                c.inundation_m[j],
                s.inundation_m[j].max(w.inundation_m[j]),
                "realization {i}, asset {j}: compound must be max(surge, wind)"
            );
            assert_eq!(
                threshold.is_flooded(c.inundation_m[j]),
                threshold.is_flooded(s.inundation_m[j]) || threshold.is_flooded(w.inundation_m[j]),
                "realization {i}, asset {j}: compound failure must be the union"
            );
        }
    }

    // Wind actually bites: some asset fails under wind in some
    // realization (otherwise the seam proof proves nothing).
    let wind_failures: usize = (0..60)
        .map(|i| {
            wind.realizations().realizations()[i]
                .inundation_m
                .iter()
                .filter(|&&s| threshold.is_flooded(s))
                .count()
        })
        .sum();
    assert!(wind_failures > 0, "wind hazard never failed any asset");
}

/// Hazard-distinct store keys, observed end-to-end: running surge and
/// wind into the *same* store must not share a single record — each
/// engine computes its full shard fresh, and each engine's re-run is a
/// full warm hit. (Asserted via `ShardReport` rather than global obs
/// counters, which other tests in this binary race.)
#[test]
fn store_keeps_hazard_records_apart_and_warm_hits_within_a_hazard() {
    let scratch = Scratch::new("isolation");
    let store = Store::open(&scratch.0).unwrap();
    let shard = ShardSpec::new(0, 1).unwrap();

    let surge = config(HazardSpec::Surge, 18);
    let wind = config(HazardSpec::Wind, 18);
    let compound = config(HazardSpec::Compound, 18);

    for cfg in [&surge, &wind, &compound] {
        let cold = run_shard(cfg, &store, shard).unwrap();
        assert_eq!(
            cold.computed, 18,
            "{}: must not reuse another hazard's records",
            cfg.hazard
        );
        assert_eq!(cold.reused, 0);
    }
    for cfg in [&surge, &wind, &compound] {
        let warm = run_shard(cfg, &store, shard).unwrap();
        assert_eq!(warm.reused, 18, "{}: re-run must be all hits", cfg.hazard);
        assert_eq!(warm.computed, 0);
    }

    // The same distinctness at the key level: every pair of hazards
    // disagrees on the base address for identical config/terrain/POIs.
    let dem = synthesize_oahu(&surge.terrain);
    let pois = ct_scada::oahu::case_study_pois(&dem).unwrap();
    let stations = Stations::from_dem(&dem);
    let key = |cfg: &CaseStudyConfig| {
        let hazard = cfg.hazard.build(&stations, cfg.calibration);
        base_key(cfg, &pois, hazard.as_ref())
    };
    let keys = [key(&surge), key(&wind), key(&compound)];
    assert_ne!(keys[0], keys[1]);
    assert_ne!(keys[0], keys[2]);
    assert_ne!(keys[1], keys[2]);
}

/// The storm-passage wind kernel (`DamageModel::peak_winds`, used by
/// `WindFragilityHazard::evaluate`) is bit-identical to the per-POI
/// scalar scan over the pipeline's real POIs and sampled ensemble
/// storms, and a compound evaluation built on batched parts stays the
/// exact per-asset max of those parts.
#[test]
fn batched_hazard_evaluation_is_bit_identical_to_the_per_poi_path() {
    use ct_hazard::{fragility_draw, DamageModel};
    use ct_hazard::{wind::MAX_SEVERITY_M, CompoundHazard, HazardModel, WindFragilityHazard};
    use ct_hydro::{EnsembleConfig, FloodThreshold, TrackEnsemble};

    let cfg = config(HazardSpec::Wind, 6);
    let dem = synthesize_oahu(&cfg.terrain);
    let pois = ct_scada::oahu::case_study_pois(&dem).unwrap();
    let storms = TrackEnsemble::new(EnsembleConfig {
        realizations: 6,
        ..EnsembleConfig::default()
    })
    .unwrap()
    .generate();

    let wind = WindFragilityHazard::default();
    let damage = *wind.damage();
    let switch_height_m = FloodThreshold::default().depth_m();
    for (i, storm) in storms.iter().enumerate() {
        let batched = wind.evaluate(i, storm, &pois).unwrap();
        assert_eq!(batched.inundation_m.len(), pois.len());
        for (j, poi) in pois.iter().enumerate() {
            // Per-POI reference path: the scalar gust scan plus the
            // documented severity mapping, asset by asset.
            let gust = damage.gust_factor * oracle::peak_wind(&damage, storm, poi.pos);
            let p = damage.line_failure_probability(gust);
            let u = fragility_draw(damage.seed, i as u64, j as u64);
            let severity = (switch_height_m * p / u.max(f64::MIN_POSITIVE)).min(MAX_SEVERITY_M);
            assert_eq!(
                severity.to_bits(),
                batched.inundation_m[j].to_bits(),
                "storm {i}, asset {j}: batched severity diverged from the scalar path"
            );
        }
    }

    // Compound over batched parts keeps exact union (max) semantics.
    let reseeded = WindFragilityHazard::new(DamageModel {
        seed: damage.seed + 1,
        ..damage
    });
    let compound =
        CompoundHazard::union(vec![Box::new(wind.clone()), Box::new(reseeded.clone())]).unwrap();
    for (i, storm) in storms.iter().enumerate() {
        let a = wind.evaluate(i, storm, &pois).unwrap();
        let b = reseeded.evaluate(i, storm, &pois).unwrap();
        let c = compound.evaluate(i, storm, &pois).unwrap();
        for j in 0..pois.len() {
            assert_eq!(
                c.inundation_m[j].to_bits(),
                a.inundation_m[j].max(b.inundation_m[j]).to_bits(),
                "storm {i}, asset {j}: compound must be the bitwise max of its parts"
            );
        }
    }
}

/// Sharded wind runs merge to the same answer as an unsharded wind
/// build — the `ct merge` path is hazard-generic, not surge-only.
#[test]
fn sharded_wind_run_merges_to_the_clean_answer() {
    let scratch = Scratch::new("wind-shards");
    let store = Store::open(&scratch.0).unwrap();
    let cfg = config(HazardSpec::Wind, 21);
    let a = run_shard(&cfg, &store, ShardSpec::new(0, 2).unwrap()).unwrap();
    let b = run_shard(&cfg, &store, ShardSpec::new(1, 2).unwrap()).unwrap();
    assert_eq!(a.computed + b.computed, 21);
    let merged = CaseStudy::merge_from_store(&cfg, &store).unwrap();
    let clean = CaseStudy::build(&cfg).unwrap();
    assert_eq!(merged.realizations(), clean.realizations());
    assert_eq!(figures_csv(&merged), figures_csv(&clean));
}

/// The scalar scans the storm-passage kernel must reproduce bit for
/// bit: one storm passage per site, the Holland field rebuilt at every
/// in-range step and the value folded in time order.
mod oracle {
    use ct_geo::LatLon;
    use ct_hazard::wind::MAX_SEVERITY_M;
    use ct_hazard::{fragility_draw, DamageModel};
    use ct_hydro::{
        FloodThreshold, HydroError, ParametricSurge, Poi, Realization, StationId, StormParams,
    };

    /// Peak sustained wind at `p` within 400 km; a step whose field
    /// errors is skipped.
    pub(super) fn peak_wind(damage: &DamageModel, storm: &StormParams, p: LatLon) -> f64 {
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
            t += damage.scan_step_hours;
        }
        peak
    }

    /// The wind-fragility realization: each POI's scalar peak gust
    /// through the documented severity mapping.
    pub(super) fn wind(
        damage: &DamageModel,
        index: usize,
        storm: &StormParams,
        pois: &[Poi],
    ) -> Realization {
        let switch_height_m = FloodThreshold::default().depth_m();
        let mut max_gust_ms: f64 = 0.0;
        let inundation_m = pois
            .iter()
            .enumerate()
            .map(|(j, poi)| {
                let gust = damage.gust_factor * peak_wind(damage, storm, poi.pos);
                max_gust_ms = max_gust_ms.max(gust);
                let p = damage.line_failure_probability(gust);
                let u = fragility_draw(damage.seed, index as u64, j as u64);
                (switch_height_m * p / u.max(f64::MIN_POSITIVE)).min(MAX_SEVERITY_M)
            })
            .collect();
        Realization {
            index,
            tide_m: storm.tide_m,
            max_station_surge_m: max_gust_ms,
            inundation_m,
        }
    }

    /// Per open-coast station, in station order: its peak onshore wind
    /// within 400 km and its closest approach over every step.
    pub(super) fn station_winds(
        model: &ParametricSurge,
        storm: &StormParams,
    ) -> Result<Vec<(StationId, f64, f64)>, HydroError> {
        let step_hours = model.calibration().scan_step_hours;
        let mut out = Vec::new();
        for st in model.stations().iter() {
            if st.id == StationId::PearlHarbor {
                continue;
            }
            let (t0, t1) = storm.track.time_span_hours();
            let mut peak_onshore: f64 = 0.0;
            let mut min_dist = f64::INFINITY;
            let mut t = t0;
            while t <= t1 {
                let center = storm.track.position(t);
                let d = center.distance_km(st.pos);
                min_dist = min_dist.min(d);
                if d < 400.0 {
                    let w = storm.wind_field(t)?.wind_at(center, st.pos);
                    peak_onshore = peak_onshore.max(w.component_toward(st.onshore_bearing_deg));
                }
                t += step_hours;
            }
            out.push((st.id, peak_onshore, min_dist));
        }
        Ok(out)
    }

    /// Each station's surge with the tide, in `station_surge`'s order:
    /// the open coast, then Pearl Harbor.
    pub(super) fn station_surge(
        model: &ParametricSurge,
        storm: &StormParams,
    ) -> Result<Vec<(StationId, f64)>, HydroError> {
        let cal = model.calibration();
        let mut met: Vec<(StationId, f64)> = station_winds(model, storm)?
            .into_iter()
            .map(|(id, peak, min_dist)| {
                let eta_wind = cal.setup_coefficient * peak * peak;
                let ib_weight = (-(min_dist / cal.ib_decay_km).powi(2)).exp();
                let eta_ib = cal.ib_m_per_hpa * storm.pressure_deficit_hpa() * ib_weight;
                let shelf = model.stations().get(id).shelf_factor;
                (
                    id,
                    (eta_wind * (1.0 + cal.wave_setup_fraction) + eta_ib) * shelf,
                )
            })
            .collect();
        let south = met
            .iter()
            .find(|(id, _)| *id == StationId::South)
            .unwrap()
            .1;
        met.push((
            StationId::PearlHarbor,
            south * model.stations().harbor_amplification,
        ));
        Ok(met
            .into_iter()
            .map(|(id, v)| (id, v + storm.tide_m))
            .collect())
    }

    /// The surge realization: each POI reads the surge of its override
    /// station, else of its nearest.
    pub(super) fn surge(
        model: &ParametricSurge,
        index: usize,
        storm: &StormParams,
        pois: &[Poi],
    ) -> Result<Realization, HydroError> {
        let surge = station_surge(model, storm)?;
        let at = |id| surge.iter().find(|(s, _)| *s == id).unwrap().1;
        let inundation_m = pois
            .iter()
            .map(|poi| {
                let st = poi
                    .station_override
                    .unwrap_or_else(|| model.stations().nearest(poi.pos).id);
                poi.inundation_m(at(st), model.calibration())
            })
            .collect();
        Ok(Realization {
            index,
            tide_m: storm.tide_m,
            max_station_surge_m: surge.iter().map(|s| s.1).fold(f64::NEG_INFINITY, f64::max),
            inundation_m,
        })
    }

    /// Surge ∪ wind: the per-asset max of the two realizations.
    pub(super) fn compound(surge: &Realization, wind: &Realization) -> Realization {
        Realization {
            max_station_surge_m: surge.max_station_surge_m.max(wind.max_station_surge_m),
            inundation_m: surge
                .inundation_m
                .iter()
                .zip(&wind.inundation_m)
                .map(|(s, w)| s.max(*w))
                .collect(),
            ..surge.clone()
        }
    }
}

/// Storms that probe the kernel's bounds, each checked against the
/// oracle to do what its name says. Sites: the South, North and East
/// surge stations, the first case-study POI and the far north site of
/// [`wide_pois`].
fn kernel_fixtures(stations: &Stations, poi: LatLon) -> Vec<StormParams> {
    use ct_hydro::{StationId, StormTrack, TrackPoint};
    let point = |t_hours, pos| TrackPoint { t_hours, pos };
    let bent = |points: Vec<TrackPoint>| StormParams {
        track: StormTrack::new(points).unwrap(),
        central_pressure_hpa: 962.0,
        ambient_pressure_hpa: 1010.0,
        rmax_km: 30.0,
        b: 1.6,
        tide_m: 0.2,
    };
    let south = stations.get(StationId::South).pos;
    let north = stations.get(StationId::North).pos;
    let east = stations.get(StationId::East).pos;
    let mut storms = Vec::new();
    for site in [south, poi] {
        // The eye passes exactly over the site at t = 6 h, a step of
        // both scans.
        storms.push(bent(vec![
            point(0.0, site.destination(200.0, 150.0)),
            point(6.0, site),
            point(14.0, site.destination(30.0, 220.0)),
        ]));
        // The track grazes the 400 km gate at t = 6 h, just inside and
        // just outside it.
        for km in [399.9999, 400.0001] {
            let vertex = site.destination(180.0, km);
            storms.push(bent(vec![
                point(0.0, vertex.destination(270.0, 150.0)),
                point(6.0, vertex),
                point(12.0, vertex.destination(90.0, 150.0)),
            ]));
        }
        // A stationary leg 35 km east of the site, every step on it
        // tied for closest to rmax.
        let near = site.destination(90.0, 35.0);
        storms.push(bent(vec![
            point(0.0, near.destination(180.0, 250.0)),
            point(4.0, near),
            point(8.0, near),
            point(14.0, near.destination(20.0, 200.0)),
        ]));
        // Slow northward at 1 m/s, passing exactly rmax (30 km) west
        // of the site at t = 10 h, the step evaluated first; then fast
        // legs at 15 m/s, over its north and down its east side at 1.15
        // rmax, with the site on their right, where the motion adds to
        // the circulation: the bound must carry the fastest step's
        // motion, not the first step's.
        let west = site.destination(270.0, 30.0);
        let east = site.destination(90.0, 34.5);
        storms.push(bent(vec![
            point(0.0, west.destination(180.0, 36.0)),
            point(10.0, west),
            point(20.0, west.destination(0.0, 36.0)),
            point(21.5, east.destination(0.0, 60.0)),
            point(23.7, east.destination(180.0, 60.0)),
        ]));
    }
    // From the equator, where |f| and so the bound table's Coriolis
    // floor are 0, to a pass 40 km west of the South station.
    storms.push(bent(vec![
        point(0.0, LatLon::new(0.0, -158.3)),
        point(60.0, south.destination(270.0, 40.0)),
        point(72.0, south.destination(20.0, 150.0)),
    ]));
    // At 47–53° N, where the floor is nearly three times Oahu's, past
    // the far north site at 29 km.
    storms.push(bent(vec![
        point(0.0, LatLon::new(47.0, -163.0)),
        point(10.0, LatLon::new(50.0, -160.4)),
        point(20.0, LatLon::new(53.0, -157.0)),
    ]));
    // Creeping 50 m in 6 h onto the North and East stations and off
    // again: bearing vectors of zero length and a few metres.
    for site in [north, east] {
        storms.push(bent(vec![
            point(0.0, site.destination(200.0, 0.05)),
            point(6.0, site),
            point(12.0, site.destination(20.0, 0.05)),
        ]));
    }
    // Heading exactly along the onshore bearing of the North station
    // (due south) and of the South station (due north), 40 km to the
    // west: where the circulation blows offshore, the drift blows
    // fully onshore.
    for (site, dlat) in [(north, -1.0), (south, 1.0)] {
        let lon = site.lon - 0.4;
        storms.push(bent(vec![
            point(0.0, LatLon::new(site.lat - 2.5 * dlat, lon)),
            point(24.0, LatLon::new(site.lat + 1.5 * dlat, lon)),
        ]));
    }
    // West of the North station heading north: its wind blows
    // offshore at every step, so its peak onshore wind stays 0.
    storms.push(bent(vec![
        point(
            0.0,
            north.destination(270.0, 110.0).destination(180.0, 110.0),
        ),
        point(
            10.0,
            north.destination(270.0, 110.0).destination(0.0, 110.0),
        ),
    ]));
    // Unphysical: no pressure deficit.
    storms.push(StormParams {
        central_pressure_hpa: 1010.0,
        ..storms[0].clone()
    });
    // Creeping east about 395 km south of the South station: only the
    // South, Ewa and West stations come in range, and the circulation
    // blows offshore at each of them at every step, so every open-coast
    // peak stays 0 and the scan culls those pairs by their onshore
    // bound.
    let start = south.destination(194.0, 395.0);
    storms.push(bent(vec![
        point(0.0, start),
        point(20.0, start.destination(99.0, 97.0)),
    ]));
    storms
}

/// The case-study POIs plus sites 160 to 1,100 km away, so the 400 km
/// gate is decided per site and step, and one far north at 50° N.
fn wide_pois(pois: &[Poi]) -> Vec<Poi> {
    let far = [
        ("lihue", LatLon::new(21.98, -159.37)),
        ("hilo", LatLon::new(19.72, -155.08)),
        ("open-sea-se", LatLon::new(17.0, -152.0)),
        ("open-sea-nw", LatLon::new(25.0, -166.0)),
        ("open-sea-n50", LatLon::new(50.0, -160.0)),
    ];
    let mut wide = pois.to_vec();
    wide.extend(
        far.into_iter()
            .map(|(id, pos)| Poi::with_site_profile(id, pos, 1.5, 0.2)),
    );
    wide
}

/// The tier-1 bit-identity contract of the storm-passage kernel: over
/// the full seed-42 1000-storm ensemble and the edge fixtures, every
/// station surge and every surge, wind and compound realization equals
/// the scalar oracles bit for bit, on the case-study POIs and on a
/// site set wider than the 400 km gate. An unphysical storm gives the
/// oracle's error for surge and compound and zero peak winds for wind.
#[test]
fn kernel_realizations_equal_the_scalar_oracles_bitwise() {
    use ct_hazard::DamageModel;
    use ct_hydro::{EnsembleConfig, Realization, StationId, SurgeCalibration};

    let cfg = config(HazardSpec::Surge, 1000);
    let dem = synthesize_oahu(&cfg.terrain);
    let pois = ct_scada::oahu::case_study_pois(&dem).unwrap();
    let wide = wide_pois(&pois);
    let stations = Stations::from_dem(&dem);
    let cal = SurgeCalibration::default();
    let model = ParametricSurge::new(stations.clone(), cal);
    let damage = DamageModel::default();
    let [surge, wind, compound] = HazardSpec::ALL.map(|spec| spec.build(&stations, cal));

    let mut storms = TrackEnsemble::new(EnsembleConfig::default())
        .unwrap()
        .generate();
    assert_eq!(storms.len(), 1000);
    let fixtures = kernel_fixtures(&stations, pois[0].pos);

    // The fixtures do what their names say.
    let winds = |storm: &StormParams| oracle::station_winds(&model, storm).unwrap();
    let at = |storm: &StormParams, id| winds(storm).into_iter().find(|w| w.0 == id).unwrap();
    let south = StationId::South;
    assert!(at(&fixtures[0], south).2 <= 1e-6, "eye over South");
    assert!((399.999..400.0).contains(&at(&fixtures[1], south).2));
    assert!((400.0..400.001).contains(&at(&fixtures[2], south).2));
    assert_eq!(
        fixtures[10].track.position(0.0).lat,
        0.0,
        "from the equator"
    );
    assert!(at(&fixtures[10], south).2 < 400.0, "in range of South");
    let n50 = LatLon::new(50.0, -160.0);
    assert!((28.0..30.0).contains(&fixtures[11].track.position(10.0).distance_km(n50)));
    for (storm, id) in [
        (&fixtures[12], StationId::North),
        (&fixtures[13], StationId::East),
    ] {
        assert!(at(storm, id).2 <= 1e-6, "eye over {id:?}");
    }
    assert_eq!(fixtures[14].track.motion(12.0).0, 180.0, "due south");
    assert_eq!(fixtures[15].track.motion(12.0).0, 0.0, "due north");
    let offshore = at(&fixtures[16], StationId::North);
    assert!(offshore.1 == 0.0 && offshore.2 < 400.0, "{offshore:?}");
    assert!(oracle::station_surge(&model, &fixtures[17]).is_err());
    let all_offshore = winds(&fixtures[18]);
    assert!(all_offshore.iter().all(|w| w.1 == 0.0), "{all_offshore:?}");
    let in_range: Vec<StationId> = all_offshore
        .iter()
        .filter(|w| w.2 < 400.0)
        .map(|w| w.0)
        .collect();
    assert_eq!(in_range, [south, StationId::Ewa, StationId::West]);
    storms.extend(fixtures);

    let bits = |r: &Realization| {
        let severities: Vec<u64> = r.inundation_m.iter().map(|v| v.to_bits()).collect();
        (
            r.index,
            r.tide_m.to_bits(),
            r.max_station_surge_m.to_bits(),
            severities,
        )
    };
    for (i, storm) in storms.iter().enumerate() {
        let got = model.station_surge(storm).map(|s| {
            s.iter()
                .map(|(id, v)| (id, v.to_bits()))
                .collect::<Vec<_>>()
        });
        let want = oracle::station_surge(&model, storm).map(|s| {
            s.iter()
                .map(|&(id, v)| (id, v.to_bits()))
                .collect::<Vec<_>>()
        });
        assert_eq!(got, want, "storm {i}: station surges");
        for sites in [&pois, &wide] {
            let want_surge = oracle::surge(&model, i, storm, sites);
            let want_wind = oracle::wind(&damage, i, storm, sites);
            let want_compound = want_surge.clone().map(|s| oracle::compound(&s, &want_wind));
            let cases = [
                (&surge, want_surge),
                (&wind, Ok(want_wind)),
                (&compound, want_compound),
            ];
            for (hazard, want) in cases {
                assert_eq!(
                    hazard.evaluate(i, storm, sites).map(|r| bits(&r)),
                    want.map(|r| bits(&r)),
                    "storm {i}, {} sites, {}",
                    sites.len(),
                    hazard.hazard_id()
                );
            }
        }
    }
}
