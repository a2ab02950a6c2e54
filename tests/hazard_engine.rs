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
use ct_hydro::{
    FloodThreshold, ParametricSurge, RealizationSet, Stations, StormParams, TrackEnsemble,
};
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
    let realizations = par_map_dynamic(&indexed, threads, |(i, storm)| {
        RealizationSet::evaluate_storm(*i, storm, &model, &pois)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()
    .unwrap();
    let mut set = RealizationSet::from_parts(pois, realizations);
    if let Some(depth_m) = config.flood_threshold_m {
        set.set_threshold(FloodThreshold::new(depth_m).unwrap());
    }
    set
}

/// Digests of the study the reference pipeline gave at
/// `EQUIVALENCE_N` surge realizations, pinned when that study could
/// still be built as a `CaseStudy`: its figure CSV at the 0.5 m and
/// 1.0 m flood thresholds, and every profile at 0.5 m.
const REFERENCE_FIGURES_DIGEST: &str = "12772a130deefeaf8db717778bb42135";
const REFERENCE_FIGURES_1M_DIGEST: &str = "b0aea878065f6986c38d630213c4619e";
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

    // The reference path also honors a non-default threshold the same
    // way (`with_flood_threshold` sensitivity stays aligned).
    let loose = CaseStudyConfig {
        flood_threshold_m: Some(1.0),
        ..config.clone()
    };
    let reference_t = build_reference_surge(&loose);
    let trait_t = via_trait.with_flood_threshold(1.0).unwrap();
    assert_eq!(&reference_t, trait_t.realizations());
    assert_eq!(
        csv_digest(&figures_csv(&trait_t)),
        REFERENCE_FIGURES_1M_DIGEST
    );
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

/// The storm-passage wind kernel (`DamageModel::peak_winds_at_indexed`,
/// used by `WindFragilityHazard::evaluate` and the line-fragility
/// sampler) is
/// bit-identical to the per-POI scalar scan over the pipeline's real
/// POIs and sampled ensemble storms, and a compound evaluation built
/// on batched parts stays the exact per-asset max of those parts.
#[test]
fn batched_hazard_evaluation_is_bit_identical_to_the_per_poi_path() {
    use ct_grid::{fragility_draw, DamageModel};
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
            let gust = wind.peak_gust_ms(storm, poi);
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
    let compound = CompoundHazard::union(vec![Box::new(wind), Box::new(reseeded)]).unwrap();
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
