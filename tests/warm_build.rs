//! What a warm build leaves out. With every record in the store, a
//! build reads its sites record and realizations and synthesizes,
//! samples and evaluates nothing; evicting one realization record costs exactly
//! one ensemble draw and one evaluation. The output stays
//! bit-identical to a storeless build either way.
//!
//! One `#[test]`: it reads process-global counters, which concurrent
//! tests in the same binary would race.

use compound_threats::artifact::{base_key, realization_key};
use compound_threats::figures::reproduce_all;
use compound_threats::prelude::*;
use compound_threats::report::figure_csv;

const REALIZATIONS: usize = 24;

/// Unique scratch directory, removed on drop.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!(
            "ct-warm-build-{tag}-{}-{:?}",
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

/// Work a call performed: `[DEMs synthesized, ensembles sampled,
/// realizations evaluated, store records read]`.
fn work<T>(f: impl FnOnce() -> T) -> (T, [u64; 4]) {
    let read = || {
        [
            ct_obs::names::GEO_DEM_SYNTHESIZED,
            ct_obs::names::HYDRO_ENSEMBLES_SAMPLED,
            ct_obs::names::HAZARD_REALIZATIONS_EVALUATED,
            ct_obs::names::STORE_HITS,
        ]
        .map(|name| ct_obs::counter(name).get())
    };
    let before = read();
    let out = f();
    let after = read();
    (out, [0, 1, 2, 3].map(|i| after[i] - before[i]))
}

#[test]
fn warm_builds_read_instead_of_recomputing() {
    let config = CaseStudyConfig::builder()
        .realizations(REALIZATIONS)
        .build()
        .unwrap();
    let (clean, cost) = work(|| CaseStudy::build(&config).unwrap());
    let n = REALIZATIONS as u64;
    assert_eq!(cost, [1, 1, n, 0], "storeless build");
    let golden = figures_csv(&clean);

    let scratch = Scratch::new("oahu");
    let store = Store::open(&scratch.0).unwrap();
    let build = || CaseStudy::build_with_store(&config, Some(&store)).unwrap();
    let (_, cost) = work(build);
    assert_eq!(cost, [1, 1, n, 0], "cold build");
    let (warm, cost) = work(build);
    assert_eq!(cost, [0, 0, 0, n + 1], "fully warm build");
    assert_eq!(warm.realizations(), clean.realizations());
    assert_eq!(figures_csv(&warm), golden);

    // Another hazard over the same terrain reads the shared sites
    // record, so it synthesizes no DEM, but has no realizations of its
    // own yet.
    let mut wind = config.clone();
    wind.hazard = HazardSpec::Wind;
    let (_, cost) = work(|| CaseStudy::build_with_store(&wind, Some(&store)).unwrap());
    assert_eq!(cost, [0, 1, n, 1], "wind over a surge store");

    // One lost realization record: one ensemble draw, one evaluation,
    // and the same answer.
    let dem = ct_geo::terrain::synthesize_oahu(&config.terrain);
    let pois = ct_scada::oahu::case_study_pois(&dem).unwrap();
    let stations = ct_hydro::Stations::from_dem(&dem);
    let hazard = config.hazard.build(&stations, config.calibration);
    let base = base_key(&config, &pois, hazard.as_ref());
    assert!(store.evict(&realization_key(&base, 7)).unwrap());
    let (healed, cost) = work(build);
    assert_eq!(cost, [0, 1, 1, n], "one evicted realization");
    assert_eq!(healed.realizations(), clean.realizations());
    assert_eq!(figures_csv(&healed), golden);
}
