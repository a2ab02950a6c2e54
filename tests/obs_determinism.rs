//! The observability layer's determinism contract: work counters and
//! the span tree are functions of the workload, not of how many
//! worker threads executed it. Timings (`wall_ns`, `cpu_ns`) are
//! explicitly excluded — only structure and counts are compared.
//!
//! Kept as a single global-registry `#[test]` because it snapshots
//! and resets the process-global registry; concurrent tests would
//! race it. The golden-format test below uses a local [`Registry`]
//! and is safe to run alongside.

use compound_threats::figures::{reproduce, Figure};
use compound_threats::{CaseStudy, CaseStudyConfig};
use ct_store::Store;

/// The thread-count-independent projection of a snapshot: counters,
/// histogram bucket counts, and `(span path, calls)` pairs.
type Projection = (Vec<(String, u64)>, Vec<String>, Vec<(String, u64)>);

fn config(threads: usize) -> CaseStudyConfig {
    CaseStudyConfig::builder()
        .realizations(60)
        .threads(threads)
        .build()
        .unwrap()
}

/// Runs a reduced pipeline with `threads` workers and projects the
/// global snapshot.
fn run_with(threads: usize) -> Projection {
    ct_obs::reset();
    let study = CaseStudy::build(&config(threads)).unwrap();
    reproduce(&study, Figure::Fig6).unwrap();
    reproduce(&study, Figure::Fig9).unwrap();
    project()
}

/// A cold then a warm build through a fresh store with `threads`
/// workers, projected.
fn store_run_with(threads: usize) -> Projection {
    let root = std::env::temp_dir().join(format!(
        "ct-obs-determinism-{threads}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&root).ok();
    ct_obs::reset();
    let store = Store::open(&root).unwrap();
    for _ in 0..2 {
        CaseStudy::build_with_store(&config(threads), Some(&store)).unwrap();
    }
    drop(store);
    std::fs::remove_dir_all(&root).ok();
    project()
}

fn project() -> Projection {
    let snap = ct_obs::snapshot();
    let hist_lines: Vec<String> = snap
        .histograms
        .iter()
        .flat_map(|h| {
            h.buckets
                .iter()
                .enumerate()
                .map(|(i, n)| format!("{}[{i}]={n}", h.name))
                .chain([format!("{}[count]={}", h.name, h.count)])
                .collect::<Vec<_>>()
        })
        .collect();
    let span_calls = snap
        .spans
        .iter()
        .map(|s| (s.path.clone(), s.calls))
        .collect();
    (snap.counters.clone(), hist_lines, span_calls)
}

fn assert_thread_count_invariant(run: fn(usize) -> Projection) -> Projection {
    let baseline = run(1);
    for threads in [2, 4, 8] {
        let other = run(threads);
        assert_eq!(
            baseline.0, other.0,
            "counters diverge between 1 and {threads} threads"
        );
        assert_eq!(
            baseline.1, other.1,
            "histogram buckets diverge between 1 and {threads} threads"
        );
        assert_eq!(
            baseline.2, other.2,
            "span tree diverges between 1 and {threads} threads"
        );
    }
    baseline
}

fn counter(projection: &Projection, name: &str) -> u64 {
    projection
        .0
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

/// The (step, site) pairs the peak scans accounted for: evaluated,
/// skipped and culled.
fn peak_scan_pairs(count: &dyn Fn(&str) -> u64) -> u64 {
    count(ct_obs::names::HYDRO_PEAK_SCAN_EVALUATED)
        + count(ct_obs::names::HYDRO_PEAK_SCAN_SKIPPED)
        + count(ct_obs::names::HYDRO_PEAK_SCAN_CULLED)
}

#[test]
fn counters_and_span_tree_are_thread_count_invariant() {
    let baseline = assert_thread_count_invariant(run_with);

    // The workload actually registered work: realizations were
    // evaluated, profiles computed, attacker candidates examined.
    let count = |name: &str| counter(&baseline, name);
    assert_eq!(count(ct_obs::names::GEO_DEM_SYNTHESIZED), 1);
    // Terrain synthesis computes the land mask from containment alone
    // and only the 171 cells the 20 POIs' bilinear reads and the 5
    // station rays touch (a full fill is 184 × 156 = 28,704 cells and
    // 65,165 / 458,539 edges). Each cell walks the Oahu outline (16
    // edges) and Pearl Harbor (9 edges) where it can matter; each edge
    // is either evaluated or culled by its bounding box.
    assert_eq!(count(ct_obs::names::GEO_TERRAIN_CELLS_EVALUATED), 171);
    assert_eq!(count(ct_obs::names::GEO_TERRAIN_EDGES_EVALUATED), 504);
    assert_eq!(count(ct_obs::names::GEO_TERRAIN_EDGES_CULLED), 3033);
    assert_eq!(count(ct_obs::names::HYDRO_ENSEMBLES_SAMPLED), 1);
    // The coordinator samples the 60 storms alone: one normal draw per
    // rejection try of the four truncated variates, plus one plain
    // cross-track offset per storm, whatever the thread count.
    assert_eq!(count(ct_obs::names::HYDRO_ENSEMBLE_NORMAL_DRAWS), 306);
    assert_eq!(count(ct_obs::names::HYDRO_REALIZATIONS_EVALUATED), 60);
    assert_eq!(count(ct_obs::names::HAZARD_REALIZATIONS_EVALUATED), 60);
    // The surge peak scans' work: full wind evaluations, in-range
    // steps skipped by the speed or direction bound, and steps culled
    // before any trig, one add of each per scan. A tighter cull, or an
    // order that raises the peak sooner, moves pairs from evaluated
    // and skipped to culled; their sum is the work offered. The
    // haversines count the pairs' and the closest approaches' (10,521
    // while every approaching step computed one for the latter, 2,636
    // while the stations' pairs ran in time order).
    assert_eq!(count(ct_obs::names::HYDRO_PEAK_SCAN_EVALUATED), 532);
    assert_eq!(count(ct_obs::names::HYDRO_PEAK_SCAN_SKIPPED), 927);
    assert_eq!(count(ct_obs::names::HYDRO_PEAK_SCAN_CULLED), 12591);
    assert_eq!(peak_scan_pairs(&count), 14050);
    assert_eq!(count(ct_obs::names::HYDRO_PEAK_SCAN_HAVERSINES), 1649);
    let exposures = count(ct_obs::names::HAZARD_ASSET_EXPOSURES);
    assert!(
        exposures > 0 && exposures % 60 == 0,
        "asset exposures must be realizations × POIs, got {exposures}"
    );
    // The default hazard is plain surge — no compound components.
    assert_eq!(
        count(ct_obs::names::HAZARD_COMPOUND_COMPONENT_EVALUATIONS),
        0
    );
    assert_eq!(count(ct_obs::names::FIGURES_REPRODUCED), 2);
    assert!(count(ct_obs::names::PROFILE_PLANS_EVALUATED) > 0);
    assert!(count(ct_obs::names::ATTACKER_ATTACKS) > 0);
    assert!(baseline
        .2
        .iter()
        .any(|(path, calls)| path == "build/hazard_evaluate" && *calls == 1));

    // Through a store, the cold build does all the work once and the
    // warm one reads it back: one DEM and one ensemble in total, and
    // one store hit per realization plus the sites record.
    let stored = assert_thread_count_invariant(store_run_with);
    let count = |name: &str| counter(&stored, name);
    assert_eq!(count(ct_obs::names::GEO_DEM_SYNTHESIZED), 1);
    assert_eq!(count(ct_obs::names::GEO_TERRAIN_CELLS_EVALUATED), 171);
    assert_eq!(count(ct_obs::names::GEO_TERRAIN_EDGES_EVALUATED), 504);
    assert_eq!(count(ct_obs::names::GEO_TERRAIN_EDGES_CULLED), 3033);
    assert_eq!(count(ct_obs::names::HYDRO_ENSEMBLES_SAMPLED), 1);
    assert_eq!(count(ct_obs::names::HYDRO_ENSEMBLE_NORMAL_DRAWS), 306);
    assert_eq!(count(ct_obs::names::HAZARD_REALIZATIONS_EVALUATED), 60);
    assert_eq!(count(ct_obs::names::HYDRO_PEAK_SCAN_EVALUATED), 532);
    assert_eq!(count(ct_obs::names::HYDRO_PEAK_SCAN_SKIPPED), 927);
    assert_eq!(count(ct_obs::names::HYDRO_PEAK_SCAN_CULLED), 12591);
    assert_eq!(peak_scan_pairs(&count), 14050);
    assert_eq!(count(ct_obs::names::HYDRO_PEAK_SCAN_HAVERSINES), 1649);
    assert_eq!(count(ct_obs::names::STORE_MISSES), 61);
    assert_eq!(count(ct_obs::names::STORE_HITS), 61);
    // The warm build reads the sites record alone and its 60 adjacent
    // realization records with one coalesced read: 1,245 payload bytes
    // of sites and 205 per surge realization.
    assert_eq!(count(ct_obs::names::STORE_READ_CALLS), 2);
    assert_eq!(count(ct_obs::names::STORE_BYTES_READ), 1245 + 60 * 205);
    assert!(stored
        .2
        .iter()
        .any(|(path, calls)| path == "build/store_load" && *calls == 2));
}

#[test]
fn snapshot_csv_matches_golden_format() {
    // A hand-built local registry whose CSV rendering is pinned
    // verbatim: any schema drift (column order, field names, bucket
    // labels) must show up as a diff here, not in downstream parsers.
    let reg = ct_obs::Registry::new();
    reg.counter("hydro.realizations_evaluated").add(60);
    reg.counter("store.hits").add(12_000);
    reg.gauge("build.threads").set(4.0);
    let h = reg.histogram("store.record_bytes", &[250.0, 500.0]);
    h.observe(200.0);
    h.observe(300.0);
    h.observe(900.0);
    let golden = "\
kind,name,field,value
counter,hydro.realizations_evaluated,value,60
counter,store.hits,value,12000
gauge,build.threads,value,4
hist,store.record_bytes,le_250,1
hist,store.record_bytes,le_500,1
hist,store.record_bytes,le_inf,1
hist,store.record_bytes,count,3
hist,store.record_bytes,sum,1400
";
    assert_eq!(reg.snapshot().to_csv(), golden);
}
