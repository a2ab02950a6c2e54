//! End-to-end contracts of the artifact store: warm and cold builds
//! are bit-identical, sharded runs merge to the clean answer, an
//! interrupted run resumes from whatever records survived, and every
//! class of on-disk corruption degrades to recompute — counted, never
//! trusted, never fatal. The failpoint layer (`ct_store::faults`)
//! extends that contract to *live* I/O failure: ENOSPC, failed
//! renames, failed evictions, and transient errors are injected
//! deterministically, and the figures must come out bit-identical
//! anyway.

use compound_threats::artifact::{dem_key, ensemble_base_key, realization_key};
use compound_threats::figures::reproduce_all;
use compound_threats::prelude::*;
use compound_threats::report::figure_csv;
use ct_geo::terrain::synthesize_oahu;
use ct_store::faults::sites;
use ct_store::{FaultKind, FaultRegistry, FaultSpec, FsckOptions, PackedOptions};
use std::sync::Arc;
use std::time::Duration;

const REALIZATIONS: usize = 24;
/// Records a build reads or writes besides its realizations (plan
/// histograms come only with figures): one DEM per region, and Oahu
/// is one region.
const DEM_RECORDS: usize = 1;

fn config() -> CaseStudyConfig {
    CaseStudyConfig::builder()
        .realizations(REALIZATIONS)
        .build()
        .unwrap()
}

/// Unique scratch directory for one test, removed on drop.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!(
            "ct-store-resume-{tag}-{}-{:?}",
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

/// All figure output as one CSV string — the user-visible artifact
/// whose bit-identity the store must preserve.
fn figures_csv(study: &CaseStudy) -> String {
    reproduce_all(study)
        .unwrap()
        .iter()
        .map(figure_csv)
        .collect()
}

#[test]
fn warm_and_cold_builds_are_bit_identical() {
    let scratch = Scratch::new("warmcold");
    let config = config();
    let plain = CaseStudy::build(&config).unwrap();

    let store = Store::open(&scratch.0).unwrap();
    let cold = CaseStudy::build_with_store(&config, Some(&store)).unwrap();
    let warm = CaseStudy::build_with_store(&config, Some(&store)).unwrap();

    // The ensembles are equal f64-for-f64 (RealizationSet's PartialEq
    // compares every field), and the rendered figures are equal
    // byte-for-byte.
    assert_eq!(plain.realizations(), cold.realizations());
    assert_eq!(plain.realizations(), warm.realizations());
    let golden = figures_csv(&plain);
    assert_eq!(golden, figures_csv(&cold));
    assert_eq!(golden, figures_csv(&warm));
}

#[test]
fn interrupted_shard_resumes_and_merges_to_the_clean_answer() {
    let scratch = Scratch::new("resume");
    let config = config();
    let store = Store::open(&scratch.0).unwrap();

    // A full shard-0 run, then simulate a `kill -9` that happened
    // mid-run by deleting a third of its records: what's left on disk
    // is exactly what an interrupted process would have committed
    // (writes are atomic, so partial *files* cannot exist — only
    // missing records).
    let spec = ShardSpec::new(0, 2).unwrap();
    let first = run_shard(&config, &store, spec).unwrap();
    assert_eq!(first.computed, first.total);
    let dem = synthesize_oahu(&config.terrain);
    let pois = ct_scada::oahu::case_study_pois(&dem).unwrap();
    let hazard = config.hazard.build_model(&dem, config.calibration);
    let base = ensemble_base_key(&config, &dem, &pois, hazard.as_ref());
    for i in (0..REALIZATIONS).filter(|i| spec.owns(*i)).take(4) {
        assert!(store.evict(&realization_key(&base, i)).unwrap());
    }

    // Resuming the shard recomputes exactly the lost records.
    let resumed = run_shard(&config, &store, spec).unwrap();
    assert_eq!(resumed.computed, 4);
    assert_eq!(resumed.reused, resumed.total - 4);

    // Merge with shard 1 never run: it fills the other half itself
    // and still matches a clean single-process build exactly.
    let merged = CaseStudy::merge_from_store(&config, &store).unwrap();
    let clean = CaseStudy::build(&config).unwrap();
    assert_eq!(merged.realizations(), clean.realizations());
    assert_eq!(figures_csv(&merged), figures_csv(&clean));
}

#[test]
fn every_corruption_class_degrades_to_recompute_and_heals() {
    let scratch = Scratch::new("corrupt");
    let config = config();

    // Seed the store, then damage three records, one per corruption
    // class the frame format distinguishes.
    let seed_store = Store::open(&scratch.0).unwrap();
    let clean = CaseStudy::build_with_store(&config, Some(&seed_store)).unwrap();
    let dem = synthesize_oahu(&config.terrain);
    let pois = ct_scada::oahu::case_study_pois(&dem).unwrap();
    let hazard = config.hazard.build_model(&dem, config.calibration);
    let base = ensemble_base_key(&config, &dem, &pois, hazard.as_ref());

    let damage = |i: usize, f: &dyn Fn(Vec<u8>) -> Vec<u8>| {
        let path = seed_store.record_path(&realization_key(&base, i));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, f(bytes)).unwrap();
    };
    // Truncated mid-payload (a torn write from a crashed kernel).
    damage(0, &|b| b[..b.len() / 2].to_vec());
    // Flipped payload byte (bit rot): frame intact, checksum fails.
    damage(1, &|mut b| {
        b[30] ^= 0xff;
        b
    });
    // Wrong format version (record from a future incompatible build).
    damage(2, &|mut b| {
        b[8..12].copy_from_slice(&99u32.to_le_bytes());
        b
    });

    // Rebuild through a store with a private registry so the counter
    // assertions are exact (the global registry is shared with other
    // tests in this binary).
    let registry = Arc::new(ct_obs::Registry::new());
    let counting_store = Store::open_with_registry(&scratch.0, Arc::clone(&registry)).unwrap();
    let rebuilt = CaseStudy::build_with_store(&config, Some(&counting_store)).unwrap();
    assert_eq!(
        rebuilt.realizations(),
        clean.realizations(),
        "corruption must never change results"
    );

    let snap = registry.snapshot();
    let count = |name| snap.counter(name).unwrap_or(0);
    assert_eq!(count(ct_obs::names::STORE_CORRUPT_RECORDS), 3);
    assert_eq!(count(ct_obs::names::STORE_EVICTIONS), 3);
    assert_eq!(
        count(ct_obs::names::STORE_HITS),
        (REALIZATIONS - 3 + DEM_RECORDS) as u64
    );
    assert_eq!(count(ct_obs::names::STORE_RECORDS_WRITTEN), 3);

    // The rebuild healed the store: a third pass is all hits.
    let healed_reg = Arc::new(ct_obs::Registry::new());
    let healed_store = Store::open_with_registry(&scratch.0, Arc::clone(&healed_reg)).unwrap();
    CaseStudy::build_with_store(&config, Some(&healed_store)).unwrap();
    let snap = healed_reg.snapshot();
    assert_eq!(
        snap.counter(ct_obs::names::STORE_HITS).unwrap_or(0),
        (REALIZATIONS + DEM_RECORDS) as u64
    );
    assert_eq!(
        snap.counter(ct_obs::names::STORE_CORRUPT_RECORDS)
            .unwrap_or(0),
        0
    );
}

#[test]
fn different_configs_never_share_records() {
    let scratch = Scratch::new("isolation");
    let store = Store::open(&scratch.0).unwrap();
    let a = config();
    CaseStudy::build_with_store(&a, Some(&store)).unwrap();

    // Same size, different seed: a full recompute, not a single hit —
    // checked by confirming the store grew by a full second ensemble.
    // The terrain did not change, so the DEM record is shared.
    let mut b = a.clone();
    b.ensemble.seed += 1;
    let before = count_records(&scratch.0);
    CaseStudy::build_with_store(&b, Some(&store)).unwrap();
    assert_eq!(count_records(&scratch.0), before + REALIZATIONS);
}

#[test]
fn a_dem_record_of_the_wrong_length_is_invalidated_and_resynthesized() {
    let scratch = Scratch::new("demshape");
    let config = config();
    let store = Store::open(&scratch.0).unwrap();
    let clean_csv = figures_csv(&CaseStudy::build_with_store(&config, Some(&store)).unwrap());

    // Rewrite the DEM record one elevation short through the store
    // itself, so its frame and checksum are valid.
    let key = dem_key(&ct_geo::terrain::oahu_region_spec(&config.terrain));
    let payload = store.get(&key).unwrap().expect("the build wrote its DEM");
    store.put(&key, &payload[..payload.len() - 8]).unwrap();

    let registry = Arc::new(ct_obs::Registry::new());
    let counting = Store::open_with_registry(&scratch.0, Arc::clone(&registry)).unwrap();
    let rebuilt = CaseStudy::build_with_store(&config, Some(&counting)).unwrap();
    let snap = registry.snapshot();
    let count = |name| snap.counter(name).unwrap_or(0);
    // The short record passed the frame check (a hit), failed the
    // shape check (one corrupt record, evicted), and was synthesized
    // again and written back; every realization still hit.
    assert_eq!(
        count(ct_obs::names::STORE_HITS),
        (REALIZATIONS + DEM_RECORDS) as u64
    );
    assert_eq!(count(ct_obs::names::STORE_MISSES), 0);
    assert_eq!(count(ct_obs::names::STORE_CORRUPT_RECORDS), 1);
    assert_eq!(count(ct_obs::names::STORE_EVICTIONS), 1);
    assert_eq!(count(ct_obs::names::STORE_RECORDS_WRITTEN), 1);
    assert_eq!(count(ct_obs::names::STORE_DEGRADED), 0);
    assert_eq!(figures_csv(&rebuilt), clean_csv);
    assert_eq!(
        counting.get(&key).unwrap().expect("DEM written back"),
        payload,
        "the healed record is the original synthesis"
    );
}

/// A store with private metrics and fault registries, so fault tests
/// get exact counter assertions under the parallel test runner.
fn faulty_store(root: &std::path::Path) -> (Store, Arc<ct_obs::Registry>, Arc<FaultRegistry>) {
    let registry = Arc::new(ct_obs::Registry::new());
    let faults = Arc::new(FaultRegistry::with_obs(Arc::clone(&registry)));
    let store = Store::open_with_faults(root, Arc::clone(&registry), Arc::clone(&faults)).unwrap();
    (store, registry, faults)
}

#[test]
fn enospc_during_every_put_degrades_but_results_are_bit_identical() {
    let scratch = Scratch::new("enospc");
    let config = config();
    let clean = CaseStudy::build(&config).unwrap();

    let (store, registry, faults) = faulty_store(&scratch.0);
    faults.arm(FaultSpec::every(
        sites::STORE_PUT_WRITE,
        1,
        FaultKind::Enospc,
    ));
    let faulty = CaseStudy::build_with_store(&config, Some(&store)).unwrap();

    // Snapshot before rendering figures: figure reproduction performs
    // its own histogram puts, which would keep firing the failpoint.
    let snap = registry.snapshot();
    let count = |name| snap.counter(name).unwrap_or(0);
    assert_eq!(count(ct_obs::names::FAULTS_ARMED), 1);
    assert_eq!(
        count(ct_obs::names::FAULTS_FIRED),
        (REALIZATIONS + DEM_RECORDS) as u64
    );
    assert_eq!(
        count(ct_obs::names::STORE_DEGRADED),
        (REALIZATIONS + DEM_RECORDS) as u64
    );
    assert_eq!(count(ct_obs::names::STORE_RECORDS_WRITTEN), 0);
    // ENOSPC is not transient: the retry loop must not have burned
    // time on a full disk.
    assert_eq!(count(ct_obs::names::STORE_RETRIES), 0);

    assert_eq!(faulty.realizations(), clean.realizations());
    assert_eq!(figures_csv(&faulty), figures_csv(&clean));
}

#[test]
fn rename_failure_degrades_and_leaves_no_tmp_residue() {
    let scratch = Scratch::new("rename");
    let config = config();
    let clean = CaseStudy::build(&config).unwrap();

    let (store, registry, faults) = faulty_store(&scratch.0);
    faults.arm(FaultSpec::every(
        sites::STORE_PUT_RENAME,
        1,
        FaultKind::Enospc,
    ));
    let faulty = CaseStudy::build_with_store(&config, Some(&store)).unwrap();

    let snap = registry.snapshot();
    let count = |name| snap.counter(name).unwrap_or(0);
    assert_eq!(
        count(ct_obs::names::STORE_DEGRADED),
        (REALIZATIONS + DEM_RECORDS) as u64
    );
    assert_eq!(count(ct_obs::names::STORE_RECORDS_WRITTEN), 0);
    // Every failed put cleaned up after itself: the staging area holds
    // nothing even though every single rename failed.
    assert_eq!(
        std::fs::read_dir(scratch.0.join("tmp")).unwrap().count(),
        0,
        "failed puts must not orphan tmp files"
    );
    assert_eq!(faulty.realizations(), clean.realizations());
}

#[test]
fn transient_write_fault_is_absorbed_by_retry_not_degradation() {
    let scratch = Scratch::new("transient");
    let config = config();
    let clean = CaseStudy::build(&config).unwrap();

    let (store, registry, faults) = faulty_store(&scratch.0);
    // Fires exactly once, on the first write attempt anywhere: the
    // retry loop must absorb it invisibly.
    faults.arm(FaultSpec::once(sites::STORE_PUT_WRITE, 1, FaultKind::Io));
    let faulty = CaseStudy::build_with_store(&config, Some(&store)).unwrap();

    let snap = registry.snapshot();
    let count = |name| snap.counter(name).unwrap_or(0);
    assert_eq!(count(ct_obs::names::FAULTS_FIRED), 1);
    assert_eq!(count(ct_obs::names::STORE_RETRIES), 1);
    assert_eq!(count(ct_obs::names::STORE_DEGRADED), 0);
    assert_eq!(
        count(ct_obs::names::STORE_RECORDS_WRITTEN),
        (REALIZATIONS + DEM_RECORDS) as u64,
        "the retried put must succeed"
    );
    assert_eq!(faulty.realizations(), clean.realizations());
}

#[test]
fn evict_failure_during_corrupt_get_degrades_to_recompute() {
    let scratch = Scratch::new("evictfault");
    let config = config();

    // Seed cleanly, then corrupt one record on disk.
    let seed_store = Store::open(&scratch.0).unwrap();
    let clean = CaseStudy::build_with_store(&config, Some(&seed_store)).unwrap();
    let dem = synthesize_oahu(&config.terrain);
    let pois = ct_scada::oahu::case_study_pois(&dem).unwrap();
    let hazard = config.hazard.build_model(&dem, config.calibration);
    let base = ensemble_base_key(&config, &dem, &pois, hazard.as_ref());
    let victim = seed_store.record_path(&realization_key(&base, 0));
    let mut bytes = std::fs::read(&victim).unwrap();
    *bytes.last_mut().unwrap() ^= 0xff;
    std::fs::write(&victim, bytes).unwrap();

    // Rebuild with the eviction path failing persistently: the corrupt
    // record is detected, its eviction fails past the retry budget,
    // and the whole get degrades to a fresh evaluation.
    let (store, registry, faults) = faulty_store(&scratch.0);
    faults.arm(FaultSpec::every(
        sites::STORE_EVICT_REMOVE,
        1,
        FaultKind::Io,
    ));
    let rebuilt = CaseStudy::build_with_store(&config, Some(&store)).unwrap();

    let snap = registry.snapshot();
    let count = |name| snap.counter(name).unwrap_or(0);
    assert_eq!(count(ct_obs::names::STORE_CORRUPT_RECORDS), 1);
    assert_eq!(count(ct_obs::names::STORE_EVICTIONS), 0);
    assert_eq!(count(ct_obs::names::STORE_DEGRADED), 1);
    // Default budget: 2 retried attempts, all three firing.
    assert_eq!(count(ct_obs::names::STORE_RETRIES), 2);
    assert_eq!(count(ct_obs::names::FAULTS_FIRED), 3);
    assert_eq!(
        count(ct_obs::names::STORE_HITS),
        (REALIZATIONS - 1 + DEM_RECORDS) as u64
    );
    assert_eq!(rebuilt.realizations(), clean.realizations());
}

#[test]
fn fsck_reports_then_heals_a_damaged_store_exactly() {
    let scratch = Scratch::new("fsck");
    let config = config();

    let registry = Arc::new(ct_obs::Registry::new());
    let store = Store::open_with_registry(&scratch.0, Arc::clone(&registry)).unwrap();
    let clean = CaseStudy::build_with_store(&config, Some(&store)).unwrap();
    let clean_csv = figures_csv(&clean);

    // Injected damage: three corrupt records (one per corruption class
    // the frame distinguishes) and two orphaned staging files.
    let dem = synthesize_oahu(&config.terrain);
    let pois = ct_scada::oahu::case_study_pois(&dem).unwrap();
    let hazard = config.hazard.build_model(&dem, config.calibration);
    let base = ensemble_base_key(&config, &dem, &pois, hazard.as_ref());
    let damage = |i: usize, f: &dyn Fn(Vec<u8>) -> Vec<u8>| {
        let path = store.record_path(&realization_key(&base, i));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, f(bytes)).unwrap();
    };
    damage(0, &|b| b[..b.len() / 2].to_vec());
    damage(1, &|mut b| {
        b[30] ^= 0xff;
        b
    });
    damage(2, &|mut b| {
        b[8..12].copy_from_slice(&99u32.to_le_bytes());
        b
    });
    for n in 0..2 {
        std::fs::write(
            scratch.0.join("tmp").join(format!("orphan.{n}.0.0.tmp")),
            b"crashed writer residue",
        )
        .unwrap();
    }

    let records_total = count_records(&scratch.0);

    // Read-only pass: exact findings, zero modification.
    let report = store.fsck(&FsckOptions::default()).unwrap();
    assert_eq!(report.records_scanned, records_total);
    assert_eq!(report.corrupt_records, 3);
    assert_eq!(report.repaired, 0);
    assert_eq!(report.tmp_files, 2);
    assert_eq!(report.tmp_swept, 0);
    assert!(!report.clean());
    assert_eq!(count_records(&scratch.0), records_total);

    // Repair pass heals every injected problem, exactly.
    let report = store
        .fsck(&FsckOptions {
            repair: true,
            tmp_max_age: Duration::ZERO,
            prune_max_age: None,
        })
        .unwrap();
    assert_eq!(report.corrupt_records, 3);
    assert_eq!(report.repaired, 3);
    assert_eq!(report.tmp_swept, 2);
    let snap = registry.snapshot();
    assert_eq!(snap.counter(ct_obs::names::STORE_TMP_SWEPT), Some(2));

    // A re-check is clean, and a rebuild recomputes only the three
    // evicted records while reproducing the figures byte-for-byte.
    let report = store.fsck(&FsckOptions::default()).unwrap();
    assert!(
        report.clean(),
        "repair must leave a clean store: {report:?}"
    );
    let rebuilt_reg = Arc::new(ct_obs::Registry::new());
    let rebuilt_store = Store::open_with_registry(&scratch.0, Arc::clone(&rebuilt_reg)).unwrap();
    let rebuilt = CaseStudy::build_with_store(&config, Some(&rebuilt_store)).unwrap();
    let snap = rebuilt_reg.snapshot();
    assert_eq!(
        snap.counter(ct_obs::names::STORE_HITS),
        Some((REALIZATIONS - 3 + DEM_RECORDS) as u64)
    );
    assert_eq!(figures_csv(&rebuilt), clean_csv);
}

#[test]
fn full_fault_campaign_still_merges_to_bit_identical_figures() {
    let scratch = Scratch::new("campaign");
    let config = config();
    let clean = CaseStudy::build(&config).unwrap();
    let clean_csv = figures_csv(&clean);

    // Every store failpoint armed at once, firing every Nth hit with
    // coprime-ish periods so the failure pattern keeps shifting across
    // sites. Transient faults exercise the retry loop; the rest
    // exercise degradation. The packed-segment sites are armed too
    // (they simply never fire here — this store uses the loose layout —
    // but arming them proves an armed plan over every site is
    // harmless).
    let (store, registry, faults) = faulty_store(&scratch.0);
    let armed = faults
        .arm_plan(
            "store.put.write:3:io, store.put.rename:5:io, store.put.sync_dir:7:enospc, \
             store.get.read:3:io, store.evict.remove:2:io, \
             segment.append:3:io, segment.sync:2:enospc, segment.footer:2:io, \
             segment.compact:1:io",
        )
        .unwrap();
    assert_eq!(armed, 9, "every registered failpoint site arms");

    // A full sharded run under fire: both shards, then the merge.
    for index in 0..2 {
        let shard = ShardSpec::new(index, 2).unwrap();
        run_shard(&config, &store, shard).unwrap();
    }
    let merged = CaseStudy::merge_from_store(&config, &store).unwrap();
    let merged_csv = figures_csv(&merged);

    let snap = registry.snapshot();
    let count = |name| snap.counter(name).unwrap_or(0);
    assert!(
        count(ct_obs::names::FAULTS_FIRED) > 0,
        "the campaign must actually have injected faults"
    );
    assert_eq!(merged.realizations(), clean.realizations());
    assert_eq!(merged_csv, clean_csv);

    // Whatever the campaign left behind, repair returns the store to
    // health.
    faults.disarm_all();
    let report = store
        .fsck(&FsckOptions {
            repair: true,
            tmp_max_age: Duration::ZERO,
            prune_max_age: None,
        })
        .unwrap();
    assert_eq!(report.repaired, report.corrupt_records);
    assert!(store.fsck(&FsckOptions::default()).unwrap().clean());
}

/// Tiny thresholds so a 24-realization run spans several segments and
/// group syncs, exercising roll/seal/footer paths end to end.
const TINY_SEGMENTS: PackedOptions = PackedOptions {
    roll_bytes: 2048,
    sync_bytes: 512,
};

/// A packed store with private metrics and fault registries.
fn packed_faulty_store(
    root: &std::path::Path,
    options: PackedOptions,
) -> (Store, Arc<ct_obs::Registry>, Arc<FaultRegistry>) {
    let registry = Arc::new(ct_obs::Registry::new());
    let faults = Arc::new(FaultRegistry::with_obs(Arc::clone(&registry)));
    let store =
        Store::open_packed_with_options(root, Arc::clone(&registry), Arc::clone(&faults), options)
            .unwrap();
    (store, registry, faults)
}

#[test]
fn packed_store_is_bit_identical_to_loose_with_the_same_keys() {
    let scratch = Scratch::new("packedloose");
    let config = config();
    let loose_root = scratch.0.join("loose");
    let packed_root = scratch.0.join("packed");

    let loose = Store::open(&loose_root).unwrap();
    let packed = Store::open_packed(&packed_root).unwrap();
    assert!(!loose.is_packed());
    assert!(packed.is_packed());

    // The same run through both layouts: identical ensembles and
    // byte-identical figures.
    let via_loose = CaseStudy::build_with_store(&config, Some(&loose)).unwrap();
    let via_packed = CaseStudy::build_with_store(&config, Some(&packed)).unwrap();
    assert_eq!(via_loose.realizations(), via_packed.realizations());
    assert_eq!(figures_csv(&via_loose), figures_csv(&via_packed));

    // Identical keys: every realization record is stored under the
    // same digest in both layouts, with byte-identical payloads.
    let dem = synthesize_oahu(&config.terrain);
    let pois = ct_scada::oahu::case_study_pois(&dem).unwrap();
    let hazard = config.hazard.build_model(&dem, config.calibration);
    let base = ensemble_base_key(&config, &dem, &pois, hazard.as_ref());
    for i in 0..REALIZATIONS {
        let key = realization_key(&base, i);
        let l = loose.get(&key).unwrap().expect("loose record present");
        let p = packed.get(&key).unwrap().expect("packed record present");
        assert_eq!(l, p, "payloads must match across layouts");
    }

    // Reopening the packed root without `--packed` auto-detects the
    // layout, and a warm rebuild is all hits.
    drop(packed);
    let registry = Arc::new(ct_obs::Registry::new());
    let reopened = Store::open_with_registry(&packed_root, Arc::clone(&registry)).unwrap();
    assert!(reopened.is_packed());
    CaseStudy::build_with_store(&config, Some(&reopened)).unwrap();
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter(ct_obs::names::STORE_HITS),
        Some((REALIZATIONS + DEM_RECORDS) as u64)
    );
    assert_eq!(
        snap.counter(ct_obs::names::STORE_RECORDS_WRITTEN)
            .unwrap_or(0),
        0
    );
}

#[test]
fn packed_damage_campaign_recovers_at_open_and_fsck_heals_exactly() {
    let scratch = Scratch::new("packeddamage");
    let config = config();

    let (store, registry, _faults) = packed_faulty_store(&scratch.0, TINY_SEGMENTS);
    let clean = CaseStudy::build_with_store(&config, Some(&store)).unwrap();
    let clean_csv = figures_csv(&clean);
    let snap = registry.snapshot();
    let count = |name| snap.counter(name).unwrap_or(0);
    assert!(count(ct_obs::names::STORE_SEGMENT_APPENDS) >= REALIZATIONS as u64);
    assert!(count(ct_obs::names::STORE_SEGMENT_SEALS) >= 2);
    assert!(
        count(ct_obs::names::STORE_SEGMENT_GROUP_SYNCS)
            >= count(ct_obs::names::STORE_SEGMENT_SEALS)
    );
    drop(store); // final group sync

    let seg_dir = scratch.0.join("segments");
    let mut segments: Vec<std::path::PathBuf> = std::fs::read_dir(&seg_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segments.sort();
    assert!(
        segments.len() >= 3,
        "tiny thresholds must produce several segments, got {}",
        segments.len()
    );
    let sealed = segments.len() - 1;

    // Damage one segment per recovery class:
    // 1. a torn append past the active segment's last clean entry
    //    (crash mid-write) — dropped by the open-time scan;
    let garbage = b"torn!";
    let mut tail = std::fs::read(segments.last().unwrap()).unwrap();
    tail.extend_from_slice(garbage);
    std::fs::write(segments.last().unwrap(), tail).unwrap();
    // 2. a flipped checksum byte in the first sealed segment's first
    //    entry (bit rot) — served from the index, caught on read;
    let first = std::fs::read(&segments[0]).unwrap();
    let entry = ct_store::segment::parse_entry(&first).expect("segment starts with an entry");
    let victim_len = entry.len as usize;
    let mut flipped = first;
    flipped[victim_len - 1] ^= 0xff;
    std::fs::write(&segments[0], flipped).unwrap();
    // 3. a damaged footer trailer on the second sealed segment — its
    //    index rebuilds by scanning frames instead.
    let mut footerless = std::fs::read(&segments[1]).unwrap();
    let n = footerless.len();
    footerless[n - 5] ^= 0xff;
    std::fs::write(&segments[1], footerless).unwrap();

    // Reopen: sealed-minus-one footer loads, two scans (damaged footer
    // + active), two truncated tails (torn append + chopped footer).
    let registry = Arc::new(ct_obs::Registry::new());
    let store = Store::open_with_registry(&scratch.0, Arc::clone(&registry)).unwrap();
    assert!(store.is_packed());
    let snap = registry.snapshot();
    let count = |name| snap.counter(name).unwrap_or(0);
    assert_eq!(
        count(ct_obs::names::STORE_SEGMENT_FOOTER_LOADS),
        (sealed - 1) as u64
    );
    assert_eq!(count(ct_obs::names::STORE_SEGMENT_SCANS), 2);
    assert_eq!(count(ct_obs::names::STORE_SEGMENT_TRUNCATED_TAILS), 2);

    // Read-only fsck finds exactly the flipped record (the torn tail
    // and footer were already dropped or rebuilt at open).
    let report = store.fsck(&FsckOptions::default()).unwrap();
    assert_eq!(report.segments_scanned, segments.len());
    assert_eq!(report.corrupt_records, 1);
    assert_eq!(report.repaired, 0);
    assert_eq!(report.segments_compacted, 0);
    assert!(!report.clean());

    // Repair tombstones the corrupt record and compacts exactly the
    // dirty segment.
    let report = store
        .fsck(&FsckOptions {
            repair: true,
            tmp_max_age: Duration::ZERO,
            prune_max_age: None,
        })
        .unwrap();
    assert_eq!(report.corrupt_records, 1);
    assert_eq!(report.repaired, 1);
    assert_eq!(report.segments_compacted, 1);
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter(ct_obs::names::STORE_SEGMENT_COMPACTIONS),
        Some(1)
    );
    assert!(store.fsck(&FsckOptions::default()).unwrap().clean());

    // A rebuild recomputes only what the damage cost and reproduces
    // the figures byte-for-byte.
    let rebuilt = CaseStudy::build_with_store(&config, Some(&store)).unwrap();
    assert_eq!(figures_csv(&rebuilt), clean_csv);
    assert!(store.fsck(&FsckOptions::default()).unwrap().clean());
}

#[test]
fn packed_fault_campaign_merges_bit_identical_and_repairs() {
    let scratch = Scratch::new("packedfire");
    let config = config();
    let clean = CaseStudy::build(&config).unwrap();
    let clean_csv = figures_csv(&clean);

    // Every packed-layout failpoint plus the shared read site, armed
    // at once with shifting periods, over a sharded run that rolls and
    // group-syncs constantly thanks to the tiny thresholds.
    let (store, registry, faults) = packed_faulty_store(&scratch.0, TINY_SEGMENTS);
    let armed = faults
        .arm_plan(
            "segment.append:3:io, segment.sync:2:enospc, segment.footer:2:io, store.get.read:4:io",
        )
        .unwrap();
    assert_eq!(armed, 4);

    for index in 0..2 {
        let shard = ShardSpec::new(index, 2).unwrap();
        run_shard(&config, &store, shard).unwrap();
    }
    let merged = CaseStudy::merge_from_store(&config, &store).unwrap();
    let merged_csv = figures_csv(&merged);

    let snap = registry.snapshot();
    let count = |name| snap.counter(name).unwrap_or(0);
    assert!(
        count(ct_obs::names::FAULTS_FIRED) > 0,
        "the campaign must actually have injected faults"
    );
    assert_eq!(merged.realizations(), clean.realizations());
    assert_eq!(merged_csv, clean_csv);
    faults.disarm_all();

    // Crash-during-compaction: flip a record's checksum byte, then
    // fail the repair's compaction once. The tombstone written before
    // the crash makes the heal durable: the retried repair finds
    // nothing left to fix, and the store is clean.
    let seg_dir = scratch.0.join("segments");
    let mut segments: Vec<std::path::PathBuf> = std::fs::read_dir(&seg_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segments.sort();
    let first = std::fs::read(&segments[0]).unwrap();
    let entry = ct_store::segment::parse_entry(&first).expect("segment starts with an entry");
    let victim_len = entry.len as usize;
    let mut flipped = first;
    flipped[victim_len - 1] ^= 0xff;
    std::fs::write(&segments[0], flipped).unwrap();

    let store = Store::open_with_registry(&scratch.0, Arc::new(ct_obs::Registry::new())).unwrap();
    drop(store);
    let (store, _registry, faults) = {
        let registry = Arc::new(ct_obs::Registry::new());
        let faults = Arc::new(FaultRegistry::with_obs(Arc::clone(&registry)));
        let store = Store::open_with_faults(&scratch.0, Arc::clone(&registry), Arc::clone(&faults))
            .unwrap();
        (store, registry, faults)
    };
    faults.arm(FaultSpec::once(sites::SEGMENT_COMPACT, 1, FaultKind::Io));
    let repair = FsckOptions {
        repair: true,
        tmp_max_age: Duration::ZERO,
        prune_max_age: None,
    };
    assert!(
        store.fsck(&repair).is_err(),
        "the injected compaction crash must surface"
    );
    store.fsck(&repair).unwrap();
    assert!(store.fsck(&FsckOptions::default()).unwrap().clean());

    // The record the damage cost is recomputed; figures still match.
    let remerged = CaseStudy::merge_from_store(&config, &store).unwrap();
    assert_eq!(figures_csv(&remerged), clean_csv);
}

fn count_records(root: &std::path::Path) -> usize {
    let mut n = 0;
    let objects = root.join("objects");
    for shard in std::fs::read_dir(objects).into_iter().flatten().flatten() {
        n += std::fs::read_dir(shard.path())
            .into_iter()
            .flatten()
            .count();
    }
    n
}
