//! End-to-end contracts of the artifact store: warm and cold builds
//! are bit-identical, sharded runs merge to the clean answer, an
//! interrupted run resumes from whatever records survived, and every
//! class of on-disk corruption degrades to recompute — counted, never
//! trusted, never fatal. The failpoint layer (`ct_store::faults`)
//! extends that contract to *live* I/O failure: ENOSPC, failed group
//! syncs, failed evictions, and transient errors are injected
//! deterministically, and the figures must come out bit-identical
//! anyway. Finally, the record bytes and keys a build writes are
//! pinned per hazard.

use compound_threats::artifact::{self, realization_key, sites_key};
use compound_threats::figures::reproduce_all;
use compound_threats::prelude::*;
use compound_threats::report::figure_csv;
use ct_geo::terrain::{oahu_region_spec, synthesize_oahu};
use ct_hydro::Stations;
use ct_store::faults::sites;
use ct_store::{Digest, FaultKind, FaultRegistry, FaultSpec, FsckOptions, PackedOptions};
use std::sync::Arc;

const REALIZATIONS: usize = 24;
/// Records a build reads or writes besides its realizations (plan
/// histograms come only with figures): the one Oahu sites record.
const SITES_RECORDS: usize = 1;

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

/// The storeless study's realization-record base key for `config`.
fn base_key(config: &CaseStudyConfig) -> Digest {
    let dem = synthesize_oahu(&config.terrain);
    let pois = ct_scada::oahu::case_study_pois(&dem).unwrap();
    let hazard = config
        .hazard
        .build(&Stations::from_dem(&dem), config.calibration);
    artifact::base_key(config, &pois, hazard.as_ref())
}

/// Rewrites the newest entry for `key` in the (closed) store at
/// `root` through `f`, which sees the whole entry: the 25-byte entry
/// header, then the record frame (see `ct_store::format`).
fn damage_record(root: &std::path::Path, key: &Digest, f: impl FnOnce(&mut [u8])) {
    let dir = root.join("segments");
    let mut segments: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segments.sort();
    for path in segments.iter().rev() {
        let mut bytes = std::fs::read(path).unwrap();
        let scan = ct_store::segment::scan_entries(&bytes, bytes.len() as u64);
        if let Some(e) = scan.entries.iter().rfind(|e| e.key == *key) {
            f(&mut bytes[e.offset as usize..(e.offset + e.len) as usize]);
            std::fs::write(path, bytes).unwrap();
            return;
        }
    }
    panic!("no entry for {key:?}");
}

/// Where a record frame starts inside a segment entry.
const FRAME: usize = ct_store::segment::ENTRY_HEADER_LEN;

/// The three ways a committed entry can rot that the frame check
/// tells apart: a flipped payload byte, a flipped stored checksum,
/// and a format version from an incompatible build. (A torn *tail*
/// is dropped at open instead; see the packed damage campaign.)
fn damage_three_classes(root: &std::path::Path, base: &Digest) {
    damage_record(root, &realization_key(base, 0), |e| {
        *e.last_mut().unwrap() ^= 0xff;
    });
    damage_record(root, &realization_key(base, 1), |e| e[FRAME + 20] ^= 0xff);
    damage_record(root, &realization_key(base, 2), |e| {
        e[FRAME + 8..FRAME + 12].copy_from_slice(&99u32.to_le_bytes());
    });
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
    // mid-run by evicting some of its records: what's left is exactly
    // what an interrupted process would have committed (a torn tail
    // entry is truncated away at the next open, so only whole records
    // survive — the rest are missing).
    let spec = ShardSpec::new(0, 2).unwrap();
    let first = run_shard(&config, &store, spec).unwrap();
    assert_eq!(first.computed, first.total);
    let base = base_key(&config);
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
    let clean = CaseStudy::build(&config).unwrap();
    CaseStudy::build_with_store(&config, Some(&Store::open(&scratch.0).unwrap())).unwrap();
    damage_three_classes(&scratch.0, &base_key(&config));

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
        (REALIZATIONS - 3 + SITES_RECORDS) as u64
    );
    assert_eq!(count(ct_obs::names::STORE_RECORDS_WRITTEN), 3);
    drop((rebuilt, counting_store));

    // The rebuild healed the store: a third pass is all hits.
    let healed_reg = Arc::new(ct_obs::Registry::new());
    let healed_store = Store::open_with_registry(&scratch.0, Arc::clone(&healed_reg)).unwrap();
    CaseStudy::build_with_store(&config, Some(&healed_store)).unwrap();
    let snap = healed_reg.snapshot();
    assert_eq!(
        snap.counter(ct_obs::names::STORE_HITS).unwrap_or(0),
        (REALIZATIONS + SITES_RECORDS) as u64
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
    // The terrain did not change, so the sites record is shared.
    let mut b = a.clone();
    b.ensemble.seed += 1;
    let before = count_records(&store);
    CaseStudy::build_with_store(&b, Some(&store)).unwrap();
    assert_eq!(count_records(&store), before + REALIZATIONS);
}

#[test]
fn a_sites_record_one_entry_short_is_invalidated_and_resynthesized() {
    let scratch = Scratch::new("sitesshape");
    let config = config();
    let store = Store::open(&scratch.0).unwrap();
    let clean_csv = figures_csv(&CaseStudy::build_with_store(&config, Some(&store)).unwrap());

    // Rewrite the sites record one POI short through the store
    // itself, so its frame and checksum are valid.
    let key = sites_key(&oahu_region_spec(&config.terrain));
    let payload = store.get(&key).unwrap().expect("the build wrote its sites");
    let topology = ct_scada::oahu::topology();
    let (pois, stations) = artifact::decode_sites(&payload, &topology).unwrap();
    let short = artifact::encode_sites(&pois[..pois.len() - 1], &stations);
    store.put(&key, &short).unwrap();
    drop(store);

    let registry = Arc::new(ct_obs::Registry::new());
    let counting = Store::open_with_registry(&scratch.0, Arc::clone(&registry)).unwrap();
    let rebuilt = CaseStudy::build_with_store(&config, Some(&counting)).unwrap();
    let snap = registry.snapshot();
    let count = |name| snap.counter(name).unwrap_or(0);
    // The short record passed the frame check (a hit), failed the
    // shape check (one corrupt record, evicted), and was measured on
    // a newly synthesized DEM and written back (the one write); every
    // realization still hit.
    assert_eq!(
        count(ct_obs::names::STORE_HITS),
        (REALIZATIONS + SITES_RECORDS) as u64
    );
    assert_eq!(count(ct_obs::names::STORE_MISSES), 0);
    assert_eq!(count(ct_obs::names::STORE_CORRUPT_RECORDS), 1);
    assert_eq!(count(ct_obs::names::STORE_EVICTIONS), 1);
    assert_eq!(count(ct_obs::names::STORE_RECORDS_WRITTEN), 1);
    assert_eq!(count(ct_obs::names::STORE_DEGRADED), 0);
    assert_eq!(figures_csv(&rebuilt), clean_csv);
    assert_eq!(
        counting.get(&key).unwrap().expect("sites written back"),
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
        sites::SEGMENT_APPEND,
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
        (REALIZATIONS + SITES_RECORDS) as u64
    );
    assert_eq!(
        count(ct_obs::names::STORE_DEGRADED),
        (REALIZATIONS + SITES_RECORDS) as u64
    );
    assert_eq!(count(ct_obs::names::STORE_RECORDS_WRITTEN), 0);
    // ENOSPC is not transient: the retry loop must not have burned
    // time on a full disk.
    assert_eq!(count(ct_obs::names::STORE_RETRIES), 0);

    assert_eq!(faulty.realizations(), clean.realizations());
    assert_eq!(figures_csv(&faulty), figures_csv(&clean));
}

#[test]
fn group_sync_failure_degrades_but_keeps_records_readable() {
    let scratch = Scratch::new("syncfail");
    let config = config();
    let clean = CaseStudy::build(&config).unwrap();

    // Every put trips a group sync at these thresholds, and every
    // sync fails: each put errors and degrades, yet its entry was
    // appended and indexed before the sync.
    let (store, registry, faults) = packed_faulty_store(&scratch.0, TINY_SEGMENTS);
    faults.arm(FaultSpec::every(sites::SEGMENT_SYNC, 1, FaultKind::Enospc));
    let faulty = CaseStudy::build_with_store(&config, Some(&store)).unwrap();
    let snap = registry.snapshot();
    let count = |name| snap.counter(name).unwrap_or(0);
    assert_eq!(
        count(ct_obs::names::STORE_DEGRADED),
        (REALIZATIONS + SITES_RECORDS) as u64
    );
    assert_eq!(count(ct_obs::names::STORE_SEGMENT_GROUP_SYNCS), 0);
    assert_eq!(faulty.realizations(), clean.realizations());

    // Nothing was lost: once the disk recovers, a rebuild is all hits
    // and the first put's sync covers every earlier append.
    faults.disarm_all();
    let rebuilt = CaseStudy::build_with_store(&config, Some(&store)).unwrap();
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter(ct_obs::names::STORE_HITS),
        Some((REALIZATIONS + SITES_RECORDS) as u64)
    );
    assert_eq!(rebuilt.realizations(), clean.realizations());
}

#[test]
fn transient_write_fault_is_absorbed_by_retry_not_degradation() {
    let scratch = Scratch::new("transient");
    let config = config();
    let clean = CaseStudy::build(&config).unwrap();

    let (store, registry, faults) = faulty_store(&scratch.0);
    // Fires exactly once, on the first append anywhere: the retry
    // loop must absorb it invisibly.
    faults.arm(FaultSpec::once(sites::SEGMENT_APPEND, 1, FaultKind::Io));
    let faulty = CaseStudy::build_with_store(&config, Some(&store)).unwrap();

    let snap = registry.snapshot();
    let count = |name| snap.counter(name).unwrap_or(0);
    assert_eq!(count(ct_obs::names::FAULTS_FIRED), 1);
    assert_eq!(count(ct_obs::names::STORE_RETRIES), 1);
    assert_eq!(count(ct_obs::names::STORE_DEGRADED), 0);
    assert_eq!(
        count(ct_obs::names::STORE_RECORDS_WRITTEN),
        (REALIZATIONS + SITES_RECORDS) as u64,
        "the retried put must succeed"
    );
    assert_eq!(faulty.realizations(), clean.realizations());
}

#[test]
fn evict_failure_during_corrupt_get_degrades_to_recompute() {
    let scratch = Scratch::new("evictfault");
    let config = config();

    // Seed cleanly, then corrupt one record on disk.
    let clean = CaseStudy::build(&config).unwrap();
    CaseStudy::build_with_store(&config, Some(&Store::open(&scratch.0).unwrap())).unwrap();
    damage_record(&scratch.0, &realization_key(&base_key(&config), 0), |e| {
        *e.last_mut().unwrap() ^= 0xff;
    });

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
        (REALIZATIONS - 1 + SITES_RECORDS) as u64
    );
    assert_eq!(rebuilt.realizations(), clean.realizations());
}

#[test]
fn fsck_reports_then_heals_a_damaged_store_exactly() {
    let scratch = Scratch::new("fsck");
    let config = config();

    let store = Store::open(&scratch.0).unwrap();
    let clean_csv = figures_csv(&CaseStudy::build_with_store(&config, Some(&store)).unwrap());
    // Realizations, the sites, and the plan histograms the figures put.
    let records_total = count_records(&store);
    drop(store);

    // Injected damage: three corrupt records (one per corruption class
    // the frame distinguishes) and two orphans of a crashed repair.
    damage_three_classes(&scratch.0, &base_key(&config));
    for n in 0..2 {
        std::fs::write(
            scratch
                .0
                .join("tmp")
                .join(format!("seg-99{n:02}.compact.tmp")),
            b"crashed repair residue",
        )
        .unwrap();
    }
    let segments = || -> Vec<Vec<u8>> {
        let mut paths: Vec<_> = std::fs::read_dir(scratch.0.join("segments"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        paths.sort();
        paths.iter().map(|p| std::fs::read(p).unwrap()).collect()
    };
    let damaged = segments();

    let registry = Arc::new(ct_obs::Registry::new());
    let store = Store::open_with_registry(&scratch.0, Arc::clone(&registry)).unwrap();

    // Read-only pass: exact findings, zero modification.
    let report = store.fsck(&FsckOptions::default()).unwrap();
    assert_eq!(report.records_scanned, records_total);
    assert_eq!(report.corrupt_records, 3);
    assert_eq!(report.repaired, 0);
    assert_eq!(report.tmp_files, 2);
    assert_eq!(report.tmp_swept, 0);
    assert!(!report.clean());
    assert_eq!(segments(), damaged, "read-only fsck modifies nothing");

    // Repair pass heals every injected problem, exactly.
    let report = store
        .fsck(&FsckOptions {
            repair: true,
            prune_max_age: None,
        })
        .unwrap();
    assert_eq!(report.corrupt_records, 3);
    assert_eq!(report.repaired, 3);
    assert_eq!(report.tmp_swept, 2);
    assert_eq!(report.segments_compacted, 1);
    let snap = registry.snapshot();
    assert_eq!(snap.counter(ct_obs::names::STORE_TMP_SWEPT), Some(2));

    // A re-check is clean, and a rebuild recomputes only the three
    // evicted records while reproducing the figures byte-for-byte.
    let report = store.fsck(&FsckOptions::default()).unwrap();
    assert!(
        report.clean(),
        "repair must leave a clean store: {report:?}"
    );
    assert_eq!(count_records(&store), records_total - 3);
    drop(store);
    let rebuilt_reg = Arc::new(ct_obs::Registry::new());
    let rebuilt_store = Store::open_with_registry(&scratch.0, Arc::clone(&rebuilt_reg)).unwrap();
    let rebuilt = CaseStudy::build_with_store(&config, Some(&rebuilt_store)).unwrap();
    let snap = rebuilt_reg.snapshot();
    assert_eq!(
        snap.counter(ct_obs::names::STORE_HITS),
        Some((REALIZATIONS - 3 + SITES_RECORDS) as u64)
    );
    assert_eq!(figures_csv(&rebuilt), clean_csv);
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
    let store = Store::open_with_options(root, Arc::clone(&registry), Arc::clone(&faults), options)
        .unwrap();
    (store, registry, faults)
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
    drop((clean, store)); // final group sync, and the root is free

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
fn full_fault_campaign_still_merges_to_bit_identical_figures() {
    let scratch = Scratch::new("campaign");
    let config = config();
    let clean = CaseStudy::build(&config).unwrap();
    let clean_csv = figures_csv(&clean);

    // Every store failpoint armed at once on a store with the default
    // segment thresholds, firing every Nth hit with coprime-ish periods
    // so the failure pattern keeps shifting across sites. Transient
    // faults exercise the retry loop; the rest exercise degradation.
    let (store, registry, faults) = faulty_store(&scratch.0);
    let armed = faults
        .arm_plan(
            "segment.append:3:io, segment.sync:2:enospc, segment.footer:2:io, \
             store.get.read:3:io, store.evict.remove:2:io, segment.compact:1:io",
        )
        .unwrap();
    assert_eq!(
        armed,
        sites::ALL.len(),
        "every registered failpoint site arms"
    );

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
            prune_max_age: None,
        })
        .unwrap();
    assert_eq!(report.repaired, report.corrupt_records);
    assert!(store.fsck(&FsckOptions::default()).unwrap().clean());
}

#[test]
fn packed_fault_campaign_merges_bit_identical_and_repairs() {
    let scratch = Scratch::new("packedfire");
    let config = config();
    let clean = CaseStudy::build(&config).unwrap();
    let clean_csv = figures_csv(&clean);

    // Every store failpoint armed at once with shifting periods, over
    // a sharded run that rolls and group-syncs constantly thanks to
    // the tiny thresholds. Transient faults exercise the retry loop;
    // the rest exercise degradation. (Compaction runs only under
    // `fsck --repair`, so its site stays quiet until the repair below.)
    let (store, registry, faults) = packed_faulty_store(&scratch.0, TINY_SEGMENTS);
    let armed = faults
        .arm_plan(
            "segment.append:3:io, segment.sync:2:enospc, segment.footer:2:io, \
             store.get.read:4:io, store.evict.remove:2:io, segment.compact:1:io",
        )
        .unwrap();
    assert_eq!(
        armed,
        sites::ALL.len(),
        "every registered failpoint site arms"
    );

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
    drop((merged, store)); // the root is free again

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

/// Live records in `store`, as fsck counts them.
fn count_records(store: &Store) -> usize {
    store.fsck(&FsckOptions::default()).unwrap().records_scanned
}

/// Realizations per hazard in the record-digest pins.
const PINNED_REALIZATIONS: usize = 60;

/// The digest of everything a store-backed build writes for one
/// hazard: every realization key and payload in index order, then the
/// sites record's key and payload, folded through `StableHasher`.
fn record_digest(hazard: HazardSpec) -> String {
    let scratch = Scratch::new(&format!("pins-{hazard}"));
    let config = CaseStudyConfig::builder()
        .realizations(PINNED_REALIZATIONS)
        .hazard(hazard)
        .build()
        .unwrap();
    let store = Store::open(&scratch.0).unwrap();
    CaseStudy::build_with_store(&config, Some(&store)).unwrap();
    let base = base_key(&config);
    let keys = (0..PINNED_REALIZATIONS)
        .map(|i| realization_key(&base, i))
        .chain(std::iter::once(sites_key(&oahu_region_spec(
            &config.terrain,
        ))));
    let mut h = ct_store::StableHasher::new();
    for key in keys {
        let payload = store.get(&key).unwrap().expect("the build wrote it");
        h.update(&key.0);
        h.write_usize(payload.len());
        h.update(&payload);
    }
    h.finish().to_hex()
}

/// The record bytes and keys a build writes, pinned per hazard. The
/// pins moved when the base key began hashing the terrain spec instead
/// of the DEM and the sites record replaced the DEM record
/// (`PIPELINE_KERNEL_VERSION` 4); the 1000 realization payloads of
/// each hazard hashed the same before and after.
#[test]
fn record_keys_and_bytes_are_pinned_per_hazard() {
    for (hazard, pin) in [
        (HazardSpec::Surge, "dd8f8a65df7bf21184b72cf90da5fe90"),
        (HazardSpec::Wind, "c081222f662a298215e699519c133d36"),
        (HazardSpec::Compound, "ab1dcfa660fbe970ef5578ff0308600e"),
    ] {
        assert_eq!(record_digest(hazard), pin, "{hazard} records");
    }
}
