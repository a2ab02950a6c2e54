//! The on-disk store: content-addressed records in append-only
//! segment logs under a root directory that one open [`Store`] holds.
//!
//! ```text
//! <root>/lock                       file lock held by the open store
//! <root>/segments/seg-<nnnn>.ctseg  append-only entry logs
//! <root>/tmp/                       staging area for compactions
//! ```
//!
//! Records append to the active segment with one *group* fsync per
//! `CT_SEGMENT_SYNC_BYTES` of data and are served by positioned reads
//! off an in-memory key → (segment, offset, len) index;
//! [`Store::get_many`] reads a batch of keys with one read per run of
//! adjacent entries (`store.read_calls`). Reads validate
//! the record frame and *evict* anything corrupt by appending a
//! tombstone, reporting a miss — so a torn or rotted record degrades
//! to recompute-and-rewrite. See [`crate::segment`] for the format and
//! recovery rules, and [`Store::fsck`] for validation, compaction, and
//! repair.
//!
//! **One open store per root.** [`Store::open`] takes an exclusive
//! lock on `<root>/lock` and keeps it until the last clone of the
//! handle drops. A second open of the same root, from another process
//! or from this one, fails with [`StoreError::Io`]: the index lives in
//! one process's memory, and open truncates a torn active-segment
//! tail, so two writers on one root would lose each other's records.
//! Concurrent shards share a store through `ct serve` and
//! `--store http://host:port`. The lock is the operating system's, so
//! a crashed holder never leaves a root locked.
//!
//! Durability is the bounded-loss contract of a disposable cache: a
//! crash can lose the appends since the last group sync (and a torn
//! entry at the tail), never a synced record, and the next run
//! recomputes whatever was lost.
//!
//! Transient I/O errors (`Interrupted`/`TimedOut`/`WouldBlock`) are
//! absorbed by deadline-budgeted retry-with-backoff
//! (3 ms of planned sleep per operation; retries counted as `store.retries`, backoff sleeps
//! observed on the `store.retry_wait_ms` histogram); everything else
//! surfaces as [`StoreError::Io`] for callers to degrade on. Every
//! fragile operation passes a named failpoint ([`crate::faults`]) so
//! the crash paths are testable deterministically.
//!
//! Every operation reports to [`ct_obs`] counters (`store.hits`,
//! `store.misses`, `store.read_calls`, `store.records_written`,
//! `store.corrupt_records`, `store.evictions`, `store.retries`,
//! `store.degraded`, `store.tmp_swept`, and `store.segment.*`).
//! Methods deliberately open no [`ct_obs`] spans: they are called
//! from worker threads, and spans are reserved for coordinator code
//! so the span tree stays thread-count invariant.

use crate::error::StoreError;
use crate::faults::{self, FaultKind, FaultRegistry};
use crate::format::encode_record;
use crate::hash::Digest;
use crate::metrics::MetricsSink;
use crate::retry;
use crate::segment::{
    self, ActiveSegment, EntryMeta, IndexEntry, OpenStats, PackedBackend, PackedOptions,
    PackedState,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs;
use std::io::Write as _;
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Which fault registry a store's failpoints consult.
#[derive(Debug, Clone)]
enum FaultsHandle {
    /// The process-global registry, armed from `CT_FAULTS`.
    Global,
    /// A caller-owned registry — used by tests that arm faults without
    /// racing other tests on the global registry.
    Local(Arc<FaultRegistry>),
}

/// A handle to a content-addressed artifact store rooted at a
/// directory. Cheap to clone; clones share the segment index and the
/// root's lock, which is released when the last clone drops.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
    sink: MetricsSink,
    faults: FaultsHandle,
    backend: Arc<PackedBackend>,
}

/// The file under a store root that the open store holds locked.
const LOCK_FILE: &str = "lock";

/// The most bytes [`Store::get_many`] reads with one positioned read:
/// a run of adjacent entries stops growing before it would pass this
/// (an entry larger than it is read alone).
const MAX_RUN_BYTES: u64 = 1 << 20;

/// The end of the run that starts at `entries[start]`: the following
/// entries that sit right behind their predecessor in the same
/// segment, while the run stays within [`MAX_RUN_BYTES`]. `entries`
/// is sorted by (segment, offset).
fn run_end(entries: &[(Digest, IndexEntry)], start: usize) -> usize {
    let first = entries[start].1;
    let mut end = start + 1;
    while let Some((_, next)) = entries.get(end) {
        let prev = entries[end - 1].1;
        let adjacent = next.seg == first.seg && next.offset == prev.offset + prev.len;
        if !adjacent || next.offset + next.len - first.offset > MAX_RUN_BYTES {
            break;
        }
        end += 1;
    }
    end
}

/// Opens `dir` and fsyncs it, making a just-created or renamed entry
/// durable (segment seals and compactions).
fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

/// Takes the exclusive lock on `<root>/lock`. The returned file holds
/// it until it is closed.
fn lock_root(root: &Path) -> Result<fs::File, StoreError> {
    let path = root.join(LOCK_FILE);
    let file = fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(&path)
        .map_err(|e| StoreError::io(&path, &e))?;
    match file.try_lock() {
        Ok(()) => Ok(file),
        Err(fs::TryLockError::WouldBlock) => {
            let e = std::io::Error::other(
                "already held by another open store (in this process or another); \
                 one process holds a store root, and concurrent shards share it \
                 through `ct serve` and `--store http://host:port`",
            );
            Err(StoreError::io(root, &e))
        }
        Err(fs::TryLockError::Error(e)) => Err(StoreError::io(&path, &e)),
    }
}

impl Store {
    /// Opens (creating if needed) the store rooted at `root` and holds
    /// the root until the last clone drops, reporting metrics to the
    /// global [`ct_obs`] registry and consulting the global fault
    /// registry. Segment size thresholds come from
    /// `CT_SEGMENT_ROLL_BYTES` / `CT_SEGMENT_SYNC_BYTES` (see
    /// `PackedOptions::from_env`).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when another open store holds the
    /// root, when the root holds an old loose-layout store
    /// (`objects/`), when the directory tree cannot be created, or
    /// when a segment cannot be scanned.
    pub fn open(root: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_inner(
            root.as_ref(),
            MetricsSink::Global,
            FaultsHandle::Global,
            PackedOptions::from_env(),
        )
    }

    /// [`Store::open`] under its name from when the segment layout was
    /// one of two.
    ///
    /// # Errors
    ///
    /// As [`Store::open`].
    #[deprecated(note = "every store uses the segment layout; call `Store::open`")]
    pub fn open_packed(root: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open(root)
    }

    /// Like [`Store::open`], but reporting to a caller-owned registry.
    ///
    /// # Errors
    ///
    /// As [`Store::open`].
    pub fn open_with_registry(
        root: impl AsRef<Path>,
        registry: Arc<ct_obs::Registry>,
    ) -> Result<Self, StoreError> {
        Self::open_inner(
            root.as_ref(),
            MetricsSink::Local(registry),
            FaultsHandle::Global,
            PackedOptions::from_env(),
        )
    }

    /// Like [`Store::open_with_registry`], but also consulting a
    /// caller-owned fault registry — the test-facing constructor for
    /// deterministic fault injection with exact counter assertions.
    ///
    /// # Errors
    ///
    /// As [`Store::open`].
    pub fn open_with_faults(
        root: impl AsRef<Path>,
        registry: Arc<ct_obs::Registry>,
        faults: Arc<FaultRegistry>,
    ) -> Result<Self, StoreError> {
        Self::open_inner(
            root.as_ref(),
            MetricsSink::Local(registry),
            FaultsHandle::Local(faults),
            PackedOptions::from_env(),
        )
    }

    /// Like [`Store::open_with_faults`], with explicit size thresholds
    /// — the test-facing constructor for forcing segment rolls and
    /// group syncs at tiny sizes.
    ///
    /// # Errors
    ///
    /// As [`Store::open`].
    pub fn open_with_options(
        root: impl AsRef<Path>,
        registry: Arc<ct_obs::Registry>,
        faults: Arc<FaultRegistry>,
        options: PackedOptions,
    ) -> Result<Self, StoreError> {
        Self::open_inner(
            root.as_ref(),
            MetricsSink::Local(registry),
            FaultsHandle::Local(faults),
            options,
        )
    }

    fn open_inner(
        root: &Path,
        sink: MetricsSink,
        faults: FaultsHandle,
        options: PackedOptions,
    ) -> Result<Self, StoreError> {
        if root.join("objects").is_dir() {
            let e = std::io::Error::other(
                "holds an old loose-layout store (objects/), which is no longer read; \
                 store roots are disposable caches, so delete this one and rerun",
            );
            return Err(StoreError::io(root, &e));
        }
        let segments = root.join("segments");
        for dir in [&segments, &root.join("tmp")] {
            fs::create_dir_all(dir).map_err(|e| StoreError::io(dir, &e))?;
        }
        // Lock before the scan: the scan truncates torn tails, which
        // only the root's holder may do.
        let lock = lock_root(root)?;
        let (state, stats) = scan_segments(&segments)?;
        let store = Self {
            root: root.to_path_buf(),
            sink,
            faults,
            backend: Arc::new(PackedBackend {
                dir: segments,
                options,
                state: Mutex::new(state),
                _lock: lock,
            }),
        };
        store.add(
            ct_obs::names::STORE_SEGMENT_FOOTER_LOADS,
            stats.footer_loads as u64,
        );
        store.add(ct_obs::names::STORE_SEGMENT_SCANS, stats.scans as u64);
        store.add(
            ct_obs::names::STORE_SEGMENT_TRUNCATED_TAILS,
            stats.truncated_tails as u64,
        );
        Ok(store)
    }

    fn add(&self, name: &str, delta: u64) {
        self.sink.add(name, delta);
    }

    fn observe_bytes(&self, len: usize) {
        self.sink.observe(
            ct_obs::names::STORE_RECORD_BYTES,
            &ct_obs::names::STORE_RECORD_BYTES_BOUNDS,
            len as f64,
        );
    }

    /// Consults this store's fault registry for `site`: the global
    /// registry (`CT_FAULTS`) or the one a test injected.
    pub(crate) fn injected_fault(&self, site: &str) -> Option<FaultKind> {
        match &self.faults {
            FaultsHandle::Global => faults::global().hit(site),
            FaultsHandle::Local(r) => r.hit(site),
        }
    }

    /// Records that a caller absorbed a store failure by degrading to
    /// compute-without-cache (counted as `store.degraded`). The store
    /// cannot see the degradation itself — it happens in the caller's
    /// recovery path — so callers report it here, onto the same
    /// metrics sink as the store's own counters.
    pub(crate) fn note_degraded(&self) {
        self.add(ct_obs::names::STORE_DEGRADED, 1);
    }

    /// Runs `op`, retrying transient I/O errors with exponential
    /// backoff while the next planned sleep still fits the
    /// per-operation deadline budget (see [`crate::retry`]). Non-transient errors and exhausted budgets
    /// surface unchanged; each backoff sleep is observed on the
    /// `store.retry_wait_ms` histogram so retry latency (p50/p99) is
    /// visible in `--metrics` snapshots.
    fn retry_transient<T>(&self, op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
        retry::retry(
            retry::is_transient,
            |wait_ms| {
                self.add(ct_obs::names::STORE_RETRIES, 1);
                self.sink.observe(
                    ct_obs::names::STORE_RETRY_WAIT_MS,
                    &ct_obs::names::STORE_RETRY_WAIT_MS_BOUNDS,
                    wait_ms as f64,
                );
            },
            op,
        )
    }

    /// Fetches the payload stored under `key`: the one-key case of
    /// `Store::get_many`, through the same read, validate and evict
    /// path.
    ///
    /// Returns `Ok(None)` on a miss *and* on a corrupt record: an
    /// entry that fails validation (truncated, bad magic, wrong
    /// version, checksum mismatch, wrong key) is counted as
    /// `store.corrupt_records`, evicted by a tombstone, and reported
    /// as a miss, so the caller's recompute-and-rewrite path handles
    /// both cases identically.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] only for environmental failures
    /// (e.g. permission errors) that survive the transient-retry
    /// budget — never for corrupt content.
    pub fn get(&self, key: &Digest) -> Result<Option<Vec<u8>>, StoreError> {
        let located = {
            let state = self.backend.state.lock().expect("store state lock");
            state.index.get(key).map(|e| (state.file(e.seg), *e))
        };
        let Some((file, entry)) = located else {
            self.add(ct_obs::names::STORE_MISSES, 1);
            return Ok(None);
        };
        let mut got = Ok(None);
        self.read_run(&file, &[(*key, entry)], |_, r| got = r);
        got
    }

    /// Fetches the payloads stored under `keys`, in input order, each
    /// exactly as [`Store::get`] would: the same results, the same
    /// `store.hits`/`store.misses`, and a corrupt entry is evicted and
    /// reported as a miss. Every key is looked up under one lock; the
    /// hits are read in (segment, offset) order, each run of adjacent
    /// entries, up to 1 MiB, with one positioned read. A repeated key
    /// is read once; its repeats count as hits (or as misses, when the
    /// first read evicted it), as the sequential gets would.
    pub(crate) fn get_many(&self, keys: &[Digest]) -> Vec<Result<Option<Vec<u8>>, StoreError>> {
        let mut out: Vec<Result<Option<Vec<u8>>, StoreError>> =
            keys.iter().map(|_| Ok(None)).collect();
        // (entry, input position) per hit, and the file of each segment
        // a hit lives in.
        let mut hits: Vec<(IndexEntry, usize)> = Vec::with_capacity(keys.len());
        let mut files: BTreeMap<u32, Arc<fs::File>> = BTreeMap::new();
        {
            let state = self.backend.state.lock().expect("store state lock");
            for (at, key) in keys.iter().enumerate() {
                if let Some(e) = state.index.get(key) {
                    files.entry(e.seg).or_insert_with(|| state.file(e.seg));
                    hits.push((*e, at));
                }
            }
        }
        self.add(
            ct_obs::names::STORE_MISSES,
            (keys.len() - hits.len()) as u64,
        );
        hits.sort_unstable_by_key(|(e, at)| (e.seg, e.offset, *at));
        // The first occurrence of each entry, and every later one
        // with the position of its first.
        let mut unique: Vec<(Digest, IndexEntry)> = Vec::with_capacity(hits.len());
        let mut unique_at: Vec<usize> = Vec::with_capacity(hits.len());
        let mut repeats: Vec<(usize, usize)> = Vec::new();
        for &(e, at) in &hits {
            match unique.last() {
                Some((_, last)) if *last == e => {
                    repeats.push((at, *unique_at.last().expect("paired")));
                }
                _ => {
                    unique.push((keys[at], e));
                    unique_at.push(at);
                }
            }
        }
        let mut start = 0;
        while start < unique.len() {
            let end = run_end(&unique, start);
            let file = &files[&unique[start].1.seg];
            self.read_run(file, &unique[start..end], |i, r| {
                out[unique_at[start + i]] = r;
            });
            start = end;
        }
        for (at, first) in repeats {
            out[at] = match &out[first] {
                Ok(Some(payload)) => {
                    self.add(ct_obs::names::STORE_HITS, 1);
                    self.add(ct_obs::names::STORE_BYTES_READ, payload.len() as u64);
                    Ok(Some(payload.clone()))
                }
                Ok(None) => {
                    self.add(ct_obs::names::STORE_MISSES, 1);
                    Ok(None)
                }
                Err(e) => Err(e.clone()),
            };
        }
        out
    }

    /// Reads, validates and (when corrupt) evicts the entries of one
    /// run: adjacent entries of `file`, in offset order. A run of more
    /// than one entry is read with one positioned read; each entry is
    /// then checked by [`Store::read_entry`] as if read alone. If that
    /// read fails (a segment cut short under an entry), each entry is
    /// read alone instead, so every record keeps its own outcome.
    /// `emit(i, result)` receives entry `i`'s result.
    fn read_run(
        &self,
        file: &fs::File,
        run: &[(Digest, IndexEntry)],
        mut emit: impl FnMut(usize, Result<Option<Vec<u8>>, StoreError>),
    ) {
        let first = run[0].1.offset;
        let image = (run.len() > 1)
            .then(|| {
                let last = run[run.len() - 1].1;
                let mut bytes = vec![0u8; (last.offset + last.len - first) as usize];
                self.add(ct_obs::names::STORE_READ_CALLS, 1);
                file.read_exact_at(&mut bytes, first).ok().map(|()| bytes)
            })
            .flatten();
        let (mut hits, mut bytes) = (0, 0);
        for (i, (key, entry)) in run.iter().enumerate() {
            let within = image.as_deref().map(|image| {
                let at = (entry.offset - first) as usize;
                &image[at..at + entry.len as usize]
            });
            let got = self.read_entry(file, key, entry, within);
            if let Ok(Some(payload)) = &got {
                hits += 1;
                bytes += payload.len() as u64;
            }
            emit(i, got);
        }
        self.add(ct_obs::names::STORE_HITS, hits);
        self.add(ct_obs::names::STORE_BYTES_READ, bytes);
    }

    /// Validates one entry, read from `within` (its bytes, already
    /// read with its run) or else by its own positioned read, and
    /// evicts it when corrupt; the caller counts the hits. The
    /// `store.get.read` failpoint fires once per entry and attempt:
    /// `io`/`enospc` fail the read, `corrupt`/`torn` mangle the bytes
    /// read for the validation to catch.
    fn read_entry(
        &self,
        file: &fs::File,
        key: &Digest,
        entry: &IndexEntry,
        within: Option<&[u8]>,
    ) -> Result<Option<Vec<u8>>, StoreError> {
        // Reads happen outside the lock: readers never serialize
        // behind appends. (A concurrent compaction renames the file
        // away, but this fd still reads the old, valid bytes.)
        let read = self.retry_transient(|| {
            let fault = self.injected_fault(faults::sites::STORE_GET_READ);
            if let Some(kind @ (FaultKind::Io | FaultKind::Enospc)) = fault {
                return Err(kind.io_error());
            }
            let mut bytes = match within {
                Some(b) => Cow::Borrowed(b),
                None => {
                    let mut b = vec![0u8; entry.len as usize];
                    self.add(ct_obs::names::STORE_READ_CALLS, 1);
                    file.read_exact_at(&mut b, entry.offset)?;
                    Cow::Owned(b)
                }
            };
            match fault {
                // A read that tears or bit-rots in flight: the frame
                // checksum below must catch both.
                Some(FaultKind::Corruption) => {
                    if let Some(b) = bytes.to_mut().last_mut() {
                        *b ^= 0x01;
                    }
                }
                Some(FaultKind::PartialWrite) => bytes.to_mut().truncate(entry.len as usize / 2),
                _ => {}
            }
            Ok(bytes)
        });
        let bytes = match read {
            Ok(b) => b,
            // An index entry pointing past EOF is a truncated segment:
            // corruption, not an environmental error.
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                self.add(ct_obs::names::STORE_CORRUPT_RECORDS, 1);
                self.tombstone(key)?;
                return Ok(None);
            }
            Err(e) => {
                let path = segment::segment_path(&self.backend.dir, entry.seg);
                return Err(StoreError::io(&path, &e));
            }
        };
        match segment::validate_entry(&bytes, key) {
            Some(payload) => Ok(Some(payload.to_vec())),
            None => {
                // Validate-or-evict: the eviction is a tombstone
                // masking the corrupt entry, and the caller sees a
                // plain miss.
                self.add(ct_obs::names::STORE_CORRUPT_RECORDS, 1);
                self.tombstone(key)?;
                Ok(None)
            }
        }
    }

    /// Appends `payload` as the record for `key`, superseding any
    /// existing record. Readers of this store see the old record or
    /// the new one, never a torn hybrid. The append is durable after
    /// the next group sync (every `sync_bytes`, at a segment seal, and
    /// when the last handle drops).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the append, or a group sync or
    /// seal it triggers, fails past the transient-retry budget.
    pub fn put(&self, key: &Digest, payload: &[u8]) -> Result<(), StoreError> {
        let frame = encode_record(payload);
        let written = self.retry_transient(|| {
            let mut state = self.backend.state.lock().expect("store state lock");
            self.append_locked(&mut state, key, segment::KIND_PUT, &frame)
        });
        if let Err(e) = written {
            return Err(StoreError::io(&self.backend.dir, &e));
        }
        self.add(ct_obs::names::STORE_RECORDS_WRITTEN, 1);
        self.observe_bytes(frame.len());
        Ok(())
    }

    /// Removes the record for `key` because its *payload* failed the
    /// caller's decoding even though the frame validated — e.g. a
    /// record written by an older payload schema. Counted as a corrupt
    /// record plus an eviction.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the removal itself fails.
    pub fn invalidate(&self, key: &Digest) -> Result<(), StoreError> {
        self.add(ct_obs::names::STORE_CORRUPT_RECORDS, 1);
        self.tombstone(key)?;
        Ok(())
    }

    /// Evicts the record for `key`, returning whether it existed.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the removal fails.
    pub fn evict(&self, key: &Digest) -> Result<bool, StoreError> {
        self.tombstone(key)
    }

    /// Removes every `tmp/` file, returning how many were swept
    /// (counted as `store.tmp_swept`). Only a compaction stages there,
    /// and only under the root's lock, so every file found is the
    /// orphan of a crashed repair.
    fn sweep_tmp(&self) -> Result<usize, StoreError> {
        let tmp_dir = self.root.join("tmp");
        let entries = fs::read_dir(&tmp_dir).map_err(|e| StoreError::io(&tmp_dir, &e))?;
        let swept = entries
            .flatten()
            .filter(|entry| fs::remove_file(entry.path()).is_ok())
            .count();
        if swept > 0 {
            self.add(ct_obs::names::STORE_TMP_SWEPT, swept as u64);
        }
        Ok(swept)
    }

    /// Walks the whole store, validating every live entry, and — in
    /// repair mode — tombstones corrupt entries, compacts the segments
    /// that held them, and sweeps `tmp/`. The read-only mode modifies
    /// nothing beyond what opening the store already did (truncating
    /// a torn tail). Every mode is safe because this handle holds the
    /// root: no other store can be writing to it.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] for environmental failures (an
    /// unlistable directory, an unreadable segment, a failed
    /// compaction). Corruption is never an error: it is what the walk
    /// exists to count.
    pub fn fsck(&self, options: &FsckOptions) -> Result<FsckReport, StoreError> {
        let mut report = self.fsck_segments(options)?;
        let tmp_dir = self.root.join("tmp");
        report.tmp_files = fs::read_dir(&tmp_dir)
            .map_err(|e| StoreError::io(&tmp_dir, &e))?
            .count();
        if options.repair {
            report.tmp_swept = self.sweep_tmp()?;
        }
        Ok(report)
    }
}

/// Rebuilds the in-memory index by walking `dir`'s segments in id
/// order: sealed segments load their footer (two positioned reads,
/// trailer then entry list, and no payload I/O), unsealed ones and
/// sealed ones whose footer is damaged are read whole and
/// frame-scanned, and a
/// torn tail is truncated back to the last clean entry boundary. The
/// last unsealed segment becomes the append target; a fresh one is
/// created when every segment is sealed.
fn scan_segments(dir: &Path) -> Result<(PackedState, OpenStats), StoreError> {
    let mut stats = OpenStats::default();
    let mut ids: Vec<u32> = Vec::new();
    let listing = fs::read_dir(dir).map_err(|e| StoreError::io(dir, &e))?;
    for entry in listing.flatten() {
        if let Some(id) = entry
            .file_name()
            .to_str()
            .and_then(segment::parse_segment_id)
        {
            ids.push(id);
        }
    }
    ids.sort_unstable();
    let mut index = HashMap::new();
    let mut files = BTreeMap::new();
    let mut active: Option<ActiveSegment> = None;
    for (i, &id) in ids.iter().enumerate() {
        let path = segment::segment_path(dir, id);
        let file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| StoreError::io(&path, &e))?;
        let footer = file
            .metadata()
            .and_then(|meta| segment::read_footer(&file, meta.len()))
            .map_err(|e| StoreError::io(&path, &e))?;
        if let Some(footer) = footer {
            stats.footer_loads += 1;
            for e in &footer.entries {
                segment::apply_entry(&mut index, id, e);
            }
        } else {
            stats.scans += 1;
            let bytes = fs::read(&path).map_err(|e| StoreError::io(&path, &e))?;
            let scan = segment::scan_entries(&bytes, bytes.len() as u64);
            if scan.truncated {
                stats.truncated_tails += 1;
                file.set_len(scan.clean_len)
                    .map_err(|e| StoreError::io(&path, &e))?;
            }
            for e in &scan.entries {
                segment::apply_entry(&mut index, id, e);
            }
            if i == ids.len() - 1 {
                active = Some(ActiveSegment {
                    id,
                    len: scan.clean_len,
                    unsynced: 0,
                    pending: scan.entries,
                });
            }
        }
        files.insert(id, Arc::new(file));
    }
    let active = match active {
        Some(a) => a,
        None => {
            let id = ids.last().map_or(0, |last| last + 1);
            let path = segment::segment_path(dir, id);
            let file = fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(&path)
                .map_err(|e| StoreError::io(&path, &e))?;
            files.insert(id, Arc::new(file));
            ActiveSegment {
                id,
                len: 0,
                unsynced: 0,
                pending: Vec::new(),
            }
        }
    };
    Ok((
        PackedState {
            index,
            files,
            active,
        },
        stats,
    ))
}

/// The segment-log mechanics behind [`Store::put`], [`Store::get`],
/// eviction and [`Store::fsck`]; see [`crate::segment`] for the
/// on-disk format and recovery rules.
impl Store {
    /// Appends one entry to the active segment and indexes it, then
    /// group-syncs and seals when the byte thresholds say so. Caller
    /// holds the state lock. The `segment.append` failpoint sits at
    /// the top: `io`/`enospc` fail before any byte lands, `torn`
    /// writes half the entry past the logical end (where the next
    /// append overwrites it — exactly a crash mid-append), `corrupt`
    /// mangles a byte and "succeeds" for the frame checksum to catch
    /// on read.
    fn append_locked(
        &self,
        state: &mut PackedState,
        key: &Digest,
        kind: u8,
        frame: &[u8],
    ) -> std::io::Result<()> {
        let ts = segment::now_unix_secs();
        let mut entry = segment::encode_entry(key, kind, ts, frame);
        let file = Arc::clone(state.files.get(&state.active.id).expect("active file"));
        match self.injected_fault(faults::sites::SEGMENT_APPEND) {
            Some(k @ (FaultKind::Io | FaultKind::Enospc)) => return Err(k.io_error()),
            Some(FaultKind::PartialWrite) => {
                file.write_all_at(&entry[..entry.len() / 2], state.active.len)?;
                return Err(FaultKind::PartialWrite.io_error());
            }
            Some(FaultKind::Corruption) => {
                if let Some(b) = entry.last_mut() {
                    *b ^= 0x01;
                }
            }
            None => {}
        }
        let offset = state.active.len;
        file.write_all_at(&entry, offset)?;
        let meta = EntryMeta {
            key: *key,
            kind,
            ts,
            offset,
            len: entry.len() as u64,
        };
        segment::apply_entry(&mut state.index, state.active.id, &meta);
        state.active.pending.push(meta);
        state.active.len += entry.len() as u64;
        state.active.unsynced += entry.len() as u64;
        self.add(ct_obs::names::STORE_SEGMENT_APPENDS, 1);
        let options = &self.backend.options;
        if state.active.unsynced >= options.sync_bytes {
            self.group_sync_locked(state)?;
        }
        if state.active.len >= options.roll_bytes {
            self.seal_locked(state)?;
        }
        Ok(())
    }

    /// The group fsync: one `fdatasync` covering every append since
    /// the last one. A failure errors the put that tripped the
    /// threshold (the entry stays indexed and readable, just not yet
    /// provably durable); `unsynced` is reset only on success so the
    /// next put retries the sync.
    fn group_sync_locked(&self, state: &mut PackedState) -> std::io::Result<()> {
        if let Some(k) = self.injected_fault(faults::sites::SEGMENT_SYNC) {
            return Err(k.io_error());
        }
        state
            .files
            .get(&state.active.id)
            .expect("active file")
            .sync_data()?;
        state.active.unsynced = 0;
        self.add(ct_obs::names::STORE_SEGMENT_GROUP_SYNCS, 1);
        Ok(())
    }

    /// Seals the active segment — truncate torn garbage, append the
    /// footer, fsync file and directory — and rolls to a fresh one.
    /// On failure the segment stays active and over-threshold, so the
    /// next put retries the seal.
    fn seal_locked(&self, state: &mut PackedState) -> std::io::Result<()> {
        if let Some(k) = self.injected_fault(faults::sites::SEGMENT_FOOTER) {
            return Err(k.io_error());
        }
        let file = Arc::clone(state.files.get(&state.active.id).expect("active file"));
        // Drop any torn bytes past the logical end first, so the
        // footer trailer becomes the physical end of the file.
        file.set_len(state.active.len)?;
        let footer = segment::encode_footer(&state.active.pending);
        file.write_all_at(&footer, state.active.len)?;
        file.sync_data()?;
        fsync_dir(&self.backend.dir)?;
        state.active.unsynced = 0;
        self.add(ct_obs::names::STORE_SEGMENT_SEALS, 1);
        let id = state.active.id + 1;
        let path = segment::segment_path(&self.backend.dir, id);
        let fresh = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        files_insert_fresh(state, id, fresh);
        Ok(())
    }

    /// Appends a tombstone masking `key` if it is live, returning
    /// whether it was. The `store.evict.remove` failpoint guards the
    /// operation.
    fn tombstone(&self, key: &Digest) -> Result<bool, StoreError> {
        let backend = &self.backend;
        let guarded =
            self.retry_transient(
                || match self.injected_fault(faults::sites::STORE_EVICT_REMOVE) {
                    Some(kind) => Err(kind.io_error()),
                    None => Ok(()),
                },
            );
        if let Err(e) = guarded {
            return Err(StoreError::io(&backend.dir, &e));
        }
        {
            let state = backend.state.lock().expect("store state lock");
            if !state.index.contains_key(key) {
                return Ok(false);
            }
        }
        let frame = encode_record(&[]);
        let appended = self.retry_transient(|| {
            let mut state = backend.state.lock().expect("store state lock");
            self.append_locked(&mut state, key, segment::KIND_TOMBSTONE, &frame)
        });
        if let Err(e) = appended {
            return Err(StoreError::io(&backend.dir, &e));
        }
        self.add(ct_obs::names::STORE_EVICTIONS, 1);
        Ok(true)
    }

    /// The record walk of [`Store::fsck`]: prune stale entries,
    /// validate every live entry end-to-end, and — in repair mode —
    /// drop corrupt entries and compact every segment that holds one
    /// (plus sealed segments whose live ratio fell under
    /// [`segment::COMPACT_LIVE_RATIO`]).
    fn fsck_segments(&self, options: &FsckOptions) -> Result<FsckReport, StoreError> {
        let backend = &self.backend;
        let dir = backend.dir.clone();
        let mut report = FsckReport::default();
        let mut guard = backend.state.lock().expect("store state lock");
        let state = &mut *guard;

        // Age-based pruning first: a pruned entry is tombstoned out of
        // the index before the scan, so it is neither validated nor
        // counted as live below.
        if let Some(age) = options.prune_max_age {
            let now = segment::now_unix_secs();
            let mut stale: Vec<Digest> = state
                .index
                .iter()
                .filter(|(_, e)| now.saturating_sub(e.ts) >= age.as_secs())
                .map(|(k, _)| *k)
                .collect();
            stale.sort_unstable_by_key(|k| k.0);
            let frame = encode_record(&[]);
            for key in stale {
                self.append_locked(state, &key, segment::KIND_TOMBSTONE, &frame)
                    .map_err(|e| StoreError::io(&dir, &e))?;
                self.add(ct_obs::names::STORE_EVICTIONS, 1);
                report.pruned += 1;
            }
        }

        // Validate each live entry's bytes end-to-end (key, frame,
        // checksum), one segment image in memory at a time: the live
        // entries sorted by (segment, offset) are walked alongside
        // the segments in id order.
        let ids: Vec<u32> = state.files.keys().copied().collect();
        let mut live: Vec<(Digest, IndexEntry)> =
            state.index.iter().map(|(k, e)| (*k, *e)).collect();
        live.sort_unstable_by_key(|(_, e)| (e.seg, e.offset));
        let mut live = live.into_iter().peekable();
        let mut corrupt: Vec<Digest> = Vec::new();
        let mut live_bytes: HashMap<u32, u64> = HashMap::new();
        let mut sizes: HashMap<u32, u64> = HashMap::new();
        for &id in &ids {
            let path = segment::segment_path(&dir, id);
            let image = fs::read(&path).map_err(|e| StoreError::io(&path, &e))?;
            report.segments_scanned += 1;
            report.bytes_scanned += image.len() as u64;
            sizes.insert(id, image.len() as u64);
            while let Some((key, e)) = live.next_if(|(_, e)| e.seg == id) {
                report.records_scanned += 1;
                let ok = image
                    .get(e.offset as usize..(e.offset + e.len) as usize)
                    .and_then(|b| segment::validate_entry(b, &key))
                    .is_some();
                if ok {
                    *live_bytes.entry(id).or_default() += e.len;
                } else {
                    report.corrupt_records += 1;
                    corrupt.push(key);
                }
            }
        }

        if options.repair {
            // Drop each corrupt entry and *tombstone* it, so the
            // repair survives a crash before compaction: replaying
            // the log can never resurrect an entry fsck dropped.
            let mut dirty: BTreeSet<u32> = BTreeSet::new();
            let frame = encode_record(&[]);
            for key in &corrupt {
                if let Some(e) = state.index.remove(key) {
                    dirty.insert(e.seg);
                    self.append_locked(state, key, segment::KIND_TOMBSTONE, &frame)
                        .map_err(|e| StoreError::io(&dir, &e))?;
                    self.add(ct_obs::names::STORE_CORRUPT_RECORDS, 1);
                    self.add(ct_obs::names::STORE_EVICTIONS, 1);
                    report.repaired += 1;
                }
            }
            for &id in &ids {
                let size = sizes[&id];
                if size == 0 {
                    continue;
                }
                let live = *live_bytes.get(&id).unwrap_or(&0) as f64;
                let low_ratio =
                    id != state.active.id && live / (size as f64) < segment::COMPACT_LIVE_RATIO;
                if dirty.contains(&id) || low_ratio {
                    self.compact_locked(state, id, &mut report)?;
                }
            }
        }
        Ok(report)
    }

    /// Rewrites segment `id` keeping only its live entries (and the
    /// tombstones still masking older puts in lower segments),
    /// sealed with a fresh footer, via stage-then-rename under `tmp/`
    /// — a crash mid-compaction leaves the original segment
    /// untouched. Caller holds the state lock.
    fn compact_locked(
        &self,
        state: &mut PackedState,
        id: u32,
        report: &mut FsckReport,
    ) -> Result<(), StoreError> {
        let dir = &self.backend.dir;
        let path = segment::segment_path(dir, id);
        if let Some(kind) = self.injected_fault(faults::sites::SEGMENT_COMPACT) {
            return Err(StoreError::io(&path, &kind.io_error()));
        }
        // Read the segment fresh — repair tombstones may have landed
        // after any earlier image was taken.
        let image = fs::read(&path).map_err(|e| StoreError::io(&path, &e))?;
        let image = image.as_slice();
        // The full entry list: the active segment's pending list is
        // authoritative (= its scan); sealed segments use the footer,
        // and anything else is frame-scanned.
        let entries: Vec<EntryMeta> = if id == state.active.id {
            state.active.pending.clone()
        } else if let Some(footer) = segment::decode_footer(image) {
            footer.entries
        } else {
            segment::scan_entries(image, image.len() as u64).entries
        };
        let mut out: Vec<u8> = Vec::new();
        let mut metas: Vec<EntryMeta> = Vec::new();
        for e in entries {
            let keep = if e.kind == segment::KIND_TOMBSTONE {
                // Dropping a tombstone for a dead key could resurrect
                // an older put in a lower segment on the next replay;
                // a live key's tombstones are superseded and safe to
                // drop.
                !state.index.contains_key(&e.key)
            } else {
                state.index.get(&e.key)
                    == Some(&IndexEntry {
                        seg: id,
                        offset: e.offset,
                        len: e.len,
                        ts: e.ts,
                    })
            };
            if !keep {
                continue;
            }
            let Some(bytes) = image.get(e.offset as usize..(e.offset + e.len) as usize) else {
                continue;
            };
            if e.kind == segment::KIND_PUT && segment::validate_entry(bytes, &e.key).is_none() {
                continue;
            }
            let offset = out.len() as u64;
            out.extend_from_slice(bytes);
            metas.push(EntryMeta { offset, ..e });
        }
        out.extend_from_slice(&segment::encode_footer(&metas));
        // The root's lock makes this process the only stager, so the
        // segment id alone names the staged file.
        let tmp = self
            .root
            .join("tmp")
            .join(format!("seg-{id:04}.compact.tmp"));
        let staged = (|| -> std::io::Result<fs::File> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&out)?;
            f.sync_all()?;
            fs::rename(&tmp, &path)?;
            fsync_dir(dir)?;
            fs::OpenOptions::new().read(true).write(true).open(&path)
        })();
        let file = match staged {
            Ok(f) => f,
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                return Err(StoreError::io(&path, &e));
            }
        };
        state.files.insert(id, Arc::new(file));
        for m in &metas {
            if m.kind != segment::KIND_PUT {
                continue;
            }
            if let Some(ie) = state.index.get_mut(&m.key) {
                if ie.seg == id {
                    ie.offset = m.offset;
                }
            }
        }
        self.add(ct_obs::names::STORE_SEGMENT_COMPACTIONS, 1);
        self.add(ct_obs::names::STORE_SEGMENT_SEALS, 1);
        report.segments_compacted += 1;
        if id == state.active.id {
            // The active segment is sealed now; appends need a fresh
            // target.
            let next = state.files.keys().max().copied().unwrap_or(0) + 1;
            let npath = segment::segment_path(dir, next);
            let nfile = fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&npath)
                .map_err(|e| StoreError::io(&npath, &e))?;
            files_insert_fresh(state, next, nfile);
        }
        Ok(())
    }
}

/// Registers a brand-new empty segment as the append target.
fn files_insert_fresh(state: &mut PackedState, id: u32, file: fs::File) {
    state.files.insert(id, Arc::new(file));
    state.active = ActiveSegment {
        id,
        len: 0,
        unsynced: 0,
        pending: Vec::new(),
    };
}

/// What [`Store::fsck`] is allowed to do.
#[derive(Debug, Clone, Default)]
pub struct FsckOptions {
    /// Tombstone corrupt records, compact the segments that held them,
    /// and sweep every `tmp/` file; `false` reports only.
    pub repair: bool,
    /// When set, *prune* valid records whose entry was written at
    /// least this long ago. Pruning acts whenever set — with or
    /// without `repair` — because passing an age is already an
    /// explicit destructive request.
    pub prune_max_age: Option<Duration>,
}

/// What an [`Store::fsck`] walk found (and, in repair mode, fixed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Live entries whose frame was validated.
    pub records_scanned: usize,
    /// Total segment bytes read.
    pub(crate) bytes_scanned: u64,
    /// Records that failed frame validation.
    pub corrupt_records: usize,
    /// Corrupt records evicted (repair mode only; always ≤
    /// `corrupt_records`).
    pub repaired: usize,
    /// Staging files present under `tmp/`.
    pub tmp_files: usize,
    /// Staging files swept as orphans (repair mode only).
    pub tmp_swept: usize,
    /// Segment files walked.
    pub segments_scanned: usize,
    /// Segments rewritten by compaction (repair mode only).
    pub segments_compacted: usize,
    /// Valid-but-stale records pruned by age
    /// ([`FsckOptions::prune_max_age`]).
    pub(crate) pruned: usize,
}

impl FsckReport {
    /// Whether the store needs no attention: every record validates
    /// and no staging residue is present.
    pub fn clean(&self) -> bool {
        self.corrupt_records == 0 && self.tmp_files == 0
    }

    /// The machine-readable summary the `ct fsck` subcommand prints:
    /// one `fsck,<field>,<value>` line per field, in declaration
    /// order, so scripts can grep exact values.
    pub fn to_csv(&self) -> String {
        format!(
            "fsck,records_scanned,{}\n\
             fsck,bytes_scanned,{}\n\
             fsck,corrupt_records,{}\n\
             fsck,repaired,{}\n\
             fsck,tmp_files,{}\n\
             fsck,tmp_swept,{}\n\
             fsck,segments_scanned,{}\n\
             fsck,segments_compacted,{}\n\
             fsck,pruned,{}\n",
            self.records_scanned,
            self.bytes_scanned,
            self.corrupt_records,
            self.repaired,
            self.tmp_files,
            self.tmp_swept,
            self.segments_scanned,
            self.segments_compacted,
            self.pruned
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{sites, FaultSpec};
    use crate::hash::StableHasher;

    fn key(label: &str) -> Digest {
        let mut h = StableHasher::new();
        h.write_str(label);
        h.finish()
    }

    fn scratch_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("ct-store-unit-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        root
    }

    /// A default store at a unique root per test, with a local
    /// registry so counter assertions are exact even under the
    /// parallel test runner.
    fn scratch(tag: &str) -> (Store, Arc<ct_obs::Registry>, PathBuf) {
        let root = scratch_root(tag);
        let registry = Arc::new(ct_obs::Registry::new());
        let store = Store::open_with_registry(&root, Arc::clone(&registry)).unwrap();
        (store, registry, root)
    }

    /// Like [`scratch`], with a private armed-fault registry and
    /// explicit segment thresholds.
    fn faulty_scratch(
        tag: &str,
        options: PackedOptions,
    ) -> (Store, Arc<ct_obs::Registry>, Arc<FaultRegistry>, PathBuf) {
        let root = scratch_root(tag);
        let registry = Arc::new(ct_obs::Registry::new());
        let faults = Arc::new(FaultRegistry::with_obs(Arc::clone(&registry)));
        let store =
            Store::open_with_options(&root, Arc::clone(&registry), Arc::clone(&faults), options)
                .unwrap();
        (store, registry, faults, root)
    }

    /// Tiny thresholds so tests exercise rolls and group syncs without
    /// megabytes of payload.
    const SMALL_SEGMENTS: PackedOptions = PackedOptions {
        roll_bytes: 512,
        sync_bytes: 128,
    };

    fn counter(registry: &ct_obs::Registry, name: &str) -> u64 {
        registry.snapshot().counter(name).unwrap_or(0)
    }

    /// Rewrites the newest entry for `key` in segment 0 of the
    /// (closed) store at `root` through `f`, as bit rot would.
    fn damage_entry(root: &Path, key: &Digest, f: impl FnOnce(&mut [u8])) {
        let seg = segment::segment_path(&root.join("segments"), 0);
        let mut bytes = fs::read(&seg).unwrap();
        let e = segment::scan_entries(&bytes, bytes.len() as u64)
            .entries
            .into_iter()
            .rfind(|e| e.key == *key)
            .expect("the key has an entry in segment 0");
        f(&mut bytes[e.offset as usize..(e.offset + e.len) as usize]);
        fs::write(&seg, bytes).unwrap();
    }

    #[test]
    fn put_get_round_trip_with_counters() {
        let (store, reg, root) = scratch("round-trip");
        let k = key("a");
        assert_eq!(store.get(&k).unwrap(), None);
        store.put(&k, b"payload").unwrap();
        assert_eq!(store.get(&k).unwrap(), Some(b"payload".to_vec()));
        assert_eq!(counter(&reg, ct_obs::names::STORE_MISSES), 1);
        assert_eq!(counter(&reg, ct_obs::names::STORE_HITS), 1);
        assert_eq!(counter(&reg, ct_obs::names::STORE_RECORDS_WRITTEN), 1);
        assert_eq!(counter(&reg, ct_obs::names::STORE_SEGMENT_APPENDS), 1);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn overwrite_replaces_payload() {
        let (store, _, root) = scratch("overwrite");
        let k = key("a");
        store.put(&k, b"v1").unwrap();
        store.put(&k, b"v2").unwrap();
        assert_eq!(store.get(&k).unwrap(), Some(b"v2".to_vec()));
        drop(store);
        // The later entry wins on replay too.
        let store = Store::open(&root).unwrap();
        assert_eq!(store.get(&k).unwrap(), Some(b"v2".to_vec()));
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn corrupt_record_is_counted_evicted_and_reported_as_miss() {
        let (store, reg, root) = scratch("corrupt");
        let k = key("a");
        store.put(&k, b"payload").unwrap();
        drop(store);
        damage_entry(&root, &k, |e| *e.last_mut().unwrap() ^= 0xff);

        let store = Store::open_with_registry(&root, Arc::clone(&reg)).unwrap();
        assert_eq!(store.get(&k).unwrap(), None);
        assert_eq!(counter(&reg, ct_obs::names::STORE_CORRUPT_RECORDS), 1);
        assert_eq!(counter(&reg, ct_obs::names::STORE_EVICTIONS), 1);
        // The eviction is a tombstone: after a reopen the key is a
        // plain miss, not a second corrupt read.
        drop(store);
        let store = Store::open_with_registry(&root, Arc::clone(&reg)).unwrap();
        assert_eq!(store.get(&k).unwrap(), None);
        assert_eq!(counter(&reg, ct_obs::names::STORE_CORRUPT_RECORDS), 1);

        // Recompute-and-rewrite path: a fresh put fully heals the key.
        store.put(&k, b"payload").unwrap();
        assert_eq!(store.get(&k).unwrap(), Some(b"payload".to_vec()));
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn no_temp_residue_after_writes() {
        let (store, _, root) = scratch("tmp-residue");
        for i in 0..10 {
            store.put(&key(&format!("k{i}")), &[i as u8; 64]).unwrap();
        }
        let leftovers: Vec<_> = fs::read_dir(root.join("tmp")).unwrap().collect();
        assert!(leftovers.is_empty(), "tmp/ must be empty: {leftovers:?}");
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn evict_and_invalidate() {
        let (store, reg, root) = scratch("evict");
        let k = key("a");
        assert!(!store.evict(&k).unwrap());
        store.put(&k, b"x").unwrap();
        assert!(store.evict(&k).unwrap());
        assert_eq!(store.get(&k).unwrap(), None);

        store.put(&k, b"x").unwrap();
        store.invalidate(&k).unwrap();
        assert_eq!(store.get(&k).unwrap(), None);
        assert_eq!(counter(&reg, ct_obs::names::STORE_CORRUPT_RECORDS), 1);
        assert_eq!(counter(&reg, ct_obs::names::STORE_EVICTIONS), 2);
        // The tombstones replay on reopen: the key stays dead.
        drop(store);
        assert_eq!(Store::open(&root).unwrap().get(&k).unwrap(), None);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn second_open_of_a_held_root_fails_until_the_last_clone_drops() {
        let (store, _, root) = scratch("lock");
        let e = Store::open(&root).unwrap_err().to_string();
        assert!(
            e.contains(&root.display().to_string()) && e.contains("already held"),
            "{e}"
        );
        assert!(e.contains("ct serve"), "the error names the way out: {e}");
        // Clones share the one lock: the root stays held while any
        // clone lives.
        let clone = store.clone();
        drop(store);
        assert!(Store::open(&root).is_err(), "a live clone holds the root");
        clone.put(&key("a"), b"x").unwrap();
        drop(clone);
        let reopened = Store::open(&root).unwrap();
        assert_eq!(reopened.get(&key("a")).unwrap(), Some(b"x".to_vec()));
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn an_old_loose_root_is_refused_and_left_alone() {
        let root = scratch_root("loose-root");
        fs::create_dir_all(root.join("objects").join("ab")).unwrap();
        let e = Store::open(&root).unwrap_err().to_string();
        assert!(e.contains("old loose-layout store"), "{e}");
        assert!(e.contains("delete"), "the error says what to do: {e}");
        assert!(!root.join("segments").exists() && !root.join("lock").exists());
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn transient_append_fault_is_retried_to_success() {
        let (store, reg, faults, root) = faulty_scratch("retry-append", PackedOptions::default());
        faults.arm(FaultSpec::once(sites::SEGMENT_APPEND, 1, FaultKind::Io));
        let k = key("a");
        store.put(&k, b"payload").unwrap();
        assert_eq!(store.get(&k).unwrap(), Some(b"payload".to_vec()));
        assert_eq!(counter(&reg, ct_obs::names::STORE_RETRIES), 1);
        assert_eq!(counter(&reg, ct_obs::names::FAULTS_FIRED), 1);
        assert_eq!(counter(&reg, ct_obs::names::STORE_RECORDS_WRITTEN), 1);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn enospc_is_not_retried_and_a_disarmed_put_heals() {
        let (store, reg, faults, root) = faulty_scratch("enospc", PackedOptions::default());
        faults.arm(FaultSpec::every(
            sites::SEGMENT_APPEND,
            1,
            FaultKind::Enospc,
        ));
        let k = key("a");
        let e = store.put(&k, b"payload").unwrap_err();
        assert!(e.to_string().contains("disk-full"), "{e}");
        assert_eq!(counter(&reg, ct_obs::names::STORE_RETRIES), 0);
        assert_eq!(counter(&reg, ct_obs::names::STORE_RECORDS_WRITTEN), 0);
        assert_eq!(
            store.get(&k).unwrap(),
            None,
            "a failed append publishes nothing"
        );
        faults.disarm_all();
        store.put(&k, b"payload").unwrap();
        assert_eq!(store.get(&k).unwrap(), Some(b"payload".to_vec()));
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn group_sync_failure_fails_the_put_but_keeps_the_entry() {
        let (store, reg, faults, root) = faulty_scratch("sync", SMALL_SEGMENTS);
        faults.arm(FaultSpec::every(sites::SEGMENT_SYNC, 1, FaultKind::Enospc));
        let k = key("a");
        assert!(store.put(&k, &[7; 200]).is_err(), "200 bytes trip the sync");
        // The entry landed before the sync failed: it is readable,
        // just not yet provably durable, so the error is honest and
        // not destructive.
        faults.disarm_all();
        assert_eq!(store.get(&k).unwrap(), Some(vec![7; 200]));
        assert_eq!(counter(&reg, ct_obs::names::FAULTS_FIRED), 1);
        assert_eq!(counter(&reg, ct_obs::names::STORE_SEGMENT_GROUP_SYNCS), 0);
        // The next put retries the sync.
        store.put(&key("b"), b"x").unwrap();
        assert_eq!(counter(&reg, ct_obs::names::STORE_SEGMENT_GROUP_SYNCS), 1);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn torn_append_fails_put_without_publishing() {
        let (store, _, faults, root) = faulty_scratch("torn", PackedOptions::default());
        faults.arm(FaultSpec::once(
            sites::SEGMENT_APPEND,
            1,
            FaultKind::PartialWrite,
        ));
        assert!(store.put(&key("a"), b"payload").is_err());
        assert_eq!(
            store.get(&key("a")).unwrap(),
            None,
            "a torn append never publishes"
        );
        // The next append of the same size overwrites the torn bytes.
        store.put(&key("b"), b"payload").unwrap();
        drop(store);
        let registry = Arc::new(ct_obs::Registry::new());
        let reopened = Store::open_with_registry(&root, Arc::clone(&registry)).unwrap();
        assert_eq!(
            counter(&registry, ct_obs::names::STORE_SEGMENT_TRUNCATED_TAILS),
            0
        );
        assert_eq!(reopened.get(&key("a")).unwrap(), None);
        assert_eq!(reopened.get(&key("b")).unwrap(), Some(b"payload".to_vec()));
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn corruption_fault_on_append_is_healed_on_read() {
        let (store, reg, faults, root) = faulty_scratch("corrupt-append", PackedOptions::default());
        faults.arm(FaultSpec::once(
            sites::SEGMENT_APPEND,
            1,
            FaultKind::Corruption,
        ));
        let k = key("a");
        store.put(&k, b"payload").unwrap(); // "succeeds", entry mangled
        assert_eq!(store.get(&k).unwrap(), None, "checksum must catch it");
        assert_eq!(counter(&reg, ct_obs::names::STORE_CORRUPT_RECORDS), 1);
        store.put(&k, b"payload").unwrap();
        assert_eq!(store.get(&k).unwrap(), Some(b"payload".to_vec()));
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn read_corruption_is_evicted_and_healed() {
        let (store, reg, faults, root) = faulty_scratch("read-corrupt", PackedOptions::default());
        store.put(&key("a"), b"payload").unwrap();
        faults.arm(FaultSpec::once(
            sites::STORE_GET_READ,
            1,
            FaultKind::Corruption,
        ));
        assert_eq!(store.get(&key("a")).unwrap(), None, "checksum catches it");
        assert_eq!(counter(&reg, ct_obs::names::STORE_CORRUPT_RECORDS), 1);
        assert_eq!(counter(&reg, ct_obs::names::STORE_EVICTIONS), 1);
        store.put(&key("a"), b"payload").unwrap();
        assert_eq!(store.get(&key("a")).unwrap(), Some(b"payload".to_vec()));
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn read_fault_surfaces_after_retry_budget() {
        let (store, reg, faults, root) = faulty_scratch("read-io", PackedOptions::default());
        store.put(&key("a"), b"payload").unwrap();
        faults.arm(FaultSpec::every(sites::STORE_GET_READ, 1, FaultKind::Io));
        assert!(store.get(&key("a")).is_err(), "budget exhausted → error");
        // The default 3 ms deadline admits the 1 ms and 2 ms backoffs
        // (1 + 2 = 3) and rejects the 4 ms one → exactly 2 retries.
        assert_eq!(counter(&reg, ct_obs::names::STORE_RETRIES), 2);
        assert_eq!(counter(&reg, ct_obs::names::FAULTS_FIRED), 3);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn fsck_reports_then_repairs_corruption_and_orphans() {
        let (store, reg, root) = scratch("fsck");
        for i in 0..4 {
            store.put(&key(&format!("k{i}")), &[i as u8; 32]).unwrap();
        }
        drop(store);
        // Damage two records (a payload bit flip, a wrong format
        // version) and orphan a staging file, as a crashed repair
        // would have.
        damage_entry(&root, &key("k0"), |e| *e.last_mut().unwrap() ^= 0xff);
        damage_entry(&root, &key("k1"), |e| {
            let v = segment::ENTRY_HEADER_LEN + 8;
            e[v..v + 4].copy_from_slice(&99u32.to_le_bytes());
        });
        fs::write(root.join("tmp").join("seg-0007.compact.tmp"), b"x").unwrap();
        let seg = segment::segment_path(&root.join("segments"), 0);
        let damaged = fs::read(&seg).unwrap();

        // Read-only pass: counts everything, repairs nothing.
        let store = Store::open_with_registry(&root, Arc::clone(&reg)).unwrap();
        let report = store.fsck(&FsckOptions::default()).unwrap();
        assert_eq!(report.records_scanned, 4);
        assert_eq!(report.segments_scanned, 1);
        assert_eq!(report.corrupt_records, 2);
        assert_eq!(report.repaired, 0);
        assert_eq!(report.tmp_files, 1);
        assert_eq!(report.tmp_swept, 0);
        assert_eq!(report.segments_compacted, 0);
        assert!(!report.clean());
        assert_eq!(
            fs::read(&seg).unwrap(),
            damaged,
            "read-only fsck modifies nothing"
        );

        // Repair pass: tombstones both corrupt records, compacts the
        // segment that held them, sweeps the orphan.
        let report = store
            .fsck(&FsckOptions {
                repair: true,
                prune_max_age: None,
            })
            .unwrap();
        assert_eq!(report.corrupt_records, 2);
        assert_eq!(report.repaired, 2);
        assert_eq!(report.tmp_swept, 1);
        assert_eq!(report.segments_compacted, 1);
        assert_eq!(counter(&reg, ct_obs::names::STORE_CORRUPT_RECORDS), 2);
        assert_eq!(counter(&reg, ct_obs::names::STORE_EVICTIONS), 2);
        assert_eq!(counter(&reg, ct_obs::names::STORE_TMP_SWEPT), 1);
        assert_eq!(counter(&reg, ct_obs::names::STORE_SEGMENT_COMPACTIONS), 1);

        // A third pass reports a clean store, the survivors read
        // clean, and the summary format scripts grep is pinned.
        let report = store.fsck(&FsckOptions::default()).unwrap();
        assert!(report.clean());
        assert_eq!(report.records_scanned, 2);
        assert!(report.to_csv().contains("fsck,corrupt_records,0\n"));
        assert!(report.to_csv().starts_with("fsck,records_scanned,2\n"));
        assert_eq!(store.get(&key("k0")).unwrap(), None);
        assert_eq!(store.get(&key("k2")).unwrap(), Some(vec![2; 32]));
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn segments_roll_and_reopen_from_footers() {
        let (store, reg, _, root) = faulty_scratch("roll", SMALL_SEGMENTS);
        for i in 0..12u8 {
            store.put(&key(&format!("k{i}")), &[i; 100]).unwrap();
        }
        let seals = counter(&reg, ct_obs::names::STORE_SEGMENT_SEALS);
        assert!(
            seals >= 2,
            "100-byte payloads at roll=512 must seal: {seals}"
        );
        assert!(counter(&reg, ct_obs::names::STORE_SEGMENT_GROUP_SYNCS) >= seals);
        drop(store);

        // Reopen: sealed segments load from footers, only the
        // unsealed tail is frame-scanned, and every record survives
        // bit-for-bit.
        let registry = Arc::new(ct_obs::Registry::new());
        let reopened = Store::open_with_registry(&root, Arc::clone(&registry)).unwrap();
        assert_eq!(
            counter(&registry, ct_obs::names::STORE_SEGMENT_FOOTER_LOADS),
            seals
        );
        assert!(counter(&registry, ct_obs::names::STORE_SEGMENT_SCANS) <= 1);
        for i in 0..12u8 {
            assert_eq!(
                reopened.get(&key(&format!("k{i}"))).unwrap(),
                Some(vec![i; 100]),
                "record k{i} must survive reopen"
            );
        }
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn truncated_tail_recovers_clean_prefix() {
        let (store, _, root) = scratch("torn-tail");
        store.put(&key("a"), b"first").unwrap();
        store.put(&key("b"), b"second").unwrap();
        drop(store);
        // Tear the tail of the active segment, as a crash mid-append
        // would: the last entry loses its end.
        let seg = segment::segment_path(&root.join("segments"), 0);
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 4]).unwrap();

        let registry = Arc::new(ct_obs::Registry::new());
        let reopened = Store::open_with_registry(&root, Arc::clone(&registry)).unwrap();
        assert_eq!(
            counter(&registry, ct_obs::names::STORE_SEGMENT_TRUNCATED_TAILS),
            1
        );
        assert_eq!(reopened.get(&key("a")).unwrap(), Some(b"first".to_vec()));
        assert_eq!(reopened.get(&key("b")).unwrap(), None, "torn entry gone");
        // The store keeps working where the tail was truncated.
        reopened.put(&key("b"), b"second again").unwrap();
        assert_eq!(
            reopened.get(&key("b")).unwrap(),
            Some(b"second again".to_vec())
        );
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn prune_removes_stale_records() {
        let (store, reg, root) = scratch("prune");
        for i in 0..3u8 {
            store.put(&key(&format!("k{i}")), &[i; 16]).unwrap();
        }
        // Age zero prunes every valid record, with or without repair.
        let report = store
            .fsck(&FsckOptions {
                prune_max_age: Some(Duration::ZERO),
                ..FsckOptions::default()
            })
            .unwrap();
        assert_eq!(report.pruned, 3);
        assert_eq!(report.corrupt_records, 0);
        assert_eq!(store.get(&key("k0")).unwrap(), None);
        assert_eq!(counter(&reg, ct_obs::names::STORE_EVICTIONS), 3);
        // Fresh records survive a bounded age.
        store.put(&key("fresh"), b"new").unwrap();
        let report = store
            .fsck(&FsckOptions {
                prune_max_age: Some(Duration::from_secs(3600)),
                ..FsckOptions::default()
            })
            .unwrap();
        assert_eq!(report.pruned, 0);
        assert_eq!(store.get(&key("fresh")).unwrap(), Some(b"new".to_vec()));
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn compaction_crash_leaves_original_segment_intact() {
        let (store, _, faults, root) = faulty_scratch("compact-crash", SMALL_SEGMENTS);
        store.put(&key("a"), b"aaaa").unwrap();
        store.put(&key("b"), b"bbbb").unwrap();
        drop(store);
        damage_entry(&root, &key("a"), |e| *e.last_mut().unwrap() ^= 0xff);

        let registry = Arc::new(ct_obs::Registry::new());
        let store =
            Store::open_with_faults(&root, Arc::clone(&registry), Arc::clone(&faults)).unwrap();
        faults.arm(FaultSpec::once(
            sites::SEGMENT_COMPACT,
            1,
            FaultKind::Enospc,
        ));
        let repair = FsckOptions {
            repair: true,
            prune_max_age: None,
        };
        assert!(
            store.fsck(&repair).is_err(),
            "injected compaction crash must surface"
        );
        assert_eq!(
            counter(&registry, ct_obs::names::STORE_SEGMENT_COMPACTIONS),
            0
        );
        // The heal is already durable — the corrupt entry was
        // tombstoned before compaction started — and nothing leaked
        // into tmp/. The survivor reads clean, here and after reopen.
        let report = store.fsck(&repair).unwrap();
        assert!(
            report.clean(),
            "store healed despite the crashed compaction"
        );
        assert_eq!(
            report.tmp_swept, 0,
            "crashed compaction must not leak tmp files"
        );
        assert_eq!(store.get(&key("b")).unwrap(), Some(b"bbbb".to_vec()));
        assert_eq!(store.get(&key("a")).unwrap(), None);
        drop(store);
        let reopened = Store::open(&root).unwrap();
        assert_eq!(reopened.get(&key("a")).unwrap(), None, "tombstone replays");
        assert_eq!(reopened.get(&key("b")).unwrap(), Some(b"bbbb".to_vec()));
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn fsck_csv_pins_the_extended_field_order() {
        let report = FsckReport {
            records_scanned: 7,
            pruned: 2,
            ..FsckReport::default()
        };
        let csv = report.to_csv();
        assert!(csv.starts_with("fsck,records_scanned,7\n"));
        assert!(
            csv.ends_with("fsck,segments_scanned,0\nfsck,segments_compacted,0\nfsck,pruned,2\n")
        );
    }

    type Got = Vec<Result<Option<Vec<u8>>, StoreError>>;

    /// The counters a read moves, read off `registry` after `read`.
    fn read_counters(registry: &ct_obs::Registry, read: impl FnOnce() -> Got) -> (Got, [u64; 6]) {
        let names = [
            ct_obs::names::STORE_HITS,
            ct_obs::names::STORE_MISSES,
            ct_obs::names::STORE_CORRUPT_RECORDS,
            ct_obs::names::STORE_EVICTIONS,
            ct_obs::names::STORE_RETRIES,
            ct_obs::names::FAULTS_FIRED,
        ];
        let before = names.map(|n| counter(registry, n));
        let got = read();
        let mut moved = names.map(|n| counter(registry, n));
        for (m, b) in moved.iter_mut().zip(before) {
            *m -= b;
        }
        (got, moved)
    }

    #[test]
    fn get_many_equals_sequential_gets_across_segments() {
        ct_rand::cases(24, |rng| {
            let (store, reg, _, root) = faulty_scratch("get-many-prop", SMALL_SEGMENTS);
            let labels: Vec<String> = (0..(4 + rng.below(20))).map(|i| format!("k{i}")).collect();
            // Puts, some of them overwrites (a superseded entry leaves
            // a gap in its segment) and some evictions.
            for _ in 0..(labels.len() + rng.below(12) as usize) {
                let label = &labels[rng.below(labels.len() as u64) as usize];
                let payload = vec![rng.below(256) as u8; rng.below(150) as usize];
                store.put(&key(label), &payload).unwrap();
                if rng.below(8) == 0 {
                    store.evict(&key(label)).unwrap();
                }
            }
            assert!(counter(&reg, ct_obs::names::STORE_SEGMENT_SEALS) >= 1);
            let store = if rng.below(2) == 0 {
                // Sealed segments reindexed from their footers.
                drop(store);
                Store::open_with_options(
                    &root,
                    Arc::clone(&reg),
                    Arc::new(FaultRegistry::new()),
                    SMALL_SEGMENTS,
                )
                .unwrap()
            } else {
                store
            };
            // Present, missing and repeated keys, in any order.
            let keys: Vec<Digest> = (0..(1 + rng.below(40)))
                .map(|_| match rng.below(4) {
                    0 => key(&format!("missing{}", rng.below(4))),
                    _ => key(&labels[rng.below(labels.len() as u64) as usize]),
                })
                .collect();
            let (sequential, moved) =
                read_counters(&reg, || keys.iter().map(|k| store.get(k)).collect());
            let reads = counter(&reg, ct_obs::names::STORE_READ_CALLS);
            let (batched, batched_moved) = read_counters(&reg, || store.get_many(&keys));
            let batched_reads = counter(&reg, ct_obs::names::STORE_READ_CALLS) - reads;
            assert_eq!(batched, sequential);
            assert_eq!(batched_moved, moved);
            let hits = sequential
                .iter()
                .filter(|g| matches!(g, Ok(Some(_))))
                .count();
            assert!(
                batched_reads <= hits as u64,
                "{batched_reads} reads for {hits} hits"
            );
            let _ = fs::remove_dir_all(root);
        });
    }

    #[test]
    fn get_many_coalesces_adjacent_entries_into_one_read() {
        let (store, reg, root) = scratch("get-many-coalesce");
        let keys: Vec<Digest> = (0..10).map(|i| key(&format!("k{i}"))).collect();
        for (i, k) in keys.iter().enumerate() {
            store.put(k, &[i as u8; 40]).unwrap();
        }
        let mut shuffled = keys.clone();
        shuffled.reverse();
        let got = store.get_many(&shuffled);
        for (i, g) in got.into_iter().enumerate() {
            assert_eq!(g.unwrap(), Some(vec![9 - i as u8; 40]));
        }
        assert_eq!(counter(&reg, ct_obs::names::STORE_READ_CALLS), 1);
        // A lone get reads its one entry.
        store.get(&keys[0]).unwrap();
        assert_eq!(counter(&reg, ct_obs::names::STORE_READ_CALLS), 2);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn corrupt_entry_inside_a_coalesced_run_is_evicted_alone() {
        let (store, reg, root) = scratch("get-many-corrupt");
        let keys: Vec<Digest> = ["a", "b", "c"].iter().map(|l| key(l)).collect();
        for k in &keys {
            store.put(k, b"payload").unwrap();
        }
        drop(store);
        damage_entry(&root, &keys[1], |e| *e.last_mut().unwrap() ^= 0xff);

        let store = Store::open_with_registry(&root, Arc::clone(&reg)).unwrap();
        // The corrupt key asked twice: as with two gets, the first
        // read evicts it and the second is a plain miss.
        let asked = [keys[0], keys[1], keys[1], keys[2]];
        let got: Vec<_> = store
            .get_many(&asked)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        let hit = Some(b"payload".to_vec());
        assert_eq!(got, [hit.clone(), None, None, hit.clone()]);
        assert_eq!(counter(&reg, ct_obs::names::STORE_READ_CALLS), 1);
        assert_eq!(counter(&reg, ct_obs::names::STORE_HITS), 2);
        assert_eq!(counter(&reg, ct_obs::names::STORE_MISSES), 1);
        assert_eq!(counter(&reg, ct_obs::names::STORE_CORRUPT_RECORDS), 1);
        assert_eq!(counter(&reg, ct_obs::names::STORE_EVICTIONS), 1);
        // The tombstone replays: after a reopen the key is a plain
        // miss and its neighbours still hit.
        drop(store);
        let registry = Arc::new(ct_obs::Registry::new());
        let store = Store::open_with_registry(&root, Arc::clone(&registry)).unwrap();
        let got: Vec<_> = store
            .get_many(&keys)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(got, [hit.clone(), None, hit]);
        assert_eq!(counter(&registry, ct_obs::names::STORE_MISSES), 1);
        assert_eq!(counter(&registry, ct_obs::names::STORE_CORRUPT_RECORDS), 0);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn read_faults_in_a_batch_strike_one_record_as_a_lone_get_would() {
        // Failpoint plans that strike the second record read, on every
        // attempt for `io` (three firings exhaust the retry budget) and
        // once for the rest.
        let plans: [(FaultKind, &[u64]); 4] = [
            (FaultKind::Io, &[2, 3, 4]),
            (FaultKind::Enospc, &[2]),
            (FaultKind::Corruption, &[2]),
            (FaultKind::PartialWrite, &[2]),
        ];
        for (kind, firings) in plans {
            let run = |batched: bool| {
                let tag = format!("get-many-fault-{kind}-{batched}");
                let (store, reg, faults, root) = faulty_scratch(&tag, PackedOptions::default());
                let keys: Vec<Digest> = (0..4).map(|i| key(&format!("k{i}"))).collect();
                for k in &keys {
                    store.put(k, b"payload").unwrap();
                }
                for &nth in firings {
                    faults.arm(FaultSpec::once(sites::STORE_GET_READ, nth, kind));
                }
                let (got, moved) = read_counters(&reg, || {
                    if batched {
                        store.get_many(&keys)
                    } else {
                        keys.iter().map(|k| store.get(k)).collect()
                    }
                });
                faults.disarm_all();
                let after: Got = keys.iter().map(|k| store.get(k)).collect();
                let _ = fs::remove_dir_all(root);
                (got, moved, after)
            };
            let (sequential, moved, after) = run(false);
            let (batched, batched_moved, batched_after) = run(true);
            let shape = |got: &Got| -> Vec<Option<Option<Vec<u8>>>> {
                got.iter().map(|g| g.as_ref().ok().cloned()).collect()
            };
            assert_eq!(shape(&batched), shape(&sequential), "{kind}");
            assert_eq!(batched_moved, moved, "{kind}");
            assert_eq!(shape(&batched_after), shape(&after), "{kind}");
            let hit = Some(Some(b"payload".to_vec()));
            let struck = match kind {
                FaultKind::Io | FaultKind::Enospc => None,
                _ => Some(None),
            };
            let evicted = u64::from(struck.is_some());
            assert_eq!(
                shape(&batched),
                [hit.clone(), struck, hit.clone(), hit.clone()],
                "{kind}"
            );
            assert_eq!(batched_moved[2..4], [evicted, evicted], "{kind}");
            // A corrupt read's record is gone; an I/O failure's stays.
            let kept = if evicted == 1 {
                Some(None)
            } else {
                hit.clone()
            };
            assert_eq!(shape(&batched_after)[1], kept, "{kind}");
        }
    }

    #[test]
    fn open_reads_only_the_footer_of_a_sealed_segment() {
        let (store, reg, _, root) = faulty_scratch("footer-only", SMALL_SEGMENTS);
        for i in 0..12u8 {
            store.put(&key(&format!("k{i}")), &[i; 100]).unwrap();
        }
        let seals = counter(&reg, ct_obs::names::STORE_SEGMENT_SEALS);
        assert!(seals >= 2);
        drop(store);
        let reopen = || {
            let registry = Arc::new(ct_obs::Registry::new());
            let store = Store::open_with_registry(&root, Arc::clone(&registry)).unwrap();
            let index = store.backend.state.lock().unwrap().index.clone();
            let count = |name| counter(&registry, name);
            (
                index,
                count(ct_obs::names::STORE_SEGMENT_FOOTER_LOADS),
                count(ct_obs::names::STORE_SEGMENT_SCANS),
            )
        };
        let (index, footer_loads, scans) = reopen();
        assert_eq!(footer_loads, seals);

        // Damage segment 0's data region: open never reads it, so the
        // index and the footer loads are unchanged.
        let seg = segment::segment_path(&root.join("segments"), 0);
        let mut bytes = fs::read(&seg).unwrap();
        let footer = segment::decode_footer(&bytes).unwrap();
        for b in &mut bytes[..footer.data_len as usize] {
            *b = !*b;
        }
        fs::write(&seg, &bytes).unwrap();
        assert_eq!(reopen(), (index.clone(), footer_loads, scans));

        // Damage its footer instead: that segment is scanned, and the
        // scan rebuilds the same index.
        for b in &mut bytes[..footer.data_len as usize] {
            *b = !*b;
        }
        let at = bytes.len() - segment::TRAILER_LEN - 3;
        bytes[at] ^= 0xff;
        fs::write(&seg, &bytes).unwrap();
        assert_eq!(reopen(), (index, footer_loads - 1, scans + 1));
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn fsck_walks_a_multi_segment_store() {
        let (store, _, _, root) = faulty_scratch("fsck-multi", SMALL_SEGMENTS);
        for i in 0..12u8 {
            store.put(&key(&format!("k{i}")), &[i; 100]).unwrap();
        }
        drop(store);
        damage_entry(&root, &key("k0"), |e| *e.last_mut().unwrap() ^= 0xff);
        let segments = fs::read_dir(root.join("segments")).unwrap().count();
        let bytes: u64 = fs::read_dir(root.join("segments"))
            .unwrap()
            .map(|e| e.unwrap().metadata().unwrap().len())
            .sum();
        let store = Store::open(&root).unwrap();
        let report = store.fsck(&FsckOptions::default()).unwrap();
        assert_eq!(report.segments_scanned, segments);
        assert_eq!(report.bytes_scanned, bytes);
        assert_eq!(report.records_scanned, 12);
        assert_eq!(report.corrupt_records, 1);
        let _ = fs::remove_dir_all(root);
    }
}
