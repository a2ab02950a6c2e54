//! The store's on-disk layout: append-only logs of framed records.
//!
//! Instead of one file (and two fsyncs) per artifact, the store
//! appends every record to the current segment file
//! `<root>/segments/seg-<nnnn>.ctseg` and serves reads from an
//! in-memory key → `(segment, offset, len)` index via positioned
//! `pread`s. Durability is batched: one `fdatasync` per
//! `sync_bytes` of appended data (and one at segment seal / store
//! drop), so put throughput is bounded by sequential write bandwidth,
//! not by per-file fsync latency.
//!
//! On-disk entry layout (little-endian), one per record:
//!
//! ```text
//! offset  size  field
//! 0       16    key (digest bytes)
//! 16      1     kind: 0 = put, 1 = tombstone
//! 17      8     write timestamp, unix seconds, u64 LE
//! 25      ..    CTSTORE1 frame (self-describing length, checksummed)
//! ```
//!
//! A tombstone carries an empty-payload frame so every entry parses
//! the same way. Replaying entries in (segment id, offset) order
//! rebuilds the index: a later put wins, a tombstone deletes.
//!
//! When the active segment reaches `roll_bytes` it is **sealed**: a
//! footer listing every entry (key, kind, ts, offset, len) is
//! appended, followed by a 32-byte trailer
//! `count u64 | entries_bytes u64 | checksum64(entries) u64 | magic
//! b"CTSEGIDX"` read backwards from the end of the file. Reopening a
//! store loads sealed segments from their footers — O(segments), not
//! O(records) — and frame-scans only the unsealed tail segment. A
//! missing or damaged footer degrades to the frame scan, never to
//! data loss.
//!
//! Crash safety needs no rename: a torn append leaves garbage *past
//! the logical end* of the segment, which the open-time scan
//! truncates away and the next append overwrites. That truncation is
//! safe only because the opener holds the root's lock, so no other
//! store can be appending to the segment. A bit flip inside a
//! committed entry is caught by the frame checksum on read and
//! evicted by appending a tombstone (validate-or-evict).
//! `Store::fsck` walks every segment entry, and in repair
//! mode rewrites segments that hold corrupt frames (or whose live
//! ratio fell below `COMPACT_LIVE_RATIO`) through a staged
//! tmp-then-rename compaction.

use crate::format::{self, decode_record};
use crate::hash::{checksum64, Digest};
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fs;
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Fixed per-entry header (key + kind + timestamp) before the frame.
pub const ENTRY_HEADER_LEN: usize = 16 + 1 + 8;
/// Entry kind: a record write.
pub(crate) const KIND_PUT: u8 = 0;
/// Entry kind: a deletion masking every earlier put of the key.
pub(crate) const KIND_TOMBSTONE: u8 = 1;
/// Trailing magic of a sealed segment's footer.
pub(crate) const FOOTER_MAGIC: [u8; 8] = *b"CTSEGIDX";
/// Fixed trailer size (count, entries length, checksum, magic).
pub(crate) const TRAILER_LEN: usize = 32;
/// One serialized footer entry: key, kind, ts, offset, len.
pub(crate) const FOOTER_ENTRY_LEN: usize = 16 + 1 + 8 + 8 + 8;
/// Sealed segments below this live-byte ratio are compacted by
/// `fsck --repair`.
pub(crate) const COMPACT_LIVE_RATIO: f64 = 0.5;

/// Size thresholds of the segment layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedOptions {
    /// Seal the active segment (footer + roll) once it holds this
    /// many bytes. Default 64 MiB.
    pub roll_bytes: u64,
    /// Group-fsync the active segment after this many appended bytes.
    /// Default 8 MiB.
    pub sync_bytes: u64,
}

impl Default for PackedOptions {
    fn default() -> Self {
        Self {
            roll_bytes: 64 << 20,
            sync_bytes: 8 << 20,
        }
    }
}

impl PackedOptions {
    /// The defaults overridden by `CT_SEGMENT_ROLL_BYTES` /
    /// `CT_SEGMENT_SYNC_BYTES` (read at every store open, so CI can
    /// force frequent rolls without rebuilding).
    pub(crate) fn from_env() -> Self {
        let read = |name: &str, default: u64| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        let defaults = Self::default();
        Self {
            roll_bytes: read("CT_SEGMENT_ROLL_BYTES", defaults.roll_bytes).max(1),
            sync_bytes: read("CT_SEGMENT_SYNC_BYTES", defaults.sync_bytes).max(1),
        }
    }
}

/// Where one live record sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IndexEntry {
    /// Segment id.
    pub(crate) seg: u32,
    /// Byte offset of the entry (header included) in the segment.
    pub(crate) offset: u64,
    /// Total entry length in bytes (header + frame).
    pub(crate) len: u64,
    /// Write timestamp, unix seconds.
    pub(crate) ts: u64,
}

/// One entry as listed in a segment footer (or recovered by a scan).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryMeta {
    /// The record key.
    pub key: Digest,
    /// `KIND_PUT` or `KIND_TOMBSTONE`.
    pub(crate) kind: u8,
    /// Write timestamp, unix seconds.
    pub(crate) ts: u64,
    /// Byte offset of the entry in the segment.
    pub offset: u64,
    /// Total entry length in bytes.
    pub len: u64,
}

/// The active (append-target) segment.
#[derive(Debug)]
pub(crate) struct ActiveSegment {
    /// Segment id.
    pub(crate) id: u32,
    /// Logical length: the clean entry boundary appends go to. The
    /// physical file may be longer after a torn append; the garbage
    /// past this point is overwritten by the next append.
    pub(crate) len: u64,
    /// Bytes appended since the last fsync.
    pub(crate) unsynced: u64,
    /// Footer entries accumulated for the eventual seal, in offset
    /// order.
    pub(crate) pending: Vec<EntryMeta>,
}

/// Mutable state of a store, behind the backend's mutex.
#[derive(Debug)]
pub(crate) struct PackedState {
    /// Key → location of the winning entry.
    pub(crate) index: HashMap<Digest, IndexEntry>,
    /// Open read/write handles, one per segment file.
    pub(crate) files: BTreeMap<u32, Arc<fs::File>>,
    /// The append target.
    pub(crate) active: ActiveSegment,
}

impl PackedState {
    /// The open handle of segment `seg`, which the index points into.
    pub(crate) fn file(&self, seg: u32) -> Arc<fs::File> {
        Arc::clone(self.files.get(&seg).expect("indexed segment file"))
    }
}

/// What rebuilding the index at open observed — reported as
/// `store.segment.*` counters by the store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct OpenStats {
    /// Sealed segments loaded from their footer.
    pub(crate) footer_loads: usize,
    /// Segments rebuilt by a full frame scan (unsealed tail, or a
    /// sealed segment whose footer was missing/damaged).
    pub(crate) scans: usize,
    /// Segments whose tail failed to parse and was truncated back to
    /// the last clean entry boundary.
    pub(crate) truncated_tails: usize,
}

/// The state every clone of one open store shares.
#[derive(Debug)]
pub(crate) struct PackedBackend {
    /// `<root>/segments`.
    pub(crate) dir: PathBuf,
    /// Size thresholds.
    pub(crate) options: PackedOptions,
    /// All mutable state.
    pub(crate) state: std::sync::Mutex<PackedState>,
    /// `<root>/lock`, held exclusively. Dropped after the final group
    /// fsync, so the root is released only once its data is flushed.
    pub(crate) _lock: fs::File,
}

impl Drop for PackedBackend {
    fn drop(&mut self) {
        // Final group fsync: whatever the batching left unsynced is
        // flushed when the last store handle goes away, best-effort.
        if let Ok(state) = self.state.lock() {
            if state.active.unsynced > 0 {
                if let Some(f) = state.files.get(&state.active.id) {
                    let _ = f.sync_data();
                }
            }
        }
    }
}

/// The segment file path for `id` under `dir`.
pub(crate) fn segment_path(dir: &Path, id: u32) -> PathBuf {
    dir.join(format!("seg-{id:04}.ctseg"))
}

/// Parses a segment id out of a `seg-<nnnn>.ctseg` file name.
pub(crate) fn parse_segment_id(name: &str) -> Option<u32> {
    name.strip_prefix("seg-")?
        .strip_suffix(".ctseg")?
        .parse()
        .ok()
}

/// Unix seconds now; clock weirdness degrades to 0, never panics.
pub(crate) fn now_unix_secs() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Serializes one entry: header + the already-framed record bytes.
pub(crate) fn encode_entry(key: &Digest, kind: u8, ts: u64, frame: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENTRY_HEADER_LEN + frame.len());
    out.extend_from_slice(&key.0);
    out.push(kind);
    out.extend_from_slice(&ts.to_le_bytes());
    out.extend_from_slice(frame);
    out
}

/// One parsed entry, borrowed from a segment buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsedEntry<'a> {
    /// The record key.
    pub(crate) key: Digest,
    /// Entry kind.
    pub(crate) kind: u8,
    /// Write timestamp.
    pub(crate) ts: u64,
    /// The CTSTORE1 frame bytes (validated structurally, not by
    /// checksum — call [`decode_record`] on it for that).
    pub(crate) frame: &'a [u8],
    /// Total entry length.
    pub len: u64,
}

/// Structurally parses the entry starting at `bytes[0]`: the header
/// plus a frame whose declared length fits the buffer. Returns `None`
/// when the bytes cannot be an entry boundary (truncated tail, stray
/// garbage, a torn footer) — the caller stops scanning there.
pub fn parse_entry(bytes: &[u8]) -> Option<ParsedEntry<'_>> {
    if bytes.len() < ENTRY_HEADER_LEN + format::HEADER_LEN {
        return None;
    }
    let key = Digest(bytes[0..16].try_into().expect("16 bytes"));
    let kind = bytes[16];
    if kind != KIND_PUT && kind != KIND_TOMBSTONE {
        return None;
    }
    let ts = u64::from_le_bytes(bytes[17..25].try_into().expect("8 bytes"));
    let frame = &bytes[ENTRY_HEADER_LEN..];
    if frame[0..8] != format::MAGIC {
        return None;
    }
    let payload_len = u64::from_le_bytes(frame[12..20].try_into().expect("8 bytes"));
    let payload_len = usize::try_from(payload_len).ok()?;
    let frame_len = format::HEADER_LEN.checked_add(payload_len)?;
    if frame.len() < frame_len {
        return None;
    }
    Some(ParsedEntry {
        key,
        kind,
        ts,
        frame: &frame[..frame_len],
        len: (ENTRY_HEADER_LEN + frame_len) as u64,
    })
}

/// Serializes the footer (entries + trailer) of a sealed segment.
pub(crate) fn encode_footer(entries: &[EntryMeta]) -> Vec<u8> {
    let mut body = Vec::with_capacity(entries.len() * FOOTER_ENTRY_LEN + TRAILER_LEN);
    for e in entries {
        body.extend_from_slice(&e.key.0);
        body.push(e.kind);
        body.extend_from_slice(&e.ts.to_le_bytes());
        body.extend_from_slice(&e.offset.to_le_bytes());
        body.extend_from_slice(&e.len.to_le_bytes());
    }
    let checksum = checksum64(&body);
    body.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    body.extend_from_slice(&((entries.len() * FOOTER_ENTRY_LEN) as u64).to_le_bytes());
    body.extend_from_slice(&checksum.to_le_bytes());
    body.extend_from_slice(&FOOTER_MAGIC);
    body
}

/// A sealed segment's footer, decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Footer {
    /// The entries, in offset order.
    pub(crate) entries: Vec<EntryMeta>,
    /// Where the data region ends (= where the footer begins).
    pub(crate) data_len: u64,
}

/// Decodes the footer out of a whole segment image. `None` means the
/// segment is unsealed (or its footer is damaged) and must be
/// frame-scanned instead.
pub(crate) fn decode_footer(bytes: &[u8]) -> Option<Footer> {
    decode_footer_tail(bytes, bytes.len() as u64)
}

/// Reads the footer of the segment `file`, `len` bytes long, with two
/// positioned reads: the trailer, then the entry list it declares.
/// The data region is not read. `Ok(None)` means the segment has no
/// intact footer and must be frame-scanned instead.
///
/// # Errors
///
/// A failed read.
pub(crate) fn read_footer(file: &fs::File, len: u64) -> std::io::Result<Option<Footer>> {
    let Some(body_at) = len.checked_sub(TRAILER_LEN as u64) else {
        return Ok(None);
    };
    let mut trailer = [0u8; TRAILER_LEN];
    file.read_exact_at(&mut trailer, body_at)?;
    let entries_bytes = u64::from_le_bytes(trailer[8..16].try_into().expect("8 bytes"));
    if trailer[24..32] != FOOTER_MAGIC || entries_bytes > body_at {
        return Ok(None);
    }
    let mut tail = vec![0u8; TRAILER_LEN + entries_bytes as usize];
    file.read_exact_at(&mut tail, body_at - entries_bytes)?;
    Ok(decode_footer_tail(&tail, len))
}

/// Decodes the footer out of `tail`, the last bytes of a segment
/// `len` bytes long (the whole image, or at least its footer).
fn decode_footer_tail(tail: &[u8], len: u64) -> Option<Footer> {
    if tail.len() < TRAILER_LEN {
        return None;
    }
    let trailer = &tail[tail.len() - TRAILER_LEN..];
    if trailer[24..32] != FOOTER_MAGIC {
        return None;
    }
    let count = u64::from_le_bytes(trailer[0..8].try_into().expect("8 bytes"));
    let entries_bytes = u64::from_le_bytes(trailer[8..16].try_into().expect("8 bytes"));
    let stored = u64::from_le_bytes(trailer[16..24].try_into().expect("8 bytes"));
    let count = usize::try_from(count).ok()?;
    let entries_bytes = usize::try_from(entries_bytes).ok()?;
    if entries_bytes != count.checked_mul(FOOTER_ENTRY_LEN)?
        || tail.len() - TRAILER_LEN < entries_bytes
    {
        return None;
    }
    let body = &tail[tail.len() - TRAILER_LEN - entries_bytes..tail.len() - TRAILER_LEN];
    if checksum64(body) != stored {
        return None;
    }
    let data_len = len - (TRAILER_LEN + entries_bytes) as u64;
    let mut entries = Vec::with_capacity(count);
    for chunk in body.chunks_exact(FOOTER_ENTRY_LEN) {
        let e = EntryMeta {
            key: Digest(chunk[0..16].try_into().expect("16 bytes")),
            kind: chunk[16],
            ts: u64::from_le_bytes(chunk[17..25].try_into().expect("8 bytes")),
            offset: u64::from_le_bytes(chunk[25..33].try_into().expect("8 bytes")),
            len: u64::from_le_bytes(chunk[33..41].try_into().expect("8 bytes")),
        };
        // A footer whose entries point outside the data region is as
        // damaged as a bad checksum.
        if e.offset.checked_add(e.len)? > data_len {
            return None;
        }
        entries.push(e);
    }
    Some(Footer { entries, data_len })
}

/// What scanning one segment's data region found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanResult {
    /// Every structurally valid entry, in offset order.
    pub entries: Vec<EntryMeta>,
    /// The clean boundary the scan reached.
    pub(crate) clean_len: u64,
    /// Whether bytes past `clean_len` failed to parse (torn tail,
    /// damaged footer, stray garbage).
    pub(crate) truncated: bool,
}

/// Frame-scans a segment's data region (`bytes[..data_len]`),
/// recovering entry boundaries without trusting any footer. Payload
/// checksums are *not* verified here — reads do that lazily, fsck
/// does it exhaustively.
pub fn scan_entries(bytes: &[u8], data_len: u64) -> ScanResult {
    let data = &bytes[..data_len.min(bytes.len() as u64) as usize];
    let mut entries = Vec::new();
    let mut off = 0usize;
    while off < data.len() {
        match parse_entry(&data[off..]) {
            Some(e) => {
                entries.push(EntryMeta {
                    key: e.key,
                    kind: e.kind,
                    ts: e.ts,
                    offset: off as u64,
                    len: e.len,
                });
                off += e.len as usize;
            }
            None => {
                return ScanResult {
                    entries,
                    clean_len: off as u64,
                    truncated: true,
                };
            }
        }
    }
    ScanResult {
        entries,
        clean_len: off as u64,
        truncated: false,
    }
}

/// Applies one replayed entry to the index (later entries win).
pub(crate) fn apply_entry(index: &mut HashMap<Digest, IndexEntry>, seg: u32, e: &EntryMeta) {
    if e.kind == KIND_TOMBSTONE {
        index.remove(&e.key);
    } else {
        index.insert(
            e.key,
            IndexEntry {
                seg,
                offset: e.offset,
                len: e.len,
                ts: e.ts,
            },
        );
    }
}

/// Validates one entry image end-to-end (header, key, frame
/// checksum) and returns the payload of a put. Used by reads and by
/// fsck; a `None` is a corrupt entry.
pub(crate) fn validate_entry<'a>(bytes: &'a [u8], expected_key: &Digest) -> Option<&'a [u8]> {
    let e = parse_entry(bytes)?;
    if e.len as usize != bytes.len() || e.key != *expected_key || e.kind != KIND_PUT {
        return None;
    }
    decode_record(e.frame).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::encode_record;
    use crate::hash::StableHasher;

    fn key(label: &str) -> Digest {
        let mut h = StableHasher::new();
        h.write_str(label);
        h.finish()
    }

    fn entry(label: &str, kind: u8, ts: u64, payload: &[u8]) -> Vec<u8> {
        encode_entry(&key(label), kind, ts, &encode_record(payload))
    }

    #[test]
    fn entry_round_trip() {
        let bytes = entry("a", KIND_PUT, 1234, b"payload");
        let e = parse_entry(&bytes).unwrap();
        assert_eq!(e.key, key("a"));
        assert_eq!(e.kind, KIND_PUT);
        assert_eq!(e.ts, 1234);
        assert_eq!(e.len as usize, bytes.len());
        assert_eq!(decode_record(e.frame).unwrap(), b"payload");
        assert_eq!(validate_entry(&bytes, &key("a")).unwrap(), b"payload");
        // Wrong key, wrong kind, flipped payload: all rejected.
        assert!(validate_entry(&bytes, &key("b")).is_none());
        let tomb = entry("a", KIND_TOMBSTONE, 1, b"");
        assert!(validate_entry(&tomb, &key("a")).is_none());
        let mut flipped = bytes.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert!(validate_entry(&flipped, &key("a")).is_none());
    }

    #[test]
    fn scan_recovers_entries_and_stops_at_garbage() {
        let mut log = Vec::new();
        let mut lens = Vec::new();
        for (i, label) in ["a", "b", "c"].iter().enumerate() {
            let e = entry(label, KIND_PUT, i as u64, &[i as u8; 10]);
            lens.push(e.len() as u64);
            log.extend_from_slice(&e);
        }
        let clean = log.len() as u64;
        let scan = scan_entries(&log, clean);
        assert_eq!(scan.entries.len(), 3);
        assert!(!scan.truncated);
        assert_eq!(scan.clean_len, clean);
        assert_eq!(scan.entries[1].offset, lens[0]);
        assert_eq!(scan.entries[2].key, key("c"));

        // A torn tail: half an entry after the last clean boundary.
        let torn = entry("d", KIND_PUT, 9, b"torn");
        log.extend_from_slice(&torn[..torn.len() / 2]);
        let scan = scan_entries(&log, log.len() as u64);
        assert_eq!(scan.entries.len(), 3);
        assert!(scan.truncated);
        assert_eq!(scan.clean_len, clean);
    }

    #[test]
    fn footer_round_trip_and_damage_detection() {
        let entries = vec![
            EntryMeta {
                key: key("a"),
                kind: KIND_PUT,
                ts: 7,
                offset: 0,
                len: 60,
            },
            EntryMeta {
                key: key("b"),
                kind: KIND_TOMBSTONE,
                ts: 8,
                offset: 60,
                len: 53,
            },
        ];
        let mut image = vec![0u8; 113]; // stand-in data region
        image.extend_from_slice(&encode_footer(&entries));
        let footer = decode_footer(&image).unwrap();
        assert_eq!(footer.entries, entries);
        assert_eq!(footer.data_len, 113);

        // Flip a footer byte: checksum must reject the whole footer.
        let mut damaged = image.clone();
        let at = damaged.len() - TRAILER_LEN - 3;
        damaged[at] ^= 0xff;
        assert!(decode_footer(&damaged).is_none());
        // Chop the trailer: unsealed.
        assert!(decode_footer(&image[..image.len() - 5]).is_none());
        // An out-of-range entry is rejected even with a valid checksum.
        let bad = vec![EntryMeta {
            key: key("x"),
            kind: KIND_PUT,
            ts: 0,
            offset: 100,
            len: 100,
        }];
        let mut short = vec![0u8; 50];
        short.extend_from_slice(&encode_footer(&bad));
        assert!(decode_footer(&short).is_none());
    }

    #[test]
    fn replay_order_later_entries_win() {
        let mut index = HashMap::new();
        let put = |off: u64, ts: u64| EntryMeta {
            key: key("k"),
            kind: KIND_PUT,
            ts,
            offset: off,
            len: 50,
        };
        apply_entry(&mut index, 0, &put(0, 1));
        apply_entry(&mut index, 0, &put(50, 2));
        assert_eq!(index[&key("k")].offset, 50);
        let tomb = EntryMeta {
            key: key("k"),
            kind: KIND_TOMBSTONE,
            ts: 3,
            offset: 100,
            len: 53,
        };
        apply_entry(&mut index, 1, &tomb);
        assert!(index.is_empty(), "tombstone must delete");
    }

    #[test]
    fn segment_names_round_trip() {
        assert_eq!(parse_segment_id("seg-0007.ctseg"), Some(7));
        assert_eq!(
            segment_path(Path::new("/s"), 7).file_name().unwrap(),
            "seg-0007.ctseg"
        );
        assert_eq!(parse_segment_id("seg-7.ctseg"), Some(7));
        assert_eq!(parse_segment_id("seg-x.ctseg"), None);
        assert_eq!(parse_segment_id("other.rec"), None);
    }

    #[test]
    fn env_options_have_sane_defaults() {
        let d = PackedOptions::default();
        assert_eq!(d.roll_bytes, 64 << 20);
        assert_eq!(d.sync_bytes, 8 << 20);
    }
}
