//! The versioned on-disk record format.
//!
//! Every record file is a single self-validating frame:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"CTSTORE1"
//! 8       4     format version, u32 LE (currently 1)
//! 12      8     payload length, u64 LE
//! 20      8     FNV-1a64 checksum of the payload, u64 LE
//! 28      n     payload bytes
//! ```
//!
//! Decoding classifies every way the frame can be wrong
//! ([`Corruption`]) so the store can count and evict bad records
//! instead of panicking or returning garbage.

use crate::hash::checksum64;

/// Leading magic bytes of every record file.
pub(crate) const MAGIC: [u8; 8] = *b"CTSTORE1";
/// Current format version. Bump on any layout change; readers treat
/// other versions as corrupt-and-recompute, never as readable.
pub(crate) const FORMAT_VERSION: u32 = 1;
/// Fixed header size in bytes.
pub(crate) const HEADER_LEN: usize = 28;

/// Why a record failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// The file is shorter than its header claims (or than the header
    /// itself) — the signature of a crash mid-write.
    Truncated,
    /// The magic bytes are wrong: not a record file at all.
    BadMagic,
    /// A record written by an incompatible format version.
    WrongVersion(u32),
    /// The payload does not match its stored checksum.
    BadChecksum,
}

impl std::fmt::Display for Corruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Corruption::Truncated => write!(f, "truncated record"),
            Corruption::BadMagic => write!(f, "bad magic bytes"),
            Corruption::WrongVersion(v) => write!(f, "unsupported format version {v}"),
            Corruption::BadChecksum => write!(f, "payload checksum mismatch"),
        }
    }
}

/// Frames a payload into a record file image.
pub fn encode_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates a record file image and returns the payload slice.
///
/// # Errors
///
/// Returns the [`Corruption`] class describing the first failed check.
pub fn decode_record(bytes: &[u8]) -> Result<&[u8], Corruption> {
    if bytes.len() < HEADER_LEN {
        return Err(Corruption::Truncated);
    }
    if bytes[0..8] != MAGIC {
        return Err(Corruption::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(Corruption::WrongVersion(version));
    }
    let len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let Ok(len) = usize::try_from(len) else {
        return Err(Corruption::Truncated);
    };
    // Trailing junk beyond the declared payload is as suspect as a
    // short file: the frame no longer matches what was written.
    if bytes.len() != HEADER_LEN + len {
        return Err(Corruption::Truncated);
    }
    let payload = &bytes[HEADER_LEN..];
    let stored = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    if checksum64(payload) != stored {
        return Err(Corruption::BadChecksum);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        for payload in [&b""[..], &b"x"[..], &[0u8; 1000][..]] {
            let frame = encode_record(payload);
            assert_eq!(decode_record(&frame).unwrap(), payload);
        }
    }

    #[test]
    fn truncation_detected_at_every_length() {
        let frame = encode_record(b"hello, record");
        for cut in 0..frame.len() {
            let err = decode_record(&frame[..cut]).unwrap_err();
            assert!(
                matches!(err, Corruption::Truncated | Corruption::BadChecksum),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_detected() {
        let mut frame = encode_record(b"payload");
        frame[0] ^= 0xFF;
        assert_eq!(decode_record(&frame), Err(Corruption::BadMagic));
    }

    #[test]
    fn wrong_version_detected() {
        let mut frame = encode_record(b"payload");
        frame[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(decode_record(&frame), Err(Corruption::WrongVersion(99)));
    }

    #[test]
    fn payload_flip_detected() {
        let mut frame = encode_record(b"payload");
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        assert_eq!(decode_record(&frame), Err(Corruption::BadChecksum));
    }

    #[test]
    fn trailing_junk_detected() {
        let mut frame = encode_record(b"payload");
        frame.push(0);
        assert_eq!(decode_record(&frame), Err(Corruption::Truncated));
    }
}
