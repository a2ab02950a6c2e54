//! Stable content hashing for artifact addresses.
//!
//! The hasher must be *portable and pinned*: a digest computed today,
//! on any platform, must match the digest computed by every future
//! build, or the store silently loses every cached artifact. Rust's
//! `std::hash::Hasher` explicitly reserves the right to change between
//! releases, so the store hand-rolls 128-bit FNV-1a instead. Inputs
//! are fed through typed writers that fix the byte encoding
//! (little-endian, `f64::to_bits`, length-prefixed strings) so the
//! digest is a function of the *values*, not of memory layout.

use std::fmt;

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// A 128-bit content address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 16]);

impl Digest {
    /// Lower-case hex rendering (32 chars), used for on-disk paths.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(32);
        for b in self.0 {
            use fmt::Write;
            write!(s, "{b:02x}").expect("writing to a String cannot fail");
        }
        s
    }

    /// Parses the [`Digest::to_hex`] form back into a digest: exactly
    /// 32 lower-case hex characters. The inverse the serving tier
    /// needs to turn a `/objects/<hex>` path back into an address;
    /// anything else — wrong length, upper case, non-hex — is `None`,
    /// so a malformed request can never alias a real record.
    pub fn from_hex(s: &str) -> Option<Digest> {
        let bytes = s.as_bytes();
        if bytes.len() != 32 {
            return None;
        }
        let nibble = |b: u8| match b {
            b'0'..=b'9' => Some(b - b'0'),
            b'a'..=b'f' => Some(b - b'a' + 10),
            _ => None,
        };
        let mut out = [0u8; 16];
        for (i, pair) in bytes.chunks_exact(2).enumerate() {
            out[i] = nibble(pair[0])? << 4 | nibble(pair[1])?;
        }
        Some(Digest(out))
    }

    /// Derives a child address: the digest of `(self, label)`. Used to
    /// key individual records under a run-level base address.
    pub fn derive(&self, label: &str) -> Digest {
        let mut h = StableHasher::new();
        h.update(&self.0);
        h.write_str(label);
        h.finish()
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// 128-bit FNV-1a over a caller-defined canonical byte stream.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u128,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self {
            state: FNV128_OFFSET,
        }
    }

    /// Feeds raw bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Feeds one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.update(&[v]);
    }

    /// Feeds a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.update(&v.to_le_bytes());
    }

    /// Feeds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Feeds a `usize` widened to `u64` so 32- and 64-bit platforms
    /// agree.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds a boolean as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// Feeds an `f64` by bit pattern: every distinct value (including
    /// `-0.0` vs `0.0` and NaN payloads) gets a distinct encoding.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Feeds a slice of `f64` with a length prefix.
    pub fn write_f64_slice(&mut self, vs: &[f64]) {
        self.write_usize(vs.len());
        for &v in vs {
            self.write_f64(v);
        }
    }

    /// Feeds a string, length-prefixed so concatenations cannot
    /// collide (`"ab" + "c"` ≠ `"a" + "bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.update(s.as_bytes());
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> Digest {
        Digest(self.state.to_le_bytes())
    }
}

/// FNV-1a 64 over a byte slice — the per-record payload checksum.
pub(crate) fn checksum64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut state = OFFSET;
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(PRIME);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_stable_across_runs() {
        // Pinned vector: if this digest ever changes, every existing
        // store on disk is silently invalidated — treat as a breaking
        // format change, not a test to update casually.
        let mut h = StableHasher::new();
        h.write_str("ct-store");
        h.write_u64(42);
        h.write_f64(0.5);
        assert_eq!(h.finish().to_hex(), "d1c2779c42ccfa8c59028e3d489f170c");
    }

    #[test]
    fn typed_writers_disambiguate() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());

        let mut z = StableHasher::new();
        z.write_f64(0.0);
        let mut nz = StableHasher::new();
        nz.write_f64(-0.0);
        assert_ne!(z.finish(), nz.finish());
    }

    #[test]
    fn derive_depends_on_base_and_label() {
        let mut h = StableHasher::new();
        h.write_str("base");
        let base = h.finish();
        assert_ne!(base.derive("a"), base.derive("b"));
        let mut h2 = StableHasher::new();
        h2.write_str("base2");
        assert_ne!(base.derive("a"), h2.finish().derive("a"));
    }

    #[test]
    fn hex_and_display_agree() {
        let d = StableHasher::new().finish();
        assert_eq!(d.to_hex().len(), 32);
        assert_eq!(d.to_string(), d.to_hex());
    }

    #[test]
    fn from_hex_inverts_to_hex_and_rejects_noise() {
        let mut h = StableHasher::new();
        h.write_str("round-trip");
        let d = h.finish();
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        for bad in [
            "",
            "00",
            "zz028e3d489f170cd1c2779c42ccfa8c",
            "D1C2779C42CCFA8C59028E3D489F170C",
            "d1c2779c42ccfa8c59028e3d489f170c0", // 33 chars
        ] {
            assert_eq!(Digest::from_hex(bad), None, "input {bad:?}");
        }
    }

    #[test]
    fn checksum_detects_any_single_bit_flip() {
        let payload = b"the quick brown fox";
        let base = checksum64(payload);
        for i in 0..payload.len() {
            for bit in 0..8 {
                let mut flipped = payload.to_vec();
                flipped[i] ^= 1 << bit;
                assert_ne!(checksum64(&flipped), base, "flip at byte {i} bit {bit}");
            }
        }
    }
}
