//! # xt-snapshot — versioned, hermetic snapshot codec (ROADMAP item 2)
//!
//! A hand-rolled binary codec (no serde; hermetic-build policy) for
//! capturing and restoring every stateful structure of the simulator:
//! the functional `xt-emu` architectural state, the `xt-core` timing
//! models, the `xt-mem` hierarchy, the `xt-soc` devices and cluster
//! engine. Each owning crate implements [`SnapshotState`] for its types;
//! the driver-level aggregates (`CoreSnapshot` in `xt-core`,
//! `ClusterSnapshot` in `xt-soc`) wrap the payload in the framed
//! container produced by [`seal`] / opened by [`open`]:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"XTSN"
//! 4       2     format version (little-endian u16; see [`VERSION`])
//! 6       1     kind byte (CORE / CLUSTER / GOLDEN — the aggregate)
//! 7       8     payload length in bytes (little-endian u64)
//! 15      n     payload (concatenated SnapshotState encodings)
//! 15+n    8     FNV-1a 64 checksum of bytes [0, 15+n)
//! ```
//!
//! Every decoder path returns a typed [`SnapshotError`] — truncated
//! input, wrong magic, wrong version, corrupted counts and checksums are
//! errors, never panics. `save ∘ restore ∘ save` is byte-equal by
//! construction: every container-order collection round-trips verbatim,
//! and the owning crates serialize unordered collections (hash maps,
//! binary heaps) in sorted order. `docs/SNAPSHOT.md` documents the
//! format, the versioning policy, and the resume-identity argument.
//!
//! A small hand-rolled JSON *manifest* ([`describe`]) renders the frame
//! header for tooling and error reports without decoding the payload.

#![warn(missing_docs)]

use std::fmt;

/// Magic bytes at the start of every snapshot frame.
pub const MAGIC: [u8; 4] = *b"XTSN";

/// Snapshot format version. Bump **deliberately** whenever any
/// [`SnapshotState`] encoding changes shape; the golden-fixture test
/// (`tests/snapshot_golden.rs`) exists to make accidental layout drift
/// a test failure instead of a silent corruption.
pub const VERSION: u16 = 4;

/// Kind byte: a single-core timing session (`CoreSnapshot`).
pub const KIND_CORE: u8 = 1;
/// Kind byte: a whole-cluster snapshot (`ClusterSnapshot`).
pub const KIND_CLUSTER: u8 = 2;

/// Typed decode/restore failures. Every error path in the codec and in
/// the `SnapshotState` implementations reports through this enum —
/// malformed bytes must never panic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SnapshotError {
    /// The input ended before a read completed.
    Truncated {
        /// Bytes the read needed.
        need: usize,
        /// Bytes remaining.
        have: usize,
    },
    /// The frame does not start with [`MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The frame's format version does not match this build's
    /// [`VERSION`] (layouts are not compatible across versions).
    BadVersion {
        /// Version found in the frame.
        found: u16,
        /// Version this build writes.
        expect: u16,
    },
    /// A structurally invalid value: impossible enum tag, count that
    /// exceeds the remaining payload, checksum mismatch, wrong kind.
    Corrupt {
        /// What was being decoded.
        what: &'static str,
    },
    /// The payload decoded cleanly but bytes were left over — the frame
    /// was produced by a different layout.
    TrailingBytes {
        /// Number of undecoded bytes.
        extra: usize,
    },
    /// The restore target was built with a different configuration than
    /// the snapshot (restore is into a same-config instance).
    Mismatch {
        /// The configuration field that disagreed.
        what: &'static str,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { need, have } => {
                write!(f, "snapshot truncated: needed {need} bytes, {have} left")
            }
            SnapshotError::BadMagic { found } => {
                write!(f, "bad snapshot magic {found:02x?} (expected \"XTSN\")")
            }
            SnapshotError::BadVersion { found, expect } => {
                write!(f, "snapshot version {found} incompatible with {expect}")
            }
            SnapshotError::Corrupt { what } => write!(f, "corrupt snapshot field: {what}"),
            SnapshotError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after snapshot payload")
            }
            SnapshotError::Mismatch { what } => {
                write!(f, "restore target configuration mismatch: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Shorthand for codec results.
pub type Result<T> = std::result::Result<T, SnapshotError>;

/// FNV-1a 64-bit hash (the frame checksum).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Binary encoder: little-endian, append-only.
#[derive(Clone, Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// The encoded bytes so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder, returning its buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `bool` as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a collection length (u64) — pair with [`Dec::len`].
    pub fn seq(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// Appends raw bytes, length-prefixed.
    pub fn bytes_seq(&mut self, b: &[u8]) {
        self.seq(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Appends a UTF-8 string, length-prefixed.
    pub fn str(&mut self, s: &str) {
        self.bytes_seq(s.as_bytes());
    }

    /// Appends an `Option<u64>` (presence byte + value).
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.u64(x);
            }
            None => self.bool(false),
        }
    }

    /// Appends a slice of `u64`s, length-prefixed.
    pub fn u64_seq(&mut self, xs: &[u64]) {
        self.seq(xs.len());
        for &x in xs {
            self.u64(x);
        }
    }

    /// Appends a slice of `bool`s, length-prefixed.
    pub fn bool_seq(&mut self, xs: &[bool]) {
        self.seq(xs.len());
        for &x in xs {
            self.bool(x);
        }
    }
}

/// Binary decoder over a byte slice. Every read is bounds-checked and
/// returns [`SnapshotError::Truncated`] instead of panicking.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool`; any byte other than 0/1 is corrupt.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt { what: "bool" }),
        }
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(self.u64()? as i64)
    }

    /// Reads a `usize` (stored as u64); values that do not fit are
    /// corrupt.
    pub fn usize(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Corrupt { what: "usize" })
    }

    /// Reads a collection length and validates it against the bytes
    /// remaining: a count that could not possibly be satisfied (even at
    /// one byte per element) is reported as corrupt rather than driving
    /// a huge allocation or a confusing truncation later.
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize> {
        let n = self.usize()?;
        let need = n.saturating_mul(min_elem_bytes.max(1));
        if need > self.remaining() {
            return Err(SnapshotError::Corrupt {
                what: "collection count exceeds payload",
            });
        }
        Ok(n)
    }

    /// Reads `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Reads a length-prefixed byte sequence.
    pub fn bytes_seq(&mut self) -> Result<&'a [u8]> {
        let n = self.len(1)?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String> {
        let b = self.bytes_seq()?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapshotError::Corrupt { what: "utf-8" })
    }

    /// Reads an `Option<u64>`.
    pub fn opt_u64(&mut self) -> Result<Option<u64>> {
        Ok(if self.bool()? {
            Some(self.u64()?)
        } else {
            None
        })
    }

    /// Reads a length-prefixed `Vec<u64>`.
    pub fn u64_seq(&mut self) -> Result<Vec<u64>> {
        let n = self.len(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed `Vec<bool>`.
    pub fn bool_seq(&mut self) -> Result<Vec<bool>> {
        let n = self.len(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.bool()?);
        }
        Ok(out)
    }

    /// Asserts the payload is fully consumed.
    pub fn finish(self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(SnapshotError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

/// State that can be captured into an [`Enc`] and restored from a
/// [`Dec`].
///
/// `restore` writes **into an existing instance built with the same
/// configuration** as the one that was saved (timing structures need
/// their construction parameters); implementations must verify any
/// embedded shape against the target and report
/// [`SnapshotError::Mismatch`] on disagreement. Anything derived or
/// host-only (decoded-block caches, host-time stats) is *recomputed*
/// rather than captured — docs/SNAPSHOT.md keeps the captured/recomputed
/// inventory.
pub trait SnapshotState {
    /// Appends this value's state to `e`.
    fn save(&self, e: &mut Enc);
    /// Overwrites this value's state from `d`.
    fn restore(&mut self, d: &mut Dec) -> Result<()>;
}

/// Frames `payload` into a versioned container: magic, version, `kind`,
/// length, payload, FNV-1a checksum.
pub fn seal(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 23);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Opens a framed container, validating magic, version, kind, payload
/// length, and checksum. Returns the payload slice.
pub fn open(bytes: &[u8], kind: u8) -> Result<&[u8]> {
    if bytes.len() < 15 + 8 {
        return Err(SnapshotError::Truncated {
            need: 23,
            have: bytes.len(),
        });
    }
    let found = [bytes[0], bytes[1], bytes[2], bytes[3]];
    if found != MAGIC {
        return Err(SnapshotError::BadMagic { found });
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        return Err(SnapshotError::BadVersion {
            found: version,
            expect: VERSION,
        });
    }
    if bytes[6] != kind {
        return Err(SnapshotError::Corrupt {
            what: "snapshot kind",
        });
    }
    let plen = u64::from_le_bytes([
        bytes[7], bytes[8], bytes[9], bytes[10], bytes[11], bytes[12], bytes[13], bytes[14],
    ]);
    let plen = usize::try_from(plen).map_err(|_| SnapshotError::Corrupt {
        what: "payload length",
    })?;
    let total = 15usize
        .checked_add(plen)
        .and_then(|t| t.checked_add(8))
        .ok_or(SnapshotError::Corrupt {
            what: "payload length",
        })?;
    if bytes.len() < total {
        return Err(SnapshotError::Truncated {
            need: total,
            have: bytes.len(),
        });
    }
    if bytes.len() > total {
        return Err(SnapshotError::TrailingBytes {
            extra: bytes.len() - total,
        });
    }
    let body = &bytes[..15 + plen];
    let sum = u64::from_le_bytes(bytes[15 + plen..].try_into().expect("8 bytes"));
    if fnv1a(body) != sum {
        return Err(SnapshotError::Corrupt { what: "checksum" });
    }
    Ok(&bytes[15..15 + plen])
}

/// Renders the frame header as a small JSON manifest (hand-rolled; no
/// payload decode): magic validity, version, kind, payload byte count,
/// checksum. Useful for tooling and failure artifacts.
pub fn describe(bytes: &[u8]) -> String {
    let magic_ok = bytes.len() >= 4 && bytes[..4] == MAGIC;
    let version = if bytes.len() >= 6 {
        u16::from_le_bytes([bytes[4], bytes[5]]) as i64
    } else {
        -1
    };
    let kind = if bytes.len() >= 7 { bytes[6] as i64 } else { -1 };
    let plen = if bytes.len() >= 15 {
        u64::from_le_bytes([
            bytes[7], bytes[8], bytes[9], bytes[10], bytes[11], bytes[12], bytes[13], bytes[14],
        ]) as i64
    } else {
        -1
    };
    format!(
        "{{\"schema\":\"xt-snapshot/v{VERSION}\",\"magic_ok\":{magic_ok},\
         \"version\":{version},\"kind\":{kind},\"payload_bytes\":{plen},\
         \"total_bytes\":{}}}",
        bytes.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut e = Enc::new();
        e.u8(7);
        e.bool(true);
        e.u16(0xbeef);
        e.u32(0xdead_beef);
        e.u64(u64::MAX - 3);
        e.i64(-42);
        e.usize(123_456);
        e.str("héllo");
        e.opt_u64(Some(9));
        e.opt_u64(None);
        e.u64_seq(&[1, 2, 3]);
        e.bool_seq(&[true, false]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert!(d.bool().unwrap());
        assert_eq!(d.u16().unwrap(), 0xbeef);
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.usize().unwrap(), 123_456);
        assert_eq!(d.string().unwrap(), "héllo");
        assert_eq!(d.opt_u64().unwrap(), Some(9));
        assert_eq!(d.opt_u64().unwrap(), None);
        assert_eq!(d.u64_seq().unwrap(), vec![1, 2, 3]);
        assert_eq!(d.bool_seq().unwrap(), vec![true, false]);
        d.finish().unwrap();
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut d = Dec::new(&[1, 2]);
        assert!(matches!(
            d.u64(),
            Err(SnapshotError::Truncated { need: 8, have: 2 })
        ));
        // the failed read consumed nothing
        assert_eq!(d.u16().unwrap(), 0x0201);
    }

    #[test]
    fn bad_bool_is_corrupt() {
        let mut d = Dec::new(&[2]);
        assert!(matches!(d.bool(), Err(SnapshotError::Corrupt { .. })));
    }

    #[test]
    fn absurd_count_is_corrupt_not_alloc() {
        let mut e = Enc::new();
        e.seq(usize::MAX / 2);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(matches!(d.len(8), Err(SnapshotError::Corrupt { .. })));
        let mut d2 = Dec::new(&bytes);
        assert!(matches!(d2.u64_seq(), Err(SnapshotError::Corrupt { .. })));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut e = Enc::new();
        e.u8(1);
        e.u8(2);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        d.u8().unwrap();
        assert!(matches!(
            d.finish(),
            Err(SnapshotError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn frame_seal_open_roundtrip() {
        let framed = seal(KIND_CORE, b"payload");
        assert_eq!(open(&framed, KIND_CORE).unwrap(), b"payload");
    }

    #[test]
    fn frame_rejects_wrong_magic() {
        let mut framed = seal(KIND_CORE, b"x");
        framed[0] = b'Y';
        assert!(matches!(
            open(&framed, KIND_CORE),
            Err(SnapshotError::BadMagic { .. })
        ));
    }

    #[test]
    fn frame_rejects_wrong_version() {
        let mut framed = seal(KIND_CORE, b"x");
        framed[4] = 0xff;
        // version is checked before the checksum so the error is typed
        assert!(matches!(
            open(&framed, KIND_CORE),
            Err(SnapshotError::BadVersion { found: 0x00ff, .. })
        ));
    }

    #[test]
    fn frame_rejects_wrong_kind() {
        let framed = seal(KIND_CORE, b"x");
        assert!(matches!(
            open(&framed, KIND_CLUSTER),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn frame_rejects_truncation_and_trailing() {
        let framed = seal(KIND_CORE, b"some payload");
        assert!(matches!(
            open(&framed[..framed.len() - 3], KIND_CORE),
            Err(SnapshotError::Truncated { .. })
        ));
        let mut longer = framed.clone();
        longer.push(0);
        assert!(matches!(
            open(&longer, KIND_CORE),
            Err(SnapshotError::TrailingBytes { extra: 1 })
        ));
        assert!(matches!(
            open(&[], KIND_CORE),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn frame_detects_payload_flip() {
        let mut framed = seal(KIND_CORE, b"some payload");
        framed[17] ^= 0x40;
        assert!(matches!(
            open(&framed, KIND_CORE),
            Err(SnapshotError::Corrupt { what: "checksum" })
        ));
    }

    #[test]
    fn frame_rejects_absurd_payload_length() {
        let mut framed = seal(KIND_CORE, b"x");
        // corrupt the length field to a value larger than the buffer
        framed[7..15].copy_from_slice(&u64::MAX.to_le_bytes());
        let r = open(&framed, KIND_CORE);
        assert!(
            matches!(r, Err(SnapshotError::Corrupt { .. }))
                || matches!(r, Err(SnapshotError::Truncated { .. })),
            "absurd length must be typed: {r:?}"
        );
    }

    #[test]
    fn describe_is_parseable_json_shape() {
        let framed = seal(KIND_CLUSTER, &[0u8; 10]);
        let j = describe(&framed);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"magic_ok\":true"));
        assert!(j.contains("\"kind\":2"));
        assert!(j.contains("\"payload_bytes\":10"));
        let j2 = describe(b"no");
        assert!(j2.contains("\"magic_ok\":false"));
    }

    #[test]
    fn errors_display() {
        for e in [
            SnapshotError::Truncated { need: 8, have: 0 },
            SnapshotError::BadMagic { found: *b"ABCD" },
            SnapshotError::BadVersion {
                found: 9,
                expect: VERSION,
            },
            SnapshotError::Corrupt { what: "x" },
            SnapshotError::TrailingBytes { extra: 1 },
            SnapshotError::Mismatch { what: "cores" },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
