//! # xt-snapshot — versioned, hermetic snapshot codec (ROADMAP item 2)
//!
//! A hand-rolled binary codec (no serde; hermetic-build policy) for
//! capturing and restoring every stateful structure of the simulator:
//! the functional `xt-emu` architectural state, the `xt-core` timing
//! models, the `xt-mem` hierarchy, the `xt-soc` devices and cluster
//! engine. Each owning crate implements [`SnapshotState`] for its types
//! as one [`SnapshotState::transfer`]: a single list of the fields, run
//! by the encoder ([`Enc`]) and the decoder ([`Dec`]) alike through the
//! [`Stream`] trait, so the two halves of the codec cannot disagree. The
//! driver-level aggregates (`Session` in `xt-core`, `ClusterSim` in
//! `xt-soc`) wrap the payload in the framed container produced by
//! [`seal`] / opened by [`open`]:
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
//! and unordered ones are written sorted ([`Stream::map`] writes a hash
//! map in key order). `docs/SNAPSHOT.md` documents the format, how to
//! write a `transfer`, the versioning policy, and the resume-identity
//! argument.
//!
//! A small hand-rolled JSON *manifest* ([`describe`]) renders the frame
//! header for tooling and error reports without decoding the payload.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash};

/// Magic bytes at the start of every snapshot frame.
pub const MAGIC: [u8; 4] = *b"XTSN";

/// Snapshot format version. Bump **deliberately** whenever any
/// [`SnapshotState::transfer`] field list changes; the pinned frames
/// (`tests/snapshot_golden.rs`, `tests/snapshot_frames.rs`) exist to make
/// accidental layout drift a test failure instead of a silent corruption.
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

/// Binary encoder: little-endian, append-only. As a [`Stream`] it
/// writes every field it is handed; its inherent writers build frames by
/// hand (tests forge hostile ones with them).
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

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a collection length (u64).
    pub fn seq(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// Appends a slice of `u64`s, length-prefixed.
    pub fn u64_seq(&mut self, xs: &[u64]) {
        self.seq(xs.len());
        for &x in xs {
            self.u64(x);
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

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
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

/// One direction of the codec, so that a structure lists its fields once
/// ([`SnapshotState::transfer`]): [`Enc`] writes each field it is handed,
/// [`Dec`] overwrites it from the frame. Every method takes the field by
/// `&mut`; a value the restoring instance must already agree with goes
/// through [`Stream::expect`], and a value no save could have written is
/// refused by [`Stream::check`].
///
/// Encoding never fails: every `Err` below is a decoder's.
pub trait Stream: Sized {
    /// `true` for [`Dec`]. Derived state — a rebuilt index, a recomputed
    /// cache, a re-sorted list — is an `if S::DECODING { … }` block in
    /// the `transfer` that owns it.
    const DECODING: bool;

    /// A `u8`.
    fn u8(&mut self, v: &mut u8) -> Result<()>;
    /// A little-endian `u16`.
    fn u16(&mut self, v: &mut u16) -> Result<()>;
    /// A little-endian `u32`.
    fn u32(&mut self, v: &mut u32) -> Result<()>;
    /// A little-endian `u64`.
    fn u64(&mut self, v: &mut u64) -> Result<()>;
    /// `v.len()` raw bytes, no length prefix.
    fn raw(&mut self, v: &mut [u8]) -> Result<()>;
    /// A collection length (u64). Decoding refuses a count the rest of
    /// the payload could not hold at `min_elem_bytes` per element (at
    /// least one) as `Corrupt`, before anything is sized from it.
    fn len(&mut self, n: &mut usize, min_elem_bytes: usize) -> Result<()>;

    /// A `bool` as one byte; any byte but 0 or 1 is corrupt.
    fn bool(&mut self, v: &mut bool) -> Result<()> {
        let mut b = *v as u8;
        self.u8(&mut b)?;
        *v = match b {
            0 => false,
            1 => true,
            _ => return Err(SnapshotError::Corrupt { what: "bool" }),
        };
        Ok(())
    }

    /// An `i64`, as its two's-complement `u64`.
    fn i64(&mut self, v: &mut i64) -> Result<()> {
        let mut u = *v as u64;
        self.u64(&mut u)?;
        *v = u as i64;
        Ok(())
    }

    /// A `usize` as a `u64`; a value that does not fit is corrupt.
    fn usize(&mut self, v: &mut usize) -> Result<()> {
        let mut u = *v as u64;
        self.u64(&mut u)?;
        *v = usize::try_from(u).map_err(|_| SnapshotError::Corrupt { what: "usize" })?;
        Ok(())
    }

    /// Length-prefixed bytes.
    fn bytes(&mut self, v: &mut Vec<u8>) -> Result<()> {
        let mut n = v.len();
        self.len(&mut n, 1)?;
        v.resize(n, 0);
        self.raw(v)
    }

    /// A length-prefixed UTF-8 string.
    fn string(&mut self, v: &mut String) -> Result<()> {
        let mut b = std::mem::take(v).into_bytes();
        self.bytes(&mut b)?;
        *v = String::from_utf8(b).map_err(|_| SnapshotError::Corrupt { what: "utf-8" })?;
        Ok(())
    }

    /// A value the restoring instance already holds (its configuration):
    /// written as it is, and decoding a frame that disagrees answers
    /// `Mismatch { what }`.
    fn expect<T: Primitive>(&mut self, what: &'static str, v: T) -> Result<()> {
        let mut got = v.clone();
        got.transfer(self)?;
        if got != v {
            return Err(SnapshotError::Mismatch { what });
        }
        Ok(())
    }

    /// Refuses a decoded value no save could have written: `Corrupt {
    /// what }` unless `ok`. Encoding checks nothing.
    fn check(&self, ok: bool, what: &'static str) -> Result<()> {
        if Self::DECODING && !ok {
            return Err(SnapshotError::Corrupt { what });
        }
        Ok(())
    }

    /// An enum as a one-byte tag: its variant's index in `all`, which
    /// holds one value per variant in tag order. Decoding replaces `v`
    /// with that value (a variant with fields then has them filled by the
    /// caller); a tag past the table's end is `Corrupt { what }`.
    fn variant<T: Clone>(&mut self, v: &mut T, all: &[T], what: &'static str) -> Result<()> {
        let mut tag = if Self::DECODING {
            0
        } else {
            let mine = std::mem::discriminant(v);
            let at = all.iter().position(|x| std::mem::discriminant(x) == mine);
            at.expect("every variant is in its tag table") as u8
        };
        self.u8(&mut tag)?;
        if Self::DECODING {
            *v = all
                .get(tag as usize)
                .ok_or(SnapshotError::Corrupt { what })?
                .clone();
        }
        Ok(())
    }

    /// An `Option`: a presence `bool`, then the value through `f`.
    /// Decoding builds a present value from `T::default()`.
    fn opt<T: Default>(
        &mut self,
        v: &mut Option<T>,
        f: impl FnOnce(&mut Self, &mut T) -> Result<()>,
    ) -> Result<()> {
        let mut some = v.is_some();
        self.bool(&mut some)?;
        if Self::DECODING {
            *v = some.then(T::default);
        }
        v.as_mut().map_or(Ok(()), |x| f(self, x))
    }

    /// A part the restoring instance has or lacks by construction (a
    /// device, an opt-in recorder): a presence `bool`, then the part
    /// through `f`; decoding a frame that disagrees answers `Mismatch {
    /// what }`.
    fn present<T>(
        &mut self,
        v: Option<&mut T>,
        what: &'static str,
        f: impl FnOnce(&mut Self, &mut T) -> Result<()>,
    ) -> Result<()> {
        let mut some = v.is_some();
        self.bool(&mut some)?;
        match (some, v) {
            (true, Some(x)) => f(self, x),
            (false, None) => Ok(()),
            _ => Err(SnapshotError::Mismatch { what }),
        }
    }

    /// A `Vec`: its length (guarded at `min_elem_bytes`, see
    /// [`Stream::len`]), then each element through `f`. Decoding
    /// reserves the guarded length and pushes each element, decoded into
    /// a `T::default()`.
    fn vec<T: Default>(
        &mut self,
        v: &mut Vec<T>,
        min_elem_bytes: usize,
        mut f: impl FnMut(&mut Self, &mut T) -> Result<()>,
    ) -> Result<()> {
        let mut n = v.len();
        self.len(&mut n, min_elem_bytes)?;
        if !Self::DECODING {
            return v.iter_mut().try_for_each(|x| f(self, x));
        }
        v.clear();
        v.reserve(n);
        for _ in 0..n {
            let mut x = T::default();
            f(self, &mut x)?;
            v.push(x);
        }
        Ok(())
    }

    /// A slice whose length the restoring instance fixes: the length,
    /// then each element through `f`. Decoding a frame of another length
    /// answers `err` before reading an element.
    fn fixed<T>(
        &mut self,
        v: &mut [T],
        err: SnapshotError,
        mut f: impl FnMut(&mut Self, &mut T) -> Result<()>,
    ) -> Result<()> {
        let mut n = v.len();
        self.usize(&mut n)?;
        if n != v.len() {
            return Err(err);
        }
        v.iter_mut().try_for_each(|x| f(self, x))
    }

    /// [`Stream::fixed`] for bytes, copied as one block.
    fn fixed_bytes(&mut self, v: &mut [u8], err: SnapshotError) -> Result<()> {
        let mut n = v.len();
        self.usize(&mut n)?;
        if n != v.len() {
            return Err(err);
        }
        self.raw(v)
    }

    /// A hash map in ascending key order, so equal maps encode equally
    /// whatever their iteration order: the length (guarded at
    /// `min_elem_bytes`), then each key and its value through `f`.
    fn map<K, V, H>(
        &mut self,
        m: &mut HashMap<K, V, H>,
        min_elem_bytes: usize,
        mut f: impl FnMut(&mut Self, &mut V) -> Result<()>,
    ) -> Result<()>
    where
        K: Primitive + Ord + Hash + Default,
        V: Default,
        H: BuildHasher,
    {
        let mut n = m.len();
        self.len(&mut n, min_elem_bytes)?;
        if !Self::DECODING {
            let mut entries: Vec<(&K, &mut V)> = m.iter_mut().collect();
            entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
            for (k, x) in entries {
                k.clone().transfer(self)?;
                f(self, x)?;
            }
            return Ok(());
        }
        m.clear();
        for _ in 0..n {
            let (mut k, mut x) = (K::default(), V::default());
            k.transfer(self)?;
            f(self, &mut x)?;
            m.insert(k, x);
        }
        Ok(())
    }
}

/// A value with one primitive encoding: what [`Stream::expect`] checks
/// and [`Stream::map`] keys by.
pub trait Primitive: Clone + PartialEq {
    /// Moves the value through `s` with its primitive method.
    fn transfer<S: Stream>(&mut self, s: &mut S) -> Result<()>;
}

macro_rules! primitive {
    ($($t:ident),*) => {$(
        impl Primitive for $t {
            fn transfer<S: Stream>(&mut self, s: &mut S) -> Result<()> {
                s.$t(self)
            }
        }
    )*};
}
primitive!(u8, bool, u16, u32, u64, i64, usize);

impl Primitive for String {
    fn transfer<S: Stream>(&mut self, s: &mut S) -> Result<()> {
        s.string(self)
    }
}

impl Stream for Enc {
    const DECODING: bool = false;

    #[inline]
    fn u8(&mut self, v: &mut u8) -> Result<()> {
        self.buf.push(*v);
        Ok(())
    }

    #[inline]
    fn u16(&mut self, v: &mut u16) -> Result<()> {
        self.buf.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    #[inline]
    fn u32(&mut self, v: &mut u32) -> Result<()> {
        self.buf.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    #[inline]
    fn u64(&mut self, v: &mut u64) -> Result<()> {
        self.buf.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    #[inline]
    fn raw(&mut self, v: &mut [u8]) -> Result<()> {
        self.buf.extend_from_slice(v);
        Ok(())
    }

    #[inline]
    fn len(&mut self, n: &mut usize, _: usize) -> Result<()> {
        self.buf.extend_from_slice(&(*n as u64).to_le_bytes());
        Ok(())
    }
}

impl Stream for Dec<'_> {
    const DECODING: bool = true;

    #[inline]
    fn u8(&mut self, v: &mut u8) -> Result<()> {
        *v = self.take(1)?[0];
        Ok(())
    }

    #[inline]
    fn u16(&mut self, v: &mut u16) -> Result<()> {
        *v = u16::from_le_bytes(self.array()?);
        Ok(())
    }

    #[inline]
    fn u32(&mut self, v: &mut u32) -> Result<()> {
        *v = u32::from_le_bytes(self.array()?);
        Ok(())
    }

    #[inline]
    fn u64(&mut self, v: &mut u64) -> Result<()> {
        *v = u64::from_le_bytes(self.array()?);
        Ok(())
    }

    #[inline]
    fn raw(&mut self, v: &mut [u8]) -> Result<()> {
        v.copy_from_slice(self.take(v.len())?);
        Ok(())
    }

    fn len(&mut self, n: &mut usize, min_elem_bytes: usize) -> Result<()> {
        self.usize(n)?;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(SnapshotError::Corrupt {
                what: "collection count exceeds payload",
            });
        }
        Ok(())
    }
}

/// State that can be captured into an [`Enc`] and restored from a
/// [`Dec`], written once as a [`SnapshotState::transfer`].
///
/// `restore` writes **into an existing instance built with the same
/// configuration** as the one that was saved (timing structures need
/// their construction parameters); a `transfer` passes any embedded shape
/// through [`Stream::expect`], which reports [`SnapshotError::Mismatch`]
/// on disagreement. Anything derived or host-only (decoded-block caches,
/// host-time stats) is *recomputed* rather than captured —
/// docs/SNAPSHOT.md keeps the captured/recomputed inventory.
pub trait SnapshotState {
    /// Moves every field through `s`, in frame order: [`Enc`] reads
    /// them, [`Dec`] overwrites them. Encoding leaves `self` as it was —
    /// `&mut` only because decoding needs the same access path.
    fn transfer<S: Stream>(&mut self, s: &mut S) -> Result<()>;

    /// Appends this value's state to `e`.
    fn save(&mut self, e: &mut Enc) {
        self.transfer(e).expect("encoding never fails");
    }

    /// Overwrites this value's state from `d`.
    fn restore(&mut self, d: &mut Dec) -> Result<()> {
        self.transfer(d)
    }
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

    /// Every primitive and helper, encoded and decoded by the same list.
    #[derive(Clone, Debug, Default, PartialEq)]
    struct All {
        a: u8,
        b: bool,
        c: u16,
        d: u32,
        e: u64,
        f: i64,
        g: usize,
        h: String,
        i: Option<u64>,
        j: Vec<u64>,
        k: [bool; 2],
        l: HashMap<u16, u64>,
        m: Vec<u8>,
    }

    impl SnapshotState for All {
        fn transfer<S: Stream>(&mut self, s: &mut S) -> Result<()> {
            s.expect("shape", 7u32)?;
            s.u8(&mut self.a)?;
            s.bool(&mut self.b)?;
            s.u16(&mut self.c)?;
            s.u32(&mut self.d)?;
            s.u64(&mut self.e)?;
            s.i64(&mut self.f)?;
            s.usize(&mut self.g)?;
            s.string(&mut self.h)?;
            s.opt(&mut self.i, S::u64)?;
            s.vec(&mut self.j, 8, S::u64)?;
            s.fixed(&mut self.k, SnapshotError::Mismatch { what: "k" }, S::bool)?;
            s.map(&mut self.l, 10, S::u64)?;
            s.bytes(&mut self.m)
        }
    }

    #[test]
    fn primitives_roundtrip() {
        let mut v = All {
            a: 7,
            b: true,
            c: 0xbeef,
            d: 0xdead_beef,
            e: u64::MAX - 3,
            f: -42,
            g: 123_456,
            h: "héllo".into(),
            i: Some(9),
            j: vec![1, 2, 3],
            k: [true, false],
            l: [(3, 30), (1, 10), (2, 20)].into_iter().collect(),
            m: b"raw".to_vec(),
        };
        let mut e = Enc::new();
        v.save(&mut e);
        let bytes = e.into_bytes();
        let mut back = All::default();
        let mut d = Dec::new(&bytes);
        back.restore(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back, v);
        let mut again = Enc::new();
        back.save(&mut again);
        assert_eq!(again.bytes(), bytes, "map keys are written sorted");
    }

    #[test]
    fn expect_and_check_refuse_on_decode_only() {
        let mut e = Enc::new();
        e.u32(8);
        assert_eq!(
            All::default().restore(&mut Dec::new(e.bytes())),
            Err(SnapshotError::Mismatch { what: "shape" })
        );
        let e = Enc::new();
        assert_eq!(e.check(false, "x"), Ok(()), "encoding checks nothing");
        assert_eq!(
            Dec::new(&[]).check(false, "x"),
            Err(SnapshotError::Corrupt { what: "x" })
        );
    }

    #[test]
    fn variant_tags_by_table_index() {
        #[derive(Clone, Debug, PartialEq)]
        enum E {
            A,
            B(u64),
        }
        const ALL: [E; 2] = [E::A, E::B(0)];
        let mut e = Enc::new();
        e.variant(&mut E::B(5), &ALL, "e").unwrap();
        e.variant(&mut E::A, &ALL, "e").unwrap();
        assert_eq!(e.bytes(), [1, 0]);
        let mut v = E::A;
        let mut d = Dec::new(&[1, 0, 2]);
        d.variant(&mut v, &ALL, "e").unwrap();
        assert_eq!(v, E::B(0), "fields are the caller's to fill");
        d.variant(&mut v, &ALL, "e").unwrap();
        assert_eq!(v, E::A);
        assert_eq!(
            d.variant(&mut v, &ALL, "e"),
            Err(SnapshotError::Corrupt { what: "e" })
        );
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut d = Dec::new(&[1, 2]);
        assert!(matches!(
            d.u64(&mut 0),
            Err(SnapshotError::Truncated { need: 8, have: 2 })
        ));
        // the failed read consumed nothing
        let mut v = 0;
        d.u16(&mut v).unwrap();
        assert_eq!(v, 0x0201);
    }

    #[test]
    fn bad_bool_is_corrupt() {
        let mut d = Dec::new(&[2]);
        assert!(matches!(
            d.bool(&mut false),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn absurd_count_is_corrupt_not_alloc() {
        let mut e = Enc::new();
        e.seq(usize::MAX / 2);
        let bytes = e.into_bytes();
        assert!(matches!(
            Dec::new(&bytes).len(&mut 0, 8),
            Err(SnapshotError::Corrupt { .. })
        ));
        assert!(matches!(
            Dec::new(&bytes).vec(&mut Vec::new(), 8, Dec::u64),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn trailing_bytes_detected() {
        let bytes = [1, 2];
        let mut d = Dec::new(&bytes);
        d.u8(&mut 0).unwrap();
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
