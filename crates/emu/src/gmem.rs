//! Sparse guest physical memory.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// log2 of the guest page size; shared with the decoded-block cache
/// ([`crate::blockcache`]), whose invalidation is page-granular.
pub const PAGE_BITS: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;

/// `HashMap` from a guest physical page index to `V`, hashed by
/// [`PageHasher`]: the page table of [`GuestMem`] and the page map of the
/// decoded-block cache, both probed by every load, store and block entry.
///
/// Iteration order is as unspecified as the default hasher's:
/// [`GuestMem::snapshot_nonzero`] sorts, and the block cache's
/// `invalidate_all` order reaches only host-side slot numbers.
pub(crate) type PageMap<V> = HashMap<u64, V, BuildHasherDefault<PageHasher>>;

/// Multiplicative hasher for `u64` page indices — `xt-mem`'s `LineHasher`
/// repeated here rather than a dependency edge between the functional
/// and the timing half of the workspace, with the rotation re-picked for
/// these keys.
///
/// A page index is a guest address the emulator already translated and
/// is about to dereference; a colliding set costs that guest its own
/// host time and nothing else, so SipHash's ~20 ns per probe bought
/// nothing. hashbrown indexes buckets with the hash's *low* bits and
/// takes its 7 control bits from the top; an odd-constant multiply
/// leaves a key's trailing zeros in the low bits (64 KiB and 1 MiB
/// strides), so the product is rotated. Page indices are small and
/// dense, unlike line addresses: rotating by 45 hands the bucket index
/// bits 19..31 of the product and the control byte bits 12..19, the
/// one window that fills >= 88 % of the buckets at all three strides
/// the workloads walk pages with (`LineHasher`'s 32 fills 43 % at
/// 1 MiB; the guard in the tests measures both).
#[derive(Clone, Copy, Default)]
pub(crate) struct PageHasher(u64);

/// 2^64 / golden ratio, odd.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for PageHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("PageHasher hashes u64 page indices only");
    }

    #[inline]
    fn write_u64(&mut self, page: u64) {
        self.0 = page.wrapping_mul(MULTIPLIER).rotate_left(45);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// One guest page.
type Frame = Box<[u8; PAGE_SIZE]>;

/// Entries of the page memo (a power of two).
const MEMO: usize = 256;

/// A memo tag no page index has (a page index is an address >> 12).
const NO_PAGE: u64 = u64::MAX;

/// The pages of a cluster's guest memory that some core lacked when a
/// peer's store reached it: one layer, shared by every core's
/// [`GuestMem`] ([`GuestMem::share`]), that holds each such store once
/// rather than once per core.
///
/// A core's view of a page it does not hold is the published page (or
/// zeros): every store to the page since the cores' memories were built
/// or restored, in barrier order. The cluster barrier, the only writer,
/// runs while no core does; the cores lock the layer only on a page-map
/// miss.
#[derive(Clone, Default)]
pub struct PublishedPages(Arc<Mutex<GuestMem>>);

impl PublishedPages {
    fn lock(&self) -> MutexGuard<'_, GuestMem> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Writes `n <= 8` bytes little-endian, as [`GuestMem::write_bytes`]
    /// does.
    pub fn write_bytes(&self, addr: u64, val: u64, n: usize) {
        self.lock().write_bytes(addr, val, n);
    }

    /// Drops every page: restoring the cores' memories from a frame, each
    /// of which is a core's whole view.
    pub fn clear(&self) {
        *self.lock() = GuestMem::new();
    }

    /// Number of pages held.
    pub fn len(&self) -> usize {
        self.lock().resident_pages()
    }

    /// Whether no page is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Sparse, page-granular guest physical memory supporting unaligned
/// accesses (the XT-910 LSU supports unaligned data access, paper §II).
///
/// Pages live in a frame arena; the page map holds frame indices. A
/// direct-mapped memo of recent `(page, frame)` pairs sits in front of
/// the map, so a load or store to a recently touched page costs no hash
/// probe. Frames never move or die except when a snapshot restore
/// rebuilds the map, and that clears the memo: a memo hit needs no check
/// beyond its tag.
///
/// A cluster core's memory also sees the cluster's [`PublishedPages`]:
/// the first read, write or fetch of a page it does not hold copies the
/// published page in, on the page-map miss path.
pub struct GuestMem {
    pages: PageMap<u32>,
    frames: Vec<Frame>,
    /// Indexed by the page index's low bits; refilled on a map hit.
    memo: [Cell<(u64, u32)>; MEMO],
    /// The cluster's published pages, if this memory is a cluster core's.
    published: Option<PublishedPages>,
}

impl Default for GuestMem {
    fn default() -> Self {
        GuestMem {
            pages: PageMap::default(),
            frames: Vec::new(),
            memo: std::array::from_fn(|_| Cell::new((NO_PAGE, 0))),
            published: None,
        }
    }
}

/// The `N` bytes of `page` at `off` (the caller checked they fit).
#[inline]
fn le<const N: usize>(page: &[u8; PAGE_SIZE], off: usize) -> [u8; N] {
    page[off..off + N].try_into().expect("a slice of N bytes")
}

impl std::fmt::Debug for GuestMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuestMem")
            .field("resident_pages", &self.pages.len())
            .finish()
    }
}

impl GuestMem {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of resident (allocated) 4 KiB pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Whether the page of `addr` is resident.
    pub fn is_resident(&self, addr: u64) -> bool {
        self.pages.contains_key(&(addr >> PAGE_BITS))
    }

    /// Makes `layer` the published pages this memory reads the pages it
    /// lacks from (see [`PublishedPages`]).
    pub fn share(&mut self, layer: PublishedPages) {
        self.published = Some(layer);
    }

    /// The memo entry of `page`.
    #[inline]
    fn memo(&self, page: u64) -> &Cell<(u64, u32)> {
        &self.memo[page as usize & (MEMO - 1)]
    }

    /// The frame index of `page`, if it is resident: the memo, then the
    /// map, whose hit refills the memo.
    #[inline]
    fn frame_of(&self, page: u64) -> Option<u32> {
        let (tag, frame) = self.memo(page).get();
        if tag == page {
            return Some(frame);
        }
        let frame = *self.pages.get(&page)?;
        self.memo(page).set((page, frame));
        Some(frame)
    }

    /// The frame holding `page`, if it is resident or published (then
    /// copied in).
    #[inline]
    fn frame(&mut self, page: u64) -> Option<&[u8; PAGE_SIZE]> {
        let frame = self.frame_of(page).or_else(|| self.adopt(page))?;
        Some(&self.frames[frame as usize])
    }

    /// The frame holding `page`, if it is resident.
    fn resident(&self, page: u64) -> Option<&Frame> {
        self.frame_of(page).map(|f| &self.frames[f as usize])
    }

    /// Every resident page and its frame.
    fn held(&self) -> impl Iterator<Item = (u64, &Frame)> {
        self.pages.iter().map(|(&idx, &f)| (idx, &self.frames[f as usize]))
    }

    /// The miss path: a copy of `page`'s published page made resident,
    /// if there is one.
    #[cold]
    fn adopt(&mut self, page: u64) -> Option<u32> {
        let copy = self.published.as_ref()?.lock().resident(page)?.clone();
        Some(self.insert(page, copy))
    }

    /// Makes `data` the resident frame of `page`.
    fn insert(&mut self, page: u64, data: Frame) -> u32 {
        let frame = self.frames.len() as u32;
        self.frames.push(data);
        self.pages.insert(page, frame);
        self.memo(page).set((page, frame));
        frame
    }

    /// The frame holding the page of `addr`, allocated on demand.
    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        let page = addr >> PAGE_BITS;
        let frame = (self.frame_of(page).or_else(|| self.adopt(page)))
            .unwrap_or_else(|| self.insert(page, Box::new([0; PAGE_SIZE])));
        &mut self.frames[frame as usize]
    }

    /// Reads one byte (unmapped memory reads as zero).
    pub fn read_u8(&mut self, addr: u64) -> u8 {
        match self.frame(addr >> PAGE_BITS) {
            Some(p) => p[(addr & (PAGE_SIZE as u64 - 1)) as usize],
            None => 0,
        }
    }

    /// Writes one byte, allocating the page on demand.
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        let off = (addr & (PAGE_SIZE as u64 - 1)) as usize;
        self.page_mut(addr)[off] = val;
    }

    /// Reads `N <= 8` bytes little-endian (may straddle pages).
    ///
    /// The common same-page case resolves the page once; only accesses
    /// that actually straddle a boundary fall back to per-byte reads,
    /// which wrap from the last byte of the address space to address 0.
    pub fn read_bytes(&mut self, addr: u64, n: usize) -> u64 {
        debug_assert!(n <= 8);
        let off = (addr & (PAGE_SIZE as u64 - 1)) as usize;
        if off + n <= PAGE_SIZE {
            return match self.frame(addr >> PAGE_BITS) {
                // the widths every load and fetch has: one host load each
                Some(p) => match n {
                    1 => p[off] as u64,
                    2 => u16::from_le_bytes(le(p, off)) as u64,
                    4 => u32::from_le_bytes(le(p, off)) as u64,
                    8 => u64::from_le_bytes(le(p, off)),
                    _ => {
                        let mut v = 0u64;
                        for (k, b) in p[off..off + n].iter().enumerate() {
                            v |= (*b as u64) << (8 * k);
                        }
                        v
                    }
                },
                None => 0,
            };
        }
        let mut v = 0u64;
        for k in 0..n {
            v |= (self.read_u8(addr.wrapping_add(k as u64)) as u64) << (8 * k);
        }
        v
    }

    /// Writes `n <= 8` bytes little-endian (may straddle pages).
    ///
    /// Same-page writes resolve the page once (see [`Self::read_bytes`]).
    pub fn write_bytes(&mut self, addr: u64, val: u64, n: usize) {
        debug_assert!(n <= 8);
        let off = (addr & (PAGE_SIZE as u64 - 1)) as usize;
        if off + n <= PAGE_SIZE {
            let p = self.page_mut(addr);
            match n {
                1 => p[off] = val as u8,
                2 => p[off..off + 2].copy_from_slice(&(val as u16).to_le_bytes()),
                4 => p[off..off + 4].copy_from_slice(&(val as u32).to_le_bytes()),
                8 => p[off..off + 8].copy_from_slice(&val.to_le_bytes()),
                _ => {
                    for (k, b) in p[off..off + n].iter_mut().enumerate() {
                        *b = (val >> (8 * k)) as u8;
                    }
                }
            }
            return;
        }
        for k in 0..n {
            self.write_u8(addr.wrapping_add(k as u64), (val >> (8 * k)) as u8);
        }
    }

    /// Writes a peer core's `n <= 8`-byte store into the pages this
    /// memory holds, and returns whether every byte landed. A memory
    /// that shares [`PublishedPages`] leaves the bytes of a page it does
    /// not hold to them (the caller writes the store there); any other
    /// allocates the page, as [`Self::write_bytes`] does.
    pub fn write_held(&mut self, addr: u64, val: u64, n: usize) -> bool {
        let held = |m: &Self, at: u64| m.published.is_none() || m.frame_of(at >> PAGE_BITS).is_some();
        if (addr & (PAGE_SIZE as u64 - 1)) as usize + n <= PAGE_SIZE {
            let held = held(self, addr);
            if held {
                self.write_bytes(addr, val, n);
            }
            return held;
        }
        let mut all = true;
        for k in 0..n {
            let at = addr.wrapping_add(k as u64);
            if held(self, at) {
                self.write_u8(at, (val >> (8 * k)) as u8);
            } else {
                all = false;
            }
        }
        all
    }

    /// Reads a u16.
    pub fn read_u16(&mut self, addr: u64) -> u16 {
        self.read_bytes(addr, 2) as u16
    }

    /// Reads a u32.
    pub fn read_u32(&mut self, addr: u64) -> u32 {
        self.read_bytes(addr, 4) as u32
    }

    /// Reads a u64.
    pub fn read_u64(&mut self, addr: u64) -> u64 {
        self.read_bytes(addr, 8)
    }

    /// Writes a u32.
    pub fn write_u32(&mut self, addr: u64, val: u32) {
        self.write_bytes(addr, val as u64, 4)
    }

    /// Writes a u64.
    pub fn write_u64(&mut self, addr: u64, val: u64) {
        self.write_bytes(addr, val, 8)
    }

    /// Copies a byte slice into memory at `addr`, a page at a time.
    pub fn write_slice(&mut self, mut addr: u64, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let off = (addr & (PAGE_SIZE as u64 - 1)) as usize;
            let (chunk, rest) = bytes.split_at(bytes.len().min(PAGE_SIZE - off));
            self.page_mut(addr)[off..off + chunk.len()].copy_from_slice(chunk);
            addr += chunk.len() as u64;
            bytes = rest;
        }
    }

    /// Copies `len` bytes out of memory into a fresh vector, a page at a
    /// time (unmapped memory reads as zero). Observes: a published page
    /// is read where it lies, not copied in.
    pub fn read_vec(&self, mut addr: u64, len: usize) -> Vec<u8> {
        let published = self.published.as_ref().map(PublishedPages::lock);
        let mut out = vec![0; len];
        let mut rest = out.as_mut_slice();
        while !rest.is_empty() {
            let off = (addr & (PAGE_SIZE as u64 - 1)) as usize;
            let (chunk, tail) = rest.split_at_mut(rest.len().min(PAGE_SIZE - off));
            let page = addr >> PAGE_BITS;
            let page = self.resident(page).or_else(|| published.as_ref()?.resident(page));
            if let Some(p) = page {
                chunk.copy_from_slice(&p[off..off + chunk.len()]);
            }
            addr += chunk.len() as u64;
            rest = tail;
        }
        out
    }

    /// Sorted `(page index, contents)` snapshot of every page holding a
    /// nonzero byte: the resident pages, and the published pages this
    /// memory lacks. All-zero pages are skipped: they are architecturally
    /// indistinguishable from unmapped ones (reads return zero either
    /// way), and two executions may differ in which zero pages they
    /// happened to allocate. Used by the fast-path differential suites
    /// to compare whole-memory state.
    pub fn snapshot_nonzero(&self) -> Vec<(u64, Vec<u8>)> {
        let published = self.published.as_ref().map(PublishedPages::lock);
        let lacked = published.iter().flat_map(|p| p.held());
        let lacked = lacked.filter(|(idx, _)| !self.pages.contains_key(idx));
        let mut pages: Vec<(u64, Vec<u8>)> = self
            .held()
            .chain(lacked)
            .filter(|(_, p)| p.iter().any(|&b| b != 0))
            .map(|(idx, p)| (idx, p.to_vec()))
            .collect();
        pages.sort_by_key(|(idx, _)| *idx);
        pages
    }
}

impl xt_snapshot::SnapshotState for GuestMem {
    /// Only pages holding a nonzero byte are captured (sorted by page
    /// index, so the encoding is canonical); restore rebuilds the page
    /// table from scratch. Zero pages are architecturally equivalent to
    /// unmapped ones, so dropping them preserves every guest-visible
    /// read while keeping `save ∘ restore ∘ save` byte-stable.
    fn transfer<S: xt_snapshot::Stream>(&mut self, s: &mut S) -> xt_snapshot::Result<()> {
        let mut pages = if S::DECODING {
            Vec::new()
        } else {
            self.snapshot_nonzero()
        };
        // 8 (index) + 8 (length prefix) + PAGE_SIZE bytes per entry: a
        // corrupted page count larger than the payload is rejected before
        // any allocation happens
        s.vec(&mut pages, 16 + PAGE_SIZE, |s, (idx, data)| {
            s.u64(idx)?;
            data.resize(PAGE_SIZE, 0);
            s.fixed_bytes(
                data,
                xt_snapshot::SnapshotError::Corrupt { what: "page size" },
            )
        })?;
        if S::DECODING {
            let page = |data: Vec<u8>| data.into_boxed_slice().try_into().expect("a whole page");
            self.pages = (0..pages.len() as u32)
                .map(|frame| (pages[frame as usize].0, frame))
                .collect();
            self.frames = pages.into_iter().map(|(_, data)| page(data)).collect();
            // the memo names frames of the old arena
            for m in &self.memo {
                m.set((NO_PAGE, 0));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_reads_zero() {
        let mut m = GuestMem::new();
        assert_eq!(m.read_u64(0xdead_beef), 0);
    }

    #[test]
    fn rw_roundtrip_unaligned_cross_page() {
        let mut m = GuestMem::new();
        // straddles a 4 KiB boundary
        let addr = 0x1_0000 - 3;
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn slice_roundtrip() {
        let mut m = GuestMem::new();
        m.write_slice(100, b"hello world");
        assert_eq!(m.read_vec(100, 11), b"hello world");
    }

    #[test]
    fn unaligned_slice_spanning_three_pages() {
        let mut m = GuestMem::new();
        // last 5 bytes of one page, a whole page, first 9 of the next
        let addr = 0x3_0000 - 5;
        let bytes: Vec<u8> = (0..5 + PAGE_SIZE + 9).map(|k| (k * 7 + 1) as u8).collect();
        m.write_slice(addr, &bytes);
        assert_eq!(m.resident_pages(), 3);
        assert_eq!(m.read_vec(addr, bytes.len()), bytes);
        // a wider window reads the untouched neighbours as zero
        let wide = m.read_vec(addr - 2, bytes.len() + 4);
        assert_eq!(wide[..2], [0, 0]);
        assert_eq!(wide[2..2 + bytes.len()], bytes[..]);
        assert_eq!(wide[2 + bytes.len()..], [0, 0]);
        // word reads agree at the seams, including across them
        for at in [0, 1, 5, 5 + PAGE_SIZE - 3, bytes.len() - 8] {
            let want = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            assert_eq!(m.read_u64(addr + at as u64), want, "offset {at}");
        }
        // reading never maps a page
        assert_eq!(m.read_vec(0x9_0000, 2 * PAGE_SIZE), vec![0; 2 * PAGE_SIZE]);
        assert_eq!(m.resident_pages(), 3);
    }

    #[test]
    fn partial_widths() {
        let mut m = GuestMem::new();
        m.write_bytes(8, 0xAABBCCDD, 4);
        assert_eq!(m.read_u16(8), 0xCCDD);
        assert_eq!(m.read_u8(11), 0xAA);
    }

    /// The one-host-access paths of widths 1, 2, 4 and 8 and the byte
    /// loop of the others agree with byte-at-a-time access, up to the
    /// last byte of a page, and a write touches no neighbour.
    #[test]
    fn every_width_reads_and_writes_exactly_its_bytes() {
        let pattern = 0x8877_6655_4433_2211u64;
        for n in 1..=8usize {
            for off in [0, 3, PAGE_SIZE - 8, PAGE_SIZE - n] {
                let addr = 0x7_0000 + off as u64;
                let mut m = GuestMem::new();
                m.write_slice(addr - 8, &[0xEE; 24]);
                m.write_bytes(addr, pattern, n);
                let mut want = [0xEE; 24];
                want[8..8 + n].copy_from_slice(&pattern.to_le_bytes()[..n]);
                assert_eq!(m.read_vec(addr - 8, 24), want, "width {n} at {off}");
                let mask = if n == 8 { u64::MAX } else { (1 << (8 * n)) - 1 };
                assert_eq!(m.read_bytes(addr, n), pattern & mask, "width {n} at {off}");
            }
        }
    }

    /// Distinct values of hashbrown's bucket index (low 12 bits: a
    /// 4096-bucket table) and of its control byte (top 7 bits) over 4096
    /// page indices `base + k * stride`.
    fn spread(hash: impl Fn(u64) -> u64, base: u64, stride: u64) -> (usize, usize) {
        use std::collections::HashSet;
        let hashes: Vec<u64> = (0..4096u64).map(|k| hash(base + k * stride)).collect();
        let low: HashSet<u64> = hashes.iter().map(|h| h & 0xFFF).collect();
        let top: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        (low.len(), top.len())
    }

    /// Near-full: random hashing would fill 1 - 1/e = 63 % of 4096
    /// buckets with 4096 keys.
    fn spreads_well((low, top): (usize, usize)) -> bool {
        low >= 3400 && top == 128
    }

    /// Page indices of the workloads' text, data and stack, walked page
    /// by page, 64 KiB by 64 KiB and 1 MiB by 1 MiB.
    const BASES: [u64; 3] = [0x80000, 0x81000, 0x8f000];
    const STRIDES: [u64; 3] = [1, 16, 256];

    #[test]
    fn page_hasher_spreads_page_indices_over_index_and_control_bits() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<PageHasher>::default();
        for base in BASES {
            for stride in STRIDES {
                let got = spread(|k| build.hash_one(k), base, stride);
                assert!(spreads_well(got), "base {base:#x} stride {stride}: {got:?}");
            }
        }
    }

    /// The guard must reject what a later "simplification" would try:
    /// the identity (no control bits), a bare multiply (a stride's
    /// trailing zeros stay in the index) and `LineHasher`'s rotation.
    #[test]
    fn identity_bare_multiply_and_line_rotation_fail_the_spread_guard() {
        let passes = |hash: &dyn Fn(u64) -> u64| {
            BASES
                .iter()
                .all(|&b| STRIDES.iter().all(|&s| spreads_well(spread(hash, b, s))))
        };
        assert!(!passes(&|k| k), "identity");
        assert!(!passes(&|k| k.wrapping_mul(MULTIPLIER)), "bare multiply");
        assert!(!passes(&|k| k.wrapping_mul(MULTIPLIER).rotate_left(32)), "rotate by 32");
    }

    #[test]
    #[should_panic(expected = "u64 page indices only")]
    fn page_hasher_rejects_byte_slices() {
        PageHasher::default().write(&[1, 2, 3]);
    }

    fn frame(m: &mut GuestMem) -> Vec<u8> {
        let mut e = xt_snapshot::Enc::new();
        xt_snapshot::SnapshotState::save(m, &mut e);
        e.into_bytes()
    }

    /// A memory sharing published pages sees them as its own before it
    /// holds them — `read_vec`, `snapshot_nonzero` and the frame equal a
    /// memory that was written the same bytes — and copies a page in on
    /// its first read or write, after which publishing no longer
    /// reaches it. A peer's store lands only in the pages it holds.
    #[test]
    fn published_pages_are_seen_unheld_and_copied_on_first_touch() {
        let layer = PublishedPages::default();
        let mut m = GuestMem::new();
        m.share(layer.clone());
        let mut plain = GuestMem::new();
        for mem in [&mut m, &mut plain] {
            mem.write_u64(0x1000, 0xAA);
        }
        // straddles pages 4 and 5
        layer.write_bytes(0x5000 - 4, 0x1122_3344_5566_7788, 8);
        plain.write_u64(0x5000 - 4, 0x1122_3344_5566_7788);
        assert_eq!(layer.len(), 2);
        assert_eq!(m.read_vec(0x4ff0, 32), plain.read_vec(0x4ff0, 32));
        assert_eq!(m.snapshot_nonzero(), plain.snapshot_nonzero());
        assert_eq!(frame(&mut m), frame(&mut plain));
        assert_eq!(m.resident_pages(), 1, "observing copies nothing in");

        assert!(m.write_held(0x1008, 5, 8), "a held page");
        assert!(!m.write_held(0x9000, 5, 8), "an unheld page");
        assert!(!m.write_held(0x1ffc, 5, 8), "straddling into an unheld page");
        assert_eq!(m.read_u64(0x1008), 5);
        assert!(!m.is_resident(0x9000) && !m.is_resident(0x2000));

        assert_eq!(m.read_u32(0x5000), 0x1122_3344, "the first read");
        assert!(m.is_resident(0x5000) && !m.is_resident(0x4000));
        m.write_u8(0x4000, 1);
        assert_eq!(m.read_u32(0x4ffc), 0x5566_7788, "the first write kept the page");
        layer.write_bytes(0x5000, 0, 8);
        layer.clear();
        assert_eq!(m.read_u64(0x4ffc), 0x1122_3344_5566_7788);
    }

    #[test]
    fn straddling_the_top_of_the_address_space_wraps_to_zero() {
        let mut m = GuestMem::new();
        m.write_u64(u64::MAX - 2, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(u64::MAX - 2), 0x1122_3344_5566_7788);
        assert_eq!(m.read_u8(u64::MAX), 0x66);
        assert_eq!(m.read_u8(0), 0x55);
        assert_eq!(m.resident_pages(), 2);
    }
}
