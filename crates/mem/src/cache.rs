//! Set-associative cache with MOSEI line states and true-LRU replacement.

mod ways;

use ways::{Ways, Word};
pub use ways::{Chunked, Flat};

/// MOSEI coherence state of a cache line (§VI: "The L2 cache supports
/// MOSEI coherence protocol").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LineState {
    /// Modified: this cache holds the only, dirty copy.
    Modified,
    /// Owned: dirty, but other sharers may exist; this cache supplies data.
    Owned,
    /// Exclusive: clean, only copy.
    Exclusive,
    /// Shared: clean, possibly other copies.
    Shared,
    /// Invalid.
    Invalid,
}

impl LineState {
    /// Every state, in snapshot tag order.
    pub const ALL: [LineState; 5] = [
        LineState::Modified,
        LineState::Owned,
        LineState::Exclusive,
        LineState::Shared,
        LineState::Invalid,
    ];

    /// Whether the line holds data at all.
    pub fn is_valid(self) -> bool {
        self != LineState::Invalid
    }

    /// Whether the line must be written back on eviction.
    pub fn is_dirty(self) -> bool {
        matches!(self, LineState::Modified | LineState::Owned)
    }

    /// Whether a store may proceed without an upgrade request.
    pub fn is_writable(self) -> bool {
        matches!(self, LineState::Modified | LineState::Exclusive)
    }

    /// Stable display name (single MOSEI letter).
    pub fn name(self) -> &'static str {
        match self {
            LineState::Modified => "M",
            LineState::Owned => "O",
            LineState::Exclusive => "E",
            LineState::Shared => "S",
            LineState::Invalid => "I",
        }
    }
}

/// Result of a cache probe-and-update.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProbeResult {
    /// Hit; flag says whether the line was a not-yet-demanded prefetch.
    Hit {
        /// True when this is the first demand touch of a prefetched line.
        was_prefetched: bool,
    },
    /// Miss.
    Miss,
    /// Hit, but the line is not writable and the access is a store
    /// (requires a coherence upgrade).
    UpgradeNeeded {
        /// True when this is the first demand touch of a prefetched line
        /// (the touch is a useful prefetch all the same).
        was_prefetched: bool,
    },
}

/// Victim information returned by a fill.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Victim {
    /// Line (block) address of the evicted line.
    pub addr: u64,
    /// Its state at eviction (dirty states need a writeback).
    pub state: LineState,
    /// True if the victim was prefetched but never used.
    pub wasted_prefetch: bool,
}

/// A set-associative, write-back, write-allocate cache model.
///
/// Stores tags and MOSEI states only (data values live in the functional
/// emulator). Addresses are physical. `W` is where the ways live:
/// [`Flat`] ([`Cache::new`], the L1s) or [`Chunked`] ([`Cache::sparse`],
/// the shared L2). LRU stamps are 32 bits wide: if the counter ever
/// reaches `u32::MAX`, every stamp is renumbered in rank order, which
/// picks the same victims.
#[derive(Clone, Debug)]
pub struct Cache<W = Flat> {
    name: &'static str,
    sets: usize,
    ways: usize,
    line_bits: u32,
    store: W,
    stamp: u64,
}

impl Cache {
    /// Creates a cache of `size_kib` KiB with `ways` ways and
    /// `line_bytes`-byte lines, every way allocated.
    ///
    /// # Panics
    ///
    /// Panics if geometry is not a power-of-two arrangement or the lines
    /// are shorter than 16 bytes.
    pub fn new(name: &'static str, size_kib: u32, ways: u32, line_bytes: u32) -> Self {
        Self::build(name, size_kib, ways, line_bytes)
    }
}

impl Cache<Chunked> {
    /// Creates the cache [`Cache::new`] does, with its ways allocated in
    /// 3 KiB chunks of whole sets, each by the first fill into it. Every
    /// answer, and every snapshot byte, is the flat cache's: a chunk
    /// never filled reads, and is written, as reset ways.
    ///
    /// # Panics
    ///
    /// As [`Cache::new`], and if a set has more than 256 ways.
    pub fn sparse(name: &'static str, size_kib: u32, ways: u32, line_bytes: u32) -> Self {
        Self::build(name, size_kib, ways, line_bytes)
    }
}

impl<W: Ways> Cache<W> {
    fn build(name: &'static str, size_kib: u32, ways: u32, line_bytes: u32) -> Self {
        assert!(line_bytes >= 16, "cache lines must be at least 16 bytes");
        let total_lines = size_kib as usize * 1024 / line_bytes as usize;
        let sets = total_lines / ways as usize;
        assert!(sets.is_power_of_two(), "cache sets must be a power of two");
        Cache {
            name,
            sets,
            ways: ways as usize,
            line_bits: line_bytes.trailing_zeros(),
            store: W::reset(sets, ways as usize),
            stamp: 0,
        }
    }

    /// The cache's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Line (block) address for `addr`.
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_bits
    }

    /// The set `addr` maps to, and the key its line is held under (its
    /// byte address).
    #[inline(always)]
    fn set_of(&self, addr: u64) -> (usize, u64) {
        let set = (self.line_addr(addr) as usize) & (self.sets - 1);
        let key = addr & !((1u64 << self.line_bits) - 1);
        (set, key)
    }

    /// The next LRU stamp; the stamps are renumbered when the counter
    /// reaches its limit.
    #[inline(always)]
    fn next_stamp(&mut self) -> u32 {
        self.stamp += 1;
        if self.stamp >= self.store.stamp_limit() {
            self.stamp = self.store.renumber(self.stamp);
        }
        self.stamp as u32
    }

    /// The tag word of the valid way holding `addr`, if any.
    fn find(&self, addr: u64) -> Option<Word> {
        let (set, key) = self.set_of(addr);
        self.store.words(set, self.ways).find(|w| w.holds(key))
    }

    /// Probes for `addr` and updates LRU; a first demand touch clears the
    /// line's prefetched mark.
    /// `is_store` reports `UpgradeNeeded` for hits in non-writable states.
    pub fn access(&mut self, addr: u64, is_store: bool) -> ProbeResult {
        let (set, key) = self.set_of(addr);
        let stamp = self.next_stamp();
        let mut set = self.store.set_mut(set, self.ways, false);
        let Some((word, lru)) = set.find(|(w, _)| w.holds(key)) else {
            return ProbeResult::Miss;
        };
        *lru = stamp;
        let was_prefetched = word.prefetched();
        word.clear_prefetched();
        if is_store && !word.state().is_writable() {
            return ProbeResult::UpgradeNeeded { was_prefetched };
        }
        if is_store {
            word.set_state(LineState::Modified);
        }
        ProbeResult::Hit { was_prefetched }
    }

    /// Peeks without updating replacement state.
    pub fn contains(&self, addr: u64) -> bool {
        self.find(addr).is_some()
    }

    /// Current state of the line containing `addr`.
    pub fn state_of(&self, addr: u64) -> LineState {
        self.find(addr).map_or(LineState::Invalid, |w| w.state())
    }

    /// Installs the line containing `addr` in `state`; returns the victim
    /// if a valid line was evicted. `prefetched` marks prefetcher fills.
    pub fn fill(&mut self, addr: u64, state: LineState, prefetched: bool) -> Option<Victim> {
        let (set, key) = self.set_of(addr);
        let stamp = self.next_stamp();
        // Already present? Just upgrade the state.
        let present = self.store.set_mut(set, self.ways, true).find(|(w, _)| w.holds(key));
        if let Some((word, lru)) = present {
            word.set_state(state);
            *lru = stamp;
            return None;
        }
        // Choose victim: an invalid way, else true-LRU.
        let mut victim = 0;
        let mut best = u32::MAX;
        for (i, (word, lru)) in self.store.set_mut(set, self.ways, true).enumerate() {
            if !word.is_valid() {
                victim = i;
                break;
            }
            if *lru < best {
                best = *lru;
                victim = i;
            }
        }
        let mut set = self.store.set_mut(set, self.ways, true);
        let (word, lru) = set.nth(victim).expect("a set has ways");
        let old = *word;
        *word = Word::new(key, state, prefetched);
        *lru = stamp;
        old.is_valid().then(|| Victim {
            addr: old.addr(),
            state: old.state(),
            wasted_prefetch: old.prefetched(),
        })
    }

    /// Changes the state of a resident line (coherence action). Returns
    /// the previous state if the line was present.
    pub fn set_state(&mut self, addr: u64, state: LineState) -> Option<LineState> {
        let (set, key) = self.set_of(addr);
        let mut set = self.store.set_mut(set, self.ways, false);
        let (word, _) = set.find(|(w, _)| w.holds(key))?;
        let old = word.state();
        word.set_state(state);
        if state == LineState::Invalid {
            word.clear_prefetched();
        }
        Some(old)
    }

    /// Invalidates every line (e.g., `x.dcache.call`); returns how many
    /// dirty lines would have been written back.
    pub fn invalidate_all(&mut self) -> u64 {
        let mut dirty = 0;
        for (word, lru) in self.store.allocated_mut() {
            if word.state().is_dirty() {
                dirty += 1;
            }
            *word = Word::INVALID;
            *lru = 0;
        }
        dirty
    }
}

impl<W: Ways> xt_snapshot::SnapshotState for Cache<W> {
    /// Each way as `tag` (the line address), state, LRU stamp and
    /// prefetched mark — the frame layout, not the packed word — then
    /// the stamp counter. A way the store never allocated is written as
    /// the reset way (tag 0, `Invalid`, LRU 0, not prefetched), and
    /// decoding allocates only for a set holding a way that is not the
    /// reset way. A tag whose byte address does not fit in 64 bits is
    /// `Corrupt`, and so is a stamp or counter past `u32::MAX`: stamps
    /// are kept in 32 bits and written as `u64`.
    fn transfer<S: xt_snapshot::Stream>(&mut self, s: &mut S) -> xt_snapshot::Result<()> {
        s.expect("cache geometry", self.sets)?;
        s.expect("cache geometry", self.ways)?;
        s.expect("cache geometry", self.line_bits)?;
        let (ways, line_bits) = (self.ways, self.line_bits);
        let fits = |stamp: u64| stamp <= u32::MAX as u64;
        let reset = (Word::INVALID, 0);
        let mut held = Vec::with_capacity(ways);
        for set in 0..self.sets {
            held.clear();
            held.extend(self.store.set_mut(set, ways, false).map(|(w, l)| (*w, *l as u64)));
            held.resize(ways, reset);
            for (word, lru) in &mut held {
                let mut tag = word.addr() >> line_bits;
                let mut state = word.state();
                let mut prefetched = word.prefetched();
                s.u64(&mut tag)?;
                s.check(tag >> (64 - line_bits) == 0, "cache tag")?;
                s.variant(&mut state, &LineState::ALL, "line state")?;
                s.u64(lru)?;
                s.check(fits(*lru), "cache stamp")?;
                s.bool(&mut prefetched)?;
                *word = Word::new(tag << line_bits, state, prefetched);
            }
            if S::DECODING {
                let alloc = held.iter().any(|&way| way != reset);
                let dst = self.store.set_mut(set, ways, alloc);
                for ((word, lru), &(w, l)) in dst.zip(&held) {
                    *word = w;
                    *lru = l as u32;
                }
            }
        }
        s.u64(&mut self.stamp)?;
        s.check(fits(self.stamp), "cache stamp")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 1 KiB, 2-way, 64 B lines -> 8 sets
        Cache::new("t", 1, 2, 64)
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert_eq!(c.access(0x1000, false), ProbeResult::Miss);
        c.fill(0x1000, LineState::Exclusive, false);
        assert!(matches!(c.access(0x1000, false), ProbeResult::Hit { .. }));
        assert!(matches!(c.access(0x103f, false), ProbeResult::Hit { .. }), "same line");
        assert_eq!(c.access(0x1040, false), ProbeResult::Miss, "next line");
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small(); // 2 ways
        // Three conflicting lines: same set (stride = sets*line = 512)
        c.fill(0x0000, LineState::Exclusive, false);
        c.fill(0x0200, LineState::Exclusive, false);
        c.access(0x0000, false); // make 0x0000 MRU
        let v = c.fill(0x0400, LineState::Exclusive, false).unwrap();
        assert_eq!(v.addr, 0x0200, "LRU way evicted");
        assert!(c.contains(0x0000));
        assert!(!c.contains(0x0200));
    }

    #[test]
    fn store_transitions_to_modified() {
        let mut c = small();
        c.fill(0x80, LineState::Exclusive, false);
        assert!(matches!(c.access(0x80, true), ProbeResult::Hit { .. }));
        assert_eq!(c.state_of(0x80), LineState::Modified);
    }

    #[test]
    fn store_to_shared_needs_upgrade() {
        let mut c = small();
        c.fill(0x80, LineState::Shared, false);
        assert_eq!(
            c.access(0x80, true),
            ProbeResult::UpgradeNeeded {
                was_prefetched: false
            }
        );
        // a store-upgrade touch of a prefetched line still counts useful,
        // once
        c.fill(0x200, LineState::Shared, true);
        assert_eq!(
            c.access(0x200, true),
            ProbeResult::UpgradeNeeded {
                was_prefetched: true
            }
        );
        assert_eq!(
            c.access(0x200, true),
            ProbeResult::UpgradeNeeded {
                was_prefetched: false
            }
        );
    }

    #[test]
    fn dirty_victim_reported() {
        let mut c = small();
        c.fill(0x0000, LineState::Modified, false);
        c.fill(0x0200, LineState::Exclusive, false);
        let v = c.fill(0x0400, LineState::Exclusive, false).unwrap();
        assert_eq!(v.state, LineState::Modified);
        assert!(v.state.is_dirty());
    }

    #[test]
    fn prefetch_accounting() {
        let mut c = small();
        c.fill(0x100, LineState::Exclusive, true);
        assert!(matches!(
            c.access(0x100, false),
            ProbeResult::Hit {
                was_prefetched: true
            }
        ));
        // second touch is a plain hit
        assert!(matches!(
            c.access(0x100, false),
            ProbeResult::Hit {
                was_prefetched: false
            }
        ));
    }

    #[test]
    fn invalidate_all_counts_dirty() {
        let mut c = small();
        c.fill(0x000, LineState::Modified, false);
        c.fill(0x040, LineState::Shared, false);
        assert_eq!(c.invalidate_all(), 1);
        assert!(!c.contains(0x000));
    }

    // ---- the 24-byte `Line` cache the packed ways replaced ----

    #[derive(Clone, Copy, Debug)]
    struct Line {
        tag: u64,
        state: LineState,
        lru: u64,
        prefetched: bool,
    }

    const INVALID: Line = Line {
        tag: 0,
        state: LineState::Invalid,
        lru: 0,
        prefetched: false,
    };

    /// The array-of-`Line` cache, kept as the reference the packed one
    /// must agree with call for call and byte for byte.
    struct LineCache {
        sets: usize,
        ways: usize,
        line_bits: u32,
        lines: Vec<Line>,
        stamp: u64,
    }

    impl LineCache {
        fn new(size_kib: u32, ways: u32, line_bytes: u32) -> Self {
            let total_lines = size_kib as usize * 1024 / line_bytes as usize;
            LineCache {
                sets: total_lines / ways as usize,
                ways: ways as usize,
                line_bits: line_bytes.trailing_zeros(),
                lines: vec![INVALID; total_lines],
                stamp: 0,
            }
        }

        fn slots(&self, addr: u64) -> (std::ops::Range<usize>, u64) {
            let la = addr >> self.line_bits;
            let set = (la as usize) & (self.sets - 1);
            (set * self.ways..(set + 1) * self.ways, la)
        }

        fn find(&self, addr: u64) -> Option<usize> {
            let (slots, la) = self.slots(addr);
            slots
                .into_iter()
                .find(|&i| self.lines[i].state.is_valid() && self.lines[i].tag == la)
        }

        fn access(&mut self, addr: u64, is_store: bool) -> ProbeResult {
            self.stamp += 1;
            let Some(i) = self.find(addr) else {
                return ProbeResult::Miss;
            };
            let line = &mut self.lines[i];
            line.lru = self.stamp;
            let was_prefetched = line.prefetched;
            line.prefetched = false;
            if is_store && !line.state.is_writable() {
                return ProbeResult::UpgradeNeeded { was_prefetched };
            }
            if is_store {
                line.state = LineState::Modified;
            }
            ProbeResult::Hit { was_prefetched }
        }

        fn state_of(&self, addr: u64) -> LineState {
            self.find(addr)
                .map_or(LineState::Invalid, |i| self.lines[i].state)
        }

        fn fill(&mut self, addr: u64, state: LineState, prefetched: bool) -> Option<Victim> {
            self.stamp += 1;
            if let Some(i) = self.find(addr) {
                self.lines[i].state = state;
                self.lines[i].lru = self.stamp;
                return None;
            }
            let (slots, la) = self.slots(addr);
            let mut victim_i = slots.start;
            let mut best = u64::MAX;
            for i in slots {
                if !self.lines[i].state.is_valid() {
                    victim_i = i;
                    break;
                }
                if self.lines[i].lru < best {
                    best = self.lines[i].lru;
                    victim_i = i;
                }
            }
            let old = self.lines[victim_i];
            self.lines[victim_i] = Line {
                tag: la,
                state,
                lru: self.stamp,
                prefetched,
            };
            old.state.is_valid().then(|| Victim {
                addr: old.tag << self.line_bits,
                state: old.state,
                wasted_prefetch: old.prefetched,
            })
        }

        fn set_state(&mut self, addr: u64, state: LineState) -> Option<LineState> {
            let i = self.find(addr)?;
            let line = &mut self.lines[i];
            let old = line.state;
            line.state = state;
            if state == LineState::Invalid {
                line.prefetched = false;
            }
            Some(old)
        }

        fn invalidate_all(&mut self) -> u64 {
            let dirty = self.lines.iter().filter(|l| l.state.is_dirty()).count();
            self.lines.fill(INVALID);
            dirty as u64
        }
    }

    impl xt_snapshot::SnapshotState for LineCache {
        fn transfer<S: xt_snapshot::Stream>(&mut self, s: &mut S) -> xt_snapshot::Result<()> {
            s.expect("cache geometry", self.sets)?;
            s.expect("cache geometry", self.ways)?;
            s.expect("cache geometry", self.line_bits)?;
            for line in &mut self.lines {
                s.u64(&mut line.tag)?;
                s.variant(&mut line.state, &LineState::ALL, "line state")?;
                s.u64(&mut line.lru)?;
                s.bool(&mut line.prefetched)?;
            }
            s.u64(&mut self.stamp)
        }
    }

    fn frame(c: &mut impl xt_snapshot::SnapshotState) -> Vec<u8> {
        let mut e = xt_snapshot::Enc::new();
        c.save(&mut e);
        e.into_bytes()
    }

    /// One generated operation: kind, address base, line pick, state,
    /// flag and byte offset.
    type Op = (u32, usize, u64, usize, u8, u64);

    const BASES: [u64; 4] = [0, 0x8000_0000, 1 << 63, u64::MAX - 0xFFFF];

    /// The 16-way, 2 MiB L2 of the default configuration, in 64-byte
    /// lines: 2,048 sets, 128 chunks of 16 sets.
    const L2: (u32, u32, u32) = (2048, 16, 64);

    fn line_cache(geometry: (u32, u32, u32)) -> LineCache {
        LineCache::new(geometry.0, geometry.1, geometry.2)
    }

    /// Applies `ops` to `flat`, `chunked` (its stamps renumbered at
    /// `limit`) and `reference` alike: every return value equals the
    /// reference's, and so do both frames after every call for which
    /// `compare(i, kind)` holds and after the last — once the chunked
    /// cache has renumbered, its frame up to the ranks of the stamps.
    /// `sets` are the sets the ops touch, each with four more lines than
    /// ways aliasing into it. Returns how often the chunked cache
    /// renumbered.
    fn agree(
        geometry: (u32, u32, u32),
        limit: u64,
        sets: &[u64],
        ops: &[Op],
        compare: impl Fn(usize, u32) -> bool,
    ) -> usize {
        let (kib, ways, line_bytes) = geometry;
        let mut flat = Cache::new("t", kib, ways, line_bytes);
        let mut chunked = Cache::sparse("t", kib, ways, line_bytes);
        chunked.store.limit = limit;
        let mut renumbered = 0;
        let mut reference = line_cache(geometry);
        let sets_total = reference.sets as u64;
        for (i, &(kind, base, pick, state, flag, offset)) in ops.iter().enumerate() {
            let counter = chunked.stamp;
            let set = sets[pick as usize % sets.len()] % sets_total;
            let tag = pick / sets.len() as u64 % (ways as u64 + 4);
            let line = (tag * sets_total + set) * line_bytes as u64;
            let addr = BASES[base].wrapping_add(line + offset);
            let (state, flag) = (LineState::ALL[state], flag == 1);
            let what = format!("{kind} at {addr:#x}");
            match kind {
                0..=7 => {
                    let want = reference.access(addr, flag);
                    assert_eq!(flat.access(addr, flag), want, "{what}");
                    assert_eq!(chunked.access(addr, flag), want, "{what}");
                }
                8..=10 => {
                    let want = reference.fill(addr, state, flag);
                    assert_eq!(flat.fill(addr, state, flag), want, "{what}");
                    assert_eq!(chunked.fill(addr, state, flag), want, "{what}");
                }
                11..=13 => {
                    let want = reference.set_state(addr, state);
                    assert_eq!(flat.set_state(addr, state), want, "{what}");
                    assert_eq!(chunked.set_state(addr, state), want, "{what}");
                }
                14 => {
                    let want = reference.state_of(addr);
                    assert_eq!(flat.state_of(addr), want, "{what}");
                    assert_eq!(chunked.state_of(addr), want, "{what}");
                    let want = reference.find(addr).is_some();
                    assert_eq!(flat.contains(addr), want, "{what}");
                    assert_eq!(chunked.contains(addr), want, "{what}");
                }
                _ => {
                    let want = reference.invalidate_all();
                    assert_eq!(flat.invalidate_all(), want, "{what}");
                    assert_eq!(chunked.invalidate_all(), want, "{what}");
                }
            }
            renumbered += usize::from(chunked.stamp < counter);
            if compare(i, kind) || i + 1 == ops.len() {
                let bytes = frame(&mut reference);
                assert_eq!(frame(&mut flat), bytes, "flat, {what}");
                if chunked.stamp == reference.stamp {
                    assert_eq!(frame(&mut chunked), bytes, "chunked, {what}");
                } else {
                    let got = ranked(&frame(&mut chunked));
                    assert!(got == ranked(&bytes), "chunked, renumbered, {what}");
                }
            }
        }
        let bytes = frame(&mut reference);
        let mut restored = Cache::new("t", kib, ways, line_bytes);
        restore(&mut restored, &bytes);
        assert_eq!(frame(&mut restored), bytes);
        let mut restored = Cache::sparse("t", kib, ways, line_bytes);
        restore(&mut restored, &bytes);
        assert_eq!(frame(&mut restored), bytes);
        assert_eq!(
            allocated(&restored),
            reference.chunks_in_use(restored.store.chunks.len()),
            "decoding allocates the chunks that hold a non-reset way"
        );
        renumbered
    }

    /// A cache frame with each LRU stamp, and the counter, replaced by its
    /// rank among them: equal for two frames whose stamps compare alike.
    /// A frame is the geometry (`sets`, `ways`: u64, `line_bits`: u32),
    /// then per way `tag`, `state`: u8, `lru`, `prefetched`: u8, then
    /// the counter.
    fn ranked(frame: &[u8]) -> Vec<u8> {
        let counter = frame.len() - 8;
        let at: Vec<usize> = (20 + 9..counter).step_by(18).chain([counter]).collect();
        let stamp = |k: usize| u64::from_le_bytes(frame[k..k + 8].try_into().unwrap());
        let mut order: Vec<u64> = at.iter().map(|&k| stamp(k)).collect();
        order.sort_unstable();
        order.dedup();
        let mut out = frame.to_vec();
        for k in at {
            let rank = order.binary_search(&stamp(k)).unwrap() as u64;
            out[k..k + 8].copy_from_slice(&rank.to_le_bytes());
        }
        out
    }

    fn restore(c: &mut impl xt_snapshot::SnapshotState, bytes: &[u8]) {
        let mut d = xt_snapshot::Dec::new(bytes);
        c.restore(&mut d).expect("the reference's frame restores");
        d.finish().expect("fully consumed");
    }

    /// The chunks a chunked cache has allocated.
    fn allocated(c: &Cache<Chunked>) -> Vec<usize> {
        let chunks = c.store.chunks.iter().enumerate();
        chunks.filter(|(_, w)| w.is_some()).map(|(k, _)| k).collect()
    }

    impl LineCache {
        /// The chunks, of `chunks` equal runs of ways, that hold a way
        /// other than the reset way.
        fn chunks_in_use(&self, chunks: usize) -> Vec<usize> {
            let per_chunk = self.lines.len() / chunks;
            let reset = |l: &Line| {
                l.tag == 0 && l.state == LineState::Invalid && l.lru == 0 && !l.prefetched
            };
            let runs = self.lines.chunks(per_chunk).enumerate();
            runs.filter(|(_, run)| !run.iter().all(reset))
                .map(|(k, _)| k)
                .collect()
        }
    }

    fn ops(len: std::ops::Range<usize>) -> impl xt_harness::gen::Gen<Value = Vec<Op>> {
        use xt_harness::gen::{ints, vec_of};
        vec_of(
            (
                ints(0u32..16),
                ints(0usize..BASES.len()),
                ints(0u64..1024),
                ints(0usize..LineState::ALL.len()),
                ints(0u8..2),
                ints(0u64..16),
            ),
            len,
        )
    }

    /// Random `access`/`fill`/`set_state`/`invalidate_all` sequences on a
    /// 1 KiB 2-way cache and on a 16-way one in 16-byte lines, over a few
    /// sets at the bottom, the middle and the top of the address space:
    /// every return value of the flat and the chunked cache, and their
    /// `save()` bytes after every call, equal the `Line` cache's, and
    /// both restore from the reference's frame.
    #[test]
    fn packed_ways_agree_with_the_line_cache() {
        use xt_harness::gen::choose;
        use xt_harness::prop::{check_with, Config};
        const GEOMETRIES: [(u32, u32, u32); 2] = [(1, 2, 64), (4, 16, 16)];
        check_with(
            &Config::seeded_cases(0x0910_0029_0001, 64),
            "packed_ways_agree_with_the_line_cache",
            &(choose(&GEOMETRIES), ops(1..300)),
            |(geometry, ops)| {
                agree(*geometry, u32::MAX as u64, &[0, 1, 2], ops, |_, _| true);
            },
        );
    }

    /// The same on the L2's geometry, over three sets anywhere in its
    /// 2,048 (most cases touch three chunks of 128), with frames
    /// compared after every `invalidate_all`, every 64th call and the
    /// last: the chunked cache's frame is the reference's byte for byte,
    /// and decoding it allocates exactly the chunks that hold a way
    /// other than the reset way.
    #[test]
    fn chunked_l2_agrees_with_the_line_cache() {
        use xt_harness::gen::{ints, vec_of};
        use xt_harness::prop::{check_with, Config};
        check_with(
            &Config::seeded_cases(0x0910_0042_0001, 12),
            "chunked_l2_agrees_with_the_line_cache",
            &(vec_of(ints(0u64..2048), 3..4), ops(1..400)),
            |(sets, ops)| {
                agree(L2, u32::MAX as u64, sets, ops, |i, kind| {
                    kind == 15 || i % 64 == 63
                });
            },
        );
    }

    /// The same with the stamp limit lowered from `u32::MAX` to 32, under
    /// the 48 ways three sets hold: the chunked L2 renumbers its stamps
    /// at least once every 32 stamps drawn, and still answers every probe
    /// and picks every victim as the `Line` cache does, ties among
    /// invalid ways included; its frame, compared every 64th call and
    /// after the last, differs from the reference's only in stamps that
    /// rank alike.
    #[test]
    fn renumbered_stamps_pick_the_line_caches_victims() {
        use xt_harness::gen::{ints, vec_of};
        use xt_harness::prop::{check_with, Config};
        check_with(
            &Config::seeded_cases(0x0910_0043_0001, 12),
            "renumbered_stamps_pick_the_line_caches_victims",
            &(vec_of(ints(0u64..2048), 3..4), ops(200..400)),
            |(sets, ops)| {
                let renumbered = agree(L2, 32, sets, ops, |i, _| i % 64 == 63);
                // `access` and `fill` draw a stamp
                let draws = ops.iter().filter(|op| op.0 <= 10).count();
                assert!(renumbered >= draws / 32, "{renumbered} renumberings in {draws} stamps");
            },
        );
    }

    /// A frame whose one non-reset way sits in chunk `k` — first or
    /// last way of the chunk, valid or a stale invalid way — decodes
    /// into a chunked L2 that allocates chunk `k` alone, and writes the
    /// frame back unchanged.
    #[test]
    fn decoding_allocates_only_the_chunk_of_a_non_reset_way() {
        let per_chunk = ways::CHUNK_WAYS;
        for k in [0, 1, 77, 127] {
            for (at, line) in [
                (0, Line { tag: 5, state: LineState::Shared, lru: 3, prefetched: true }),
                (per_chunk - 1, Line { lru: 1, ..INVALID }),
                (per_chunk / 2, Line { tag: 1 << 40, ..INVALID }),
            ] {
                let mut reference = line_cache(L2);
                reference.lines[k * per_chunk + at] = line;
                let bytes = frame(&mut reference);
                let mut c = Cache::sparse("t", L2.0, L2.1, L2.2);
                assert!(allocated(&c).is_empty(), "built with no chunk");
                restore(&mut c, &bytes);
                assert_eq!(allocated(&c), [k], "way {at} of chunk {k}: {line:?}");
                assert_eq!(frame(&mut c), bytes);
            }
        }
        // a chunk-sized L2 of all reset ways allocates nothing
        let bytes = frame(&mut line_cache(L2));
        let mut c = Cache::sparse("t", L2.0, L2.1, L2.2);
        restore(&mut c, &bytes);
        assert!(allocated(&c).is_empty());
    }

    /// An L1 way is 16 bytes; an L2 chunk is 12 bytes a way.
    #[test]
    fn way_and_chunk_sizes_are_pinned() {
        assert_eq!(std::mem::size_of::<ways::Way>(), 16);
        assert_eq!(std::mem::size_of::<ways::Chunk>(), 12 * ways::CHUNK_WAYS);
    }

    /// Probes, state changes and `invalidate_all` on a chunk never
    /// filled answer as an all-invalid set and allocate nothing; a fill
    /// allocates its chunk alone.
    #[test]
    fn only_a_fill_allocates_a_chunk() {
        let mut c = Cache::sparse("L2", L2.0, L2.1, L2.2);
        let addr = 0x8000_0000 + 40 * 64; // set 40: chunk 2
        assert_eq!(c.access(addr, true), ProbeResult::Miss);
        assert!(!c.contains(addr));
        assert_eq!(c.state_of(addr), LineState::Invalid);
        assert_eq!(c.set_state(addr, LineState::Invalid), None);
        assert_eq!(c.invalidate_all(), 0);
        assert!(allocated(&c).is_empty());
        assert_eq!(c.fill(addr, LineState::Modified, false), None);
        assert_eq!(allocated(&c), [2]);
        assert_eq!(c.invalidate_all(), 1);
        assert_eq!(allocated(&c), [2], "invalidate_all keeps its chunks");
    }

    /// A tag whose byte address would not fit in 64 bits has no packed
    /// form: `Corrupt`, not a silently truncated address.
    #[test]
    fn a_tag_past_the_address_space_is_corrupt() {
        use xt_snapshot::SnapshotState;
        let mut reference = LineCache::new(1, 2, 64);
        reference.lines[3] = Line {
            tag: 1 << 58,
            state: LineState::Shared,
            lru: 1,
            prefetched: false,
        };
        let bytes = frame(&mut reference);
        assert_eq!(
            small().restore(&mut xt_snapshot::Dec::new(&bytes)),
            Err(xt_snapshot::SnapshotError::Corrupt { what: "cache tag" })
        );
        reference.lines[3].tag = (1 << 58) - 1;
        let bytes = frame(&mut reference);
        let mut c = small();
        c.restore(&mut xt_snapshot::Dec::new(&bytes))
            .expect("the top tag fits");
        assert_eq!(frame(&mut c), bytes);
    }
}
