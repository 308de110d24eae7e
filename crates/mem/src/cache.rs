//! Set-associative cache with MOSEI line states and true-LRU replacement.

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

#[derive(Clone, Copy, Debug)]
struct Line {
    tag: u64,
    state: LineState,
    /// LRU stamp: larger = more recently used.
    lru: u64,
    /// Set for lines installed by the prefetcher and not yet demanded
    /// (tracks prefetch accuracy).
    prefetched: bool,
}

const INVALID: Line = Line {
    tag: 0,
    state: LineState::Invalid,
    lru: 0,
    prefetched: false,
};

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
/// emulator). Addresses are physical.
#[derive(Clone, Debug)]
pub struct Cache {
    name: &'static str,
    sets: usize,
    ways: usize,
    line_bits: u32,
    lines: Vec<Line>,
    stamp: u64,
}

impl Cache {
    /// Creates a cache of `size_kib` KiB with `ways` ways and
    /// `line_bytes`-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if geometry is not a power-of-two arrangement.
    pub fn new(name: &'static str, size_kib: u32, ways: u32, line_bytes: u32) -> Self {
        let total_lines = size_kib as usize * 1024 / line_bytes as usize;
        let sets = total_lines / ways as usize;
        assert!(sets.is_power_of_two(), "cache sets must be a power of two");
        Cache {
            name,
            sets,
            ways: ways as usize,
            line_bits: line_bytes.trailing_zeros(),
            lines: vec![INVALID; total_lines],
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

    fn set_of(&self, line_addr: u64) -> usize {
        (line_addr as usize) & (self.sets - 1)
    }

    fn slot_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.ways..(set + 1) * self.ways
    }

    /// Probes for `addr` and updates LRU; a first demand touch clears the
    /// line's prefetched mark.
    /// `is_store` reports `UpgradeNeeded` for hits in non-writable states.
    pub fn access(&mut self, addr: u64, is_store: bool) -> ProbeResult {
        let la = self.line_addr(addr);
        let set = self.set_of(la);
        self.stamp += 1;
        for i in self.slot_range(set) {
            let line = &mut self.lines[i];
            if line.state.is_valid() && line.tag == la {
                line.lru = self.stamp;
                let was_prefetched = line.prefetched;
                line.prefetched = false;
                if is_store && !line.state.is_writable() {
                    return ProbeResult::UpgradeNeeded { was_prefetched };
                }
                if is_store {
                    line.state = LineState::Modified;
                }
                return ProbeResult::Hit { was_prefetched };
            }
        }
        ProbeResult::Miss
    }

    /// Peeks without updating replacement state.
    pub fn contains(&self, addr: u64) -> bool {
        let la = self.line_addr(addr);
        let set = self.set_of(la);
        self.slot_range(set)
            .any(|i| self.lines[i].state.is_valid() && self.lines[i].tag == la)
    }

    /// Current state of the line containing `addr`.
    pub fn state_of(&self, addr: u64) -> LineState {
        let la = self.line_addr(addr);
        let set = self.set_of(la);
        for i in self.slot_range(set) {
            if self.lines[i].state.is_valid() && self.lines[i].tag == la {
                return self.lines[i].state;
            }
        }
        LineState::Invalid
    }

    /// Installs the line containing `addr` in `state`; returns the victim
    /// if a valid line was evicted. `prefetched` marks prefetcher fills.
    pub fn fill(&mut self, addr: u64, state: LineState, prefetched: bool) -> Option<Victim> {
        let la = self.line_addr(addr);
        let set = self.set_of(la);
        self.stamp += 1;
        // Already present? Just upgrade the state.
        for i in self.slot_range(set) {
            let line = &mut self.lines[i];
            if line.state.is_valid() && line.tag == la {
                line.state = state;
                line.lru = self.stamp;
                return None;
            }
        }
        // Choose victim: an invalid way, else true-LRU.
        let mut victim_i = set * self.ways;
        let mut best = u64::MAX;
        for i in self.slot_range(set) {
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
        let victim = old.state.is_valid().then(|| Victim {
            addr: old.tag << self.line_bits,
            state: old.state,
            wasted_prefetch: old.prefetched,
        });
        self.lines[victim_i] = Line {
            tag: la,
            state,
            lru: self.stamp,
            prefetched,
        };
        victim
    }

    /// Changes the state of a resident line (coherence action). Returns
    /// the previous state if the line was present.
    pub fn set_state(&mut self, addr: u64, state: LineState) -> Option<LineState> {
        let la = self.line_addr(addr);
        let set = self.set_of(la);
        for i in self.slot_range(set) {
            let line = &mut self.lines[i];
            if line.state.is_valid() && line.tag == la {
                let old = line.state;
                line.state = state;
                if state == LineState::Invalid {
                    line.prefetched = false;
                }
                return Some(old);
            }
        }
        None
    }

    /// Invalidates every line (e.g., `x.dcache.call`); returns how many
    /// dirty lines would have been written back.
    pub fn invalidate_all(&mut self) -> u64 {
        let mut dirty = 0;
        for line in &mut self.lines {
            if line.state.is_dirty() {
                dirty += 1;
            }
            *line = INVALID;
        }
        dirty
    }
}

impl LineState {
    pub(crate) fn snapshot_tag(self) -> u8 {
        match self {
            LineState::Modified => 0,
            LineState::Owned => 1,
            LineState::Exclusive => 2,
            LineState::Shared => 3,
            LineState::Invalid => 4,
        }
    }

    pub(crate) fn from_snapshot_tag(t: u8) -> Option<Self> {
        Some(match t {
            0 => LineState::Modified,
            1 => LineState::Owned,
            2 => LineState::Exclusive,
            3 => LineState::Shared,
            4 => LineState::Invalid,
            _ => return None,
        })
    }
}

impl xt_snapshot::SnapshotState for Cache {
    fn save(&self, e: &mut xt_snapshot::Enc) {
        e.usize(self.sets);
        e.usize(self.ways);
        e.u32(self.line_bits);
        for line in &self.lines {
            e.u64(line.tag);
            e.u8(line.state.snapshot_tag());
            e.u64(line.lru);
            e.bool(line.prefetched);
        }
        e.u64(self.stamp);
    }

    fn restore(&mut self, d: &mut xt_snapshot::Dec) -> xt_snapshot::Result<()> {
        use xt_snapshot::SnapshotError;
        if d.usize()? != self.sets || d.usize()? != self.ways || d.u32()? != self.line_bits {
            return Err(SnapshotError::Mismatch {
                what: "cache geometry",
            });
        }
        for line in &mut self.lines {
            line.tag = d.u64()?;
            line.state = LineState::from_snapshot_tag(d.u8()?)
                .ok_or(SnapshotError::Corrupt { what: "line state" })?;
            line.lru = d.u64()?;
            line.prefetched = d.bool()?;
        }
        self.stamp = d.u64()?;
        Ok(())
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
}
