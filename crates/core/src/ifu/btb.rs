//! Cascaded branch-target buffers (§III-B) and the indirect predictor.
//!
//! The L0 BTB is a 16-entry fully-associative table consulted at the IF
//! stage: a hit launches the jump immediately — zero pipeline bubble.
//! The L1 BTB is the main, >1K-entry set-associative table whose target
//! is available at the IP stage (one bubble, usually hidden by the
//! IBUF). The indirect predictor hashes recent target history into a
//! table of last-seen targets for `jalr`-style branches.

use xt_snapshot::{Result, SnapshotError, SnapshotState, Stream};

/// 16-entry fully-associative L0 BTB.
#[derive(Clone, Debug)]
pub struct L0Btb {
    entries: [(u64, u64, u64); 16], // (pc, target, lru)
    stamp: u64,
    enabled: bool,
}

impl L0Btb {
    /// Creates the table; `enabled = false` makes every lookup miss
    /// (ablation).
    pub fn new(enabled: bool) -> Self {
        L0Btb {
            entries: [(u64::MAX, 0, 0); 16],
            stamp: 0,
            enabled,
        }
    }

    /// Returns the predicted target on a hit.
    pub fn lookup(&mut self, pc: u64) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        self.stamp += 1;
        for e in &mut self.entries {
            if e.0 == pc {
                e.2 = self.stamp;
                return Some(e.1);
            }
        }
        None
    }

    /// Installs or updates the taken branch at `pc`.
    pub fn update(&mut self, pc: u64, target: u64) {
        if !self.enabled {
            return;
        }
        self.stamp += 1;
        // hit: refresh
        for e in &mut self.entries {
            if e.0 == pc {
                e.1 = target;
                e.2 = self.stamp;
                return;
            }
        }
        // miss: replace LRU
        let v = self
            .entries
            .iter_mut()
            .min_by_key(|e| e.2)
            .expect("16 entries");
        *v = (pc, target, self.stamp);
    }
}

/// Set-associative L1 BTB (256 sets x 4 ways = 1K+ entries).
#[derive(Clone, Debug)]
pub struct L1Btb {
    sets: usize,
    ways: usize,
    entries: Vec<(u64, u64, u64)>, // (pc, target, lru)
    stamp: u64,
}

impl L1Btb {
    /// Creates a `sets` x `ways` table.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two());
        L1Btb {
            sets,
            ways,
            entries: vec![(u64::MAX, 0, 0); sets * ways],
            stamp: 0,
        }
    }

    fn set_of(&self, pc: u64) -> usize {
        ((pc >> 1) as usize) & (self.sets - 1)
    }

    /// Returns the predicted target on a hit.
    pub fn lookup(&mut self, pc: u64) -> Option<u64> {
        self.stamp += 1;
        let base = self.set_of(pc) * self.ways;
        for i in base..base + self.ways {
            if self.entries[i].0 == pc {
                self.entries[i].2 = self.stamp;
                return Some(self.entries[i].1);
            }
        }
        None
    }

    /// Installs or updates the branch at `pc`.
    pub fn update(&mut self, pc: u64, target: u64) {
        self.stamp += 1;
        let base = self.set_of(pc) * self.ways;
        for i in base..base + self.ways {
            if self.entries[i].0 == pc {
                self.entries[i].1 = target;
                self.entries[i].2 = self.stamp;
                return;
            }
        }
        let mut victim = base;
        let mut best = u64::MAX;
        for i in base..base + self.ways {
            if self.entries[i].0 == u64::MAX {
                victim = i;
                break;
            }
            if self.entries[i].2 < best {
                best = self.entries[i].2;
                victim = i;
            }
        }
        self.entries[victim] = (pc, target, self.stamp);
    }
}

/// Indirect-branch target predictor: a target cache indexed by PC hashed
/// with a short target-history register.
#[derive(Clone, Debug)]
pub struct IndirectPredictor {
    table: Vec<(u64, u64)>, // (tag, target)
    history: u64,
    bits: u32,
}

impl IndirectPredictor {
    /// Creates a 512-entry target cache.
    pub fn new() -> Self {
        IndirectPredictor {
            table: vec![(u64::MAX, 0); 512],
            history: 0,
            bits: 9,
        }
    }

    fn index(&self, pc: u64) -> usize {
        (((pc >> 1) ^ (self.history << 2)) & ((1 << self.bits) - 1)) as usize
    }

    /// Predicted target for the indirect branch at `pc`.
    pub fn predict(&self, pc: u64) -> Option<u64> {
        let (tag, target) = self.table[self.index(pc)];
        (tag == pc).then_some(target)
    }

    /// Trains with the actual target.
    pub fn update(&mut self, pc: u64, target: u64) {
        let idx = self.index(pc);
        self.table[idx] = (pc, target);
        self.history = ((self.history << 3) ^ (target >> 2)) & 0xffff;
    }
}

impl Default for IndirectPredictor {
    fn default() -> Self {
        Self::new()
    }
}

/// 16-deep return-address stack.
#[derive(Clone, Debug)]
pub struct ReturnStack {
    stack: Vec<u64>,
    depth: usize,
    /// Pushes that wrapped (overflow) — diagnostics.
    pub overflows: u64,
}

impl ReturnStack {
    /// Creates a RAS with `depth` entries.
    pub fn new(depth: usize) -> Self {
        ReturnStack {
            stack: Vec::with_capacity(depth),
            depth,
            overflows: 0,
        }
    }

    /// Pushes a return address (on a call).
    pub fn push(&mut self, addr: u64) {
        if self.stack.len() == self.depth {
            self.stack.remove(0);
            self.overflows += 1;
        }
        self.stack.push(addr);
    }

    /// Pops the predicted return address (on a return).
    pub fn pop(&mut self) -> Option<u64> {
        self.stack.pop()
    }
}

/// A `(pc, target, lru)` entry of either BTB.
fn transfer_entry<S: Stream>(s: &mut S, (pc, target, lru): &mut (u64, u64, u64)) -> Result<()> {
    s.u64(pc)?;
    s.u64(target)?;
    s.u64(lru)
}

impl SnapshotState for L0Btb {
    fn transfer<S: Stream>(&mut self, s: &mut S) -> Result<()> {
        s.expect("l0 btb enable", self.enabled)?;
        for e in &mut self.entries {
            transfer_entry(s, e)?;
        }
        s.u64(&mut self.stamp)
    }
}

impl SnapshotState for L1Btb {
    fn transfer<S: Stream>(&mut self, s: &mut S) -> Result<()> {
        s.expect("l1 btb geometry", self.sets)?;
        s.expect("l1 btb geometry", self.ways)?;
        let count = SnapshotError::Corrupt {
            what: "l1 btb entry count",
        };
        s.fixed(&mut self.entries, count, transfer_entry)?;
        s.u64(&mut self.stamp)
    }
}

impl SnapshotState for IndirectPredictor {
    fn transfer<S: Stream>(&mut self, s: &mut S) -> Result<()> {
        s.expect("indirect predictor bits", self.bits)?;
        let size = SnapshotError::Corrupt {
            what: "indirect table size",
        };
        s.fixed(&mut self.table, size, |s, (tag, target)| {
            s.u64(tag)?;
            s.u64(target)
        })?;
        s.u64(&mut self.history)
    }
}

impl SnapshotState for ReturnStack {
    fn transfer<S: Stream>(&mut self, s: &mut S) -> Result<()> {
        s.expect("return stack depth", self.depth)?;
        s.vec(&mut self.stack, 8, S::u64)?;
        s.check(self.stack.len() <= self.depth, "return stack size")?;
        s.u64(&mut self.overflows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l0_lru_replacement() {
        let mut b = L0Btb::new(true);
        for pc in 0..17u64 {
            b.update(pc * 4, pc * 4 + 100);
        }
        assert_eq!(b.lookup(0), None, "oldest entry evicted");
        assert_eq!(b.lookup(16 * 4), Some(16 * 4 + 100));
    }

    #[test]
    fn l0_disabled_never_hits() {
        let mut b = L0Btb::new(false);
        b.update(8, 100);
        assert_eq!(b.lookup(8), None);
    }

    #[test]
    fn l1_set_associative() {
        let mut b = L1Btb::new(256, 4);
        // 5 entries in the same set (stride = sets*2 bytes for pc>>1 index)
        for k in 0..5u64 {
            b.update(k * 512, k);
        }
        let hits = (0..5u64).filter(|k| b.lookup(k * 512).is_some()).count();
        assert_eq!(hits, 4, "one way evicted");
    }

    #[test]
    fn ras_lifo() {
        let mut r = ReturnStack::new(4);
        r.push(10);
        r.push(20);
        assert_eq!(r.pop(), Some(20));
        assert_eq!(r.pop(), Some(10));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn ras_overflow_drops_oldest() {
        let mut r = ReturnStack::new(2);
        r.push(1);
        r.push(2);
        r.push(3);
        assert_eq!(r.overflows, 1);
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), None, "1 was dropped");
    }

    #[test]
    fn indirect_learns_monomorphic_target() {
        let mut p = IndirectPredictor::new();
        for _ in 0..4 {
            p.update(0x100, 0x2000);
        }
        assert_eq!(p.predict(0x100), Some(0x2000));
    }
}
