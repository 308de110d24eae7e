//! Structural-resource primitives shared by the timing models:
//! capacity-limited windows (ROB, queues, physical registers),
//! per-cycle bandwidth limiters (decode/rename/retire), and execution
//! pipes.

/// A capacity-limited window whose slots release in any order — the
/// issue queue, which an instruction leaves when it completes. `alloc`
/// returns the earliest cycle at or after `want` when a slot is free;
/// `commit` records when the allocated slot releases. The structures an
/// instruction holds until it retires are [`RetireWindow`]s.
#[derive(Clone, Debug)]
pub struct Window {
    cap: usize,
    /// Release cycles of the occupied slots, ascending, in a ring of
    /// power-of-two length: entry `k` is `ring[(head + k) & mask]`.
    /// `alloc` frees from the head, `commit` writes at the tail and
    /// shifts later releases up to keep the order. Occupancy
    /// never exceeds `cap`; the ring is at least two entries longer, so
    /// a stray `commit` trips the assertion before it overwrites the head.
    ring: Box<[u64]>,
    head: usize,
    len: usize,
    /// Total cycles callers were delayed waiting for a slot.
    pub stall_cycles: u64,
}

impl Window {
    /// Creates a window with `cap` entries.
    pub fn new(cap: usize) -> Self {
        Window {
            cap,
            ring: vec![0; (cap + 2).next_power_of_two()].into_boxed_slice(),
            head: 0,
            len: 0,
            stall_cycles: 0,
        }
    }

    /// Earliest cycle ≥ `want` with a free slot.
    #[inline]
    pub fn alloc(&mut self, want: u64) -> u64 {
        let mask = self.ring.len() - 1;
        let (mut head, mut len) = (self.head, self.len);
        let mut t = want;
        // drop entries that have already released
        while len > 0 && self.ring[head & mask] <= t {
            head += 1;
            len -= 1;
        }
        // still at capacity: wait for the earliest releases
        while len >= self.cap {
            assert!(len > 0, "a window needs at least one entry");
            t = t.max(self.ring[head & mask]);
            head += 1;
            len -= 1;
        }
        (self.head, self.len) = (head & mask, len);
        self.stall_cycles += t - want;
        t
    }

    /// Records the release cycle of the slot just allocated.
    #[inline]
    pub fn commit(&mut self, release: u64) {
        assert!(self.len <= self.cap, "commit without a preceding alloc");
        let mask = self.ring.len() - 1;
        // after the last entry that releases no later: the tail, or for an
        // out-of-order release a few steps before it, the later entries
        // moving up one
        let mut at = self.head + self.len;
        while at > self.head && self.ring[(at - 1) & mask] > release {
            self.ring[at & mask] = self.ring[(at - 1) & mask];
            at -= 1;
        }
        self.ring[at & mask] = release;
        self.len += 1;
    }

    /// Current occupancy.
    pub fn occupancy(&self) -> usize {
        self.len
    }
}

/// A capacity-limited window whose slots release in the order they were
/// allocated: the ROB, the three physical-register pools, the load queue
/// and the store queue, each held until its instruction retires (a store,
/// one cycle longer). Same contract and same frame as [`Window`], without
/// a loop: `alloc` is one load and two compares, `commit` one store.
///
/// With releases that never decrease the occupied slots are a FIFO, so
/// entry *k* can only wait for entry *k − cap*, and does so exactly when
/// that entry's release lies above `hi`, the largest `want` any `alloc`
/// has asked for: [`Window`]'s lazy drop frees an entry at the first
/// `alloc` whose `want` reaches its release, and a release lies above the
/// `want` of every `alloc` before its own (`release > want` for each
/// entry, and later releases are no smaller). The watermark is over
/// *wants*, not over returned cycles — an entry releasing at exactly the
/// cycle a stalled `alloc` returned stays occupied, as the lazy drop
/// leaves it, and a later, smaller `want` waits for it (the ROB sees such
/// wants: the three register pools ahead of it stall independently).
///
/// The law this relies on — retirement never goes back — is `xt-check`'s
/// `last_retire_cycle` invariant; `commit` asserts it.
#[derive(Clone, Debug)]
pub struct RetireWindow {
    cap: usize,
    /// Entry `k`'s release cycle is `ring[k & mask]`; the ring is at least
    /// `cap` long, so the last `cap` entries are always there. A slot no
    /// entry has reached holds 0, which is never above `hi`.
    ring: Box<[u64]>,
    /// Entries committed so far.
    count: usize,
    /// The largest `want` so far: an entry is occupied while its release
    /// is above it.
    hi: u64,
    /// An `alloc` is waiting for its `commit`: entry `count − cap` is gone
    /// whatever its release.
    claimed: bool,
    /// Total cycles callers were delayed waiting for a slot.
    pub stall_cycles: u64,
}

impl RetireWindow {
    /// Creates a window with `cap` entries.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "a window needs at least one entry");
        RetireWindow {
            cap,
            ring: vec![0; cap.next_power_of_two()].into_boxed_slice(),
            count: 0,
            hi: 0,
            claimed: false,
            stall_cycles: 0,
        }
    }

    /// Release cycle of the entry `back` entries before the next one.
    #[inline]
    fn entry(&self, back: usize) -> u64 {
        self.ring[self.count.wrapping_sub(back) & (self.ring.len() - 1)]
    }

    /// Earliest cycle ≥ `want` with a free slot. Every `alloc` is followed
    /// by its [`Self::commit`].
    #[inline]
    pub fn alloc(&mut self, want: u64) -> u64 {
        let oldest = self.entry(self.cap);
        self.hi = self.hi.max(want);
        let t = if oldest > self.hi { oldest } else { want };
        self.claimed = true;
        self.stall_cycles += t - want;
        t
    }

    /// Records the release cycle of the slot just allocated: no earlier
    /// than the entry before it, and after every cycle asked for so far.
    #[inline]
    pub fn commit(&mut self, release: u64) {
        assert!(self.claimed, "commit without a preceding alloc");
        assert!(
            release >= self.newest_release() && release > self.hi,
            "retirement-ordered window released out of order"
        );
        let mask = self.ring.len() - 1;
        self.ring[self.count & mask] = release;
        self.count += 1;
        self.claimed = false;
    }

    /// Release cycles of the occupied entries, ascending.
    fn live(&self) -> impl Iterator<Item = u64> + '_ {
        (self.claimed as usize..self.cap)
            .map(|k| self.entry(self.cap - k))
            .filter(|&r| r > self.hi)
    }

    /// Current occupancy.
    pub fn occupancy(&self) -> usize {
        self.live().count()
    }

    /// Release cycle of the youngest entry (0 before the first).
    pub fn newest_release(&self) -> u64 {
        self.entry(1)
    }
}

/// A per-cycle bandwidth limiter for in-order stages (decode, rename,
/// retire). Requests must arrive with non-decreasing `min_cycle`.
#[derive(Clone, Copy, Debug)]
pub struct Bandwidth {
    width: u64,
    cycle: u64,
    used: u64,
}

impl Bandwidth {
    /// Creates a limiter of `width` slots per cycle.
    pub fn new(width: u64) -> Self {
        Bandwidth {
            width,
            cycle: 0,
            used: 0,
        }
    }

    /// Takes one slot at the earliest cycle ≥ `min_cycle`.
    pub fn take(&mut self, min_cycle: u64) -> u64 {
        self.take_n(min_cycle, 1)
    }

    /// Ends the current group: the remaining slots of this cycle are
    /// discarded (decode-group fragmentation at a taken branch).
    pub fn break_group(&mut self) {
        self.used = self.width;
    }

    /// Takes `n` slots (they may spill into following cycles); returns
    /// the cycle of the first slot.
    pub fn take_n(&mut self, min_cycle: u64, n: u64) -> u64 {
        if min_cycle > self.cycle {
            self.cycle = min_cycle;
            self.used = 0;
        }
        if self.used >= self.width {
            // the slots taken beyond this cycle's width carry over; only a
            // request wider than a whole cycle skips cycles
            let over = self.used - self.width;
            if over < self.width {
                self.cycle += 1;
                self.used = over;
            } else {
                self.cycle += 1 + over / self.width;
                self.used = over % self.width;
            }
        }
        let first = self.cycle;
        self.used += n;
        first
    }
}

/// A group of identical execution pipes. Pipelined units accept one µop
/// per cycle per pipe; unpipelined units (dividers) block the pipe for
/// the full occupancy.
#[derive(Clone, Debug)]
pub struct PipeGroup {
    /// Cycle each pipe is next free; the first `n` are in use.
    next_free: [u64; MAX_PIPES],
    n: usize,
}

/// Pipes a [`PipeGroup`] holds inline (XT-910 has two of a kind).
const MAX_PIPES: usize = 4;

impl PipeGroup {
    /// Creates `n` pipes.
    pub fn new(n: usize) -> Self {
        assert!(
            n <= MAX_PIPES,
            "{n} pipes in one group, at most {MAX_PIPES} are modeled \
             (CoreConfig::alu_pipes, fp_pipes, vec_pipes)"
        );
        PipeGroup {
            next_free: [0; MAX_PIPES],
            n: n.max(1),
        }
    }

    /// Issues a µop that becomes ready at `ready`; the pipe is then busy
    /// for `occupancy` cycles (1 for fully-pipelined units). Returns the
    /// actual issue cycle.
    pub fn issue(&mut self, ready: u64, occupancy: u64) -> u64 {
        // the first of the earliest-free pipes
        let pipes = &mut self.next_free[..self.n];
        let mut slot = 0;
        for k in 1..pipes.len() {
            if pipes[k] < pipes[slot] {
                slot = k;
            }
        }
        let start = pipes[slot].max(ready);
        pipes[slot] = start + occupancy.max(1);
        start
    }
}

/// Cycles a [`SlotLimiter`] remembers; older ones are evicted FIFO.
const SLOT_RING: usize = 64;
/// Direct-mapped tag slots of a [`SlotLimiter`] (a power of two).
const SLOT_TAGS: usize = 256;

/// An out-of-order per-cycle slot limiter (global issue width): unlike
/// [`Bandwidth`], requests arrive in any cycle order.
#[derive(Clone, Debug)]
pub struct SlotLimiter {
    width: u32,
    /// The last [`SLOT_RING`] distinct cycles in insertion order and the
    /// slots used in each: the cycle with sequence number `s` sits at
    /// index `s % SLOT_RING`, so remembering a new one overwrites the
    /// oldest. Eviction order is observable (a re-requested evicted cycle
    /// starts a fresh count), so this ring — not the tag table — is the
    /// limiter's state.
    cycles: [u64; SLOT_RING],
    used: [u32; SLOT_RING],
    /// Sequence number (wrapping) the next remembered cycle gets.
    next: u32,
    /// Cycles remembered: sequence numbers `next − len .. next`.
    len: u32,
    /// `cycle % SLOT_TAGS` → sequence number of the youngest cycle that
    /// mapped there. A tag is trusted only after the ring entry it names
    /// is checked, so stale tags are never cleared.
    tags: [u32; SLOT_TAGS],
}

impl SlotLimiter {
    /// Creates a limiter of `width` slots per cycle.
    pub fn new(width: u32) -> Self {
        SlotLimiter {
            width,
            cycles: [0; SLOT_RING],
            used: [0; SLOT_RING],
            next: 0,
            len: 0,
            tags: [0; SLOT_TAGS],
        }
    }

    fn tag_slot(cycle: u64) -> usize {
        cycle as usize % SLOT_TAGS
    }

    /// Ring index of the cycle remembered `age` insertions ago (1 = youngest).
    fn index(&self, age: u32) -> usize {
        self.next.wrapping_sub(age) as usize % SLOT_RING
    }

    /// Ring index of `cycle`, if it is still remembered.
    #[inline]
    fn find(&self, cycle: u64) -> Option<usize> {
        let age = self.next.wrapping_sub(self.tags[Self::tag_slot(cycle)]);
        if age.wrapping_sub(1) >= self.len {
            // The tag's owner is gone, and FIFO eviction took every
            // older cycle of this slot with it.
            return None;
        }
        let i = self.index(age);
        let owner = self.cycles[i];
        if owner == cycle {
            Some(i)
        } else if Self::tag_slot(owner) == Self::tag_slot(cycle) {
            // A younger cycle owns the tag; `cycle` may sit before it.
            (1..=self.len)
                .map(|age| self.index(age))
                .find(|&i| self.cycles[i] == cycle)
        } else {
            None
        }
    }

    fn remember(&mut self, cycle: u64) {
        let i = self.next as usize % SLOT_RING;
        self.tags[Self::tag_slot(cycle)] = self.next;
        self.cycles[i] = cycle;
        self.used[i] = 1;
        self.next = self.next.wrapping_add(1);
        self.len = (self.len + 1).min(SLOT_RING as u32);
    }

    /// Takes a slot at the first cycle ≥ `want` with spare width.
    #[inline]
    pub fn take(&mut self, want: u64) -> u64 {
        let mut t = want;
        loop {
            match self.find(t) {
                Some(i) if self.used[i] < self.width => {
                    self.used[i] += 1;
                    return t;
                }
                Some(_) => t += 1,
                None => {
                    self.remember(t);
                    return t;
                }
            }
        }
    }
}

/// Reads the head of a window frame — `cap`, then the occupied entries'
/// release cycles — into `ring[..n]`, ascending; returns `n`.
fn restore_releases(
    cap: usize,
    ring: &mut [u64],
    d: &mut xt_snapshot::Dec,
) -> xt_snapshot::Result<usize> {
    if d.usize()? != cap {
        return Err(xt_snapshot::SnapshotError::Mismatch {
            what: "window capacity",
        });
    }
    // a frame is outside input: bound the count by what the ring was
    // sized for, and re-establish the order, don't trust it
    let n = d.usize()?;
    if n > cap {
        return Err(xt_snapshot::SnapshotError::Corrupt {
            what: "window occupancy",
        });
    }
    for r in &mut ring[..n] {
        *r = d.u64()?;
    }
    ring[..n].sort_unstable();
    Ok(n)
}

impl xt_snapshot::SnapshotState for Window {
    /// The release cycles are written in ascending order.
    fn save(&self, e: &mut xt_snapshot::Enc) {
        e.usize(self.cap);
        e.seq(self.len);
        let mask = self.ring.len() - 1;
        for k in 0..self.len {
            e.u64(self.ring[(self.head + k) & mask]);
        }
        e.u64(self.stall_cycles);
    }

    fn restore(&mut self, d: &mut xt_snapshot::Dec) -> xt_snapshot::Result<()> {
        let n = restore_releases(self.cap, &mut self.ring, d)?;
        self.head = 0;
        self.len = n;
        self.stall_cycles = d.u64()?;
        Ok(())
    }
}

impl xt_snapshot::SnapshotState for RetireWindow {
    /// [`Window`]'s frame: `cap`, the occupied entries' release cycles in
    /// ascending order, `stall_cycles`.
    fn save(&self, e: &mut xt_snapshot::Enc) {
        e.usize(self.cap);
        e.seq(self.occupancy());
        for r in self.live() {
            e.u64(r);
        }
        e.u64(self.stall_cycles);
    }

    /// The frame holds the occupied entries only, so they become entries
    /// `0..n` of an otherwise empty ring, and the watermark starts again
    /// from 0: every release in a frame, and every later one, lies above
    /// all the wants the saved window had seen.
    fn restore(&mut self, d: &mut xt_snapshot::Dec) -> xt_snapshot::Result<()> {
        self.ring.fill(0);
        let n = restore_releases(self.cap, &mut self.ring, d)?;
        self.count = n;
        self.hi = 0;
        self.claimed = false;
        self.stall_cycles = d.u64()?;
        Ok(())
    }
}

impl xt_snapshot::SnapshotState for Bandwidth {
    fn save(&self, e: &mut xt_snapshot::Enc) {
        e.u64(self.width);
        e.u64(self.cycle);
        e.u64(self.used);
    }

    fn restore(&mut self, d: &mut xt_snapshot::Dec) -> xt_snapshot::Result<()> {
        if d.u64()? != self.width {
            return Err(xt_snapshot::SnapshotError::Mismatch {
                what: "bandwidth width",
            });
        }
        self.cycle = d.u64()?;
        self.used = d.u64()?;
        Ok(())
    }
}

impl xt_snapshot::SnapshotState for PipeGroup {
    fn save(&self, e: &mut xt_snapshot::Enc) {
        e.u64_seq(&self.next_free[..self.n]);
    }

    fn restore(&mut self, d: &mut xt_snapshot::Dec) -> xt_snapshot::Result<()> {
        let nf = d.u64_seq()?;
        if nf.len() != self.n {
            return Err(xt_snapshot::SnapshotError::Mismatch { what: "pipe count" });
        }
        self.next_free[..self.n].copy_from_slice(&nf);
        Ok(())
    }
}

impl xt_snapshot::SnapshotState for SlotLimiter {
    /// The ring is written oldest first, in insertion order: which cycle
    /// is evicted next is part of the limiter's behavior. The tag table is
    /// derived state and is rebuilt on restore.
    fn save(&self, e: &mut xt_snapshot::Enc) {
        e.u32(self.width);
        e.seq(self.len as usize);
        for age in (1..=self.len).rev() {
            let i = self.index(age);
            e.u64(self.cycles[i]);
            e.u32(self.used[i]);
        }
    }

    fn restore(&mut self, d: &mut xt_snapshot::Dec) -> xt_snapshot::Result<()> {
        if d.u32()? != self.width {
            return Err(xt_snapshot::SnapshotError::Mismatch {
                what: "slot limiter width",
            });
        }
        // a frame is outside input: no live limiter remembers more cycles
        // than its ring holds
        let n = d.len(12)?;
        if n > SLOT_RING {
            return Err(xt_snapshot::SnapshotError::Corrupt {
                what: "slot limiter ring",
            });
        }
        for seq in 0..n {
            let cycle = d.u64()?;
            self.cycles[seq] = cycle;
            self.used[seq] = d.u32()?;
            self.tags[Self::tag_slot(cycle)] = seq as u32;
        }
        self.next = n as u32;
        self.len = n as u32;
        Ok(())
    }
}

/// Reference models — the obvious min-heap window, linear-scan limiter,
/// `iter_mut().min()` pipe group and always-dividing bandwidth limiter —
/// that the differential tests drive side by side with the structures
/// above: same cycles, same stalls, same frame bytes.
#[cfg(test)]
mod reference {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, VecDeque};
    use xt_snapshot::Enc;

    /// [`super::Window`] and [`super::RetireWindow`] over a binary min-heap.
    pub struct HeapWindow {
        cap: usize,
        releases: BinaryHeap<Reverse<u64>>,
        pub stall_cycles: u64,
    }

    impl HeapWindow {
        pub fn new(cap: usize) -> Self {
            HeapWindow {
                cap,
                releases: BinaryHeap::new(),
                stall_cycles: 0,
            }
        }

        pub fn alloc(&mut self, want: u64) -> u64 {
            let mut t = want;
            while self.releases.peek().is_some_and(|&Reverse(r)| r <= t) {
                self.releases.pop();
            }
            while self.releases.len() >= self.cap {
                let Reverse(r) = self.releases.pop().expect("non-empty at capacity");
                t = t.max(r);
            }
            self.stall_cycles += t - want;
            t
        }

        pub fn commit(&mut self, release: u64) {
            self.releases.push(Reverse(release));
        }

        pub fn occupancy(&self) -> usize {
            self.releases.len()
        }

        pub fn save(&self, e: &mut Enc) {
            e.usize(self.cap);
            let mut rel: Vec<u64> = self.releases.iter().map(|&Reverse(r)| r).collect();
            rel.sort_unstable();
            e.u64_seq(&rel);
            e.u64(self.stall_cycles);
        }
    }

    /// [`super::PipeGroup`] over a heap vector and `Iterator::min`, which
    /// returns the first of several equal minima.
    pub struct MinPipes {
        next_free: Vec<u64>,
    }

    impl MinPipes {
        pub fn new(n: usize) -> Self {
            MinPipes {
                next_free: vec![0; n.max(1)],
            }
        }

        pub fn issue(&mut self, ready: u64, occupancy: u64) -> u64 {
            let slot = self.next_free.iter_mut().min().expect("at least one pipe");
            let start = (*slot).max(ready);
            *slot = start + occupancy.max(1);
            start
        }

        pub fn save(&self, e: &mut Enc) {
            e.u64_seq(&self.next_free);
        }
    }

    /// [`super::Bandwidth`] dividing on every cycle change.
    pub struct DividingBandwidth {
        width: u64,
        cycle: u64,
        used: u64,
    }

    impl DividingBandwidth {
        pub fn new(width: u64) -> Self {
            DividingBandwidth {
                width,
                cycle: 0,
                used: 0,
            }
        }

        pub fn break_group(&mut self) {
            self.used = self.width;
        }

        pub fn take_n(&mut self, min_cycle: u64, n: u64) -> u64 {
            if min_cycle > self.cycle {
                self.cycle = min_cycle;
                self.used = 0;
            }
            if self.used >= self.width {
                self.cycle += 1 + (self.used - self.width) / self.width;
                self.used %= self.width;
            }
            let first = self.cycle;
            self.used += n;
            first
        }

        pub fn save(&self, e: &mut Enc) {
            e.u64(self.width);
            e.u64(self.cycle);
            e.u64(self.used);
        }
    }

    /// [`super::SlotLimiter`] finding a cycle by scanning its ring.
    pub struct ScanLimiter {
        width: u32,
        recent: VecDeque<(u64, u32)>,
    }

    impl ScanLimiter {
        pub fn new(width: u32) -> Self {
            ScanLimiter {
                width,
                recent: VecDeque::new(),
            }
        }

        pub fn take(&mut self, want: u64) -> u64 {
            let mut t = want;
            loop {
                match self.recent.iter_mut().find(|(c, _)| *c == t) {
                    Some((_, used)) if *used < self.width => {
                        *used += 1;
                        break;
                    }
                    Some(_) => t += 1,
                    None => {
                        self.recent.push_back((t, 1));
                        if self.recent.len() > 64 {
                            self.recent.pop_front();
                        }
                        break;
                    }
                }
            }
            t
        }

        pub fn save(&self, e: &mut Enc) {
            e.u32(self.width);
            e.seq(self.recent.len());
            for &(cycle, used) in &self.recent {
                e.u64(cycle);
                e.u32(used);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{DividingBandwidth, HeapWindow, MinPipes, ScanLimiter};
    use super::*;
    use xt_harness::gen::{choose, from_fn, ints, vec_of};
    use xt_harness::prop::{check_with, Config};
    use xt_harness::rng::Rng;
    use xt_snapshot::{Dec, Enc, SnapshotState};

    fn bytes_of(save: impl FnOnce(&mut Enc)) -> Vec<u8> {
        let mut e = Enc::new();
        save(&mut e);
        e.into_bytes()
    }

    /// One `alloc(want)` + `commit(release)` pair of a window trace.
    #[derive(Clone, Debug)]
    struct WindowOp {
        want: u64,
        /// Release = the cycle `alloc` returned + this.
        hold: u64,
    }

    /// Allocation requests drift forward with occasional jumps far into
    /// the past and the future; `monotone` holds are constant (releases
    /// then never decrease, like the ROB's), otherwise they are random
    /// (out-of-order releases, like the issue queue's). At least four
    /// ring lengths of operations, so the head wraps several times.
    fn window_trace(rng: &mut Rng, cap: usize, monotone: bool) -> Vec<WindowOp> {
        let n = 4 * (cap + 2).next_power_of_two() as u64 + rng.below(400);
        let mut now = rng.below(50);
        (0..n)
            .map(|_| {
                now += rng.below(4);
                let want = match rng.below(16) {
                    0 => now.saturating_sub(rng.below(5_000)),
                    1 => now + rng.below(5_000),
                    _ => now,
                };
                let hold = if monotone { 40 } else { 1 + rng.below(300) };
                WindowOp { want, hold }
            })
            .collect()
    }

    #[test]
    fn window_matches_the_heap_reference() {
        let gen = (
            choose(&[1usize, 2, 8, 48, 192]),
            choose(&[false, true]),
            from_fn(|rng: &mut Rng| rng.next_u64()),
        );
        check_with(
            &Config::seeded(0x0910_0013_0001),
            "window_matches_the_heap_reference",
            &gen,
            |&(cap, monotone, seed)| {
                let mut rng = Rng::new(seed);
                let trace = window_trace(&mut rng, cap, monotone);
                // the cut where the new window is rebuilt from its own frame
                let cut = rng.below(trace.len() as u64) as usize;
                let mut new = Window::new(cap);
                let mut old = HeapWindow::new(cap);
                let mut last_release = 0;
                for (k, op) in trace.iter().enumerate() {
                    let at = new.alloc(op.want);
                    assert_eq!(at, old.alloc(op.want), "alloc #{k}");
                    // monotone traces never release earlier than before
                    let release = if monotone {
                        last_release.max(at + op.hold)
                    } else {
                        at + op.hold
                    };
                    last_release = release;
                    new.commit(release);
                    old.commit(release);
                    assert_eq!(new.stall_cycles, old.stall_cycles, "stalls after #{k}");
                    let frame = bytes_of(|e| new.save(e));
                    assert_eq!(frame, bytes_of(|e| old.save(e)), "frame after #{k}");
                    if k == cut {
                        new = Window::new(cap);
                        let mut d = Dec::new(&frame);
                        new.restore(&mut d).expect("own frame restores");
                        d.finish().expect("frame fully consumed");
                    }
                }
            },
        );
    }

    /// The issue queue's worst case at every position of the ring: a full
    /// window takes a release earlier than everything it holds, which
    /// lands at index 0 and moves every other entry up one — across the
    /// wrap when the head sits near the end of the ring.
    #[test]
    fn out_of_order_commit_lands_at_index_0_wherever_the_head_is() {
        let cap = 6; // a ring of 8
        for turns in 0..20u64 {
            let mut new = Window::new(cap);
            let mut old = HeapWindow::new(cap);
            // walk the head `turns` slots round the ring
            for k in 0..turns {
                assert_eq!(new.alloc(k), old.alloc(k));
                new.commit(k);
                old.commit(k);
            }
            let base = 1_000;
            for k in 0..cap as u64 {
                assert_eq!(new.alloc(base), old.alloc(base));
                // descending: each lands in front of all the others
                new.commit(base + 100 - k);
                old.commit(base + 100 - k);
                let frame = bytes_of(|e| new.save(e));
                assert_eq!(frame, bytes_of(|e| old.save(e)), "turn {turns}, entry {k}");
            }
            assert_eq!(new.occupancy(), cap);
            // full: waits for the earliest release, the last one committed
            assert_eq!(new.alloc(base), base + 100 - (cap as u64 - 1));
            assert_eq!(old.alloc(base), base + 100 - (cap as u64 - 1));
        }
    }

    #[test]
    fn window_restore_rejects_more_releases_than_entries() {
        for n in [5u64, 1 << 32, u64::MAX] {
            let mut e = Enc::new();
            e.usize(4);
            e.u64(n);
            for r in 0..5 {
                e.u64(r);
            }
            e.u64(0);
            let want = Err(xt_snapshot::SnapshotError::Corrupt {
                what: "window occupancy",
            });
            let got = Window::new(4).restore(&mut Dec::new(e.bytes()));
            assert_eq!(got, want, "{n} releases in 4 entries");
            let got = RetireWindow::new(4).restore(&mut Dec::new(e.bytes()));
            assert_eq!(got, want, "{n} releases in 4 retirement-ordered entries");
        }
    }

    #[test]
    #[should_panic(expected = "commit without a preceding alloc")]
    fn window_commit_needs_a_free_entry() {
        let mut w = Window::new(2);
        for r in 0..4 {
            w.commit(r);
        }
    }

    #[test]
    fn window_restore_sorts_an_unsorted_frame() {
        let mut e = Enc::new();
        e.usize(4);
        e.u64_seq(&[30, 10, 20]);
        e.u64(0);
        let mut w = Window::new(4);
        w.restore(&mut Dec::new(e.bytes())).unwrap();
        w.commit(40);
        assert_eq!(w.alloc(0), 10, "earliest release first");
        w.commit(15);
        assert_eq!(w.alloc(0), 15);

        let mut w = RetireWindow::new(4);
        w.restore(&mut Dec::new(e.bytes())).unwrap();
        assert_eq!(w.alloc(0), 0, "three of four entries held");
        w.commit(40);
        assert_eq!(w.alloc(0), 10, "earliest release first");
        w.commit(40);
        assert_eq!(w.alloc(0), 20);
    }

    /// The state a window shows from outside, after any operation.
    fn assert_same_window(new: &RetireWindow, old: &HeapWindow, at: &str) {
        assert_eq!(new.stall_cycles, old.stall_cycles, "stalls {at}");
        assert_eq!(new.occupancy(), old.occupancy(), "occupancy {at}");
        let frame = bytes_of(|e| new.save(e));
        assert_eq!(frame, bytes_of(|e| old.save(e)), "frame {at}");
    }

    /// What the core does to a retirement-ordered window: wants drift
    /// forward but go back and leap ahead (the ROB's, behind three pools
    /// that stall independently), some land exactly on the release of an
    /// entry still held, releases never decrease and often repeat (a
    /// retire group), and each lies after its own want.
    #[test]
    fn retire_window_matches_the_heap_reference() {
        let gen = (
            choose(&[1usize, 2, 24, 192]),
            from_fn(|rng: &mut Rng| rng.next_u64()),
        );
        check_with(
            &Config::seeded(0x0910_0022_0001),
            "retire_window_matches_the_heap_reference",
            &gen,
            |&(cap, seed)| {
                let mut rng = Rng::new(seed);
                let n = 4 * cap.next_power_of_two() + rng.below(400) as usize;
                // the cut where the new window is rebuilt from its own frame
                let cut = n / 2;
                let mut new = RetireWindow::new(cap);
                let mut old = HeapWindow::new(cap);
                let mut now = rng.below(50);
                let mut releases: Vec<u64> = Vec::new();
                for k in 0..n {
                    now += rng.below(4);
                    let recent = releases.len().min(cap + 2) as u64;
                    let want = match rng.below(16) {
                        0 => now.saturating_sub(rng.below(2_000)),
                        1 => now + rng.below(500),
                        // the release of an entry held now or just freed
                        2 | 3 if recent > 0 => {
                            releases[releases.len() - 1 - rng.below(recent) as usize]
                        }
                        _ => now,
                    };
                    let at = new.alloc(want);
                    assert_eq!(at, old.alloc(want), "alloc #{k}");
                    assert_same_window(&new, &old, &format!("after alloc #{k}"));
                    // a short hold under a release far ahead repeats it
                    let hold = match rng.below(4) {
                        0 => 1,
                        1 => 1 + rng.below(300),
                        _ => 40,
                    };
                    let release = (at + hold).max(releases.last().copied().unwrap_or(0));
                    releases.push(release);
                    new.commit(release);
                    old.commit(release);
                    assert_same_window(&new, &old, &format!("after commit #{k}"));
                    // wants follow the front the window has reached
                    now = now.max(at.saturating_sub(rng.below(64)));
                    if k == cut {
                        let frame = bytes_of(|e| new.save(e));
                        new = RetireWindow::new(cap);
                        let mut d = Dec::new(&frame);
                        new.restore(&mut d).expect("own frame restores");
                        d.finish().expect("frame fully consumed");
                        assert_same_window(&new, &old, "after the restore");
                    }
                }
            },
        );
    }

    /// The watermark is over wants, not over returned cycles: an entry
    /// released at exactly the cycle a stalled `alloc` returned is still
    /// held, and a later, smaller want waits for it.
    #[test]
    fn retire_window_holds_an_entry_released_at_a_returned_cycle() {
        let mut new = RetireWindow::new(2);
        let mut old = HeapWindow::new(2);
        for (want, at, release) in [(0, 0, 10), (0, 0, 10), (0, 10, 20), (5, 10, 30)] {
            assert_eq!(new.alloc(want), at);
            assert_eq!(old.alloc(want), at);
            new.commit(release);
            old.commit(release);
            assert_same_window(&new, &old, &format!("after the entry released at {release}"));
        }
        assert_eq!(new.stall_cycles, 15);
    }

    #[test]
    #[should_panic(expected = "commit without a preceding alloc")]
    fn retire_window_commit_needs_an_alloc() {
        let mut w = RetireWindow::new(2);
        w.alloc(0);
        w.commit(1);
        w.commit(2);
    }

    #[test]
    #[should_panic(expected = "released out of order")]
    fn retire_window_refuses_a_release_before_the_last() {
        let mut w = RetireWindow::new(2);
        w.alloc(0);
        w.commit(9);
        w.alloc(0);
        w.commit(8);
    }

    #[test]
    #[should_panic(expected = "released out of order")]
    fn retire_window_refuses_a_release_at_a_cycle_already_asked_for() {
        let mut w = RetireWindow::new(2);
        w.alloc(7);
        w.commit(7);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn retire_window_needs_an_entry() {
        RetireWindow::new(0);
    }

    #[test]
    fn slot_limiter_restore_rejects_more_cycles_than_the_ring() {
        let mut e = Enc::new();
        e.u32(8);
        e.seq(SLOT_RING + 1);
        for cycle in 0..=SLOT_RING as u64 {
            e.u64(cycle);
            e.u32(1);
        }
        let got = SlotLimiter::new(8).restore(&mut Dec::new(e.bytes()));
        let want = xt_snapshot::SnapshotError::Corrupt {
            what: "slot limiter ring",
        };
        assert_eq!(got, Err(want));
    }

    #[test]
    fn pipe_group_matches_the_min_reference() {
        // few distinct ready cycles and occupancies, so pipes tie often
        let gen = (
            ints(0usize..MAX_PIPES + 1),
            vec_of((ints(0u64..6), ints(0u64..4)), 1..200),
            ints(0usize..200),
        );
        check_with(
            &Config::seeded(0x0910_0016_0001),
            "pipe_group_matches_the_min_reference",
            &gen,
            |(n, trace, cut)| {
                let mut new = PipeGroup::new(*n);
                let mut old = MinPipes::new(*n);
                let mut now = 0;
                for (k, &(ahead, occupancy)) in trace.iter().enumerate() {
                    now += ahead / 2;
                    let at = new.issue(now, occupancy);
                    assert_eq!(at, old.issue(now, occupancy), "issue #{k}");
                    let frame = bytes_of(|e| new.save(e));
                    assert_eq!(frame, bytes_of(|e| old.save(e)), "frame after #{k}");
                    if k == *cut {
                        new = PipeGroup::new(*n);
                        let mut d = Dec::new(&frame);
                        new.restore(&mut d).expect("own frame restores");
                        d.finish().expect("frame fully consumed");
                    }
                }
            },
        );
    }

    #[test]
    fn pipe_group_ties_go_to_the_first_pipe() {
        let mut p = PipeGroup::new(3);
        p.issue(0, 5);
        // pipes 1 and 2 are both free at 0: the frame shows which one took it
        p.issue(0, 7);
        assert_eq!(bytes_of(|e| p.save(e)), bytes_of(|e| e.u64_seq(&[5, 7, 0])));
    }

    #[test]
    #[should_panic(expected = "CoreConfig::alu_pipes")]
    fn pipe_group_names_the_config_field_when_too_wide() {
        PipeGroup::new(MAX_PIPES + 1);
    }

    #[test]
    fn pipe_group_restore_checks_the_pipe_count() {
        let frame = bytes_of(|e| PipeGroup::new(2).save(e));
        for n in [1, 3] {
            let got = PipeGroup::new(n).restore(&mut Dec::new(&frame));
            let want = xt_snapshot::SnapshotError::Mismatch { what: "pipe count" };
            assert_eq!(got, Err(want), "a 2-pipe frame into {n} pipes");
        }
    }

    #[test]
    fn bandwidth_matches_the_dividing_reference() {
        // n up to 4 against widths from 1: requests wider than a cycle
        // (the only ones that still divide) are common
        let gen = (
            ints(1u64..9),
            vec_of((ints(0u64..8), ints(1u64..5), ints(0u32..6)), 1..300),
        );
        check_with(
            &Config::seeded(0x0910_0016_0002),
            "bandwidth_matches_the_dividing_reference",
            &gen,
            |(width, trace)| {
                let mut new = Bandwidth::new(*width);
                let mut old = DividingBandwidth::new(*width);
                let mut now = 0;
                for (k, &(ahead, n, kind)) in trace.iter().enumerate() {
                    // mostly the same cycle again, sometimes a few ahead
                    if ahead >= 6 {
                        now += ahead;
                    }
                    if kind == 0 {
                        new.break_group();
                        old.break_group();
                    }
                    assert_eq!(new.take_n(now, n), old.take_n(now, n), "take #{k}");
                    let frame = bytes_of(|e| new.save(e));
                    assert_eq!(frame, bytes_of(|e| old.save(e)), "frame after #{k}");
                }
            },
        );
    }

    #[test]
    fn slot_limiter_matches_the_scan_reference() {
        // Requests cluster around a slowly advancing front (so cycles
        // fill up and more than 64 distinct ones go by), re-request
        // cycles old enough to have been evicted, and hit cycles exactly
        // SLOT_TAGS apart so two live cycles share a tag.
        let gen = (
            ints(1u32..9),
            vec_of((ints(0u64..16), ints(0u64..12), ints(0u64..200)), 1..600),
            ints(0usize..600),
        );
        check_with(
            &Config::seeded(0x0910_0013_0002),
            "slot_limiter_matches_the_scan_reference",
            &gen,
            |(width, trace, cut)| {
                let mut new = SlotLimiter::new(*width);
                let mut old = ScanLimiter::new(*width);
                let mut front = 1_000u64;
                for (k, &(kind, near, far)) in trace.iter().enumerate() {
                    front += near / 8;
                    let want = match kind {
                        0 => front - far,                         // long evicted
                        1 => front + SLOT_TAGS as u64,            // aliases `front`
                        2 => front + 2 * SLOT_TAGS as u64 - near, // aliases, near miss
                        3 => front + far,                         // ahead of the front
                        _ => front + near,
                    };
                    assert_eq!(new.take(want), old.take(want), "take #{k} at {want}");
                    let frame = bytes_of(|e| new.save(e));
                    assert_eq!(frame, bytes_of(|e| old.save(e)), "frame after #{k}");
                    if k == *cut {
                        new = SlotLimiter::new(*width);
                        let mut d = Dec::new(&frame);
                        new.restore(&mut d).expect("own frame restores");
                        d.finish().expect("frame fully consumed");
                    }
                }
            },
        );
    }

    #[test]
    fn slot_limiter_aliased_and_evicted_cycles() {
        let t = 5_000u64;
        let mut s = SlotLimiter::new(1);
        assert_eq!(s.take(t), t);
        // a younger cycle takes over t's tag: t must still be found full
        assert_eq!(s.take(t + SLOT_TAGS as u64), t + SLOT_TAGS as u64);
        assert_eq!(s.take(t), t + 1, "aliased-away cycle still remembered");
        // push t out of the ring: a re-request starts a fresh count
        for k in 0..SLOT_RING as u64 {
            s.take(10 * t + k);
        }
        assert_eq!(s.take(t), t, "evicted cycle is forgotten");
    }

    #[test]
    fn window_stalls_when_full() {
        let mut w = Window::new(2);
        assert_eq!(w.alloc(10), 10);
        w.commit(20);
        assert_eq!(w.alloc(10), 10);
        w.commit(30);
        // full: next alloc waits for the earliest release (20)
        assert_eq!(w.alloc(12), 20);
        w.commit(40);
        assert!(w.stall_cycles >= 8);
    }

    #[test]
    fn window_free_slot_no_stall() {
        let mut w = Window::new(4);
        for k in 0..4 {
            assert_eq!(w.alloc(k), k);
            w.commit(k + 100);
        }
        // released entries free slots for later allocs
        assert_eq!(w.alloc(100), 100);
    }

    #[test]
    fn bandwidth_packs_width_per_cycle() {
        let mut b = Bandwidth::new(3);
        assert_eq!(b.take(5), 5);
        assert_eq!(b.take(5), 5);
        assert_eq!(b.take(5), 5);
        assert_eq!(b.take(5), 6, "fourth spills to the next cycle");
        assert_eq!(b.take(10), 10);
    }

    #[test]
    fn bandwidth_take_n() {
        let mut b = Bandwidth::new(4);
        assert_eq!(b.take_n(0, 2), 0);
        assert_eq!(b.take_n(0, 2), 0);
        assert_eq!(b.take(0), 1);
    }

    #[test]
    fn pipes_pick_least_busy() {
        let mut p = PipeGroup::new(2);
        assert_eq!(p.issue(0, 1), 0);
        assert_eq!(p.issue(0, 1), 0, "second pipe");
        assert_eq!(p.issue(0, 1), 1, "both busy");
    }

    #[test]
    fn unpipelined_divider_blocks() {
        let mut p = PipeGroup::new(1);
        assert_eq!(p.issue(0, 20), 0);
        assert_eq!(p.issue(1, 20), 20, "divider busy");
    }

    #[test]
    fn slot_limiter_out_of_order() {
        let mut s = SlotLimiter::new(2);
        assert_eq!(s.take(10), 10);
        assert_eq!(s.take(5), 5);
        assert_eq!(s.take(10), 10);
        assert_eq!(s.take(10), 11, "cycle 10 full");
    }
}
