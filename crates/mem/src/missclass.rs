//! Online 3C + coherence miss classification for the L1 data cache.
//!
//! Every L1D demand miss is attributed to exactly one of the classic
//! "3C" categories extended with a coherence class, giving the exact
//! conservation law the rest of the workspace's counters obey:
//!
//! ```text
//! l1d_misses == compulsory + capacity + conflict + coherence
//! ```
//!
//! The classifier is **always on** (it is part of the modeled state, not
//! of the optional tracer), so the attributed classes are independent
//! of whether a [`crate::trace::MemTracer`] is attached, and replaying a
//! recorded [`crate::system::MemOp`] log reproduces them exactly — which
//! is what keeps traced cluster runs bit-identical across `XT_THREADS`.
//! It decides the class and keeps no totals: the class rides in the
//! `L1DMiss` event and [`crate::MemStats::record`] bumps the miss and
//! its class in one arm, which is why the law above holds by
//! construction.
//!
//! ## Method
//!
//! Per core, three structures shadow the L1D:
//!
//! * an *ever-seen* set of line addresses — a first-touch miss is
//!   **compulsory**;
//! * a *coherence mark* set — lines removed from this core's L1D by
//!   another core's store (invalidation) are marked, and the next miss
//!   on a marked line is **coherence** (the line would still be resident
//!   had no other core written it);
//! * a *shadow fully-associative cache* with the same total capacity
//!   (in lines) as the real L1D, true-LRU replacement, touched by
//!   demand accesses only — a miss that *hits* in the shadow would have
//!   been a hit under full associativity, so it is **conflict**; a miss
//!   that also misses in the shadow is **capacity**.
//!
//! ## Cost
//!
//! The classifier runs on every L1D access, hits included, so every step
//! is O(1): the sets and the shadow's line index use the crate's
//! line-address hasher, and the shadow's recency order is a linked list
//! whose stamps keep the snapshot an ascending list of `(stamp, line)`
//! pairs; restore accepts only pairs a save could have written.
//!
//! ## Known limits (documented, deliberate)
//!
//! * Inclusive-L2 back-invalidations remove the line from the shadow
//!   without a coherence mark: the subsequent miss classifies as
//!   capacity (the line was pushed out by aggregate footprint, which is
//!   the closest 3C notion for an inclusion victim).
//! * A full cache flush (`fence.i`-style) clears the shadow and the
//!   marks; post-flush re-misses classify as capacity, not compulsory —
//!   the lines *have* been seen before.
//! * Prefetch fills do not touch the shadow (it models the demand
//!   stream); prefetching therefore shifts real misses away without
//!   perturbing the attribution of the misses that remain.

use crate::linemap::{LineMap, LineSet};
use xt_snapshot::{Dec, Enc, Result as SnapResult, SnapshotError, SnapshotState};

/// The attributed cause of one L1D demand miss.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MissClass {
    /// First-ever access to the line (cold miss).
    Compulsory,
    /// Would have missed even in a fully-associative cache of the same
    /// capacity: aggregate working set exceeds the cache.
    Capacity,
    /// Hits in the same-capacity fully-associative shadow: lost only to
    /// set-index conflicts in the real (set-associative) array.
    Conflict,
    /// The line was invalidated out of this core's L1D by another
    /// core's write since the last access.
    Coherence,
}

impl MissClass {
    /// Stable display name (used in reports and trace events).
    pub fn name(self) -> &'static str {
        match self {
            MissClass::Compulsory => "compulsory",
            MissClass::Capacity => "capacity",
            MissClass::Conflict => "conflict",
            MissClass::Coherence => "coherence",
        }
    }
}

/// Slab index of the recency list's sentinel; never a resident, so also
/// "none" on the free list.
const SENTINEL: u32 = 0;

/// One resident line of a [`ShadowFa`], linked into its recency list.
/// The default node links to slab index 0 on both sides.
#[derive(Clone, Debug, Default)]
struct Node {
    line: u64,
    /// Value of `next_stamp` at the last touch (the snapshot encoding).
    stamp: u64,
    /// Neighbour towards the LRU end.
    prev: u32,
    /// Neighbour towards the MRU end; the next free node while on the
    /// free list.
    next: u32,
}

/// Fully-associative true-LRU tag store with a fixed line capacity.
///
/// Residents are nodes of a slab (`nodes`, grown on demand to one node
/// per resident) on a circular doubly-linked list through the sentinel
/// `nodes[0]`, whose `next` is the LRU victim and whose `prev` is the
/// most recently used line; `lines` maps a resident line to its slab
/// index, so touch, evict and remove are O(1). Every touch stamps its
/// node with `next_stamp++`, also when the node already is the MRU one:
/// list order and stamp order are the same order, and the snapshot
/// (ascending `(stamp, line)` pairs) is a walk of the list.
#[derive(Clone, Debug, Default)]
struct ShadowFa {
    cap: usize,
    lines: LineMap<u32>,
    /// Empty until the first touch pushes the sentinel.
    nodes: Vec<Node>,
    /// Head of the free list (freed by `remove`, reused before growing).
    free: u32,
    next_stamp: u64,
}

impl ShadowFa {
    fn new(cap: usize) -> Self {
        ShadowFa {
            cap,
            ..Default::default()
        }
    }

    fn contains(&self, line: u64) -> bool {
        self.lines.contains_key(&line)
    }

    /// Takes node `i` out of the recency list.
    fn unlink(&mut self, i: u32) {
        let Node { prev, next, .. } = self.nodes[i as usize];
        self.nodes[prev as usize].next = next;
        self.nodes[next as usize].prev = prev;
    }

    /// Marks `line` most-recently-used, inserting it (and evicting the
    /// LRU resident) if absent.
    fn touch(&mut self, line: u64) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        if self.nodes.is_empty() {
            self.nodes.push(Node::default()); // the sentinel: an empty circle
        }
        let (lru, mru) = (self.nodes[0].next, self.nodes[0].prev);
        if mru != SENTINEL && self.nodes[mru as usize].line == line {
            // already MRU (7 of 8 accesses of a unit-stride stream): no
            // relinking, but the stamp moves as it would have
            self.nodes[mru as usize].stamp = stamp;
            return;
        }
        let i = if let Some(&i) = self.lines.get(&line) {
            self.unlink(i);
            i
        } else {
            let i = if self.lines.len() >= self.cap && lru != SENTINEL {
                // the victim's node is reused in place
                self.unlink(lru);
                self.lines.remove(&self.nodes[lru as usize].line);
                lru
            } else if self.free != SENTINEL {
                let i = self.free;
                self.free = self.nodes[i as usize].next;
                i
            } else {
                if self.nodes.len() == self.nodes.capacity() {
                    // double, but not past a full store's nodes + sentinel
                    let full = self.cap.max(1).saturating_add(1);
                    let room = full.saturating_sub(self.nodes.len());
                    self.nodes.reserve_exact(room.clamp(1, self.nodes.len()));
                }
                self.nodes.push(Node::default());
                (self.nodes.len() - 1) as u32
            };
            self.lines.insert(line, i);
            i
        };
        // append at the MRU end (read again: unlinking may have moved it)
        let mru = self.nodes[0].prev;
        self.nodes[i as usize] = Node {
            line,
            stamp,
            prev: mru,
            next: SENTINEL,
        };
        self.nodes[mru as usize].next = i;
        self.nodes[0].prev = i;
    }

    fn remove(&mut self, line: u64) {
        if let Some(i) = self.lines.remove(&line) {
            self.unlink(i);
            self.nodes[i as usize].next = self.free;
            self.free = i;
        }
    }

    fn clear(&mut self) {
        self.lines.clear();
        self.nodes.clear();
        self.free = SENTINEL;
    }

    /// Residents from LRU to MRU as `(stamp, line)`, stamps ascending.
    fn residents(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut i = self.nodes.first().map_or(SENTINEL, |s| s.next);
        std::iter::from_fn(move || {
            if i == SENTINEL {
                return None;
            }
            let node = &self.nodes[i as usize];
            i = node.next;
            Some((node.stamp, node.line))
        })
    }
}

/// Per-core online miss classifier (see the module docs for the
/// method and its limits).
#[derive(Clone, Debug, Default)]
pub struct MissClassifier {
    seen: LineSet,
    coh: LineSet,
    shadow: ShadowFa,
}

impl MissClassifier {
    /// Creates a classifier shadowing an L1D of `capacity_lines` lines.
    pub fn new(capacity_lines: usize) -> Self {
        MissClassifier {
            shadow: ShadowFa::new(capacity_lines),
            ..Default::default()
        }
    }

    /// Records a demand access that hit in the real L1D (including
    /// write-upgrade hits): keeps the shadow's recency in sync.
    pub fn on_hit(&mut self, line: u64) {
        self.shadow.touch(line);
    }

    /// Classifies a demand miss on `line` and updates all shadow state.
    pub fn on_miss(&mut self, line: u64) -> MissClass {
        let class = if self.seen.insert(line) {
            MissClass::Compulsory
        } else if self.coh.remove(&line) {
            MissClass::Coherence
        } else if self.shadow.contains(line) {
            MissClass::Conflict
        } else {
            MissClass::Capacity
        };
        self.shadow.touch(line);
        class
    }

    /// Records that another core's write invalidated `line` out of this
    /// core's L1D: the next miss on it is a coherence miss.
    pub fn on_coherence_invalidate(&mut self, line: u64) {
        self.coh.insert(line);
        self.shadow.remove(line);
    }

    /// Records an inclusive-L2 back-invalidation of `line`: removed
    /// from the shadow without a coherence mark (the subsequent miss
    /// classifies as capacity — documented limit).
    pub fn on_back_invalidate(&mut self, line: u64) {
        self.shadow.remove(line);
    }

    /// Records a whole-cache flush: shadow and coherence marks reset
    /// (post-flush re-misses classify as capacity — documented limit).
    pub fn on_flush(&mut self) {
        self.shadow.clear();
        self.coh.clear();
    }
}

impl SnapshotState for MissClassifier {
    fn save(&self, e: &mut Enc) {
        let mut seen: Vec<u64> = self.seen.iter().copied().collect();
        seen.sort_unstable();
        e.u64_seq(&seen);
        let mut coh: Vec<u64> = self.coh.iter().copied().collect();
        coh.sort_unstable();
        e.u64_seq(&coh);
        e.usize(self.shadow.cap);
        // residents in stamp (recency) order so restore rebuilds the
        // identical LRU ordering
        e.seq(self.shadow.lines.len());
        for (stamp, line) in self.shadow.residents() {
            e.u64(stamp);
            e.u64(line);
        }
        e.u64(self.shadow.next_stamp);
    }

    fn restore(&mut self, d: &mut Dec) -> SnapResult<()> {
        self.seen = d.u64_seq()?.into_iter().collect();
        self.coh = d.u64_seq()?.into_iter().collect();
        // a frame is outside input: the list is rebuilt only from pairs
        // that a save could have written
        const CORRUPT: SnapshotError = SnapshotError::Corrupt { what: "shadow lru" };
        let mut shadow = ShadowFa::new(d.usize()?);
        let n = d.len(16)?;
        if n > shadow.cap {
            return Err(CORRUPT);
        }
        for _ in 0..n {
            let stamp = d.u64()?;
            let line = d.u64()?;
            // stamps ascend strictly and stay below the frame's next_stamp
            if stamp < shadow.next_stamp || stamp == u64::MAX || shadow.contains(line) {
                return Err(CORRUPT);
            }
            shadow.next_stamp = stamp;
            shadow.touch(line); // appends at the MRU end, leaves stamp + 1
        }
        let next_stamp = d.u64()?;
        if shadow.next_stamp > next_stamp {
            return Err(CORRUPT);
        }
        shadow.next_stamp = next_stamp;
        self.shadow = shadow;
        Ok(())
    }
}

#[cfg(test)]
/// The map-based shadow store the list replaced, kept as the oracle of
/// the differential tests below.
mod reference {
    use std::collections::{BTreeMap, HashMap};
    use xt_snapshot::Enc;

    /// Fully-associative true-LRU tag store: `stamps` orders residents by
    /// last touch, `lines` maps a resident line to its current stamp.
    pub struct MapShadow {
        cap: usize,
        lines: HashMap<u64, u64>,
        stamps: BTreeMap<u64, u64>,
        next_stamp: u64,
    }

    impl MapShadow {
        pub fn new(cap: usize) -> Self {
            MapShadow {
                cap,
                lines: HashMap::new(),
                stamps: BTreeMap::new(),
                next_stamp: 0,
            }
        }

        pub fn contains(&self, line: u64) -> bool {
            self.lines.contains_key(&line)
        }

        /// Least and most recently used residents.
        pub fn ends(&self) -> Option<(u64, u64)> {
            let lru = self.stamps.values().next()?;
            Some((*lru, *self.stamps.values().next_back()?))
        }

        /// Returns the line the touch evicted, if any.
        pub fn touch(&mut self, line: u64) -> Option<u64> {
            let mut evicted = None;
            if let Some(old) = self.lines.remove(&line) {
                self.stamps.remove(&old);
            } else if self.lines.len() >= self.cap {
                if let Some((&victim_stamp, &victim_line)) = self.stamps.iter().next() {
                    self.stamps.remove(&victim_stamp);
                    self.lines.remove(&victim_line);
                    evicted = Some(victim_line);
                }
            }
            let s = self.next_stamp;
            self.next_stamp += 1;
            self.lines.insert(line, s);
            self.stamps.insert(s, line);
            evicted
        }

        pub fn remove(&mut self, line: u64) {
            if let Some(s) = self.lines.remove(&line) {
                self.stamps.remove(&s);
            }
        }

        pub fn clear(&mut self) {
            self.lines.clear();
            self.stamps.clear();
        }

        /// What [`super::MissClassifier::save`] writes for a classifier
        /// holding this shadow and no seen/coherence marks.
        pub fn classifier_frame(&self) -> Vec<u8> {
            let pairs: Vec<(u64, u64)> = self.stamps.iter().map(|(&s, &l)| (s, l)).collect();
            classifier_frame(self.cap, &pairs, self.next_stamp)
        }
    }

    /// A classifier frame written field by field: no seen/coherence marks,
    /// a shadow of `cap` lines holding `pairs` of `(stamp, line)`.
    pub fn classifier_frame(cap: usize, pairs: &[(u64, u64)], next_stamp: u64) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64_seq(&[]);
        e.u64_seq(&[]);
        e.usize(cap);
        e.seq(pairs.len());
        for &(stamp, line) in pairs {
            e.u64(stamp);
            e.u64(line);
        }
        e.u64(next_stamp);
        e.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{classifier_frame, MapShadow};
    use super::*;
    use xt_harness::gen::{choose, ints, vec_of};
    use xt_harness::prop::{check_with, Config};

    /// One operation on a shadow store.
    enum Op {
        Touch(u64),
        Remove(u64),
        Clear,
    }

    fn frame_of(c: &MissClassifier) -> Vec<u8> {
        let mut e = Enc::new();
        c.save(&mut e);
        e.into_bytes()
    }

    /// The shadow-only entry points of a classifier against the map-based
    /// reference: `on_hit` = touch, `on_back_invalidate` = remove,
    /// `on_flush` = clear. After every operation the classifier's frame
    /// must be byte-for-byte what the reference would have saved, which
    /// pins resident set, recency order and every stamp; at `cut` the
    /// classifier is rebuilt from its own frame and carries on.
    #[test]
    fn shadow_list_matches_the_map_reference() {
        let gen = (
            choose(&[1usize, 2, 8, 1024]),
            choose(&[false, true]),
            vec_of((ints(0u32..16), ints(0u64..1 << 32)), 1..600),
            ints(0usize..600),
        );
        check_with(
            &Config::seeded(0x0910_0014_0001),
            "shadow_list_matches_the_map_reference",
            &gen,
            |(cap, prefill, trace, cut)| {
                let cap = *cap;
                let mut new = MissClassifier::new(cap);
                let mut old = MapShadow::new(cap);
                // a few more lines than fit, so touches evict
                let universe = (cap + cap / 4 + 2) as u64;
                let line_of = |pick: u64| 0x9000_0000 + (pick % universe) * 64;
                if *prefill {
                    for k in 0..cap as u64 {
                        new.on_hit(line_of(k));
                        old.touch(line_of(k));
                    }
                }
                let (mut last_touched, mut last_victim) = (line_of(0), line_of(1));
                for (k, &(kind, pick)) in trace.iter().enumerate() {
                    let random = line_of(pick);
                    let (lru, mru) = old.ends().unwrap_or((random, random));
                    let op = match kind {
                        0..=5 => Op::Touch(random),
                        6 | 7 => Op::Touch(last_touched), // hot line: already MRU
                        8 => Op::Touch(last_victim),      // evict, then retouch
                        9 => Op::Touch(lru),
                        10 => Op::Remove(mru),
                        11 => Op::Remove(lru),
                        12 => Op::Remove(random), // resident or not
                        13 => Op::Remove(line_of(0) - 64), // never resident
                        14 => Op::Remove(last_touched),
                        _ if pick % 8 == 0 => Op::Clear,
                        _ => Op::Touch(random),
                    };
                    let line = match op {
                        Op::Touch(line) | Op::Remove(line) => line,
                        Op::Clear => random,
                    };
                    assert_eq!(new.shadow.contains(line), old.contains(line), "before #{k}");
                    match op {
                        Op::Touch(line) => {
                            new.on_hit(line);
                            if let Some(victim) = old.touch(line) {
                                assert!(!new.shadow.contains(victim), "victim of #{k}");
                                last_victim = victim;
                            }
                            last_touched = line;
                        }
                        Op::Remove(line) => {
                            new.on_back_invalidate(line);
                            old.remove(line);
                        }
                        Op::Clear => {
                            new.on_flush();
                            old.clear();
                        }
                    }
                    assert_eq!(new.shadow.contains(line), old.contains(line), "after #{k}");
                    let frame = frame_of(&new);
                    assert_eq!(frame, old.classifier_frame(), "frame after #{k} ({kind})");
                    if k == *cut {
                        new = MissClassifier::default();
                        let mut d = Dec::new(&frame);
                        new.restore(&mut d).expect("own frame restores");
                        d.finish().expect("frame fully consumed");
                    }
                }
            },
        );
    }

    /// 20 classifiers of a 4-core cluster: a slab doubled past 1025 nodes
    /// was 0.4 MiB of `cluster4/peak_rss_mb`.
    #[test]
    fn slab_is_empty_until_touched_and_stops_at_one_node_per_resident() {
        let mut c = MissClassifier::new(1024);
        assert_eq!(c.shadow.nodes.capacity(), 0);
        for k in 0..3000u64 {
            c.on_hit(k * 64);
        }
        assert_eq!(c.shadow.nodes.len(), 1025, "1024 residents + sentinel");
        assert_eq!(c.shadow.nodes.capacity(), 1025);
    }

    #[test]
    fn restore_rejects_frames_no_save_could_have_written() {
        let restore = |bytes: &[u8]| MissClassifier::default().restore(&mut Dec::new(bytes));
        let good = classifier_frame(4, &[(3, 0x40), (5, 0x80), (9, 0xC0)], 10);
        restore(&good).expect("well-formed frame");
        let hostile = [
            (
                "descending stamps",
                classifier_frame(4, &[(5, 0x40), (3, 0x80)], 10),
            ),
            (
                "repeated stamp",
                classifier_frame(4, &[(5, 0x40), (5, 0x80)], 10),
            ),
            (
                "duplicate line",
                classifier_frame(4, &[(3, 0x40), (5, 0x40)], 10),
            ),
            (
                "over capacity",
                classifier_frame(2, &[(3, 0x40), (5, 0x80), (9, 0xC0)], 10),
            ),
            (
                "stamp at next_stamp",
                classifier_frame(4, &[(3, 0x40), (10, 0x80)], 10),
            ),
            (
                "stamp past next_stamp",
                classifier_frame(4, &[(3, 0x40)], 0),
            ),
            (
                "stamp at the top",
                classifier_frame(4, &[(u64::MAX, 0x40)], u64::MAX),
            ),
        ];
        for (name, bytes) in &hostile {
            match restore(bytes) {
                Err(SnapshotError::Corrupt { what: "shadow lru" }) => {}
                other => panic!("{name}: expected Corrupt(shadow lru), got {other:?}"),
            }
        }
    }

    #[test]
    fn first_touch_is_compulsory() {
        let mut c = MissClassifier::new(4);
        assert_eq!(c.on_miss(0x40), MissClass::Compulsory);
        assert_eq!(c.on_miss(0x80), MissClass::Compulsory);
    }

    #[test]
    fn capacity_when_working_set_exceeds_shadow() {
        let mut c = MissClassifier::new(2);
        // touch 3 distinct lines round-robin: after the compulsory pass,
        // every revisit misses even fully-associatively
        for round in 0..3 {
            for l in [0x0u64, 0x40, 0x80] {
                let want = if round == 0 {
                    MissClass::Compulsory
                } else {
                    MissClass::Capacity
                };
                assert_eq!(c.on_miss(l), want, "round {round}, line {l:#x}");
            }
        }
    }

    #[test]
    fn conflict_when_shadow_would_have_hit() {
        // shadow big enough to hold both lines: a re-miss on a resident
        // line can only be a set-conflict in the real array
        let mut c = MissClassifier::new(8);
        c.on_miss(0x0);
        c.on_miss(0x1000); // same set in a small direct-mapped L1, say
        assert_eq!(c.on_miss(0x0), MissClass::Conflict);
        assert_eq!(c.on_miss(0x1000), MissClass::Conflict);
    }

    #[test]
    fn coherence_mark_consumed_exactly_once() {
        let mut c = MissClassifier::new(8);
        c.on_miss(0x40);
        c.on_coherence_invalidate(0x40);
        assert_eq!(c.on_miss(0x40), MissClass::Coherence);
        // mark consumed: the next miss is shadow-resident -> conflict
        assert_eq!(c.on_miss(0x40), MissClass::Conflict);
    }

    #[test]
    fn back_invalidate_declassifies_to_capacity() {
        let mut c = MissClassifier::new(8);
        c.on_miss(0x40);
        c.on_back_invalidate(0x40);
        assert_eq!(c.on_miss(0x40), MissClass::Capacity);
    }

    #[test]
    fn flush_resets_shadow_but_not_seen() {
        let mut c = MissClassifier::new(8);
        c.on_miss(0x40);
        c.on_flush();
        assert_eq!(c.on_miss(0x40), MissClass::Capacity, "seen before, not cold");
    }

    #[test]
    fn hit_refreshes_lru_in_shadow() {
        let mut c = MissClassifier::new(2);
        c.on_miss(0x0);
        c.on_miss(0x40);
        c.on_hit(0x0); // 0x40 is now LRU
        c.on_miss(0x80); // evicts 0x40 from the shadow
        assert_eq!(c.on_miss(0x0), MissClass::Conflict, "still resident");
        // after the 0x0 conflict-miss touch, shadow = {0x80, 0x0}
        assert_eq!(c.on_miss(0x40), MissClass::Capacity, "was evicted");
    }

    #[test]
    fn snapshot_roundtrip_preserves_lru_and_counts() {
        let mut c = MissClassifier::new(2);
        for l in [0x0u64, 0x40, 0x80, 0x0, 0x40] {
            c.on_miss(l);
        }
        c.on_coherence_invalidate(0x80);
        let mut e = Enc::new();
        c.save(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let mut r = MissClassifier::default();
        r.restore(&mut d).expect("restore");
        // behavioural equivalence: same classifications afterwards
        for l in [0x80u64, 0x0, 0x40, 0x100] {
            assert_eq!(c.on_miss(l), r.on_miss(l), "line {l:#x}");
        }
    }
}
