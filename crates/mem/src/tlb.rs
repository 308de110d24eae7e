//! Multi-size, multi-level TLBs (paper §V-D, Fig. 12).
//!
//! A fully-associative micro-TLB backs up into a 4-way set-associative
//! joint TLB (jTLB). Every entry carries a page-size property (4 KiB,
//! 2 MiB or 1 GiB). The jTLB "can only be accessed by one type of index at
//! one time": on a µTLB miss it is probed with the 4K index first, then
//! the 2M index, then the 1G index — each probe costing one access — and
//! a walk is triggered only when all three miss. Entries are tagged with
//! the 16-bit ASID (§V-E) so context switches need not flush.

/// Page size of a TLB entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PageSize {
    /// 4 KiB page.
    P4K,
    /// 2 MiB huge page.
    P2M,
    /// 1 GiB huge page.
    P1G,
}

impl PageSize {
    /// log2 of the page size in bytes.
    pub fn bits(self) -> u32 {
        match self {
            PageSize::P4K => 12,
            PageSize::P2M => 21,
            PageSize::P1G => 30,
        }
    }

    /// Virtual page number for `va` at this size.
    pub fn vpn(self, va: u64) -> u64 {
        va >> self.bits()
    }

    /// All sizes in jTLB probe order (4K first; Fig. 12).
    pub const PROBE_ORDER: [PageSize; 3] = [PageSize::P4K, PageSize::P2M, PageSize::P1G];
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Entry {
    vpn: u64,
    ppn: u64,
    asid: u16,
    size: PageSize,
    global: bool,
    lru: u64,
    valid: bool,
}

const INVALID: Entry = Entry {
    vpn: 0,
    ppn: 0,
    asid: 0,
    size: PageSize::P4K,
    global: false,
    lru: 0,
    valid: false,
};

/// Result of a TLB lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TlbResult {
    /// Hit in the micro-TLB (zero-cost at the AG stage).
    MicroHit {
        /// Physical address.
        pa: u64,
    },
    /// Miss in the µTLB, hit in the jTLB after `probes` indexed accesses.
    JointHit {
        /// Physical address.
        pa: u64,
        /// Number of jTLB probes performed (1..=3).
        probes: u32,
    },
    /// Miss everywhere: a page walk is required (3 jTLB probes were paid).
    Miss,
}

/// A translation installed by the walker or the TLB-prefetch engine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mapping {
    /// Virtual address (any address within the page).
    pub va: u64,
    /// Physical address of the page base plus offset (same page offset).
    pub pa: u64,
    /// Page size.
    pub size: PageSize,
    /// ASID the mapping belongs to.
    pub asid: u16,
    /// Global mapping (matches every ASID).
    pub global: bool,
}

/// The two-level, multi-size TLB.
///
/// The entry arrays are allocated by the first [`Tlb::install`] or
/// [`Tlb::install_prefetch`]; until then every lookup misses, as it
/// would in arrays of invalid entries, so a TLB nobody installs into —
/// a peer's in a cluster replica, every one in the master — costs only
/// its geometry. Snapshots write the arrays either way.
#[derive(Clone, Debug)]
pub struct Tlb {
    /// Empty until the first install, then `micro_entries` entries.
    micro: Vec<Entry>,
    /// Empty until the first install, then `joint_sets` × 4 entries.
    joint: Vec<Entry>,
    micro_entries: usize,
    joint_sets: usize,
    stamp: u64,
    /// Current ASID (set by `satp` writes).
    pub asid: u16,
}

const JOINT_WAYS: usize = 4;

impl Tlb {
    /// Creates a TLB with `micro_entries` µTLB entries and
    /// `joint_sets` × 4-way jTLB entries.
    ///
    /// # Panics
    ///
    /// Panics if `joint_sets` is not a power of two.
    pub fn new(micro_entries: usize, joint_sets: usize) -> Self {
        assert!(joint_sets.is_power_of_two());
        Tlb {
            micro: Vec::new(),
            joint: Vec::new(),
            micro_entries,
            joint_sets,
            stamp: 0,
            asid: 0,
        }
    }

    /// Whether the entry arrays exist (something was installed).
    pub fn is_materialized(&self) -> bool {
        !self.joint.is_empty()
    }

    /// Allocates the entry arrays, all invalid, if they do not exist.
    fn materialize(&mut self) {
        if !self.is_materialized() {
            self.micro = vec![INVALID; self.micro_entries];
            self.joint = vec![INVALID; self.joint_sets * JOINT_WAYS];
        }
    }

    /// Entry `i` of the µTLB followed by the jTLB, if materialized.
    fn entry_mut(&mut self, i: usize) -> Option<&mut Entry> {
        match i.checked_sub(self.micro_entries) {
            None => self.micro.get_mut(i),
            Some(j) => self.joint.get_mut(j),
        }
    }

    fn matches(e: &Entry, va: u64, asid: u16) -> bool {
        e.valid && e.size.vpn(va) == e.vpn && (e.global || e.asid == asid)
    }

    fn pa_of(e: &Entry, va: u64) -> u64 {
        let off = va & ((1u64 << e.size.bits()) - 1);
        (e.ppn << e.size.bits()) | off
    }

    /// Looks up `va` under the current ASID, updating recency.
    pub fn lookup(&mut self, va: u64) -> TlbResult {
        self.stamp += 1;
        if !self.is_materialized() {
            return TlbResult::Miss;
        }
        let asid = self.asid;
        // micro: fully associative
        for e in &mut self.micro {
            if Self::matches(e, va, asid) {
                e.lru = self.stamp;
                return TlbResult::MicroHit {
                    pa: Self::pa_of(e, va),
                };
            }
        }
        // joint: probe per size, 4K -> 2M -> 1G (Fig. 12)
        for (k, size) in PageSize::PROBE_ORDER.iter().enumerate() {
            let set = (size.vpn(va) as usize) & (self.joint_sets - 1);
            for w in 0..JOINT_WAYS {
                let i = set * JOINT_WAYS + w;
                let e = &self.joint[i];
                if e.size == *size && Self::matches(e, va, asid) {
                    let entry = *e;
                    self.joint[i].lru = self.stamp;
                    // refill the µTLB from the jTLB hit
                    self.fill_micro(entry);
                    return TlbResult::JointHit {
                        pa: Self::pa_of(&entry, va),
                        probes: k as u32 + 1,
                    };
                }
            }
        }
        TlbResult::Miss
    }

    fn fill_micro(&mut self, e: Entry) {
        let victim = self
            .micro
            .iter_mut()
            .min_by_key(|x| if x.valid { x.lru } else { 0 })
            .expect("micro TLB has entries");
        *victim = Entry {
            lru: self.stamp,
            ..e
        };
    }

    fn fill_joint(&mut self, e: Entry) {
        let set = (e.size.vpn(e.vpn << e.size.bits()) as usize) & (self.joint_sets - 1);
        let base = set * JOINT_WAYS;
        let mut victim = base;
        let mut best = u64::MAX;
        for w in 0..JOINT_WAYS {
            let i = base + w;
            if !self.joint[i].valid {
                victim = i;
                break;
            }
            if self.joint[i].lru < best {
                best = self.joint[i].lru;
                victim = i;
            }
        }
        self.joint[victim] = e;
    }

    /// Installs a mapping (from the walker); fills jTLB and µTLB.
    pub fn install(&mut self, m: Mapping) {
        self.materialize();
        self.stamp += 1;
        let e = Entry {
            vpn: m.size.vpn(m.va),
            ppn: m.pa >> m.size.bits(),
            asid: m.asid,
            size: m.size,
            global: m.global,
            lru: self.stamp,
            valid: true,
        };
        self.fill_joint(e);
        self.fill_micro(e);
    }

    /// Installs a mapping from the TLB-prefetch engine (jTLB only).
    pub fn install_prefetch(&mut self, m: Mapping) {
        self.materialize();
        self.stamp += 1;
        let e = Entry {
            vpn: m.size.vpn(m.va),
            ppn: m.pa >> m.size.bits(),
            asid: m.asid,
            size: m.size,
            global: m.global,
            lru: self.stamp,
            valid: true,
        };
        self.fill_joint(e);
    }

    /// Whether `va` would hit (µ or joint) without disturbing state.
    pub fn peek(&self, va: u64) -> bool {
        if !self.is_materialized() {
            return false;
        }
        let asid = self.asid;
        if self.micro.iter().any(|e| Self::matches(e, va, asid)) {
            return true;
        }
        PageSize::PROBE_ORDER.iter().any(|size| {
            let set = (size.vpn(va) as usize) & (self.joint_sets - 1);
            (0..JOINT_WAYS).any(|w| {
                let e = &self.joint[set * JOINT_WAYS + w];
                e.size == *size && Self::matches(e, va, asid)
            })
        })
    }

    /// Full flush (what a narrow-ASID design is forced to do on context
    /// switch when ASIDs overflow — §V-E).
    pub fn flush_all(&mut self) {
        self.micro.fill(INVALID);
        self.joint.fill(INVALID);
    }

    /// Flushes all non-global entries of one ASID (hardware broadcast
    /// maintenance, §V-E).
    pub fn flush_asid(&mut self, asid: u16) {
        for e in self.micro.iter_mut().chain(self.joint.iter_mut()) {
            if e.valid && !e.global && e.asid == asid {
                e.valid = false;
            }
        }
    }

    /// Flushes one virtual address in one ASID.
    pub fn flush_va(&mut self, va: u64, asid: u16) {
        for e in self.micro.iter_mut().chain(self.joint.iter_mut()) {
            if e.valid && !e.global && e.asid == asid && e.size.vpn(va) == e.vpn {
                e.valid = false;
            }
        }
    }
}

impl xt_snapshot::SnapshotState for Tlb {
    /// Every entry, µTLB first — invalid ones for arrays never
    /// materialized. Decoding materializes them at the first entry that
    /// is not the reset one.
    fn transfer<S: xt_snapshot::Stream>(&mut self, s: &mut S) -> xt_snapshot::Result<()> {
        s.expect("tlb geometry", self.micro_entries)?;
        s.expect("tlb geometry", self.joint_sets)?;
        for i in 0..self.micro_entries + self.joint_sets * JOINT_WAYS {
            let mut e = self.entry_mut(i).map_or(INVALID, |e| *e);
            s.u64(&mut e.vpn)?;
            s.u64(&mut e.ppn)?;
            s.u16(&mut e.asid)?;
            // page sizes are tagged in probe order
            s.variant(&mut e.size, &PageSize::PROBE_ORDER, "page size")?;
            s.bool(&mut e.global)?;
            s.u64(&mut e.lru)?;
            s.bool(&mut e.valid)?;
            if S::DECODING {
                if e != INVALID {
                    self.materialize();
                }
                if let Some(entry) = self.entry_mut(i) {
                    *entry = e;
                }
            }
        }
        s.u64(&mut self.stamp)?;
        s.u16(&mut self.asid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map4k(va: u64, pa: u64, asid: u16) -> Mapping {
        Mapping {
            va,
            pa,
            size: PageSize::P4K,
            asid,
            global: false,
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut t = Tlb::new(4, 16);
        assert_eq!(t.lookup(0x1234), TlbResult::Miss);
        t.install(map4k(0x1000, 0x8000, 0));
        assert_eq!(t.lookup(0x1234), TlbResult::MicroHit { pa: 0x8234 });
    }

    #[test]
    fn jtlb_hit_after_micro_eviction() {
        let mut t = Tlb::new(2, 16);
        // Fill 3 mappings: the first will fall out of the 2-entry µTLB
        // but stay in the jTLB.
        for k in 0..3u64 {
            t.install(map4k(k << 12, (k + 16) << 12, 0));
        }
        match t.lookup(0) {
            TlbResult::JointHit { pa, probes } => {
                assert_eq!(pa, 16 << 12);
                assert_eq!(probes, 1, "4K entry found on the first probe");
            }
            other => panic!("expected joint hit, got {other:?}"),
        }
    }

    #[test]
    fn probe_order_counts_accesses() {
        let mut t = Tlb::new(1, 16);
        t.install(Mapping {
            va: 0x4000_0000,
            pa: 0x8000_0000,
            size: PageSize::P1G,
            asid: 0,
            global: false,
        });
        // evict from micro by installing another entry
        t.install(map4k(0x1000, 0x2000, 0));
        match t.lookup(0x4123_4567) {
            TlbResult::JointHit { pa, probes } => {
                assert_eq!(pa, 0x8123_4567);
                assert_eq!(probes, 3, "1G found only on the third probe");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn asid_isolation() {
        let mut t = Tlb::new(4, 16);
        t.asid = 1;
        t.install(map4k(0x1000, 0x8000, 1));
        assert!(matches!(t.lookup(0x1000), TlbResult::MicroHit { .. }));
        t.asid = 2;
        assert_eq!(t.lookup(0x1000), TlbResult::Miss, "other ASID misses");
        t.asid = 1;
        assert!(t.peek(0x1000), "original ASID entry survived the switch");
    }

    #[test]
    fn global_entries_match_any_asid() {
        let mut t = Tlb::new(4, 16);
        t.install(Mapping {
            va: 0x2000,
            pa: 0x3000,
            size: PageSize::P4K,
            asid: 7,
            global: true,
        });
        t.asid = 99;
        assert!(matches!(t.lookup(0x2000), TlbResult::MicroHit { .. }));
    }

    #[test]
    fn flush_asid_selective() {
        let mut t = Tlb::new(4, 16);
        t.install(map4k(0x1000, 0x8000, 1));
        t.install(map4k(0x2000, 0x9000, 2));
        t.flush_asid(1);
        t.asid = 1;
        assert_eq!(t.lookup(0x1000), TlbResult::Miss);
        t.asid = 2;
        assert!(t.peek(0x2000));
    }

    #[test]
    fn huge_page_offsets() {
        let mut t = Tlb::new(4, 16);
        t.install(Mapping {
            va: 0x2020_0000,
            pa: 0x4040_0000,
            size: PageSize::P2M,
            asid: 0,
            global: false,
        });
        match t.lookup(0x2030_1234) {
            TlbResult::MicroHit { pa } => assert_eq!(pa, 0x4050_1234),
            other => panic!("{other:?}"),
        }
    }

    fn frame(t: &mut Tlb) -> Vec<u8> {
        use xt_snapshot::SnapshotState;
        let mut e = xt_snapshot::Enc::new();
        t.save(&mut e);
        e.into_bytes()
    }

    /// A TLB that materializes on first install against one that does
    /// so up front, over random `lookup`/`install`/`install_prefetch`/
    /// `peek`/`flush_*` sequences (and ASID switches) on a small
    /// geometry: every result and the `save()` bytes after every call
    /// agree, and a frame of never-installed arrays restores without
    /// materializing them.
    #[test]
    fn lazy_arrays_agree_with_eager_ones() {
        use xt_harness::gen::{ints, vec_of};
        use xt_harness::prop::{check_with, Config};
        use xt_snapshot::SnapshotState;
        let gen = vec_of(
            (
                ints(0u32..10),
                ints(0u64..48),
                ints(0usize..3),
                ints(0u16..3),
                ints(0u8..2),
            ),
            1..200,
        );
        check_with(
            &Config::seeded_cases(0x0910_0029_0002, 64),
            "lazy_arrays_agree_with_eager_ones",
            &gen,
            |ops| {
                let mut lazy = Tlb::new(4, 4);
                let mut eager = Tlb::new(4, 4);
                eager.materialize();
                let untouched = frame(&mut lazy);
                assert_eq!(
                    untouched,
                    frame(&mut eager),
                    "absent arrays save as reset ones"
                );
                for &(kind, pick, size, asid, global) in ops {
                    let size = PageSize::PROBE_ORDER[size];
                    // a few pages of each size, near zero and near the top
                    let base = if pick % 2 == 0 { 0 } else { u64::MAX << 40 };
                    let va = base | ((pick / 2) << size.bits()) | (pick * 8);
                    let m = Mapping {
                        va,
                        pa: va ^ 0x4000_0000,
                        size,
                        asid,
                        global: global == 1,
                    };
                    match kind {
                        0..=2 => assert_eq!(lazy.lookup(va), eager.lookup(va)),
                        3 => assert_eq!(lazy.peek(va), eager.peek(va)),
                        4 => {
                            lazy.install(m);
                            eager.install(m);
                        }
                        5 => {
                            lazy.install_prefetch(m);
                            eager.install_prefetch(m);
                        }
                        6 => {
                            lazy.flush_asid(asid);
                            eager.flush_asid(asid);
                        }
                        7 => {
                            lazy.flush_va(va, asid);
                            eager.flush_va(va, asid);
                        }
                        8 => {
                            lazy.flush_all();
                            eager.flush_all();
                        }
                        _ => {
                            lazy.asid = asid;
                            eager.asid = asid;
                        }
                    }
                    assert_eq!(frame(&mut lazy), frame(&mut eager), "{kind} at {va:#x}");
                }
                let mut restored = Tlb::new(4, 4);
                restored
                    .restore(&mut xt_snapshot::Dec::new(&untouched))
                    .expect("a reset frame restores");
                assert!(!restored.is_materialized(), "reset arrays stay absent");
                let bytes = frame(&mut eager);
                restored
                    .restore(&mut xt_snapshot::Dec::new(&bytes))
                    .expect("the eager TLB's frame restores");
                assert_eq!(frame(&mut restored), bytes);
            },
        );
    }
}
