//! Per-page decoded basic-block cache — the emulator's fast path.
//!
//! The seed interpreter re-translates, re-fetches and re-decodes every
//! instruction on every [`crate::Emulator::step`]. This module caches
//! the decode work: straight-line runs of instructions are lowered once
//! into a [`DecodedBlock`] of ready-to-execute [`xt_isa::Inst`] values
//! (decode fully resolves the handler arm plus immediates and register
//! fields) and replayed from the cache until a store touches their page.
//!
//! Keying and boundaries (see docs/FASTPATH.md):
//!
//! * blocks are keyed by **physical page + starting offset** and never
//!   cross a 4 KiB page boundary, so invalidation can be page-granular
//!   and still precise;
//! * a block ends at the first control-flow instruction (branch, jump,
//!   indirect jump), system/CSR instruction, or the page end; a 4-byte
//!   instruction straddling the page boundary is never cached;
//! * AMO/LR/SC and fences stay *inside* blocks but carry a precomputed
//!   `barrier` flag so cluster-mode gating still happens per step.
//!
//! Storage is an arena (`Vec` of slots + free list) rather than
//! reference counting: the [`crate::Emulator`] must stay [`Send`] for
//! the cluster engine's scoped worker threads. A cursor into the arena
//! ([`Cursor`]) carries the slot's epoch at lookup time; invalidation
//! bumps the epoch, so stale cursors (and stale page-map entries) can
//! never resurrect freed blocks.
//!
//! In front of the page map sits a direct-mapped jump table of the
//! slots of recent block starts: the next block at a block-to-block
//! edge is found without hashing. An entry counts only while its slot
//! holds a live block starting at the pc looked up, so the table needs
//! no invalidation of its own.

use xt_isa::{ExecClass, Inst, Op};

/// Page geometry shared with [`crate::gmem`] (guest pages are 4 KiB).
pub const PAGE_BITS: u32 = crate::gmem::PAGE_BITS;
/// Bytes per page.
pub const PAGE_SIZE: u64 = 1 << PAGE_BITS;
const PAGE_MASK: u64 = PAGE_SIZE - 1;

/// One pre-decoded instruction inside a block.
#[derive(Clone, Copy, Debug)]
pub struct BlockEntry {
    /// The fully decoded instruction (op + operands + length).
    pub inst: Inst,
    /// Precomputed: must rendezvous at the cluster epoch barrier
    /// (AMO/LR/SC/fence — mirrors the slow path's `is_barrier_op`).
    pub barrier: bool,
}

/// A decoded straight-line run of instructions within one page.
#[derive(Clone, Debug, Default)]
pub struct DecodedBlock {
    /// Physical address of the first instruction.
    pub base_pa: u64,
    /// The instructions, in fetch order.
    pub entries: Vec<BlockEntry>,
    /// Whether an entry may write memory (see [`stores`]). A block
    /// without one can neither halt the guest nor invalidate a block.
    pub stores: bool,
}

/// Whether `op` can reach the emulator's store path, the only place
/// that halts the guest or invalidates a decoded block: scalar and
/// vector stores, and AMOs (LR too: it shares their class).
pub fn stores(op: Op) -> bool {
    matches!(
        op.exec_class(),
        ExecClass::Store | ExecClass::VecStore | ExecClass::Amo
    )
}

/// A resumption point inside a cached block: "the next instruction to
/// execute is entry `idx` of `slot`, and it lives at `next_va`".
///
/// Validity is re-checked on every step: the address must match the
/// live PC **and** the slot's epoch must match the epoch captured at
/// lookup, so both control flow leaving the block and invalidation of
/// the block fall back to a fresh lookup.
#[derive(Clone, Copy, Debug)]
pub struct Cursor {
    /// Arena slot of the block being executed.
    pub slot: u32,
    /// Slot epoch at lookup time.
    pub epoch: u64,
    /// Next entry index within the block.
    pub idx: u32,
    /// Address the next entry was decoded from.
    pub next_va: u64,
}

/// Hit/miss/invalidation counters (host-side telemetry only; never fed
/// back into architectural state).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Steps served from a cached block (cursor or page-map hit).
    pub hits: u64,
    /// Page-map lookups that missed and triggered a block build.
    pub misses: u64,
    /// Blocks lowered from raw bytes.
    pub blocks_built: u64,
    /// Blocks dropped by store-to-code invalidation.
    pub blocks_invalidated: u64,
}

struct Slot {
    block: DecodedBlock,
    /// Bumped on every invalidation; cursors and page-map entries carry
    /// the epoch they observed and are rejected after a bump.
    epoch: u64,
    live: bool,
}

/// Jump-table entries (a power of two).
const JUMPS: usize = 1024;

/// The per-emulator decoded-block cache.
///
/// `pages` maps a physical page index to the blocks that *start* on
/// that page (by offset). Because blocks never cross pages, dropping
/// one page's map entry is a complete invalidation of every cached
/// instruction on that page.
pub struct BlockCache {
    pages: crate::gmem::PageMap<Vec<(u16, u32)>>,
    /// Slots of recent block starts, direct-mapped by pc. No live block
    /// shares its start with another, so a slot whose block is live and
    /// starts at the pc looked up is the answer, whatever the entry held
    /// before; a dropped block is dead until its slot is reused, and then
    /// starts elsewhere or is the current block at that pc. Empty until
    /// the first insert, so only a cache in use pays for it.
    jumps: Vec<u32>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Blocks ever invalidated: monotone, never reset.
    /// `Emulator::run_block` relies on it standing still while no block
    /// died, which `stats` — public telemetry — cannot promise.
    invalidations: u64,
    /// Telemetry counters.
    pub stats: CacheStats,
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("cached_pages", &self.pages.len())
            .field("live_blocks", &(self.slots.len() - self.free.len()))
            .field("stats", &self.stats)
            .finish()
    }
}

impl Default for BlockCache {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        BlockCache {
            pages: Default::default(),
            jumps: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            invalidations: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of live cached blocks.
    pub fn live_blocks(&self) -> usize {
        self.slots.iter().filter(|s| s.live).count()
    }

    /// Looks up a block starting exactly at physical address `pa`: the
    /// jump table first, then the page map, whose hit refills the table.
    #[inline]
    pub fn lookup(&mut self, pa: u64) -> Option<(u32, u64)> {
        if let Some(&slot) = self.jumps.get(jump_index(pa)) {
            let s = &self.slots[slot as usize];
            if s.live && s.block.base_pa == pa {
                return Some((slot, s.epoch));
            }
        }
        self.lookup_page(pa)
    }

    /// The page-map half of [`Self::lookup`], out of line so that the
    /// jump-table hit stays small where `lookup` inlines.
    #[inline(never)]
    fn lookup_page(&mut self, pa: u64) -> Option<(u32, u64)> {
        let offs = self.pages.get(&(pa >> PAGE_BITS))?;
        let want = (pa & PAGE_MASK) as u16;
        let &(_, slot) = offs.iter().find(|(off, _)| *off == want)?;
        self.remember(pa, slot);
        Some((slot, self.slots[slot as usize].epoch))
    }

    /// Points the jump-table entry of `pc` at `slot`.
    fn remember(&mut self, pc: u64, slot: u32) {
        if self.jumps.is_empty() {
            // slot 0 exists from the first insert on
            self.jumps = vec![0; JUMPS];
        }
        self.jumps[jump_index(pc)] = slot;
    }

    /// Inserts a freshly built block; returns its `(slot, epoch)`.
    pub fn insert(&mut self, block: DecodedBlock) -> (u32, u64) {
        debug_assert!(!block.entries.is_empty());
        let pa = block.base_pa;
        let page = pa >> PAGE_BITS;
        let off = (pa & PAGE_MASK) as u16;
        let slot = match self.free.pop() {
            Some(s) => {
                let sl = &mut self.slots[s as usize];
                sl.block = block;
                sl.live = true;
                s
            }
            None => {
                self.slots.push(Slot {
                    block,
                    epoch: 0,
                    live: true,
                });
                (self.slots.len() - 1) as u32
            }
        };
        self.pages.entry(page).or_default().push((off, slot));
        self.stats.blocks_built += 1;
        self.remember(pa, slot);
        (slot, self.slots[slot as usize].epoch)
    }

    /// Whether `slot` still holds the block observed at `epoch`.
    #[inline]
    pub fn slot_live(&self, slot: u32, epoch: u64) -> bool {
        let s = &self.slots[slot as usize];
        s.live && s.epoch == epoch
    }

    /// The `idx`-th entry of `slot` (caller guarantees liveness/bounds).
    #[inline]
    pub fn entry(&self, slot: u32, idx: u32) -> BlockEntry {
        self.slots[slot as usize].block.entries[idx as usize]
    }

    /// Entry count of `slot`'s block.
    #[inline]
    pub fn block_len(&self, slot: u32) -> u32 {
        self.slots[slot as usize].block.entries.len() as u32
    }

    /// Takes `slot`'s entries out, for a caller that runs them without
    /// touching the cache and then hands them to [`Self::give_back`].
    #[inline]
    pub(crate) fn lend(&mut self, slot: u32) -> Vec<BlockEntry> {
        std::mem::take(&mut self.slots[slot as usize].block.entries)
    }

    /// Puts back what [`Self::lend`] took.
    #[inline]
    pub(crate) fn give_back(&mut self, slot: u32, entries: Vec<BlockEntry>) {
        self.slots[slot as usize].block.entries = entries;
    }

    /// Whether `slot`'s block holds an entry that may store.
    #[inline]
    pub fn block_stores(&self, slot: u32) -> bool {
        self.slots[slot as usize].block.stores
    }

    /// A number that moves whenever a live block is invalidated.
    #[inline]
    pub(crate) fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Store-to-code hook: drops every block on any page overlapped by
    /// the `len`-byte store at `pa`. Returns whether anything was
    /// invalidated. Pages with no cached code cost one map probe. A span
    /// running off the top of the address space wraps, like the store
    /// itself: it ends on page 0.
    pub fn invalidate_span(&mut self, pa: u64, len: usize) -> bool {
        let last = pa.wrapping_add(len.max(1) as u64 - 1) >> PAGE_BITS;
        let mut page = pa >> PAGE_BITS;
        let mut any = self.invalidate_page(page);
        while page != last {
            page = (page + 1) & (u64::MAX >> PAGE_BITS);
            any |= self.invalidate_page(page);
        }
        any
    }

    /// Drops every block starting on `page`.
    fn invalidate_page(&mut self, page: u64) -> bool {
        let Some(offs) = self.pages.remove(&page) else {
            return false;
        };
        for (_, slot) in offs {
            let s = &mut self.slots[slot as usize];
            if s.live {
                s.live = false;
                s.epoch += 1;
                s.block.entries.clear();
                self.free.push(slot);
                self.invalidations += 1;
                self.stats.blocks_invalidated += 1;
            }
        }
        true
    }

    /// Drops everything (program load, fast-path toggle).
    pub fn invalidate_all(&mut self) {
        let pages: Vec<u64> = self.pages.keys().copied().collect();
        for p in pages {
            self.invalidate_page(p);
        }
    }
}

/// The jump-table entry of `pc`: instructions are 2-byte aligned, and
/// folding in the bits above the table's reach spreads the block starts
/// of code larger than 2 KiB.
#[inline]
fn jump_index(pc: u64) -> usize {
    ((pc >> 1) ^ (pc >> 11)) as usize & (JUMPS - 1)
}

/// A block never extends past one of these: control flow redirects the
/// PC, and system/CSR instructions can change privilege or translation
/// state (the fast path re-checks eligibility on the next step).
pub fn ends_block(op: Op) -> bool {
    let class = op.exec_class();
    class.is_ctrl()
        || matches!(
            class,
            ExecClass::System | ExecClass::Csr | ExecClass::CacheOp
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(pa: u64, n: usize) -> DecodedBlock {
        DecodedBlock {
            base_pa: pa,
            entries: vec![
                BlockEntry {
                    inst: Inst::new(Op::Add),
                    barrier: false,
                };
                n
            ],
            stores: false,
        }
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut c = BlockCache::new();
        let (slot, epoch) = c.insert(blk(0x8000_0100, 3));
        assert_eq!(c.lookup(0x8000_0100), Some((slot, epoch)));
        assert_eq!(c.lookup(0x8000_0104), None, "keyed by start offset");
        assert_eq!(c.block_len(slot), 3);
        assert!(c.slot_live(slot, epoch));
    }

    #[test]
    fn invalidation_bumps_epoch_and_recycles() {
        let mut c = BlockCache::new();
        let (slot, epoch) = c.insert(blk(0x8000_0000, 2));
        assert!(c.invalidate_span(0x8000_0ffc, 8), "store overlapping page");
        assert!(!c.slot_live(slot, epoch), "stale cursor rejected");
        assert_eq!(c.lookup(0x8000_0000), None);
        // the slot is recycled with a new epoch
        let (slot2, epoch2) = c.insert(blk(0x8000_0200, 1));
        assert_eq!(slot2, slot);
        assert_ne!(epoch2, epoch);
        assert_eq!(c.stats.blocks_invalidated, 1);
    }

    #[test]
    fn store_to_uncached_page_is_noop() {
        let mut c = BlockCache::new();
        c.insert(blk(0x8000_0000, 1));
        assert!(!c.invalidate_span(0x9000_0000, 8));
        assert_eq!(c.live_blocks(), 1);
    }

    #[test]
    fn cross_page_store_invalidates_both() {
        let mut c = BlockCache::new();
        c.insert(blk(0x8000_0000, 1));
        c.insert(blk(0x8000_1000, 1));
        assert!(c.invalidate_span(0x8000_0ffe, 4));
        assert_eq!(c.live_blocks(), 0);
    }

    #[test]
    fn span_wrapping_the_address_space_invalidates_last_and_first_page() {
        let mut c = BlockCache::new();
        c.insert(blk(0xffff_ffff_ffff_f000, 1));
        c.insert(blk(0x0000_0000_0000_0010, 1));
        c.insert(blk(0x0000_0000_0000_1000, 1));
        assert!(c.invalidate_span(0xffff_ffff_ffff_fffc, 8));
        assert_eq!(c.live_blocks(), 1, "pages !0 >> 12 and 0, not page 1");
        assert_eq!(c.stats.blocks_invalidated, 2);
    }

    #[test]
    fn a_stale_jump_entry_is_never_followed() {
        let mut c = BlockCache::new();
        let (slot, epoch) = c.insert(blk(0x8000_0100, 3));
        assert_eq!(c.lookup(0x8000_0100), Some((slot, epoch)), "a table hit");
        c.invalidate_span(0x8000_0100, 4);
        assert_eq!(c.lookup(0x8000_0100), None, "the entry names a dead slot");
        // the freed slot now holds a block elsewhere
        let (slot2, epoch2) = c.insert(blk(0x8000_2000, 1));
        assert_eq!(slot2, slot);
        assert_eq!(c.lookup(0x8000_0100), None, "the entry's slot holds another block");
        assert_eq!(c.lookup(0x8000_2000), Some((slot2, epoch2)));
        // an entry two block starts share evicts the other: the page map
        // still finds both
        let far = 0x8000_0100 + (1 << 21);
        assert_eq!(jump_index(far), jump_index(0x8000_0100));
        let (a, ea) = c.insert(blk(0x8000_0100, 2));
        let (b, eb) = c.insert(blk(far, 2));
        assert_eq!(c.lookup(0x8000_0100), Some((a, ea)));
        assert_eq!(c.lookup(far), Some((b, eb)));
    }

    #[test]
    fn store_classes() {
        for op in [Op::Sb, Op::Sd, Op::Fsd, Op::XSrw, Op::Vse, Op::Vsxe] {
            assert!(stores(op), "{op:?}");
        }
        for op in [Op::AmoSwapW, Op::AmoAddD, Op::ScW, Op::LrD] {
            assert!(stores(op), "{op:?} is an AMO");
        }
        for op in [Op::Ld, Op::Vle, Op::Add, Op::Fence, Op::Beq] {
            assert!(!stores(op), "{op:?}");
        }
    }

    #[test]
    fn block_end_classes() {
        assert!(ends_block(Op::Beq));
        assert!(ends_block(Op::Jal));
        assert!(ends_block(Op::Jalr));
        assert!(ends_block(Op::Ecall));
        assert!(ends_block(Op::Mret));
        assert!(ends_block(Op::Csrrw));
        assert!(!ends_block(Op::Add));
        assert!(!ends_block(Op::Ld));
        assert!(!ends_block(Op::AmoAddD), "AMOs stay in blocks (gated)");
        assert!(!ends_block(Op::Fence), "fences stay in blocks (gated)");
    }
}
