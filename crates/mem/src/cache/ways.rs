//! Where a [`super::Cache`] keeps its ways: the packed [`Way`], and the
//! two stores of them — [`Flat`], one array built eagerly (the L1s), and
//! [`Chunked`], 4 KiB chunks each allocated by the first fill into it
//! (the shared L2).

use super::LineState;
use std::fmt::Debug;

/// One way of a set: the line's byte address, with its MOSEI state and
/// prefetched mark packed into the low bits every line address leaves
/// free (lines are at least 16 bytes, [`crate::MemConfig::validate`]),
/// and its LRU stamp. At 16 bytes a 16-way set is four host cache lines.
///
/// The word is `addr | code(state) << 1 | prefetched`, with `Invalid`
/// coded 0: the probe `holds` is one subtract and compare, and an
/// invalidated way keeps its stale address as the model always has
/// (snapshots write it).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Way {
    word: u64,
    /// LRU stamp: larger = more recently used.
    pub(super) lru: u64,
}

/// The low bits of a way's word that are not the line's address.
const FLAGS: u64 = 0xF;
/// The prefetched mark: set for lines installed by the prefetcher and
/// not yet demanded (tracks prefetch accuracy).
const PREFETCHED: u64 = 1;
/// The state's three bits.
const STATE: u64 = 0xE;

/// The states by their code in a way's word (codes 5–7 are never
/// written).
const STATES: [LineState; 8] = [
    LineState::Invalid,
    LineState::Modified,
    LineState::Owned,
    LineState::Exclusive,
    LineState::Shared,
    LineState::Invalid,
    LineState::Invalid,
    LineState::Invalid,
];

/// `state`'s bits in a way's word.
fn code(state: LineState) -> u64 {
    let code = match state {
        LineState::Invalid => 0,
        LineState::Modified => 1,
        LineState::Owned => 2,
        LineState::Exclusive => 3,
        LineState::Shared => 4,
    };
    code << 1
}

impl Way {
    /// The reset way: tag 0, `Invalid`, LRU 0, not prefetched. A way no
    /// store has allocated stands for this one.
    pub(super) const INVALID: Way = Way { word: 0, lru: 0 };

    pub(super) fn new(addr: u64, state: LineState, prefetched: bool, lru: u64) -> Way {
        Way {
            word: addr | code(state) | prefetched as u64,
            lru,
        }
    }

    /// Whether this is the valid way of the line at byte address `key`:
    /// the address bits equal and the state not `Invalid`.
    #[inline(always)]
    pub(super) fn holds(self, key: u64) -> bool {
        (self.word ^ key).wrapping_sub(2) < FLAGS - 1
    }

    pub(super) fn is_valid(self) -> bool {
        self.word & STATE != 0
    }

    pub(super) fn addr(self) -> u64 {
        self.word & !FLAGS
    }

    pub(super) fn state(self) -> LineState {
        STATES[((self.word & STATE) >> 1) as usize]
    }

    pub(super) fn prefetched(self) -> bool {
        self.word & PREFETCHED != 0
    }

    pub(super) fn clear_prefetched(&mut self) {
        self.word &= !PREFETCHED;
    }

    pub(super) fn set_state(&mut self, state: LineState) {
        self.word = self.word & !STATE | code(state);
    }
}

/// A store of `sets` × `ways` ways, in set order, all reset when built.
/// A set whose ways the store has not allocated reads as no ways, which
/// every probe answers as it would an all-invalid set.
pub trait Ways: Clone + Debug {
    /// `sets` sets of `ways` reset ways.
    fn reset(sets: usize, ways: usize) -> Self;

    /// The ways of `set`, or none if they were never allocated.
    fn set(&self, set: usize, ways: usize) -> &[Way];

    /// The ways of `set`, or none if they were never allocated.
    fn set_mut(&mut self, set: usize, ways: usize) -> &mut [Way];

    /// The ways of `set`, allocated reset if they were not.
    fn alloc_set(&mut self, set: usize, ways: usize) -> &mut [Way];

    /// Every allocated way, a run at a time.
    fn allocated_mut(&mut self) -> impl Iterator<Item = &mut [Way]>;
}

/// One array of every way, allocated when the cache is built: the L1s,
/// which every run fills, probe it with no indirection and no branch.
#[derive(Clone, Debug)]
pub struct Flat(Vec<Way>);

impl Ways for Flat {
    fn reset(sets: usize, ways: usize) -> Self {
        Flat(vec![Way::INVALID; sets * ways])
    }

    #[inline(always)]
    fn set(&self, set: usize, ways: usize) -> &[Way] {
        &self.0[set * ways..(set + 1) * ways]
    }

    #[inline(always)]
    fn set_mut(&mut self, set: usize, ways: usize) -> &mut [Way] {
        &mut self.0[set * ways..(set + 1) * ways]
    }

    #[inline(always)]
    fn alloc_set(&mut self, set: usize, ways: usize) -> &mut [Way] {
        self.set_mut(set, ways)
    }

    fn allocated_mut(&mut self) -> impl Iterator<Item = &mut [Way]> {
        std::iter::once(&mut self.0[..])
    }
}

/// Ways per chunk: 4 KiB of 16-byte ways, 16 sets of a 16-way L2.
pub(super) const CHUNK_WAYS: usize = 256;

/// The ways in chunks of whole sets, 256 ways (4 KiB) where the set
/// size divides it, each allocated by the first fill into one of its
/// sets: the shared L2 (256 KiB – 8 MiB of lines, 16 bytes a way) costs
/// a hierarchy only the chunks a run touches.
#[derive(Clone, Debug)]
pub struct Chunked {
    /// Chunk `k` holds sets `k << shift ..`; empty until its first fill.
    pub(super) chunks: Vec<Box<[Way]>>,
    /// log2 of the sets in a chunk.
    shift: u32,
}

impl Chunked {
    /// Where `set` lies: its chunk, and its first way in the chunk.
    #[inline(always)]
    fn locate(&self, set: usize, ways: usize) -> (usize, usize) {
        (set >> self.shift, (set & ((1 << self.shift) - 1)) * ways)
    }
}

impl Ways for Chunked {
    fn reset(sets: usize, ways: usize) -> Self {
        // a power of two of whole sets, at most CHUNK_WAYS ways unless
        // one set is larger, and never more sets than the cache has
        let chunk_sets = (CHUNK_WAYS / ways).max(1);
        let shift = chunk_sets.ilog2().min(sets.ilog2());
        Chunked {
            chunks: vec![Box::default(); sets >> shift],
            shift,
        }
    }

    #[inline]
    fn set(&self, set: usize, ways: usize) -> &[Way] {
        let (chunk, at) = self.locate(set, ways);
        self.chunks[chunk].get(at..at + ways).unwrap_or_default()
    }

    #[inline]
    fn set_mut(&mut self, set: usize, ways: usize) -> &mut [Way] {
        let (chunk, at) = self.locate(set, ways);
        self.chunks[chunk]
            .get_mut(at..at + ways)
            .unwrap_or_default()
    }

    #[inline]
    fn alloc_set(&mut self, set: usize, ways: usize) -> &mut [Way] {
        let (chunk, at) = self.locate(set, ways);
        let chunk = &mut self.chunks[chunk];
        if chunk.is_empty() {
            *chunk = vec![Way::INVALID; ways << self.shift].into_boxed_slice();
        }
        &mut chunk[at..at + ways]
    }

    fn allocated_mut(&mut self) -> impl Iterator<Item = &mut [Way]> {
        self.chunks.iter_mut().map(|chunk| &mut chunk[..])
    }
}
