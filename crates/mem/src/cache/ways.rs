//! Where a [`super::Cache`] keeps its ways — a packed tag [`Word`] and a
//! 32-bit LRU stamp each: [`Flat`], one array of 16-byte [`Way`]s built
//! eagerly (the L1s), and [`Chunked`], chunks of tag words, then their
//! stamps, each allocated by the first fill into it (the shared L2).

use super::LineState;
use std::fmt::Debug;

/// A way's tag word: the line's byte address, with its MOSEI state and
/// prefetched mark packed into the low bits every line address leaves
/// free (lines are at least 16 bytes, [`crate::MemConfig::validate`]).
///
/// The word is `addr | code(state) << 1 | prefetched`, with `Invalid`
/// coded 0: the probe `holds` is one subtract and compare, and an
/// invalidated way keeps its stale address as the model always has
/// (snapshots write it).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Word(u64);

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

impl Word {
    /// The reset word: tag 0, `Invalid`, not prefetched.
    pub(super) const INVALID: Word = Word(0);

    pub(super) fn new(addr: u64, state: LineState, prefetched: bool) -> Word {
        Word(addr | code(state) | prefetched as u64)
    }

    /// Whether this is the valid way of the line at byte address `key`:
    /// the address bits equal and the state not `Invalid`.
    #[inline(always)]
    pub(super) fn holds(self, key: u64) -> bool {
        (self.0 ^ key).wrapping_sub(2) < FLAGS - 1
    }

    pub(super) fn is_valid(self) -> bool {
        self.0 & STATE != 0
    }

    pub(super) fn addr(self) -> u64 {
        self.0 & !FLAGS
    }

    pub(super) fn state(self) -> LineState {
        STATES[((self.0 & STATE) >> 1) as usize]
    }

    pub(super) fn prefetched(self) -> bool {
        self.0 & PREFETCHED != 0
    }

    pub(super) fn clear_prefetched(&mut self) {
        self.0 &= !PREFETCHED;
    }

    pub(super) fn set_state(&mut self, state: LineState) {
        self.0 = self.0 & !STATE | code(state);
    }
}

/// A way of a [`Flat`] store: its tag word and its LRU stamp (larger =
/// more recently used). At 16 bytes, padding included, a 4-way L1 set
/// is one host line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Way {
    word: Word,
    lru: u32,
}

/// A store of `sets` × `ways` ways, in set order, all reset when built:
/// each way a tag [`Word`] and a 32-bit LRU stamp. A set whose ways the
/// store has not allocated reads as no ways, which every probe answers
/// as it would an all-invalid set.
pub trait Ways: Clone + Debug {
    /// `sets` sets of `ways` reset ways.
    fn reset(sets: usize, ways: usize) -> Self;

    /// The tag words of `set`, none if it was never allocated.
    fn words(&self, set: usize, ways: usize) -> impl Iterator<Item = Word> + '_;

    /// The ways of `set`; if it was never allocated, none, or, when
    /// `alloc` holds, `ways` reset ways allocated now.
    fn set_mut(
        &mut self,
        set: usize,
        ways: usize,
        alloc: bool,
    ) -> impl Iterator<Item = (&mut Word, &mut u32)>;

    /// Every allocated way.
    fn allocated_mut(&mut self) -> impl Iterator<Item = (&mut Word, &mut u32)>;

    /// The counter value at which the stamps are renumbered.
    fn stamp_limit(&self) -> u64 {
        u32::MAX as u64
    }

    /// Replaces every stamp and `counter` by its rank among them (0
    /// stays 0: a reset way stays reset) and returns the counter's: each
    /// comparison of two stamps at or below the counter, ties included,
    /// keeps its outcome, so replacement picks the same victims.
    fn renumber(&mut self, counter: u64) -> u64 {
        let mut order: Vec<u64> = self.allocated_mut().map(|(_, &mut l)| l as u64).collect();
        order.push(counter);
        order.sort_unstable();
        order.dedup();
        let rank = |stamp: u64| match order.binary_search(&stamp) {
            Ok(r) if order[0] == 0 => r as u64,
            Ok(r) => r as u64 + 1,
            Err(_) => unreachable!("every stamp is in the order"),
        };
        for (_, lru) in self.allocated_mut() {
            *lru = rank(*lru as u64) as u32;
        }
        rank(counter)
    }
}

/// One array of every way, allocated when the cache is built: the L1s,
/// which every run fills, probe it with no indirection and no branch.
#[derive(Clone, Debug)]
pub struct Flat(Vec<Way>);

impl Ways for Flat {
    fn reset(sets: usize, ways: usize) -> Self {
        let reset = Way {
            word: Word::INVALID,
            lru: 0,
        };
        Flat(vec![reset; sets * ways])
    }

    #[inline(always)]
    fn words(&self, set: usize, ways: usize) -> impl Iterator<Item = Word> + '_ {
        self.0[set * ways..(set + 1) * ways].iter().map(|w| w.word)
    }

    #[inline(always)]
    fn set_mut(
        &mut self,
        set: usize,
        ways: usize,
        _alloc: bool,
    ) -> impl Iterator<Item = (&mut Word, &mut u32)> {
        let set = &mut self.0[set * ways..(set + 1) * ways];
        set.iter_mut().map(|w| (&mut w.word, &mut w.lru))
    }

    fn allocated_mut(&mut self) -> impl Iterator<Item = (&mut Word, &mut u32)> {
        self.0.iter_mut().map(|w| (&mut w.word, &mut w.lru))
    }
}

/// Ways per chunk: 16 sets of a 16-way L2.
pub(super) const CHUNK_WAYS: usize = 256;

/// One chunk of a [`Chunked`] store: its ways' tag words, then their
/// stamps, 12 bytes a way (3 KiB), so a 16-way probe reads two host
/// lines of tags and the stamps only on a hit or a fill.
#[derive(Clone, Debug)]
pub(super) struct Chunk {
    words: [Word; CHUNK_WAYS],
    lru: [u32; CHUNK_WAYS],
}

/// The ways in chunks of whole sets, 256 ways where the set size divides
/// it, each allocated by the first fill into one of its sets: the shared
/// L2 (256 KiB – 8 MiB of lines, 12 bytes a way) costs a hierarchy only
/// the chunks a run touches.
#[derive(Clone, Debug)]
pub struct Chunked {
    /// Chunk `k` holds sets `k << shift ..`; `None` until its first fill.
    pub(super) chunks: Vec<Option<Box<Chunk>>>,
    /// log2 of the sets in a chunk.
    shift: u32,
    /// The counter value at which the stamps are renumbered: `u32::MAX`,
    /// lowered by the unit tests that cross it.
    pub(super) limit: u64,
}

impl Chunked {
    /// Where `set` lies: its chunk, and its first way in the chunk.
    #[inline(always)]
    fn locate(&self, set: usize, ways: usize) -> (usize, usize) {
        (set >> self.shift, (set & ((1 << self.shift) - 1)) * ways)
    }
}

impl Ways for Chunked {
    /// # Panics
    ///
    /// Panics if one set has more than [`CHUNK_WAYS`] ways.
    fn reset(sets: usize, ways: usize) -> Self {
        assert!(ways <= CHUNK_WAYS, "a chunked cache set has at most {CHUNK_WAYS} ways");
        // a power of two of whole sets, at most CHUNK_WAYS ways, and
        // never more sets than the cache has
        let shift = (CHUNK_WAYS / ways).ilog2().min(sets.ilog2());
        Chunked {
            chunks: vec![None; sets >> shift],
            shift,
            limit: u32::MAX as u64,
        }
    }

    #[inline]
    fn words(&self, set: usize, ways: usize) -> impl Iterator<Item = Word> + '_ {
        let (chunk, at) = self.locate(set, ways);
        let words = self.chunks[chunk].as_ref().map(|c| &c.words[at..at + ways]);
        words.unwrap_or_default().iter().copied()
    }

    #[inline]
    fn set_mut(
        &mut self,
        set: usize,
        ways: usize,
        alloc: bool,
    ) -> impl Iterator<Item = (&mut Word, &mut u32)> {
        let (chunk, at) = self.locate(set, ways);
        let chunk = &mut self.chunks[chunk];
        if alloc && chunk.is_none() {
            *chunk = Some(Box::new(Chunk {
                words: [Word::INVALID; CHUNK_WAYS],
                lru: [0; CHUNK_WAYS],
            }));
        }
        let (words, lru): (&mut [Word], &mut [u32]) = match chunk {
            Some(c) => (&mut c.words[at..at + ways], &mut c.lru[at..at + ways]),
            None => (&mut [], &mut []),
        };
        words.iter_mut().zip(lru)
    }

    fn allocated_mut(&mut self) -> impl Iterator<Item = (&mut Word, &mut u32)> {
        let chunks = self.chunks.iter_mut().flatten();
        chunks.flat_map(|c| c.words.iter_mut().zip(c.lru.iter_mut()))
    }

    #[inline(always)]
    fn stamp_limit(&self) -> u64 {
        self.limit
    }
}
