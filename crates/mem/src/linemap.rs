//! Hash maps and sets keyed by cache-line addresses.
//!
//! Every key on [`crate::MemSystem`]'s per-access path is a line address
//! the simulator computed itself (never outside input), so SipHash's
//! collision resistance buys nothing there and its ~20 ns per lookup was
//! most of the cost of an L1D hit. [`LineHasher`] is one multiply and one
//! rotate instead.
//!
//! Iteration order of these maps is as unspecified as the default
//! hasher's: every site that iterates one sorts before the order can
//! reach a counter, an event stream or a snapshot.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` from a line address to `V`, hashed by [`LineHasher`].
pub(crate) type LineMap<V> = HashMap<u64, V, BuildHasherDefault<LineHasher>>;

/// `HashSet` of line addresses, hashed by [`LineHasher`].
pub(crate) type LineSet = HashSet<u64, BuildHasherDefault<LineHasher>>;

/// Multiplicative hasher for `u64` line addresses.
///
/// Line addresses are multiples of 64 and the hot ones differ by small
/// multiples of 64 B, 4 KiB or an L2 set stride. An odd-constant multiply
/// spreads such keys over the product's *high* half and leaves the low
/// six bits zero, but hashbrown indexes buckets with the hash's *low*
/// bits (and takes its 7 control bits from the top). Swapping the halves
/// hands the bucket index bits 32.. of the product and the control byte
/// bits 25..32, both of which vary for all three strides; xor-folding the
/// high half into the low instead lets the product's structured low bits
/// cancel part of that spread (the guard below measures both).
#[derive(Clone, Copy, Default)]
pub(crate) struct LineHasher(u64);

/// 2^64 / golden ratio, odd.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for LineHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("LineHasher hashes u64 line addresses only");
    }

    #[inline]
    fn write_u64(&mut self, line: u64) {
        self.0 = line.wrapping_mul(MULTIPLIER).rotate_left(32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// Distinct values of hashbrown's bucket index (low 12 bits: a
    /// 4096-bucket table) and of its control byte (top 7 bits) over 4096
    /// keys `base + k * stride`.
    fn spread(hash: impl Fn(u64) -> u64, stride: u64) -> (usize, usize) {
        let hashes: Vec<u64> = (0..4096u64)
            .map(|k| hash(0x9000_0000 + k * stride))
            .collect();
        let low: HashSet<u64> = hashes.iter().map(|h| h & 0xFFF).collect();
        let top: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        (low.len(), top.len())
    }

    /// Near-full: random hashing would fill 1 − 1/e ≈ 63 % of 4096
    /// buckets with 4096 keys; [`LineHasher`] fills 88–92 %.
    fn spreads_well((low, top): (usize, usize)) -> bool {
        low >= 3400 && top == 128
    }

    /// 64 B (streaming), 4 KiB (page walks, strided kernels) and 128 KiB
    /// (lines aliasing in one L2 set) strides.
    const STRIDES: [u64; 3] = [64, 4096, 128 * 1024];

    #[test]
    fn line_hasher_spreads_aligned_keys_over_index_and_control_bits() {
        let build = BuildHasherDefault::<LineHasher>::default();
        for stride in STRIDES {
            let got = spread(|k| build.hash_one(k), stride);
            assert!(spreads_well(got), "stride {stride}: (low, top) = {got:?}");
        }
    }

    /// The guard must reject what a later "simplification" would try.
    #[test]
    fn identity_bare_multiply_and_xor_fold_fail_the_spread_guard() {
        for stride in STRIDES {
            let identity = spread(|k| k, stride);
            assert!(
                !spreads_well(identity),
                "identity, stride {stride}: {identity:?}"
            );
            let bare = spread(|k| k.wrapping_mul(MULTIPLIER), stride);
            assert!(
                !spreads_well(bare),
                "bare multiply, stride {stride}: {bare:?}"
            );
        }
        // 2022 of 4096 buckets at the streaming stride: worse than random
        let m = |k: u64| k.wrapping_mul(MULTIPLIER);
        let fold = spread(|k| m(k) ^ (m(k) >> 32), 64);
        assert!(!spreads_well(fold), "xor fold, stride 64: {fold:?}");
    }
}
