//! TMA-style top-down cycle accounting.
//!
//! Maps the eight frontier-attributed [`StallCause`] counters onto the
//! classic four-level top-down tree (Yasin, ISPASS'14), adapted to what
//! a trace-driven model can attribute:
//!
//! | bucket           | stall causes                       | meaning |
//! |------------------|------------------------------------|---------|
//! | `frontend`       | `ICacheMiss`                       | fetch could not supply µops |
//! | `bad_speculation`| `MispredictFlush`, `OrderFlush`    | work thrown away + refill bubbles |
//! | `backend_core`   | `RobFull`, `IqFull`                | core windows full |
//! | `backend_memory` | `DCacheMiss`, `LsuQueueFull`       | data-side memory stalls |
//! | `vector`         | `VecBusy`                          | ready vector µops behind busy vector pipes |
//! | `retiring`       | residue: `cycles − all the above`  | useful work + shadowed stalls |
//!
//! `retiring` is **signed**: frontier-based attribution charges a
//! multi-interval wait in one call at charge time, so a single
//! interval's stall deltas can exceed its nominal cycle width (the
//! residue goes negative there and is repaid by neighbouring
//! intervals). The signed identity `sum(buckets) == cycles` holds
//! exactly for every interval, and the whole-run residue is
//! non-negative because the underlying counters conserve
//! ([`xt_core::PerfCounters::stalls_conserved`]).

use crate::sampler::PerfDelta;
use xt_core::StallCause;

/// One top-down decomposition: six buckets that sum (signed) to the
/// cycle count they decompose.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TopDown {
    /// Fetch-starved cycles (I-cache misses).
    pub frontend: u64,
    /// Mis-speculation recovery (branch mispredicts, order/exception
    /// flushes).
    pub bad_speculation: u64,
    /// Core-window back-pressure (ROB or issue queue full).
    pub backend_core: u64,
    /// Data-memory stalls (D-cache misses, LSU queues full).
    pub backend_memory: u64,
    /// Vector-unit back-pressure: ready vector µops waiting for a
    /// vector pipe or for an older op's lane-slice occupancy to drain.
    pub vector: u64,
    /// Residue: cycles not attributed to any stall — useful work plus
    /// stalls shadowed by an earlier-charged cause. Signed; see the
    /// [module docs](self).
    pub retiring: i64,
}

impl TopDown {
    /// Decomposes a cycle count given the per-cause stall array.
    pub fn from_stalls(cycles: u64, stalls: &[u64; xt_core::perf::NUM_STALL_CAUSES]) -> Self {
        let s = |c: StallCause| stalls[c as usize];
        let frontend = s(StallCause::ICacheMiss);
        let bad_speculation = s(StallCause::MispredictFlush) + s(StallCause::OrderFlush);
        let backend_core = s(StallCause::RobFull) + s(StallCause::IqFull);
        let backend_memory = s(StallCause::DCacheMiss) + s(StallCause::LsuQueueFull);
        let vector = s(StallCause::VecBusy);
        let attributed = frontend + bad_speculation + backend_core + backend_memory + vector;
        TopDown {
            frontend,
            bad_speculation,
            backend_core,
            backend_memory,
            vector,
            retiring: cycles as i64 - attributed as i64,
        }
    }

    /// Decomposes one interval delta.
    pub fn from_delta(d: &PerfDelta) -> Self {
        Self::from_stalls(d.cycles, &d.stalls)
    }

    /// The defining identity: the signed bucket sum equals the cycle
    /// count being decomposed.
    pub fn sums_to(&self, cycles: u64) -> bool {
        self.frontend as i64
            + self.bad_speculation as i64
            + self.backend_core as i64
            + self.backend_memory as i64
            + self.vector as i64
            + self.retiring
            == cycles as i64
    }

    /// Bucket shares of `cycles`, in the order frontend,
    /// bad-speculation, backend-core, backend-memory, vector, retiring.
    /// Retiring's share is clamped at 0 for display.
    pub fn shares(&self, cycles: u64) -> [f64; 6] {
        let c = cycles.max(1) as f64;
        [
            self.frontend as f64 / c,
            self.bad_speculation as f64 / c,
            self.backend_core as f64 / c,
            self.backend_memory as f64 / c,
            self.vector as f64 / c,
            (self.retiring.max(0)) as f64 / c,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_core::perf::NUM_STALL_CAUSES;

    #[test]
    fn buckets_partition_cycles() {
        let mut stalls = [0u64; NUM_STALL_CAUSES];
        stalls[StallCause::ICacheMiss as usize] = 10;
        stalls[StallCause::MispredictFlush as usize] = 5;
        stalls[StallCause::OrderFlush as usize] = 2;
        stalls[StallCause::RobFull as usize] = 7;
        stalls[StallCause::IqFull as usize] = 3;
        stalls[StallCause::DCacheMiss as usize] = 20;
        stalls[StallCause::LsuQueueFull as usize] = 1;
        stalls[StallCause::VecBusy as usize] = 4;
        let td = TopDown::from_stalls(100, &stalls);
        assert_eq!(td.frontend, 10);
        assert_eq!(td.bad_speculation, 7);
        assert_eq!(td.backend_core, 10);
        assert_eq!(td.backend_memory, 21);
        assert_eq!(td.vector, 4);
        assert_eq!(td.retiring, 48);
        assert!(td.sums_to(100));
    }

    #[test]
    fn overdrawn_interval_goes_negative_and_still_sums() {
        let mut stalls = [0u64; NUM_STALL_CAUSES];
        stalls[StallCause::DCacheMiss as usize] = 150;
        let td = TopDown::from_stalls(100, &stalls);
        assert_eq!(td.retiring, -50);
        assert!(td.sums_to(100));
        let sh = td.shares(100);
        assert_eq!(sh[5], 0.0, "display share clamps at zero");
        assert!((sh[3] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_decompose_to_zero() {
        let td = TopDown::from_stalls(0, &[0; NUM_STALL_CAUSES]);
        assert_eq!(td, TopDown::default());
        assert!(td.sums_to(0));
    }
}
