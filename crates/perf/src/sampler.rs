//! Interval sampling of the core and memory-system counters.
//!
//! A [`Sampler`] watches one core as an external driver steps it and
//! snapshots every counter at fixed simulated-cycle boundaries. The
//! time-series it produces holds **interval deltas**, not absolutes,
//! and obeys a conservation law by construction:
//!
//! > the field-wise sum of all interval deltas equals the final
//! > counters ([`TimeSeries::conserves`]).
//!
//! Every counter the sampler reads is monotone and every delta is the
//! difference of two successive snapshots, so the sum telescopes to
//! `final − initial` and the initial state is all-zero. The property is
//! nevertheless re-checked on random programs by the `xt-perf` property
//! suite and the `xt-check` invariant runner, because it is exactly the
//! kind of law a future refactor (a counter that resets, a skipped
//! tail interval) would break silently.
//!
//! ## Attribution-at-charge-time
//!
//! Stall attribution is frontier-based ([`xt_core::PerfCounters`]): a
//! single `charge` can cover wall-clock cycles from *before* the
//! current interval's start (a long D-cache miss charged in one call at
//! completion time). The sampler attributes each delta to the interval
//! whose boundary observation first saw it, so a per-interval top-down
//! `retiring` residue can be **negative** — the interval's stall deltas
//! can exceed its nominal cycle width when they include cycles charged
//! late. The signed per-interval sum still equals the interval's cycle
//! delta exactly (the `topdown` row of [`xt_core::laws::LAWS`]), and the
//! aggregate residue over a whole run is non-negative (conservation of
//! the underlying counters).
//!
//! The sampler is strictly read-only over the core and memory system —
//! enabling it cannot change timing; `sampling_does_not_change_timing`
//! in the property suite pins that.

use crate::topdown::TopDown;
use xt_core::laws::{self, Counters};
use xt_core::{PerfCounters, StallCause, NUM_STALL_CAUSES};
use xt_mem::MemStats;
use xt_snapshot::Stream;

/// Core-counter snapshot/delta: one value per [`PerfCounters`] field
/// the dashboard tracks, plus the per-cause stall array. The same
/// struct serves as an absolute snapshot (inside the sampler) and as an
/// interval delta (in [`IntervalSample`]); all fields are monotone
/// counters, so deltas are plain field-wise differences.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PerfDelta {
    /// Simulated cycles (nominal interval width for interior samples).
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// µops dispatched.
    pub uops: u64,
    /// Conditional branches seen.
    pub branches: u64,
    /// Conditional-branch mispredictions.
    pub branch_mispredicts: u64,
    /// Memory-order violation flushes.
    pub mem_order_flushes: u64,
    /// Store-to-load forwards.
    pub store_forwards: u64,
    /// Attributed stall cycles, indexed by `StallCause as usize`.
    pub stalls: [u64; NUM_STALL_CAUSES],
}

impl PerfDelta {
    /// Absolute snapshot of `perf` at `cycles`. The cycle count is
    /// passed separately because `PerfCounters::cycles` is only sealed
    /// at the end of a run; mid-run the core's `cycles()` accessor is
    /// the live value.
    pub fn snapshot(cycles: u64, perf: &PerfCounters) -> Self {
        let mut stalls = [0u64; NUM_STALL_CAUSES];
        for c in StallCause::ALL {
            stalls[c as usize] = perf.stall(c);
        }
        PerfDelta {
            cycles,
            instructions: perf.instructions,
            uops: perf.uops,
            branches: perf.branches,
            branch_mispredicts: perf.branch_mispredicts,
            mem_order_flushes: perf.mem_order_flushes,
            store_forwards: perf.store_forwards,
            stalls,
        }
    }

    /// Field-wise difference `self − prev` (callers guarantee
    /// monotonicity; a panic here means a counter went backwards).
    fn sub(&self, prev: &Self) -> Self {
        let mut stalls = [0u64; NUM_STALL_CAUSES];
        for (out, (a, b)) in stalls.iter_mut().zip(self.stalls.iter().zip(&prev.stalls)) {
            *out = a - b;
        }
        PerfDelta {
            cycles: self.cycles - prev.cycles,
            instructions: self.instructions - prev.instructions,
            uops: self.uops - prev.uops,
            branches: self.branches - prev.branches,
            branch_mispredicts: self.branch_mispredicts - prev.branch_mispredicts,
            mem_order_flushes: self.mem_order_flushes - prev.mem_order_flushes,
            store_forwards: self.store_forwards - prev.store_forwards,
            stalls,
        }
    }

    /// Field-wise accumulation (for [`TimeSeries::total_perf`]).
    fn add(&mut self, d: &Self) {
        self.cycles += d.cycles;
        self.instructions += d.instructions;
        self.uops += d.uops;
        self.branches += d.branches;
        self.branch_mispredicts += d.branch_mispredicts;
        self.mem_order_flushes += d.mem_order_flushes;
        self.store_forwards += d.store_forwards;
        for i in 0..NUM_STALL_CAUSES {
            self.stalls[i] += d.stalls[i];
        }
    }

    /// Instructions per cycle over this delta.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// Memory-hierarchy snapshot/delta for one core's view: its private L1
/// counters, its attributed share of shared-L2 demand, its prefetcher
/// effectiveness, and the cluster-global coherence-transition and DRAM
/// counters. Same snapshot/delta duality as [`PerfDelta`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemDelta {
    /// L1I misses.
    pub l1i_misses: u64,
    /// L1D hits.
    pub l1d_hits: u64,
    /// L1D misses.
    pub l1d_misses: u64,
    /// Shared-L2 demand hits attributed to this core.
    pub l2_hits: u64,
    /// Shared-L2 demand misses attributed to this core.
    pub l2_misses: u64,
    /// Prefetches issued by this core's engine.
    pub pf_issued: u64,
    /// Useful prefetches (demand hits on prefetched lines).
    pub pf_useful: u64,
    /// Late prefetches (demand arrived while the fill was in flight).
    pub pf_late: u64,
    /// Prefetch streams confirmed (stride locked).
    pub pf_streams: u64,
    /// Page walks.
    pub tlb_walks: u64,
    /// Coherence transitions cluster-wide (invalidations + downgrades
    /// + upgrades).
    pub coh_transitions: u64,
    /// DRAM line requests cluster-wide.
    pub dram_requests: u64,
}

impl MemDelta {
    /// Absolute snapshot of core `c`'s view of `m`.
    pub fn snapshot(c: usize, m: &MemStats) -> Self {
        let pair = |v: &[(u64, u64)]| v.get(c).copied().unwrap_or((0, 0));
        let one = |v: &[u64]| v.get(c).copied().unwrap_or(0);
        let (l1d_hits, l1d_misses) = pair(&m.l1d);
        let (_, l1i_misses) = pair(&m.l1i);
        let (l2_hits, l2_misses) = pair(&m.l2_demand);
        MemDelta {
            l1i_misses,
            l1d_hits,
            l1d_misses,
            l2_hits,
            l2_misses,
            pf_issued: one(&m.prefetches_issued),
            pf_useful: one(&m.prefetches_useful),
            pf_late: one(&m.prefetches_late),
            pf_streams: one(&m.prefetch_streams),
            tlb_walks: one(&m.tlb_walks),
            coh_transitions: m.coh_transitions(),
            dram_requests: m.dram_requests,
        }
    }

    fn sub(&self, prev: &Self) -> Self {
        MemDelta {
            l1i_misses: self.l1i_misses - prev.l1i_misses,
            l1d_hits: self.l1d_hits - prev.l1d_hits,
            l1d_misses: self.l1d_misses - prev.l1d_misses,
            l2_hits: self.l2_hits - prev.l2_hits,
            l2_misses: self.l2_misses - prev.l2_misses,
            pf_issued: self.pf_issued - prev.pf_issued,
            pf_useful: self.pf_useful - prev.pf_useful,
            pf_late: self.pf_late - prev.pf_late,
            pf_streams: self.pf_streams - prev.pf_streams,
            tlb_walks: self.tlb_walks - prev.tlb_walks,
            coh_transitions: self.coh_transitions - prev.coh_transitions,
            dram_requests: self.dram_requests - prev.dram_requests,
        }
    }

    fn add(&mut self, d: &Self) {
        self.l1i_misses += d.l1i_misses;
        self.l1d_hits += d.l1d_hits;
        self.l1d_misses += d.l1d_misses;
        self.l2_hits += d.l2_hits;
        self.l2_misses += d.l2_misses;
        self.pf_issued += d.pf_issued;
        self.pf_useful += d.pf_useful;
        self.pf_late += d.pf_late;
        self.pf_streams += d.pf_streams;
        self.tlb_walks += d.tlb_walks;
        self.coh_transitions += d.coh_transitions;
        self.dram_requests += d.dram_requests;
    }

    /// Prefetch accuracy over this delta (useful / issued).
    pub fn pf_accuracy(&self) -> f64 {
        if self.pf_issued == 0 {
            0.0
        } else {
            self.pf_useful as f64 / self.pf_issued as f64
        }
    }

    /// Prefetch coverage over this delta (useful / (useful + misses)).
    pub fn pf_coverage(&self) -> f64 {
        if self.pf_useful + self.l1d_misses == 0 {
            0.0
        } else {
            self.pf_useful as f64 / (self.pf_useful + self.l1d_misses) as f64
        }
    }

    /// L1D miss rate over this delta.
    pub fn l1d_miss_rate(&self) -> f64 {
        let total = self.l1d_hits + self.l1d_misses;
        if total == 0 {
            0.0
        } else {
            self.l1d_misses as f64 / total as f64
        }
    }
}

/// One interval of the time-series: everything that changed between
/// two successive sampling boundaries.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IntervalSample {
    /// The interval's end boundary in simulated cycles. Interior
    /// samples end at multiples of the sampling interval; the final
    /// (tail) sample ends at the run's last cycle.
    pub end_cycle: u64,
    /// Core-counter deltas.
    pub perf: PerfDelta,
    /// Memory-hierarchy deltas.
    pub mem: MemDelta,
    /// Top-down decomposition of this interval's cycles.
    pub topdown: TopDown,
}

/// The completed time-series of one sampled run.
#[derive(Clone, Debug, PartialEq)]
pub struct TimeSeries {
    /// Sampling interval in simulated cycles.
    pub interval: u64,
    /// Interval samples in time order.
    pub samples: Vec<IntervalSample>,
}

impl TimeSeries {
    /// Field-wise sum of all per-interval core deltas.
    pub fn total_perf(&self) -> PerfDelta {
        let mut t = PerfDelta::default();
        for s in &self.samples {
            t.add(&s.perf);
        }
        t
    }

    /// Field-wise sum of all per-interval memory deltas.
    pub fn total_mem(&self) -> MemDelta {
        let mut t = MemDelta::default();
        for s in &self.samples {
            t.add(&s.mem);
        }
        t
    }

    /// The conservation law: interval deltas must sum to the final
    /// counters exactly. `Err` carries a description of the first
    /// disagreeing field.
    pub fn conserves(
        &self,
        final_perf: &PerfCounters,
        final_mem: &MemStats,
        core_id: usize,
    ) -> Result<(), String> {
        let want_p = PerfDelta::snapshot(final_perf.cycles, final_perf);
        let got_p = self.total_perf();
        if got_p != want_p {
            return Err(format!(
                "perf deltas do not sum to final counters:\n  sum   {got_p:?}\n  final {want_p:?}"
            ));
        }
        let want_m = MemDelta::snapshot(core_id, final_mem);
        let got_m = self.total_mem();
        if got_m != want_m {
            return Err(format!(
                "mem deltas do not sum to final counters:\n  sum   {got_m:?}\n  final {want_m:?}"
            ));
        }
        self.samples.iter().try_for_each(|s| {
            laws::check(&(&s.perf, &s.topdown), &[laws::TOPDOWN])
                .map_err(|e| format!("interval ending at cycle {}: {e}", s.end_cycle))
        })
    }

    /// Aggregate top-down decomposition over the whole run.
    pub fn aggregate_topdown(&self) -> TopDown {
        TopDown::from_delta(&self.total_perf())
    }
}

/// Watches one core's counters and cuts the run into fixed-width
/// intervals. Drive it with [`Sampler::due`] + [`Sampler::observe`]
/// after each core step, then seal with [`Sampler::finish`]; see the
/// [module docs](self) for the semantics.
#[derive(Debug)]
pub struct Sampler {
    core_id: usize,
    interval: u64,
    next_boundary: u64,
    prev_perf: PerfDelta,
    prev_mem: MemDelta,
    samples: Vec<IntervalSample>,
}

impl Sampler {
    /// A sampler for core `core_id` with the given interval width in
    /// simulated cycles.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(core_id: usize, interval: u64) -> Self {
        assert!(interval > 0, "sampling interval must be at least one cycle");
        Sampler {
            core_id,
            interval,
            next_boundary: interval,
            prev_perf: PerfDelta::default(),
            prev_mem: MemDelta::default(),
            samples: Vec::new(),
        }
    }

    /// Cheap hot-path guard: has the core crossed the next sampling
    /// boundary? Only when this returns `true` does the driver need to
    /// collect a [`MemStats`] snapshot and call [`Self::observe`].
    pub fn due(&self, cycles: u64) -> bool {
        cycles >= self.next_boundary
    }

    /// Records every boundary the core has crossed since the last
    /// observation. The first crossed boundary carries the full delta
    /// accumulated since the previous sample; further boundaries
    /// crossed in the same observation emit zero-delta intervals (the
    /// run genuinely spent those cycles inside one long-latency event).
    pub fn observe(&mut self, cycles: u64, perf: &PerfCounters, mem: &MemStats) {
        while cycles >= self.next_boundary {
            let end = self.next_boundary;
            self.emit(end, perf, mem);
            self.next_boundary += self.interval;
        }
    }

    fn emit(&mut self, end_cycle: u64, perf: &PerfCounters, mem: &MemStats) {
        let cur_p = PerfDelta::snapshot(end_cycle, perf);
        let cur_m = MemDelta::snapshot(self.core_id, mem);
        let dp = cur_p.sub(&self.prev_perf);
        let dm = cur_m.sub(&self.prev_mem);
        let td = TopDown::from_delta(&dp);
        debug_assert_eq!(laws::check(&(&dp, &td), &[laws::TOPDOWN]), Ok(()));
        self.prev_perf = cur_p;
        self.prev_mem = cur_m;
        self.samples.push(IntervalSample {
            end_cycle,
            perf: dp,
            mem: dm,
            topdown: td,
        });
    }

    /// Seals the series with the run's final state: emits any remaining
    /// whole boundaries plus the partial tail interval, so the deltas
    /// telescope exactly to the final counters.
    pub fn finish(mut self, cycles: u64, perf: &PerfCounters, mem: &MemStats) -> TimeSeries {
        self.observe(cycles, perf, mem);
        let cur_p = PerfDelta::snapshot(cycles, perf);
        let cur_m = MemDelta::snapshot(self.core_id, mem);
        if cur_p != self.prev_perf || cur_m != self.prev_mem {
            self.emit(cycles, perf, mem);
        }
        TimeSeries {
            interval: self.interval,
            samples: self.samples,
        }
    }
}

/// An interval's `cycles`, for the `topdown` law.
impl Counters for PerfDelta {
    fn sum(&self, name: &str) -> Option<i128> {
        (name == "cycles").then_some(self.cycles.into())
    }
}

impl PerfDelta {
    /// The scalar fields in declaration order, then the stall array.
    fn transfer<S: Stream>(&mut self, s: &mut S) -> xt_snapshot::Result<()> {
        s.u64(&mut self.cycles)?;
        s.u64(&mut self.instructions)?;
        s.u64(&mut self.uops)?;
        s.u64(&mut self.branches)?;
        s.u64(&mut self.branch_mispredicts)?;
        s.u64(&mut self.mem_order_flushes)?;
        s.u64(&mut self.store_forwards)?;
        self.stalls.iter_mut().try_for_each(|v| s.u64(v))
    }
}

impl MemDelta {
    /// Every field in declaration order.
    fn transfer<S: Stream>(&mut self, s: &mut S) -> xt_snapshot::Result<()> {
        s.u64(&mut self.l1i_misses)?;
        s.u64(&mut self.l1d_hits)?;
        s.u64(&mut self.l1d_misses)?;
        s.u64(&mut self.l2_hits)?;
        s.u64(&mut self.l2_misses)?;
        s.u64(&mut self.pf_issued)?;
        s.u64(&mut self.pf_useful)?;
        s.u64(&mut self.pf_late)?;
        s.u64(&mut self.pf_streams)?;
        s.u64(&mut self.tlb_walks)?;
        s.u64(&mut self.coh_transitions)?;
        s.u64(&mut self.dram_requests)
    }
}

/// A [`Sampler`] snapshots mid-run so a resumed run's time-series is
/// byte-identical to the uninterrupted one: the previous boundary
/// observations and every emitted interval travel with the simulator
/// state. Top-down buckets are recomputed from each interval's perf
/// delta on restore (they are a pure function of it), keeping the
/// signed identity intact by construction.
impl xt_snapshot::SnapshotState for Sampler {
    fn transfer<S: Stream>(&mut self, s: &mut S) -> xt_snapshot::Result<()> {
        s.expect("sampler core id", self.core_id)?;
        s.expect("sampler interval", self.interval)?;
        s.u64(&mut self.next_boundary)?;
        self.prev_perf.transfer(s)?;
        self.prev_mem.transfer(s)?;
        s.vec(&mut self.samples, 8, |s, x| {
            s.u64(&mut x.end_cycle)?;
            x.perf.transfer(s)?;
            x.mem.transfer(s)?;
            if S::DECODING {
                x.topdown = TopDown::from_delta(&x.perf);
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perf_at(cycles: u64, insts: u64, dmiss: u64) -> PerfCounters {
        let mut p = PerfCounters::default();
        p.cycles = cycles;
        p.instructions = insts;
        p.charge(StallCause::DCacheMiss, 0, dmiss);
        p
    }

    #[test]
    fn deltas_telescope_to_final_counters() {
        let mem = MemStats::default();
        let mut s = Sampler::new(0, 100);
        s.observe(120, &perf_at(0, 40, 10), &mem);
        s.observe(250, &perf_at(0, 90, 70), &mem);
        let fin = perf_at(310, 130, 95);
        let ts = s.finish(310, &fin, &mem);
        assert_eq!(ts.samples.len(), 4, "boundaries 100,200,300 + tail 310");
        assert_eq!(ts.samples[0].end_cycle, 100);
        assert_eq!(ts.samples.last().unwrap().end_cycle, 310);
        ts.conserves(&fin, &mem, 0).expect("conservation");
        assert_eq!(ts.total_perf().instructions, 130);
    }

    #[test]
    fn late_charge_makes_interval_retiring_negative_but_sum_exact() {
        let mem = MemStats::default();
        let mut s = Sampler::new(0, 100);
        // nothing observed by the first boundary...
        s.observe(100, &perf_at(0, 1, 0), &mem);
        // ...then a 150-cycle D-cache miss charged in one call: the
        // second interval's stall delta (150) exceeds its width (100)
        let fin = perf_at(200, 2, 150);
        let ts = s.finish(200, &fin, &mem);
        let second = &ts.samples[1];
        assert_eq!(second.perf.cycles, 100);
        assert_eq!(second.perf.stalls[StallCause::DCacheMiss as usize], 150);
        assert!(second.topdown.retiring < 0, "late charge overdraws the interval");
        assert_eq!(laws::check(&(&second.perf, &second.topdown), &[laws::TOPDOWN]), Ok(()));
        ts.conserves(&fin, &mem, 0).expect("conservation still exact");
        // aggregate residue is non-negative
        assert!(ts.aggregate_topdown().retiring >= 0);
    }

    #[test]
    fn multiple_boundaries_in_one_observation_emit_zero_intervals() {
        let mem = MemStats::default();
        let s = Sampler::new(0, 10);
        let fin = perf_at(55, 7, 0);
        let ts = s.finish(55, &fin, &mem);
        // 10,20,30,40,50 nominal + 55 tail; first carries everything
        assert_eq!(ts.samples.len(), 6);
        assert_eq!(ts.samples[0].perf.instructions, 7);
        assert!(ts.samples[1..5].iter().all(|x| x.perf.instructions == 0));
        ts.conserves(&fin, &mem, 0).expect("conservation");
    }

    #[test]
    fn run_shorter_than_one_interval_is_a_single_tail() {
        let mem = MemStats::default();
        let fin = perf_at(30, 12, 4);
        let ts = Sampler::new(0, 1000).finish(30, &fin, &mem);
        assert_eq!(ts.samples.len(), 1);
        assert_eq!(ts.samples[0].end_cycle, 30);
        ts.conserves(&fin, &mem, 0).expect("conservation");
    }
}
