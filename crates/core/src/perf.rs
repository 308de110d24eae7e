//! Performance counters, per-cause stall attribution, and run reports.
//!
//! ## Stall accounting (the conservation property)
//!
//! The timing models attribute lost wall-clock cycles to a
//! [`StallCause`] through [`PerfCounters::charge`]. Attribution is
//! **frontier-based**: the counters keep a private high-water mark of
//! wall-clock cycles already attributed, and a charge only counts the
//! part of its `[from, to)` interval that lies beyond the frontier.
//! Overlapping waits — several in-flight instructions stuck behind the
//! same full ROB, a D-cache miss shadowing an I-cache miss — are
//! therefore charged exactly once, to the cause that reached the cycles
//! first ("first blocker wins"). Two consequences:
//!
//! * **conservation** — `sum(stall(c) for c) ≤ cycles` holds for every
//!   program, provided every charge's `to` endpoint is a cycle some
//!   instruction is still in flight at (the models only charge
//!   endpoints bounded by a completion or retirement cycle). It is the
//!   `stall_budget` row of [`crate::laws::LAWS`]; docs/OBSERVABILITY.md
//!   ("Conservation laws") lists where it is evaluated.
//! * **under-attribution is possible** — a cause fully shadowed by an
//!   earlier-charged cause records nothing. The *unattributed* residue
//!   `cycles - attributed_stall_cycles()` is useful work plus shadowed
//!   stalls, not an error term.
//!
//! The stall counters are deliberately **not** public fields: arbitrary
//! writes could violate conservation silently. All mutation funnels
//! through [`PerfCounters::charge`], which maintains the invariant by
//! construction; the law is still evaluated so that a bookkeeping
//! regression is caught.

use xt_mem::MemStats;

/// Causes a wall-clock cycle can be attributed to when the pipeline is
/// not retiring at full width. See the module docs for the accounting
/// discipline; `docs/PIPELINE.md` maps each cause to the pipeline stage
/// where it is charged.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum StallCause {
    /// Dispatch waited for a re-order-buffer entry (§IV).
    #[default]
    RobFull = 0,
    /// Dispatch waited for an issue-queue slot (§IV).
    IqFull = 1,
    /// A memory µop waited for a load-queue / store-queue entry (§V-A).
    LsuQueueFull = 2,
    /// Fetch waited on an instruction-cache miss.
    ICacheMiss = 3,
    /// A load's dependents waited beyond the L1 load-to-use latency
    /// (D-cache/TLB miss service time).
    DCacheMiss = 4,
    /// Front-end refill bubble after a branch or indirect-target
    /// misprediction (resolved at the branch-jump unit, §III-A).
    MispredictFlush = 5,
    /// Front-end refill bubble after a memory-order violation or
    /// exception flush (§V-A, Fig. 8).
    OrderFlush = 6,
    /// A ready vector µop waited for a vector execution pipe or for
    /// lane-slice occupancy of an older vector op to drain (§VII).
    VecBusy = 7,
}

/// Number of stall causes.
pub const NUM_STALL_CAUSES: usize = 8;

impl StallCause {
    /// All causes, in charge-priority order (and snapshot tag order).
    pub const ALL: [StallCause; NUM_STALL_CAUSES] = [
        StallCause::RobFull,
        StallCause::IqFull,
        StallCause::LsuQueueFull,
        StallCause::ICacheMiss,
        StallCause::DCacheMiss,
        StallCause::MispredictFlush,
        StallCause::OrderFlush,
        StallCause::VecBusy,
    ];

    /// Stable snake_case name (used in JSON reports).
    pub fn name(self) -> &'static str {
        match self {
            StallCause::RobFull => "rob_full",
            StallCause::IqFull => "iq_full",
            StallCause::LsuQueueFull => "lsu_queue_full",
            StallCause::ICacheMiss => "icache_miss",
            StallCause::DCacheMiss => "dcache_miss",
            StallCause::MispredictFlush => "mispredict_flush",
            StallCause::OrderFlush => "order_flush",
            StallCause::VecBusy => "vec_busy",
        }
    }
}

/// Hardware-style performance counters maintained by the timing models.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// µops dispatched (stores split into st.addr/st.data count as 2).
    pub uops: u64,
    /// Conditional branches seen.
    pub branches: u64,
    /// Conditional-branch direction mispredictions.
    pub branch_mispredicts: u64,
    /// Taken control transfers whose target came from the L0 BTB
    /// (zero-bubble IF-stage jumps).
    pub l0_btb_jumps: u64,
    /// Taken control transfers redirected at the IP stage (1-bubble).
    pub ip_jumps: u64,
    /// Indirect-target / RAS mispredictions.
    pub target_mispredicts: u64,
    /// Instructions delivered from the loop buffer (no I$ access).
    pub lbuf_insts: u64,
    /// Memory-order violations (load before conflicting older store).
    pub mem_order_flushes: u64,
    /// Loads that received forwarded store data.
    pub store_forwards: u64,
    /// Pipeline flushes due to exceptions/traps.
    pub exception_flushes: u64,
    /// Useful prefetches: demand hits on prefetched lines, copied from
    /// the memory system at the end of a run.
    pub prefetch_hits: u64,
    /// Attributed stall cycles, indexed by `StallCause as usize`.
    /// Private: mutate only through [`Self::charge`] (see module docs).
    stall: [u64; NUM_STALL_CAUSES],
    /// Wall-clock high-water mark of cycles already attributed to some
    /// stall cause; makes overlapping waits charge at most once.
    frontier: u64,
}

impl PerfCounters {
    /// Attributes the wall-clock interval `[from, to)` to `cause`,
    /// counting only the part beyond the attribution frontier. Callers
    /// must only pass `to` endpoints bounded by a cycle the program is
    /// still executing at (a completion/retire/fetch cycle of some
    /// instruction) — that is what makes conservation a theorem rather
    /// than a hope.
    pub fn charge(&mut self, cause: StallCause, from: u64, to: u64) {
        let start = from.max(self.frontier);
        if to > start {
            self.stall[cause as usize] += to - start;
            self.frontier = to;
        }
    }

    /// Attributed stall cycles for one cause.
    pub fn stall(&self, cause: StallCause) -> u64 {
        self.stall[cause as usize]
    }

    /// Cycles lost waiting on a full ROB.
    pub fn rob_stall_cycles(&self) -> u64 {
        self.stall(StallCause::RobFull)
    }

    /// Cycles lost waiting on issue-queue space.
    pub fn iq_stall_cycles(&self) -> u64 {
        self.stall(StallCause::IqFull)
    }

    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }

    /// Conditional-branch misprediction rate.
    pub fn branch_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.branch_mispredicts as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Direction-prediction accuracy over conditional branches.
    pub fn branch_accuracy(&self) -> f64 {
        if self.branches == 0 {
            1.0
        } else {
            1.0 - self.branch_mispredicts as f64 / self.branches as f64
        }
    }

    /// Wall-clock cycles attributed to any stall cause.
    pub fn attributed_stall_cycles(&self) -> u64 {
        self.stall.iter().sum()
    }
}

impl xt_snapshot::SnapshotState for PerfCounters {
    fn transfer<S: xt_snapshot::Stream>(&mut self, s: &mut S) -> xt_snapshot::Result<()> {
        s.u64(&mut self.cycles)?;
        s.u64(&mut self.instructions)?;
        s.u64(&mut self.uops)?;
        s.u64(&mut self.branches)?;
        s.u64(&mut self.branch_mispredicts)?;
        s.u64(&mut self.l0_btb_jumps)?;
        s.u64(&mut self.ip_jumps)?;
        s.u64(&mut self.target_mispredicts)?;
        s.u64(&mut self.lbuf_insts)?;
        s.u64(&mut self.mem_order_flushes)?;
        s.u64(&mut self.store_forwards)?;
        s.u64(&mut self.exception_flushes)?;
        s.u64(&mut self.prefetch_hits)?;
        let count = xt_snapshot::SnapshotError::Corrupt {
            what: "stall cause count",
        };
        s.fixed(&mut self.stall, count, S::u64)?;
        s.u64(&mut self.frontier)
    }
}

/// Result of running one program on one core model.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Machine name (from the configuration).
    pub machine: &'static str,
    /// Core counters.
    pub perf: PerfCounters,
    /// Memory-hierarchy counters.
    pub mem: MemStats,
    /// Guest exit code, if the program halted.
    pub exit_code: Option<u64>,
}

impl RunReport {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} insts, {} cycles, IPC {:.3}, br-acc {:.2}%, L1D-miss {}",
            self.machine,
            self.perf.instructions,
            self.perf.cycles,
            self.perf.ipc(),
            self.perf.branch_accuracy() * 100.0,
            self.mem.l1d.first().map(|(_, m)| *m).unwrap_or(0),
        )
    }

    /// Multi-line per-cause stall breakdown (cycles and share of total),
    /// ending with the unattributed residue.
    pub fn stall_breakdown(&self) -> String {
        let total = self.perf.cycles.max(1);
        let mut out = String::new();
        for cause in StallCause::ALL {
            let c = self.perf.stall(cause);
            out.push_str(&format!(
                "  {:<16} {:>12} cycles ({:>5.1}%)\n",
                cause.name(),
                c,
                c as f64 * 100.0 / total as f64
            ));
        }
        let attr = self.perf.attributed_stall_cycles();
        out.push_str(&format!(
            "  {:<16} {:>12} cycles ({:>5.1}%)",
            "unattributed",
            self.perf.cycles - attr,
            (self.perf.cycles - attr) as f64 * 100.0 / total as f64
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laws::{check, STALL_BUDGET};

    #[test]
    fn rates_handle_zero() {
        let p = PerfCounters::default();
        assert_eq!(p.ipc(), 0.0);
        assert_eq!(p.cpi(), 0.0);
        assert_eq!(p.branch_accuracy(), 1.0);
    }

    #[test]
    fn charge_respects_frontier() {
        let mut p = PerfCounters {
            cycles: 100,
            ..Default::default()
        };
        p.charge(StallCause::RobFull, 10, 40);
        assert_eq!(p.rob_stall_cycles(), 30);
        // overlapping interval: only the part past the frontier counts
        p.charge(StallCause::IqFull, 20, 50);
        assert_eq!(p.iq_stall_cycles(), 10);
        // fully shadowed interval: charges nothing
        p.charge(StallCause::DCacheMiss, 0, 45);
        assert_eq!(p.stall(StallCause::DCacheMiss), 0);
        assert_eq!(p.attributed_stall_cycles(), 40);
        assert_eq!(check(&p, &[STALL_BUDGET]), Ok(()));
    }

    #[test]
    fn charge_can_never_violate_conservation() {
        // charge() is conservation-by-construction: wildly overlapping
        // charges to every cause still sum to the covered wall-clock span
        let mut p = PerfCounters {
            cycles: 1000,
            ..Default::default()
        };
        for k in 0..200u64 {
            let cause = StallCause::ALL[(k as usize) % NUM_STALL_CAUSES];
            p.charge(cause, k * 3, k * 3 + 40); // heavily overlapping
        }
        assert!(p.attributed_stall_cycles() <= 200 * 3 + 40);
        assert_eq!(check(&p, &[STALL_BUDGET]), Ok(()));
    }

    #[test]
    fn ipc_math() {
        let p = PerfCounters {
            cycles: 100,
            instructions: 250,
            ..Default::default()
        };
        assert!((p.ipc() - 2.5).abs() < 1e-9);
        assert!((p.cpi() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn cause_names_are_stable() {
        assert_eq!(StallCause::ALL.len(), NUM_STALL_CAUSES);
        let names: Vec<&str> = StallCause::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            [
                "rob_full",
                "iq_full",
                "lsu_queue_full",
                "icache_miss",
                "dcache_miss",
                "mispredict_flush",
                "order_flush",
                "vec_busy"
            ]
        );
    }

    #[test]
    fn breakdown_renders_every_cause() {
        let mut p = PerfCounters {
            cycles: 50,
            instructions: 10,
            ..Default::default()
        };
        p.charge(StallCause::DCacheMiss, 0, 20);
        let r = RunReport {
            machine: "test",
            perf: p,
            mem: MemStats::default(),
            exit_code: Some(0),
        };
        let b = r.stall_breakdown();
        for cause in StallCause::ALL {
            assert!(b.contains(cause.name()), "missing {}", cause.name());
        }
        assert!(b.contains("unattributed"));
    }
}
