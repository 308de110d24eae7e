//! Dual-issue in-order pipeline model — the SiFive-U74-class baseline
//! the paper compares against in Fig. 17.
//!
//! The U74 is an 8-stage, dual-issue, in-order application core. The
//! model shares the front-end predictors and memory hierarchy with the
//! OoO model but issues strictly in program order: an instruction cannot
//! begin execution before its program-order predecessor has issued, and
//! operand dependencies stall the whole issue stage (scoreboarding, no
//! renaming, no speculation past unresolved stores).

use crate::config::CoreConfig;
use crate::ifu::{FrontEnd, Redirect};
use crate::perf::{PerfCounters, RunReport, StallCause};
use crate::resources::{Bandwidth, PipeGroup};
use xt_emu::DynInst;
use xt_isa::ExecClass;
use xt_mem::MemSystem;
use xt_trace::{FlushCause, FlushEvent, InstRecord, TraceBuffer, TraceSink};

/// The in-order core model.
#[derive(Debug)]
pub struct InOrderCore {
    cfg: CoreConfig,
    core_id: usize,
    fe: FrontEnd,
    fetch_cycle: u64,
    fetch_bytes: u64,
    cur_fetch_line: u64,
    issue_bw: Bandwidth,
    alu: PipeGroup,
    mdu: PipeGroup,
    fp: PipeGroup,
    agu: PipeGroup,
    reg_ready: [[u64; 32]; 3],
    /// issue must be monotonic (in-order)
    last_issue: u64,
    max_complete: u64,
    /// Flush bubble awaiting attribution (charged at the next fetch,
    /// same lazy scheme as the OoO core).
    pending_flush: Option<(u64, StallCause)>,
    /// Optional per-instruction pipeline tracer (None = zero overhead).
    tracer: Option<TraceBuffer>,
    perf: PerfCounters,
}

impl InOrderCore {
    /// Creates the baseline core.
    pub fn new(cfg: CoreConfig, core_id: usize) -> Self {
        InOrderCore {
            fe: FrontEnd::new(&cfg),
            fetch_cycle: 0,
            fetch_bytes: 0,
            cur_fetch_line: u64::MAX,
            issue_bw: Bandwidth::new(cfg.issue_width),
            alu: PipeGroup::new(2),
            mdu: PipeGroup::new(1),
            fp: PipeGroup::new(1),
            agu: PipeGroup::new(1),
            reg_ready: [[0; 32]; 3],
            last_issue: 0,
            max_complete: 0,
            pending_flush: None,
            tracer: None,
            perf: PerfCounters::default(),
            core_id,
            cfg,
        }
    }

    /// Seals the counters after the last [`Self::step`] and produces the
    /// report (see [`crate::OooCore::finish_report`]).
    pub fn finish_report(&mut self, mem: &MemSystem, exit_code: Option<u64>) -> RunReport {
        self.perf.cycles = self.max_complete.max(self.last_issue);
        let mem_stats = mem.stats();
        self.perf.prefetch_hits = mem_stats
            .prefetches_useful
            .get(self.core_id)
            .copied()
            .unwrap_or(0);
        debug_assert!(
            self.perf.stalls_conserved(),
            "stall counters double-count: attributed {} > cycles {}",
            self.perf.attributed_stall_cycles(),
            self.perf.cycles
        );
        RunReport {
            machine: self.cfg.name,
            perf: self.perf.clone(),
            mem: mem_stats,
            exit_code,
        }
    }

    /// Current cycle count (for incremental use).
    pub fn cycles(&self) -> u64 {
        self.max_complete.max(self.last_issue)
    }

    /// Performance counters (for incremental use).
    pub fn perf(&self) -> &PerfCounters {
        &self.perf
    }

    /// Attaches a fresh trace buffer: subsequent [`Self::step`] calls
    /// record one [`InstRecord`] per instruction plus flush events.
    pub fn attach_tracer(&mut self) {
        self.tracer = Some(TraceBuffer::new());
    }

    /// The attached trace buffer, if any.
    pub fn tracer(&self) -> Option<&TraceBuffer> {
        self.tracer.as_ref()
    }

    /// Detaches and returns the trace buffer (tracing stops).
    pub fn take_tracer(&mut self) -> Option<TraceBuffer> {
        self.tracer.take()
    }

    fn rf_idx(rf: xt_isa::RegFile) -> usize {
        match rf {
            xt_isa::RegFile::Int => 0,
            xt_isa::RegFile::Fp => 1,
            xt_isa::RegFile::Vec => 2,
            xt_isa::RegFile::None => 0,
        }
    }

    /// Advances the model by one committed instruction.
    pub fn step(&mut self, d: &DynInst, mem: &mut MemSystem) {
        let traits = d.inst.op.traits_of();
        let class = traits.class;
        let fo = self.fe.observe(d, class, &mut self.perf);

        // charge the flush bubble left by the previous instruction's
        // redirect (lazy scheme, see the OoO core and `perf` module docs)
        if let Some((from, cause)) = self.pending_flush.take() {
            self.perf.charge(cause, from, self.fetch_cycle);
        }

        // fetch
        let line = d.fetch_pa >> 6;
        if line != self.cur_fetch_line {
            let t = mem.icache_fetch(self.core_id, self.fetch_cycle, d.fetch_pa);
            if t > self.fetch_cycle {
                self.perf.charge(StallCause::ICacheMiss, self.fetch_cycle, t);
                self.fetch_cycle = t;
                self.fetch_bytes = 0;
            }
            self.cur_fetch_line = line;
        }
        if self.fetch_bytes + d.inst.len as u64 > self.cfg.fetch_bytes {
            self.fetch_cycle += 1;
            self.fetch_bytes = 0;
        }
        self.fetch_bytes += d.inst.len as u64;
        let fetched = self.fetch_cycle;

        // in-order issue: operands must be ready, and issue is monotonic
        let mut ready = self.fetch_cycle + 1;
        for (rf, idx) in d.inst.sources_of(traits) {
            if rf != xt_isa::RegFile::None {
                ready = ready.max(self.reg_ready[Self::rf_idx(rf)][idx as usize]);
            }
        }
        ready = ready.max(self.last_issue);
        let issue = self.issue_bw.take(ready);
        self.last_issue = issue;
        // a stalled issue stage also stalls fetch eventually
        if issue > self.fetch_cycle + 8 {
            self.fetch_cycle = issue - 8;
            self.fetch_bytes = 0;
        }

        let lat = self.cfg.lat;
        let complete = match class {
            ExecClass::Alu => self.alu.issue(issue, 1) + lat.alu,
            ExecClass::Mul => self.mdu.issue(issue, 1) + lat.mul,
            ExecClass::Div => self.mdu.issue(issue, lat.div) + lat.div,
            ExecClass::Branch | ExecClass::Jump | ExecClass::JumpInd => {
                self.alu.issue(issue, 1) + lat.alu
            }
            ExecClass::Load | ExecClass::VecLoad | ExecClass::Amo => {
                let m = d.mem.expect("load accesses memory");
                let start = self.agu.issue(issue, 1) + lat.agu;
                let t = mem.dload(self.core_id, start, m.vaddr, m.paddr);
                let hit_by = start + mem.config().l1_hit;
                if t > hit_by {
                    self.perf.charge(StallCause::DCacheMiss, hit_by, t);
                }
                t
            }
            ExecClass::Store | ExecClass::VecStore => {
                let m = d.mem.expect("store accesses memory");
                let start = self.agu.issue(issue, 1) + lat.agu;
                // in-order cores retire stores through a small buffer;
                // the store itself doesn't stall dependents
                let _ = mem.dstore(self.core_id, start, m.vaddr, m.paddr);
                start + 1
            }
            ExecClass::Fence | ExecClass::Csr | ExecClass::System | ExecClass::CacheOp => {
                let done = issue.max(self.max_complete) + lat.csr;
                self.last_issue = done;
                done
            }
            ExecClass::VSet => self.alu.issue(issue, 1) + lat.alu,
            ExecClass::VecAlu | ExecClass::VecFAdd => self.fp.issue(issue, 1) + lat.valu,
            ExecClass::VecMul => self.fp.issue(issue, 1) + lat.vfmul,
            ExecClass::VecDiv => self.fp.issue(issue, lat.vdiv) + lat.vdiv,
            ExecClass::VecPerm => self.fp.issue(issue, 2) + lat.vperm,
            // scalar FP on the single FP pipe
            ExecClass::FpAdd => self.fp.issue(issue, 1) + lat.fadd,
            ExecClass::FpMul => self.fp.issue(issue, 1) + lat.fmul,
            ExecClass::FpDiv => self.fp.issue(issue, lat.fdiv) + lat.fdiv,
            ExecClass::FpCvt => self.fp.issue(issue, 1) + lat.fcvt,
        };

        if let Some((rf, idx)) = d.inst.dest_of(traits) {
            self.reg_ready[Self::rf_idx(rf)][idx as usize] = complete;
        }
        self.max_complete = self.max_complete.max(complete);
        self.perf.instructions += 1;
        self.perf.uops += 1;

        // trace record (only when a tracer is attached). The U74-class
        // baseline is 8-deep; the record still uses the 13 XT-910 slots
        // with the shorter pipe's stages collapsed (docs/PIPELINE.md).
        if let Some(tracer) = self.tracer.as_mut() {
            let ex1 = issue;
            let ex4 = issue.max(complete.saturating_sub(1));
            let span = ex4 - ex1;
            let rec = InstRecord::new(
                self.perf.instructions - 1,
                d.pc,
                xt_isa::disasm::disasm(&d.inst),
                [
                    fetched,
                    fetched,
                    fetched,
                    fetched + 1,
                    fetched + 1,
                    fetched + 1,
                    ready,
                    ex1,
                    ex1 + span / 3,
                    ex1 + 2 * span / 3,
                    ex4,
                    complete,
                    complete,
                ],
            );
            tracer.record(rec);
        }

        // redirects
        if d.trapped {
            self.perf.exception_flushes += 1;
            self.pending_flush = Some((self.fetch_cycle, StallCause::OrderFlush));
            if let Some(t) = self.tracer.as_mut() {
                t.flush_event(FlushEvent {
                    cycle: complete,
                    pc: d.pc,
                    cause: FlushCause::Exception,
                });
            }
            self.fetch_cycle = self.fetch_cycle.max(complete + self.cfg.flush_penalty);
            self.fetch_bytes = 0;
            self.cur_fetch_line = u64::MAX;
        } else {
            match fo.redirect {
                Redirect::None => {}
                Redirect::TakenAtIf => {
                    self.fetch_cycle += 1;
                    self.fetch_bytes = 0;
                    self.issue_bw.break_group();
                }
                Redirect::TakenAtIp => {
                    self.fetch_cycle += 1 + self.cfg.ip_jump_bubble;
                    self.fetch_bytes = 0;
                    self.issue_bw.break_group();
                }
                Redirect::Mispredict => {
                    self.pending_flush = Some((self.fetch_cycle, StallCause::MispredictFlush));
                    if let Some(t) = self.tracer.as_mut() {
                        t.flush_event(FlushEvent {
                            cycle: complete,
                            pc: d.pc,
                            cause: FlushCause::Mispredict,
                        });
                    }
                    self.fetch_cycle = self.fetch_cycle.max(complete + self.cfg.mispredict_penalty);
                    self.fetch_bytes = 0;
                    self.cur_fetch_line = u64::MAX;
                }
            }
        }
    }
}

impl xt_snapshot::SnapshotState for InOrderCore {
    /// Same discipline as the OoO core: configuration is checked, not
    /// overwritten; all dynamic state round-trips.
    fn save(&self, e: &mut xt_snapshot::Enc) {
        e.str(self.cfg.name);
        e.usize(self.core_id);
        self.fe.save(e);
        e.u64(self.fetch_cycle);
        e.u64(self.fetch_bytes);
        e.u64(self.cur_fetch_line);
        self.issue_bw.save(e);
        self.alu.save(e);
        self.mdu.save(e);
        self.fp.save(e);
        self.agu.save(e);
        for file in &self.reg_ready {
            e.u64_seq(file);
        }
        e.u64(self.last_issue);
        e.u64(self.max_complete);
        crate::perf::save_pending_flush(e, self.pending_flush);
        crate::perf::save_opt_tracer(e, self.tracer.as_ref());
        self.perf.save(e);
    }

    fn restore(&mut self, d: &mut xt_snapshot::Dec) -> xt_snapshot::Result<()> {
        if d.string()? != self.cfg.name {
            return Err(xt_snapshot::SnapshotError::Mismatch {
                what: "core config name",
            });
        }
        if d.usize()? != self.core_id {
            return Err(xt_snapshot::SnapshotError::Mismatch { what: "core id" });
        }
        self.fe.restore(d)?;
        self.fetch_cycle = d.u64()?;
        self.fetch_bytes = d.u64()?;
        self.cur_fetch_line = d.u64()?;
        self.issue_bw.restore(d)?;
        self.alu.restore(d)?;
        self.mdu.restore(d)?;
        self.fp.restore(d)?;
        self.agu.restore(d)?;
        for file in &mut self.reg_ready {
            let v = d.u64_seq()?;
            if v.len() != file.len() {
                return Err(xt_snapshot::SnapshotError::Corrupt {
                    what: "scoreboard size",
                });
            }
            file.copy_from_slice(&v);
        }
        self.last_issue = d.u64()?;
        self.max_complete = d.u64()?;
        self.pending_flush = crate::perf::restore_pending_flush(d)?;
        self.tracer = crate::perf::restore_opt_tracer(d)?;
        self.perf.restore(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_asm::Asm;
    use xt_isa::reg::Gpr;

    fn run(cfg: CoreConfig, build: impl FnOnce(&mut Asm)) -> RunReport {
        let mut a = Asm::new();
        build(&mut a);
        a.halt();
        let p = a.finish().unwrap();
        crate::InOrderSession::new(&p, &cfg, 10_000_000).run_to_end()
    }

    #[test]
    fn dual_issue_caps_at_two() {
        let r = run(CoreConfig::u74_like(), |a| {
            a.li(Gpr::S0, 1000);
            let top = a.here();
            a.addi(Gpr::A1, Gpr::A1, 1);
            a.addi(Gpr::A2, Gpr::A2, 1);
            a.addi(Gpr::A3, Gpr::A3, 1);
            a.addi(Gpr::A4, Gpr::A4, 1);
            a.addi(Gpr::A5, Gpr::A5, 1);
            a.addi(Gpr::S0, Gpr::S0, -1);
            a.bnez(Gpr::S0, top);
        });
        let ipc = r.perf.ipc();
        assert!(ipc <= 2.05, "dual issue bound: {ipc}");
        assert!(ipc > 1.2, "independent ops should dual-issue: {ipc}");
    }

    #[test]
    fn inorder_slower_than_ooo_on_ilp_code() {
        let build = |a: &mut Asm| {
            // loads hide under OoO but stall an in-order pipe
            let buf = a.data_zeros("buf", 4096);
            a.la(Gpr::S0, buf);
            a.li(Gpr::A3, 500);
            let top = a.here();
            a.ld(Gpr::T0, Gpr::S0, 0);
            a.addi(Gpr::T0, Gpr::T0, 1);
            a.ld(Gpr::T1, Gpr::S0, 8);
            a.addi(Gpr::T1, Gpr::T1, 1);
            a.add(Gpr::A1, Gpr::T0, Gpr::T1);
            a.addi(Gpr::A3, Gpr::A3, -1);
            a.bnez(Gpr::A3, top);
        };
        let mut a1 = Asm::new();
        build(&mut a1);
        a1.halt();
        let p = a1.finish().unwrap();
        let ooo = crate::OooSession::new(&p, &CoreConfig::xt910(), 10_000_000).run_to_end();
        let ino = crate::InOrderSession::new(&p, &CoreConfig::u74_like(), 10_000_000).run_to_end();
        assert!(
            ooo.perf.cycles < ino.perf.cycles,
            "OoO {} vs in-order {}",
            ooo.perf.cycles,
            ino.perf.cycles
        );
    }
}
