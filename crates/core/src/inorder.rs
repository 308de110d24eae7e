//! Dual-issue in-order pipeline model — the SiFive-U74-class baseline
//! the paper compares against in Fig. 17.
//!
//! The U74 is an 8-stage, dual-issue, in-order application core. The
//! model shares the front-end predictors, the fetch/redirect shell and
//! the memory hierarchy with the OoO model but issues strictly in
//! program order: an instruction cannot begin execution before its
//! program-order predecessor has issued, and operand dependencies stall
//! the whole issue stage (scoreboarding, no renaming, no speculation
//! past unresolved stores).

use crate::config::CoreConfig;
use crate::ifu::FrontEnd;
use crate::perf::{PerfCounters, RunReport, StallCause};
use crate::resources::{Bandwidth, PipeGroup};
use crate::session::CoreModel;
use crate::shell::{file_index, sew_of, Shell};
use xt_emu::DynInst;
use xt_isa::ExecClass;
use xt_mem::MemSystem;
use xt_snapshot::Stream;
use xt_trace::TraceBuffer;

/// Cycles fetch may run ahead of a stalled issue stage.
const ISSUE_TO_FETCH: u64 = 8;

/// The in-order core model.
#[derive(Debug)]
pub struct InOrderCore {
    cfg: CoreConfig,
    core_id: usize,
    fe: FrontEnd,
    shell: Shell,
    issue_bw: Bandwidth,
    alu: PipeGroup,
    mdu: PipeGroup,
    fp: PipeGroup,
    agu: PipeGroup,
    reg_ready: [[u64; 32]; 3],
    /// issue must be monotonic (in-order)
    last_issue: u64,
    max_complete: u64,
}

impl InOrderCore {
    /// Creates the baseline core.
    pub fn new(cfg: CoreConfig, core_id: usize) -> Self {
        InOrderCore {
            fe: FrontEnd::new(&cfg),
            shell: Shell::new(),
            issue_bw: Bandwidth::new(cfg.issue_width),
            alu: PipeGroup::new(2),
            mdu: PipeGroup::new(1),
            fp: PipeGroup::new(1),
            agu: PipeGroup::new(1),
            reg_ready: [[0; 32]; 3],
            last_issue: 0,
            max_complete: 0,
            core_id,
            cfg,
        }
    }
}

impl CoreModel for InOrderCore {
    fn new_core(cfg: CoreConfig, core_id: usize) -> Self {
        InOrderCore::new(cfg, core_id)
    }

    fn report(&mut self, mem: &MemSystem, exit_code: Option<u64>) -> RunReport {
        let cycles = self.cycles();
        self.shell.report(cycles, mem, self.core_id, self.cfg.name, exit_code)
    }

    fn cycles(&self) -> u64 {
        self.max_complete.max(self.last_issue)
    }

    fn perf(&self) -> &PerfCounters {
        &self.shell.perf
    }

    fn attach_tracer(&mut self) {
        self.shell.tracer = Some(TraceBuffer::new());
    }

    fn take_tracer(&mut self) -> Option<TraceBuffer> {
        self.shell.tracer.take()
    }

    fn step_inst(&mut self, d: &DynInst, mem: &mut MemSystem) {
        let traits = d.inst.op.traits_of();
        let class = traits.class;
        let fo = self.fe.observe(d, class, &mut self.shell.perf);
        // the baseline has no loop buffer to stream from
        let fetched = self.shell.fetch(d, mem, self.core_id, self.cfg.fetch_bytes, false);

        // in-order issue: operands must be ready, and issue is monotonic
        let mut ready = fetched + 1;
        for (rf, idx) in d.inst.sources_of(traits) {
            if rf != xt_isa::RegFile::None {
                ready = ready.max(self.reg_ready[file_index(rf)][idx as usize]);
            }
        }
        ready = ready.max(self.last_issue);
        let issue = self.issue_bw.take(ready);
        self.last_issue = issue;
        // a stalled issue stage also stalls fetch eventually
        self.shell.hold_fetch(issue, ISSUE_TO_FETCH);

        let lat = self.cfg.lat;
        let complete = match class {
            // a trapped access executed nothing and reached no memory:
            // its fault resolves at address generation
            ExecClass::Load
            | ExecClass::VecLoad
            | ExecClass::Amo
            | ExecClass::Store
            | ExecClass::VecStore
                if d.mem.is_none() =>
            {
                self.agu.issue(issue, 1) + lat.agu
            }
            ExecClass::Load | ExecClass::VecLoad | ExecClass::Amo => {
                let m = d.mem.expect("load accesses memory");
                let start = self.agu.issue(issue, 1) + lat.agu;
                let t = mem.dload(self.core_id, start, m.vaddr, m.paddr);
                let hit_by = start + mem.config().l1_hit;
                if t > hit_by {
                    self.shell.perf.charge(StallCause::DCacheMiss, hit_by, t);
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
                Shell::cache_op(d, mem, self.core_id);
                let done = issue.max(self.max_complete) + lat.csr;
                self.last_issue = done;
                done
            }
            // the XT-910's §VII table on the single FP/vector pipe, at
            // the default geometry, which this core's frame does not carry
            ExecClass::VecAlu
            | ExecClass::VecFAdd
            | ExecClass::VecMul
            | ExecClass::VecDiv
            | ExecClass::VecPerm => {
                let geometry = xt_vector::VectorConfig::default();
                let plan = xt_vector::VecPlan::crack(&geometry, d.inst.op, d.vl as u64, sew_of(d));
                let start = self.fp.issue(issue, plan.occupancy);
                // an issued vector op held back by its busy pipe is a
                // vector-unit stall, as on the OoO core
                self.shell.perf.charge(StallCause::VecBusy, issue, start);
                plan.last_done(start)
            }
            // the rest runs on a scalar pipe, scalar FP on the single FP pipe
            _ => {
                let (occupancy, latency) = lat.scalar(class).expect("a scalar pipe class");
                let pipe = match class {
                    ExecClass::Mul | ExecClass::Div => &mut self.mdu,
                    ExecClass::FpAdd | ExecClass::FpMul | ExecClass::FpDiv | ExecClass::FpCvt => {
                        &mut self.fp
                    }
                    _ => &mut self.alu,
                };
                pipe.issue(issue, occupancy) + latency
            }
        };

        if let Some((rf, idx)) = d.inst.dest_of(traits) {
            self.reg_ready[file_index(rf)][idx as usize] = complete;
        }
        self.max_complete = self.max_complete.max(complete);
        self.shell.perf.instructions += 1;
        self.shell.perf.uops += 1;

        // The U74-class baseline is 8-deep; the record still uses the 13
        // XT-910 slots with the shorter pipe's stages collapsed: ID, IR
        // and IS one cycle after fetch, retirement at completion
        // (docs/PIPELINE.md).
        let id = fetched + 1;
        self.shell.record(d, [fetched, id, id, id], ready, issue, complete, complete);

        // no load speculates past a store here, and no loop buffer streams
        if self.shell.redirect(d, complete, &self.cfg, false, fo.redirect, false) {
            self.issue_bw.break_group();
        }
    }
}

impl xt_snapshot::SnapshotState for InOrderCore {
    /// Same discipline as the OoO core: configuration is checked, not
    /// overwritten; all dynamic state round-trips.
    fn transfer<S: Stream>(&mut self, s: &mut S) -> xt_snapshot::Result<()> {
        s.expect("core config name", self.cfg.name.to_string())?;
        s.expect("core id", self.core_id)?;
        self.fe.transfer(s)?;
        self.shell.transfer_fetch(s)?;
        self.issue_bw.transfer(s)?;
        for p in [&mut self.alu, &mut self.mdu, &mut self.fp, &mut self.agu] {
            p.transfer(s)?;
        }
        let size = xt_snapshot::SnapshotError::Corrupt {
            what: "scoreboard size",
        };
        for file in &mut self.reg_ready {
            s.fixed(file, size, S::u64)?;
        }
        s.u64(&mut self.last_issue)?;
        s.u64(&mut self.max_complete)?;
        self.shell.transfer_flush(s)?;
        self.shell.perf.transfer(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_asm::Asm;
    use xt_isa::reg::Gpr;
    use xt_isa::vector::Sew;
    use xt_isa::{Inst, Op};
    use xt_trace::Stage;
    use xt_vector::{VecPlan, VectorConfig};

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

    /// A vector op takes the one §VII table on this core too: a divide
    /// completes at `VecPlan::crack(..).last_done(issue)`, as on the OoO
    /// core, so its latency follows the element width.
    #[test]
    fn vector_divide_follows_the_vector_latency_table() {
        let widths = [Sew::E8, Sew::E64];
        let mut a = Asm::new();
        a.li(Gpr::A1, 2);
        for sew in widths {
            a.vsetvli(Gpr::T1, Gpr::A1, sew, 1);
            // each divide reads the last one's result: the pipe is free
            a.push(Inst::new(Op::VdivVV).rd(3).rs1(3).rs2(1));
        }
        a.halt();
        let p = a.finish().unwrap();
        let cfg = CoreConfig::u74_like();
        let (_, trace) = crate::InOrderSession::new(&p, &cfg, 1000).run_traced();
        // cycles from issue (EX1) to completion (RT1) of each divide
        let done: Vec<u64> = trace
            .records()
            .iter()
            .filter(|r| r.disasm.starts_with("vdiv.vv"))
            .map(|r| r.enter(Stage::Rt1) - r.enter(Stage::Ex1))
            .collect();
        assert_eq!(done.len(), widths.len());
        for (k, sew) in widths.into_iter().enumerate() {
            // vl = 2 at both widths
            let plan = VecPlan::crack(&VectorConfig::default(), Op::VdivVV, 2, sew);
            assert_eq!(done[k], plan.last_done(0), "{sew:?}");
        }
        assert_ne!(done[0], done[1], "the divide's latency follows SEW");
    }

    /// Two independent `vdiv.vv` at e64, back to back: the second waits
    /// for the one FP/vector pipe the first holds, exactly that wait is
    /// charged to `VecBusy`, and the stall budget and the memory laws
    /// still hold.
    #[test]
    fn a_vector_op_waiting_for_its_busy_pipe_is_charged_to_vec_busy() {
        let mut a = Asm::new();
        a.li(Gpr::A1, 2);
        a.vsetvli(Gpr::T1, Gpr::A1, Sew::E64, 1);
        a.push(Inst::new(Op::VdivVV).rd(3).rs1(1).rs2(2));
        a.push(Inst::new(Op::VdivVV).rd(4).rs1(1).rs2(2));
        a.halt();
        let p = a.finish().unwrap();
        let cfg = CoreConfig::u74_like();
        let (r, trace) = crate::InOrderSession::new(&p, &cfg, 1000).run_traced();
        let divides: Vec<(u64, u64)> = trace
            .records()
            .iter()
            .filter(|r| r.disasm.starts_with("vdiv.vv"))
            .map(|r| (r.enter(Stage::Ex1), r.enter(Stage::Rt1)))
            .collect();
        let [(issue0, _), (issue1, done1)] = divides[..] else {
            panic!("two divides: {divides:?}");
        };
        let plan = VecPlan::crack(&VectorConfig::default(), Op::VdivVV, 2, Sew::E64);
        let wait = (issue0 + plan.occupancy).saturating_sub(issue1);
        assert!(wait > 0, "the second divide waits for the pipe");
        assert_eq!(done1 - issue1, wait + plan.last_done(0));
        assert_eq!(r.perf.stall(StallCause::VecBusy), wait);
        assert_eq!(crate::laws::check(&r.perf, &[crate::laws::STALL_BUDGET]), Ok(()));
        assert_eq!(crate::laws::check_mem(&r.mem), Ok(()));
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
