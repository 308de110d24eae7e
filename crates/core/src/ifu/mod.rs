//! The instruction-fetch unit: hybrid direction prediction, cascaded
//! BTBs, return stack, indirect predictor and loop buffer (§III).

pub mod btb;
pub mod direction;
pub mod lbuf;

use crate::config::CoreConfig;
use crate::perf::PerfCounters;
use btb::{IndirectPredictor, L0Btb, L1Btb, ReturnStack};
use direction::DirectionPredictor;
use lbuf::LoopBuffer;
use xt_emu::DynInst;
use xt_isa::ExecClass;

/// Where the next-fetch redirect for an instruction came from, which
/// determines the bubble charged by the core model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Redirect {
    /// Sequential flow or correctly-predicted not-taken branch.
    None,
    /// Taken, target produced at the IF stage (L0 BTB, RAS, loop
    /// buffer): zero bubble (§III-B).
    TakenAtIf,
    /// Taken, target produced at the IP/IB stage: one-bubble jump,
    /// normally hidden by the IBUF.
    TakenAtIp,
    /// Misprediction — corrected at the branch-jump unit (≥7 cycles).
    Mispredict,
}

/// Per-instruction front-end outcome.
#[derive(Clone, Copy, Debug)]
pub struct FetchOutcome {
    /// The redirect class for this instruction.
    pub redirect: Redirect,
    /// Instruction streamed from the loop buffer (no I-cache access).
    pub from_lbuf: bool,
}

/// The assembled front end.
#[derive(Debug)]
pub struct FrontEnd {
    dir: DirectionPredictor,
    l0: L0Btb,
    l1: L1Btb,
    indirect: IndirectPredictor,
    ras: ReturnStack,
    /// Loop buffer (public for ablation statistics).
    pub lbuf: LoopBuffer,
}

const RA: u8 = 1; // x1 / ra

impl FrontEnd {
    /// Builds the front end for `cfg`.
    pub fn new(cfg: &CoreConfig) -> Self {
        FrontEnd {
            dir: DirectionPredictor::new(cfg.two_level_buf),
            l0: L0Btb::new(cfg.l0_btb),
            l1: L1Btb::new(256, 4),
            indirect: IndirectPredictor::new(),
            ras: ReturnStack::new(16),
            lbuf: LoopBuffer::new(16, cfg.loop_buffer),
        }
    }

    /// Processes one committed instruction of execution class `class`
    /// through the predictors, updating `perf`, and classifies its fetch
    /// redirect.
    pub fn observe(
        &mut self,
        d: &DynInst,
        class: ExecClass,
        perf: &mut PerfCounters,
    ) -> FetchOutcome {
        let taken = d.is_taken_branch();
        let taken_to = taken.then_some(d.next_pc);
        let from_lbuf = self.lbuf.observe(d.pc, taken_to);
        if from_lbuf {
            perf.lbuf_insts += 1;
        }

        let redirect = match class {
            ExecClass::Branch => {
                perf.branches += 1;
                let correct = self.dir.update(d.pc, taken);
                if taken {
                    self.l1.update(d.pc, d.next_pc);
                }
                if !correct {
                    perf.branch_mispredicts += 1;
                    if taken {
                        self.l0.update(d.pc, d.next_pc);
                    }
                    Redirect::Mispredict
                } else if taken {
                    if from_lbuf {
                        Redirect::TakenAtIf
                    } else if self.l0.lookup(d.pc) == Some(d.next_pc) {
                        perf.l0_btb_jumps += 1;
                        Redirect::TakenAtIf
                    } else {
                        // Frequent taken branches get promoted into L0.
                        self.l0.update(d.pc, d.next_pc);
                        perf.ip_jumps += 1;
                        Redirect::TakenAtIp
                    }
                } else {
                    Redirect::None
                }
            }
            ExecClass::Jump => {
                // jal: direction always known; call pushes the RAS
                if d.inst.rd == RA {
                    self.ras.push(d.fallthrough());
                }
                if from_lbuf {
                    Redirect::TakenAtIf
                } else if self.l0.lookup(d.pc) == Some(d.next_pc) {
                    perf.l0_btb_jumps += 1;
                    Redirect::TakenAtIf
                } else {
                    self.l0.update(d.pc, d.next_pc);
                    perf.ip_jumps += 1;
                    Redirect::TakenAtIp
                }
            }
            ExecClass::JumpInd => {
                let is_return = d.inst.rs1 == RA && d.inst.rd == 0;
                let predicted = if is_return {
                    self.ras.pop()
                } else {
                    self.indirect.predict(d.pc)
                };
                if d.inst.rd == RA {
                    self.ras.push(d.fallthrough());
                }
                if !is_return {
                    self.indirect.update(d.pc, d.next_pc);
                }
                if predicted == Some(d.next_pc) {
                    Redirect::TakenAtIf
                } else {
                    perf.target_mispredicts += 1;
                    Redirect::Mispredict
                }
            }
            _ => Redirect::None,
        };
        FetchOutcome {
            redirect,
            from_lbuf,
        }
    }
}

impl xt_snapshot::SnapshotState for FrontEnd {
    fn save(&self, e: &mut xt_snapshot::Enc) {
        self.dir.save(e);
        self.l0.save(e);
        self.l1.save(e);
        self.indirect.save(e);
        self.ras.save(e);
        self.lbuf.save(e);
    }

    fn restore(&mut self, d: &mut xt_snapshot::Dec) -> xt_snapshot::Result<()> {
        self.dir.restore(d)?;
        self.l0.restore(d)?;
        self.l1.restore(d)?;
        self.indirect.restore(d)?;
        self.ras.restore(d)?;
        self.lbuf.restore(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;
    use xt_isa::{Inst, Op};

    fn observe(fe: &mut FrontEnd, d: &DynInst, perf: &mut PerfCounters) -> FetchOutcome {
        fe.observe(d, d.inst.op.exec_class(), perf)
    }

    fn branch(pc: u64, taken: bool, target: u64) -> DynInst {
        let inst = Inst::new(Op::Bne).rs1(5).rs2(0).imm(target as i64 - pc as i64);
        DynInst::retired(pc, inst, if taken { target } else { pc + 4 }, None)
    }

    fn call(pc: u64, target: u64) -> DynInst {
        DynInst::retired(pc, Inst::new(Op::Jal).rd(1), target, None)
    }

    fn ret(pc: u64, target: u64) -> DynInst {
        DynInst::retired(pc, Inst::new(Op::Jalr).rd(0).rs1(1), target, None)
    }

    #[test]
    fn loop_branch_becomes_zero_bubble() {
        let mut fe = FrontEnd::new(&CoreConfig::xt910());
        let mut perf = PerfCounters::default();
        // iterate a backward branch: after warmup it should be
        // TakenAtIf (L0 BTB or loop buffer)
        let mut last = Redirect::None;
        for _ in 0..20 {
            // body
            observe(
                &mut fe,
                &DynInst::retired(0x1000, Inst::new(Op::Addi).rd(5).rs1(5), 0x1004, None),
                &mut perf,
            );
            let o = observe(&mut fe, &branch(0x1004, true, 0x1000), &mut perf);
            last = o.redirect;
        }
        assert_eq!(last, Redirect::TakenAtIf);
        assert!(perf.lbuf_insts > 0, "loop buffer engaged");
    }

    #[test]
    fn return_address_stack_predicts_returns() {
        let mut fe = FrontEnd::new(&CoreConfig::xt910());
        let mut perf = PerfCounters::default();
        for k in 0..10u64 {
            let site = 0x2000 + k * 0x40;
            observe(&mut fe, &call(site, 0x9000), &mut perf);
            let o = observe(&mut fe, &ret(0x9010, site + 4), &mut perf);
            assert_eq!(o.redirect, Redirect::TakenAtIf, "call #{k}");
        }
        assert_eq!(perf.target_mispredicts, 0);
    }

    #[test]
    fn cold_branch_mispredicts_then_learns() {
        let mut fe = FrontEnd::new(&CoreConfig::xt910());
        let mut perf = PerfCounters::default();
        let mut redirects = Vec::new();
        for _ in 0..10 {
            redirects.push(observe(&mut fe, &branch(0x3000, true, 0x2000), &mut perf).redirect);
        }
        assert_eq!(redirects[0], Redirect::Mispredict, "cold");
        assert_eq!(*redirects.last().unwrap(), Redirect::TakenAtIf, "warm");
        assert!(perf.branch_mispredicts <= 2);
    }

    #[test]
    fn indirect_polymorphic_target_mispredicts() {
        let mut fe = FrontEnd::new(&CoreConfig::xt910());
        let mut perf = PerfCounters::default();
        // alternating targets defeat a last-target predictor
        for k in 0..20u64 {
            let target = if k % 2 == 0 { 0x5000 } else { 0x6000 };
            let jr = DynInst::retired(0x4000, Inst::new(Op::Jalr).rd(0).rs1(6), target, None);
            observe(&mut fe, &jr, &mut perf);
        }
        assert!(perf.target_mispredicts >= 8);
    }
}
