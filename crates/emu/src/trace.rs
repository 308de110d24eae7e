//! Committed dynamic instruction trace — the interface between the
//! functional emulator and the `xt-core` timing models.

use crate::exec::{Emulator, ExecError, StepStatus};
use xt_isa::{Inst, Op};

/// One memory access performed by a retired instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemAccess {
    /// Virtual address.
    pub vaddr: u64,
    /// Physical address after translation.
    pub paddr: u64,
    /// Access size in bytes.
    pub size: u16,
    /// True for stores.
    pub is_store: bool,
}

impl MemAccess {
    /// Creates a load access record.
    pub fn load(vaddr: u64, paddr: u64, size: u16) -> Self {
        MemAccess {
            vaddr,
            paddr,
            size,
            is_store: false,
        }
    }

    /// Creates a store access record.
    pub fn store(vaddr: u64, paddr: u64, size: u16) -> Self {
        MemAccess {
            vaddr,
            paddr,
            size,
            is_store: true,
        }
    }
}

/// One committed instruction with everything the timing model needs.
///
/// `PartialEq` lets the fast-path differential suites compare the
/// decoded-block engine's retired records against the per-step decode
/// reference, field for field.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DynInst {
    /// Fetch PC (virtual).
    pub pc: u64,
    /// Fetch physical address (for the I-cache model).
    pub fetch_pa: u64,
    /// Decoded instruction.
    pub inst: Inst,
    /// Architectural next PC (branch target if taken).
    pub next_pc: u64,
    /// Data memory access, if any.
    pub mem: Option<MemAccess>,
    /// Set when this record is a trap entry (redirect to the handler).
    pub trapped: bool,
    /// For vector operations: the active `vl` at execution (0 otherwise).
    pub vl: u16,
    /// For vector operations: the active SEW in bits (0 otherwise).
    pub sew_bits: u8,
}

impl DynInst {
    /// A normally retired instruction.
    pub fn retired(pc: u64, inst: Inst, next_pc: u64, mem: Option<MemAccess>) -> Self {
        DynInst {
            pc,
            fetch_pa: pc,
            inst,
            next_pc,
            mem,
            trapped: false,
            vl: 0,
            sew_bits: 0,
        }
    }

    /// An instruction that raised a trap; `next_pc` is the handler.
    pub fn trapping(pc: u64, inst: Inst, handler: u64) -> Self {
        DynInst {
            pc,
            fetch_pa: pc,
            inst,
            next_pc: handler,
            mem: None,
            trapped: true,
            vl: 0,
            sew_bits: 0,
        }
    }

    /// A trap taken at fetch (instruction page fault) — modeled as a
    /// serializing bubble.
    pub fn trap_entry(pc: u64, handler: u64) -> Self {
        DynInst {
            pc,
            fetch_pa: pc,
            inst: Inst::new(Op::Ebreak),
            next_pc: handler,
            mem: None,
            trapped: true,
            vl: 0,
            sew_bits: 0,
        }
    }

    /// Whether the instruction is a taken control transfer.
    pub fn is_taken_branch(&self) -> bool {
        self.next_pc != self.pc.wrapping_add(self.inst.len as u64)
    }

    /// Fall-through PC.
    pub fn fallthrough(&self) -> u64 {
        self.pc.wrapping_add(self.inst.len as u64)
    }
}

/// Streaming trace source: executes the emulator one instruction per
/// [`advance`](Self::advance) and holds the committed record for the
/// consumer to borrow.
///
/// The timing model pulls instructions as its fetch stage consumes them,
/// so memory stays bounded regardless of trace length.
#[derive(Debug)]
pub struct TraceSource {
    emu: Emulator,
    /// Exit code once the guest halts.
    pub exit_code: Option<u64>,
    /// Fatal error, if the guest misbehaved.
    pub error: Option<ExecError>,
    retired: u64,
    limit: u64,
    /// The record [`advance`](Self::advance) last retired into. Scratch:
    /// every consumer is done with it before the next `advance`, so it
    /// is not part of the snapshot.
    rec: DynInst,
}

impl TraceSource {
    /// Wraps a loaded emulator. `limit` bounds total instructions (a
    /// safety net against non-terminating guests).
    pub fn new(emu: Emulator, limit: u64) -> Self {
        TraceSource {
            emu,
            exit_code: None,
            error: None,
            retired: 0,
            limit,
            rec: DynInst::trap_entry(0, 0),
        }
    }

    /// Number of instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Access to the underlying emulator (e.g., to inspect memory after
    /// the run).
    pub fn emulator(&self) -> &Emulator {
        &self.emu
    }

    /// Mutable access to the underlying emulator (cluster engine: store
    /// propagation, gate control).
    pub fn emulator_mut(&mut self) -> &mut Emulator {
        &mut self.emu
    }

    /// Advances the trace by one event. On [`TraceStatus::Inst`] the
    /// retired record is [`current`](Self::current); on the other two
    /// nothing retired and `current` still holds the previous record.
    pub fn advance(&mut self) -> TraceStatus {
        if self.exit_code.is_some() || self.error.is_some() || self.retired >= self.limit {
            return TraceStatus::Done;
        }
        match self.emu.step_into(&mut self.rec) {
            Ok(StepStatus::Retired) => {
                self.retired += 1;
                self.exit_code = self.emu.halted;
                TraceStatus::Inst
            }
            Ok(StepStatus::Halted) => {
                self.exit_code = self.emu.halted;
                TraceStatus::Done
            }
            Ok(StepStatus::NeedsBarrier) => TraceStatus::Barrier,
            Err(e) => {
                self.error = Some(e);
                TraceStatus::Done
            }
        }
    }

    /// The record the last [`TraceStatus::Inst`] retired. The timing
    /// models borrow it: they read a few fields each, and copying all 80
    /// bytes out of a just-written record stalls on every one of them.
    pub fn current(&self) -> &DynInst {
        &self.rec
    }

    /// [`advance`](Self::advance) by value, for callers that keep the
    /// records (tests, trace collectors).
    pub fn try_next(&mut self) -> TraceEvent {
        match self.advance() {
            TraceStatus::Inst => TraceEvent::Inst(self.rec),
            TraceStatus::Barrier => TraceEvent::Barrier,
            TraceStatus::Done => TraceEvent::Done,
        }
    }
}

/// What one [`TraceSource::advance`] did.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceStatus {
    /// An instruction retired into [`TraceSource::current`].
    Inst,
    /// Cluster mode: the core is parked in front of a globally visible
    /// operation and needs the epoch barrier to proceed.
    Barrier,
    /// The trace ended (halt, fatal error, or instruction limit).
    Done,
}

/// One event from [`TraceSource::try_next`]: [`TraceStatus`] carrying
/// the record by value.
#[derive(Clone, Debug)]
pub enum TraceEvent {
    /// An instruction retired.
    Inst(DynInst),
    /// See [`TraceStatus::Barrier`].
    Barrier,
    /// See [`TraceStatus::Done`].
    Done,
}

impl xt_snapshot::SnapshotState for TraceSource {
    fn save(&self, e: &mut xt_snapshot::Enc) {
        self.emu.save(e);
        e.opt_u64(self.exit_code);
        match &self.error {
            None => e.u8(0),
            Some(ExecError::Decode { pc, word }) => {
                e.u8(1);
                e.u64(*pc);
                e.u32(*word);
            }
            Some(ExecError::UnhandledTrap { pc, cause }) => {
                e.u8(2);
                e.u64(*pc);
                e.u64(*cause);
            }
            Some(ExecError::OutOfFuel) => e.u8(3),
        }
        e.u64(self.retired);
        e.u64(self.limit);
    }

    fn restore(&mut self, d: &mut xt_snapshot::Dec) -> xt_snapshot::Result<()> {
        self.emu.restore(d)?;
        self.exit_code = d.opt_u64()?;
        self.error = match d.u8()? {
            0 => None,
            1 => Some(ExecError::Decode {
                pc: d.u64()?,
                word: d.u32()?,
            }),
            2 => Some(ExecError::UnhandledTrap {
                pc: d.u64()?,
                cause: d.u64()?,
            }),
            3 => Some(ExecError::OutOfFuel),
            _ => {
                return Err(xt_snapshot::SnapshotError::Corrupt {
                    what: "exec error tag",
                })
            }
        };
        self.retired = d.u64()?;
        self.limit = d.u64()?;
        Ok(())
    }
}

impl Iterator for TraceSource {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        match self.try_next() {
            TraceEvent::Inst(d) => Some(d),
            TraceEvent::Barrier => {
                debug_assert!(false, "cluster barrier event outside the epoch engine");
                None
            }
            TraceEvent::Done => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_asm::Asm;
    use xt_isa::reg::Gpr;

    #[test]
    fn trace_records_branches_and_mem() {
        let mut a = Asm::new();
        let arr = a.data_u64("arr", &[7]);
        a.li(Gpr::A0, 2);
        let top = a.here();
        a.addi(Gpr::A0, Gpr::A0, -1);
        a.bnez(Gpr::A0, top);
        a.la(Gpr::A1, arr);
        a.ld(Gpr::A2, Gpr::A1, 0);
        a.halt();
        let p = a.finish().unwrap();
        let mut emu = Emulator::new();
        emu.load(&p);
        let trace: Vec<DynInst> = TraceSource::new(emu, 10_000).collect();
        let taken: Vec<&DynInst> = trace
            .iter()
            .filter(|d| d.inst.op == xt_isa::Op::Bne && d.is_taken_branch())
            .collect();
        assert_eq!(taken.len(), 1, "loop branch taken once");
        let loads: Vec<&DynInst> = trace.iter().filter(|d| d.mem.is_some() && !d.mem.unwrap().is_store).collect();
        assert_eq!(loads.len(), 1);
        assert_eq!(loads[0].mem.unwrap().vaddr, arr);
    }

    #[test]
    fn trace_stops_at_halt() {
        let mut a = Asm::new();
        a.li(Gpr::A0, 9);
        a.halt();
        let p = a.finish().unwrap();
        let mut emu = Emulator::new();
        emu.load(&p);
        let mut src = TraceSource::new(emu, 1000);
        let n = src.by_ref().count();
        assert!(n > 0);
        assert_eq!(src.exit_code, Some(9));
    }

    #[test]
    fn trace_respects_limit() {
        let mut a = Asm::new();
        let top = a.here();
        a.jump(top); // infinite loop
        let p = a.finish().unwrap();
        let mut emu = Emulator::new();
        emu.load(&p);
        let mut src = TraceSource::new(emu, 100);
        assert_eq!(src.by_ref().count(), 100);
        assert_eq!(src.exit_code, None);
    }
}
