//! Committed dynamic instruction trace — the interface between the
//! functional emulator and the `xt-core` timing models.

use crate::exec::{Emulator, ExecError};
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

/// Streaming trace source: executes the emulator up to a decoded block
/// per [`fill`](Self::fill), writing the retired records into the
/// consumer's slice. `fill` is the one way a record leaves the emulator.
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
        }
    }

    /// Number of instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Whether the trace has ended: the guest halted, a fatal error
    /// stopped it, or the instruction limit was reached. A
    /// [`fill`](Self::fill) that returns 0 on a trace that has not ended
    /// found the core parked at a cluster gate.
    pub fn ended(&self) -> bool {
        self.exit_code.is_some() || self.error.is_some() || self.retired >= self.limit
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

    /// Retires up to `recs.len()` instructions into `recs`, front first,
    /// and returns how many: the rest of the current decoded block,
    /// capped by the slice and the instruction limit, or a single record
    /// on the reference path or with a platform or cluster hooks
    /// attached. 0 means the trace [`ended`](Self::ended) or, if it has
    /// not, a cluster gate parked the core; either way no record was
    /// touched. A fatal error ends the trace after the records retired
    /// before it, which are counted and returned.
    pub fn fill(&mut self, recs: &mut [DynInst]) -> usize {
        if self.ended() || recs.is_empty() {
            return 0;
        }
        let cap = (self.limit - self.retired).min(recs.len() as u64) as usize;
        let (n, status) = self.emu.step_slice(&mut recs[..cap]);
        self.retired += n as u64;
        match status {
            Ok(_) => self.exit_code = self.emu.halted,
            Err(e) => self.error = Some(e),
        }
        n
    }

    /// A one-record [`fill`](Self::fill), by value. It exists only for
    /// `benchmark/`'s ladder, which ROADMAP item 3 moves onto `Session`.
    pub fn try_next(&mut self) -> TraceEvent {
        let mut rec = DynInst::trap_entry(0, 0);
        match self.fill(std::slice::from_mut(&mut rec)) {
            0 if self.ended() => TraceEvent::Done,
            0 => TraceEvent::Barrier,
            _ => TraceEvent::Inst(rec),
        }
    }
}

/// One event from [`TraceSource::try_next`].
#[derive(Clone, Debug)]
pub enum TraceEvent {
    /// An instruction retired.
    Inst(DynInst),
    /// Cluster mode: the core is parked in front of a globally visible
    /// operation and needs the epoch barrier to proceed.
    Barrier,
    /// The trace [ended](TraceSource::ended).
    Done,
}

impl xt_snapshot::SnapshotState for TraceSource {
    fn transfer<S: xt_snapshot::Stream>(&mut self, s: &mut S) -> xt_snapshot::Result<()> {
        use std::mem::discriminant;
        self.emu.transfer(s)?;
        s.opt(&mut self.exit_code, S::u64)?;
        // one tag for the error and its kind: 0 is none
        const ERRORS: [Option<ExecError>; 4] = [
            None,
            Some(ExecError::Decode { pc: 0, word: 0 }),
            Some(ExecError::UnhandledTrap { pc: 0, cause: 0 }),
            Some(ExecError::OutOfFuel),
        ];
        let kind = |e: &Option<ExecError>| e.as_ref().map(discriminant);
        let at = ERRORS.iter().position(|e| kind(e) == kind(&self.error));
        let mut tag = at.expect("every error kind is tagged") as u8;
        s.u8(&mut tag)?;
        if S::DECODING {
            let error = ERRORS.get(tag as usize);
            self.error = error
                .ok_or(xt_snapshot::SnapshotError::Corrupt {
                    what: "exec error tag",
                })?
                .clone();
        }
        match &mut self.error {
            Some(ExecError::Decode { pc, word }) => {
                s.u64(pc)?;
                s.u32(word)?;
            }
            Some(ExecError::UnhandledTrap { pc, cause }) => {
                s.u64(pc)?;
                s.u64(cause)?;
            }
            Some(ExecError::OutOfFuel) | None => {}
        }
        s.u64(&mut self.retired)?;
        s.u64(&mut self.limit)
    }
}

/// One-record [`TraceSource::fill`]s, by value, to the end of the trace.
/// Like [`TraceSource::try_next`], it exists only for `benchmark/`'s
/// ladder, which ROADMAP item 3 moves onto `Session`.
impl Iterator for TraceSource {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        let mut rec = DynInst::trap_entry(0, 0);
        match self.fill(std::slice::from_mut(&mut rec)) {
            0 => {
                debug_assert!(self.ended(), "a cluster gate parked the core");
                None
            }
            _ => Some(rec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_asm::{Asm, Program};
    use xt_isa::reg::Gpr;

    /// `p` traced on each engine, decoded blocks first.
    fn traced(p: &Program, limit: u64) -> [TraceSource; 2] {
        [true, false].map(|fastpath| {
            let mut emu = Emulator::new();
            emu.set_fastpath(fastpath);
            emu.load(p);
            TraceSource::new(emu, limit)
        })
    }

    /// Every record `src` retires, pulled by fills of `len`.
    fn drain(src: &mut TraceSource, len: usize) -> Vec<DynInst> {
        let mut recs = [DynInst::trap_entry(0, 0); 64];
        let mut got = Vec::new();
        loop {
            let n = src.fill(&mut recs[..len]);
            if n == 0 {
                return got;
            }
            got.extend_from_slice(&recs[..n]);
        }
    }

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
        for mut src in traced(&a.finish().unwrap(), 10_000) {
            let trace = drain(&mut src, 64);
            let taken: Vec<&DynInst> = trace
                .iter()
                .filter(|d| d.inst.op == xt_isa::Op::Bne && d.is_taken_branch())
                .collect();
            assert_eq!(taken.len(), 1, "loop branch taken once");
            let loads: Vec<&DynInst> = trace
                .iter()
                .filter(|d| d.mem.is_some() && !d.mem.unwrap().is_store)
                .collect();
            assert_eq!(loads.len(), 1);
            assert_eq!(loads[0].mem.unwrap().vaddr, arr);
        }
    }

    #[test]
    fn trace_stops_at_halt() {
        let mut a = Asm::new();
        a.li(Gpr::A0, 9);
        a.halt();
        for mut src in traced(&a.finish().unwrap(), 1000) {
            assert!(!drain(&mut src, 64).is_empty());
            assert_eq!(src.exit_code, Some(9));
        }
    }

    /// Block fills of any length retire the records one-record fills
    /// do, and end the trace the same way, on both engines.
    #[test]
    fn block_fills_retire_what_one_record_fills_retire() {
        let mut a = Asm::new();
        let arr = a.data_u64("arr", &[7, 0]);
        a.la(Gpr::A1, arr);
        a.li(Gpr::A0, 20);
        let top = a.here();
        a.ld(Gpr::A2, Gpr::A1, 0);
        a.add(Gpr::A3, Gpr::A3, Gpr::A2);
        a.sd(Gpr::A3, Gpr::A1, 8);
        a.addi(Gpr::A0, Gpr::A0, -1);
        a.bnez(Gpr::A0, top);
        a.mv(Gpr::A0, Gpr::A3);
        a.halt();
        let p = a.finish().unwrap();
        for limit in [1_000, 37] {
            for engine in 0..2 {
                let source = || traced(&p, limit).into_iter().nth(engine).unwrap();
                let mut by_one = source();
                let want = drain(&mut by_one, 1);
                for len in [3, 64] {
                    let mut by_fill = source();
                    let got = drain(&mut by_fill, len);
                    let ctx = format!("engine {engine}, limit {limit}, fills of {len}");
                    assert_eq!(got, want, "{ctx}");
                    assert_eq!(by_fill.exit_code, by_one.exit_code, "{ctx}");
                    assert_eq!(by_fill.retired(), by_one.retired(), "{ctx}");
                }
            }
        }
    }

    /// After a fill returns 0, exactly one of halted, fatal error, limit
    /// reached or parked holds, and only parked leaves the trace open:
    /// `try_next` and the `Iterator` map it to `Barrier` (and `None`,
    /// which a debug build refuses) and the rest to `Done`.
    #[test]
    fn an_empty_fill_is_one_of_four_ends() {
        #[derive(Debug, PartialEq)]
        enum End {
            Halted,
            Error,
            Limit,
            Parked,
        }
        let program = |body: fn(&mut Asm)| {
            let mut a = Asm::new();
            a.li(Gpr::A0, 5);
            body(&mut a);
            a.halt();
            a.finish().unwrap()
        };
        let halts = program(|_| {});
        // no trap vector is installed, so the `ecall` is fatal
        let faults = program(|a| {
            a.ecall();
        });
        let gated = program(|a| {
            a.fence();
        });
        let cases = [
            (End::Halted, &halts, 1_000, false),
            (End::Error, &faults, 1_000, false),
            (End::Limit, &halts, 1, false),
            (End::Parked, &gated, 1_000, true),
        ];
        for (end, p, limit, gate) in cases {
            for [mut by_fill, mut by_event, mut by_iter] in [true, false].map(|fastpath| {
                [(); 3].map(|_| {
                    let mut emu = Emulator::new();
                    emu.set_fastpath(fastpath);
                    emu.load(p);
                    if gate {
                        emu.cluster = Some(crate::ClusterCtl {
                            gate: true,
                            ..Default::default()
                        });
                    }
                    TraceSource::new(emu, limit)
                })
            }) {
                let mut rec = DynInst::trap_entry(0, 0);
                let mut retired = Vec::new();
                while by_fill.fill(std::slice::from_mut(&mut rec)) == 1 {
                    retired.push(rec);
                }
                let blank = DynInst::trap_entry(0, 0);
                assert_eq!(
                    rec,
                    retired.last().copied().unwrap_or(blank),
                    "{end:?}: an empty fill wrote"
                );
                let held = [
                    (End::Halted, by_fill.exit_code.is_some()),
                    (End::Error, by_fill.error.is_some()),
                    (End::Limit, by_fill.retired() >= limit),
                    (End::Parked, !by_fill.ended()),
                ];
                let held: Vec<&End> = held.iter().filter(|h| h.1).map(|h| &h.0).collect();
                assert_eq!(held, [&end], "exactly one end holds");
                let mut events = Vec::new();
                let last = loop {
                    match by_event.try_next() {
                        TraceEvent::Inst(d) => events.push(d),
                        other => break other,
                    }
                };
                assert_eq!(events, retired, "{end:?}: try_next");
                match last {
                    TraceEvent::Barrier => assert_eq!(end, End::Parked),
                    _ => assert_ne!(end, End::Parked, "a parked trace is not Done"),
                }
                if end != End::Parked || !cfg!(debug_assertions) {
                    assert_eq!(
                        by_iter.by_ref().collect::<Vec<_>>(),
                        retired,
                        "{end:?}: Iterator"
                    );
                }
            }
        }
    }

    #[test]
    fn trace_respects_limit() {
        let mut a = Asm::new();
        let top = a.here();
        a.jump(top); // infinite loop
        for mut src in traced(&a.finish().unwrap(), 100) {
            assert_eq!(drain(&mut src, 64).len(), 100);
            assert_eq!(src.exit_code, None);
        }
    }
}
