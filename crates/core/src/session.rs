//! Resumable single-core simulation sessions — the one way to run a
//! core.
//!
//! A [`Session`] bundles the three pieces a single-core run owns — the
//! functional [`TraceSource`] (emulator), a timing core, and its
//! [`MemSystem`] — behind one stepping surface with whole-run
//! [`Session::save`]/[`Session::restore`]. Every single-core run in
//! the workspace (report binaries, tests, examples, `xt-check`) is
//! `OooSession::new(&prog, &cfg, max_insts).run_to_end()` or a loop
//! over [`Session::step`]; nothing else assembles the three parts.
//! Snapshots are [`xt_snapshot::KIND_CORE`] frames; the resume-identity argument
//! (restore at cycle *c*, continue, get bit-identical results) is laid
//! out in `docs/SNAPSHOT.md` and enforced by the `snapshot_resume`
//! integration suite and the `xt-check` snapshot phase.

use crate::inorder::InOrderCore;
use crate::ooo::OooCore;
use crate::perf::{PerfCounters, RunReport};
use xt_asm::Program;
use xt_emu::{DynInst, Emulator, TraceSource, TraceStatus};
use xt_mem::{MemConfig, MemSystem};
use xt_snapshot::SnapshotState;
use xt_trace::TraceBuffer;

use crate::config::CoreConfig;

/// The stepping surface shared by the two core models, so [`Session`]
/// can wrap either.
pub trait CoreModel: SnapshotState + Sized {
    /// Builds the model for core `core_id` of a `cfg` machine.
    fn new_core(cfg: CoreConfig, core_id: usize) -> Self;
    /// Advances the timing model by one committed instruction.
    fn step_inst(&mut self, d: &DynInst, mem: &mut MemSystem);
    /// Seals the counters and produces the run report.
    fn report(&mut self, mem: &MemSystem, exit_code: Option<u64>) -> RunReport;
    /// Attaches a fresh per-instruction pipeline tracer.
    fn enable_tracer(&mut self);
    /// Detaches and returns the tracer, if one was attached.
    fn take_tracer_buf(&mut self) -> Option<TraceBuffer>;
    /// Current cycle count.
    fn cycle(&self) -> u64;
    /// The live counters (sealed only by [`CoreModel::report`]).
    fn counters(&self) -> &PerfCounters;
}

/// The two cores have the same inherent surface; forward it.
macro_rules! impl_core_model {
    ($core:ty) => {
        impl CoreModel for $core {
            fn new_core(cfg: CoreConfig, core_id: usize) -> Self {
                <$core>::new(cfg, core_id)
            }
            fn step_inst(&mut self, d: &DynInst, mem: &mut MemSystem) {
                self.step(d, mem);
            }
            fn report(&mut self, mem: &MemSystem, exit_code: Option<u64>) -> RunReport {
                self.finish_report(mem, exit_code)
            }
            fn enable_tracer(&mut self) {
                self.attach_tracer();
            }
            fn take_tracer_buf(&mut self) -> Option<TraceBuffer> {
                self.take_tracer()
            }
            fn cycle(&self) -> u64 {
                self.cycles()
            }
            fn counters(&self) -> &PerfCounters {
                self.perf()
            }
        }
    };
}
impl_core_model!(OooCore);
impl_core_model!(InOrderCore);

/// Records one [`Session::run_insts`] fill holds. Decoded blocks end at
/// every control transfer, so most fit; a longer one takes several.
const FILL: usize = 64;

/// A resumable single-core run: emulator trace + timing core + memory
/// system, with [`save`](Self::save)/[`restore`](Self::restore).
#[derive(Debug)]
pub struct Session<C: CoreModel> {
    trace: TraceSource,
    core: C,
    mem: MemSystem,
}

/// A resumable out-of-order (XT-910) run.
pub type OooSession = Session<OooCore>;
/// A resumable in-order-baseline run.
pub type InOrderSession = Session<InOrderCore>;

impl<C: CoreModel> Session<C> {
    /// Loads `prog` into a fresh session with `cfg`'s own memory
    /// configuration.
    pub fn new(prog: &Program, cfg: &CoreConfig, max_insts: u64) -> Self {
        Self::with_mem(prog, cfg, cfg.mem, max_insts)
    }

    /// Loads `prog` with an explicit memory configuration.
    pub fn with_mem(prog: &Program, cfg: &CoreConfig, mem_cfg: MemConfig, max_insts: u64) -> Self {
        let mut emu = Emulator::new();
        emu.load(prog);
        Session {
            trace: TraceSource::new(emu, max_insts),
            core: C::new_core(cfg.clone(), 0),
            mem: MemSystem::new(mem_cfg),
        }
    }

    /// Assembles a session from already-built parts (e.g. a core with
    /// ablation knobs or a pre-warmed emulator).
    pub fn from_parts(trace: TraceSource, core: C, mem: MemSystem) -> Self {
        Session { trace, core, mem }
    }

    /// Attaches a per-instruction pipeline tracer to the core.
    pub fn attach_tracer(&mut self) {
        self.core.enable_tracer();
    }

    /// Detaches and returns the tracer, if attached.
    pub fn take_tracer(&mut self) -> Option<TraceBuffer> {
        self.core.take_tracer_buf()
    }

    /// Advances by one committed instruction. Returns `false` once the
    /// trace is exhausted (halt, error, or instruction limit).
    pub fn step(&mut self) -> bool {
        // single-core sessions never run gated cluster guests, so a
        // `Barrier` ends the run like `Done`
        let retired = self.trace.advance() == TraceStatus::Inst;
        if retired {
            self.core.step_inst(self.trace.current(), &mut self.mem);
        }
        retired
    }

    /// Runs at most `n` further instructions; returns how many actually
    /// retired (less than `n` only at end of trace).
    ///
    /// The trace fills a slice on this stack frame a block at a time
    /// ([`TraceSource::fill`]) and the core steps over it, one hand-off
    /// per block instead of per instruction. A fill never asks for more
    /// than is still owed, so the trace and the core agree whenever this
    /// returns: the session saves the frame that as many
    /// [`step`](Self::step)s leave.
    pub fn run_insts(&mut self, n: u64) -> u64 {
        let mut recs = [DynInst::trap_entry(0, 0); FILL];
        let mut done = 0;
        while done < n {
            let want = (n - done).min(FILL as u64) as usize;
            let got = self.trace.fill(&mut recs[..want]);
            if got == 0 {
                break;
            }
            for d in &recs[..got] {
                self.core.step_inst(d, &mut self.mem);
            }
            done += got as u64;
        }
        done
    }

    /// Runs to the end of the trace and produces the report.
    pub fn run_to_end(&mut self) -> RunReport {
        self.run_insts(u64::MAX);
        self.finish_report()
    }

    /// Runs to the end with a per-instruction pipeline tracer attached
    /// and returns it with the report: one record per committed
    /// instruction (render with [`TraceBuffer::to_konata`] /
    /// [`TraceBuffer::to_chrome_json`]). Tracing is read-only.
    pub fn run_traced(&mut self) -> (RunReport, TraceBuffer) {
        self.attach_tracer();
        let report = self.run_to_end();
        (report, self.take_tracer().expect("tracer was attached"))
    }

    /// Seals the counters and produces the report for the instructions
    /// consumed so far.
    pub fn finish_report(&mut self) -> RunReport {
        self.core.report(&self.mem, self.trace.exit_code)
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.trace.retired()
    }

    /// Current core cycle.
    pub fn cycles(&self) -> u64 {
        self.core.cycle()
    }

    /// Guest exit code, once halted.
    pub fn exit_code(&self) -> Option<u64> {
        self.trace.exit_code
    }

    /// The timing core.
    pub fn core(&self) -> &C {
        &self.core
    }

    /// The memory system.
    pub fn mem(&self) -> &MemSystem {
        &self.mem
    }

    /// The memory system, mutably (to attach a memory-event tracer).
    pub fn mem_mut(&mut self) -> &mut MemSystem {
        &mut self.mem
    }

    /// The underlying trace source / emulator.
    pub fn trace(&self) -> &TraceSource {
        &self.trace
    }

    /// Serializes the whole session into a [`xt_snapshot::KIND_CORE`]
    /// frame. Encoding changes nothing: the session runs on as if it had
    /// not been saved.
    pub fn save(&mut self) -> Vec<u8> {
        let mut e = xt_snapshot::Enc::new();
        self.transfer(&mut e).expect("encoding never fails");
        xt_snapshot::seal(xt_snapshot::KIND_CORE, e.bytes())
    }

    /// Restores a [`save`](Self::save)d frame into this session. The
    /// session must have been built with the same program-independent
    /// configuration (core config, memory geometry, instruction limit
    /// is restored); on any mismatch the session is left partially
    /// restored and must be discarded.
    pub fn restore(&mut self, bytes: &[u8]) -> xt_snapshot::Result<()> {
        let mut d = xt_snapshot::Dec::new(xt_snapshot::open(bytes, xt_snapshot::KIND_CORE)?);
        self.transfer(&mut d)?;
        d.finish()
    }

    /// The frame's payload: the trace source, the core, the memory
    /// system.
    fn transfer<S: xt_snapshot::Stream>(&mut self, s: &mut S) -> xt_snapshot::Result<()> {
        self.trace.transfer(s)?;
        self.core.transfer(s)?;
        self.mem.transfer(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_asm::Asm;
    use xt_isa::reg::Gpr;

    fn loop_prog(iters: i64) -> Program {
        let mut a = Asm::new();
        a.li(Gpr::A0, iters);
        let top = a.here();
        a.addi(Gpr::A0, Gpr::A0, -1);
        a.bnez(Gpr::A0, top);
        a.li(Gpr::A0, 42);
        a.halt();
        a.finish().unwrap()
    }

    #[test]
    fn save_restore_roundtrip_is_byte_stable() {
        let p = loop_prog(300);
        let cfg = CoreConfig::xt910();
        let mut s = OooSession::new(&p, &cfg, 100_000);
        s.run_insts(100);
        let snap = s.save();
        let mut fresh = OooSession::new(&p, &cfg, 100_000);
        fresh.restore(&snap).unwrap();
        assert_eq!(fresh.save(), snap, "save∘restore∘save byte-equal");
    }

    #[test]
    fn resumed_run_is_identical() {
        let p = loop_prog(400);
        let cfg = CoreConfig::xt910();

        let mut whole = OooSession::new(&p, &cfg, 100_000);
        let ref_report = whole.run_to_end();

        let mut first = OooSession::new(&p, &cfg, 100_000);
        first.run_insts(137);
        let snap = first.save();

        let mut resumed = OooSession::new(&p, &cfg, 100_000);
        resumed.restore(&snap).unwrap();
        let resumed_report = resumed.run_to_end();

        assert_eq!(ref_report.perf, resumed_report.perf);
        assert_eq!(ref_report.exit_code, resumed_report.exit_code);
        assert_eq!(ref_report.mem, resumed_report.mem);
    }

    #[test]
    fn restore_rejects_wrong_config() {
        let p = loop_prog(100);
        let mut a = OooSession::new(&p, &CoreConfig::xt910(), 100_000);
        a.run_insts(50);
        let snap = a.save();
        let mut b = OooSession::new(&p, &CoreConfig::a73_like(), 100_000);
        assert!(matches!(
            b.restore(&snap),
            Err(xt_snapshot::SnapshotError::Mismatch { .. })
        ));
    }

    #[test]
    fn inorder_session_resumes() {
        let p = loop_prog(200);
        let cfg = CoreConfig::u74_like();
        let mut whole = InOrderSession::new(&p, &cfg, 100_000);
        let ref_report = whole.run_to_end();

        let mut first = InOrderSession::new(&p, &cfg, 100_000);
        first.run_insts(77);
        let snap = first.save();
        let mut resumed = InOrderSession::new(&p, &cfg, 100_000);
        resumed.restore(&snap).unwrap();
        let r = resumed.run_to_end();
        assert_eq!(ref_report.perf, r.perf);
        assert_eq!(ref_report.exit_code, r.exit_code);
    }
}
