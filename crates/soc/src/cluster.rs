//! Deterministic epoch-barriered parallel cluster engine (paper Fig. 2;
//! gem5/FireSim-style host parallelism, see PAPERS.md).
//!
//! Each core — its [`OooCore`] timing model, its functional
//! [`xt_emu::Emulator`], and a private *replica* of the full
//! [`MemSystem`] hierarchy — steps independently for a fixed cycle
//! epoch, optionally on its own `std::thread`. At the epoch barrier a
//! single thread arbitrates everything that must be globally ordered,
//! always in **core-index order**:
//!
//! 1. every replica's recorded memory traffic ([`xt_mem::MemOp`] logs)
//!    is replayed into the *master* memory system (the canonical stats),
//!    then cross-applied to the other replicas so each core's next slice
//!    sees the cluster's traffic (coherence with one-epoch lag);
//! 2. functional stores buffered by each emulator propagate to the other
//!    cores' memories in program order (an unbounded store buffer —
//!    RVWMO-legal) and kill matching LR reservations;
//! 3. cores parked in front of a globally visible instruction (AMO,
//!    LR/SC, fence — see [`xt_emu::ClusterCtl`]) execute exactly one
//!    such instruction each, its stores propagating immediately, which
//!    serializes atomics cluster-wide.
//!
//! **Determinism contract:** the slice phase touches only per-core
//! state and the barrier runs serially in a fixed order, so the result
//! — [`PerfCounters`], [`MemStats`], exit codes, pipeline traces — is
//! bit-identical for any host thread count ([`ClusterSim::run_threads`]
//! with 1, 2, 4, … threads; one thread runs the whole pipeline inline,
//! the obviously-sequential oracle). `tests/determinism.rs` and the
//! `xt-check` cluster suite enforce this; docs/CLUSTER.md derives it.

use crate::bus::{bus_of, bus_of_mut, MmioBus};
use crate::timeline::{EpochSample, EpochTimeline};
use std::sync::Arc;
use std::thread;
use std::time::Instant;
use xt_asm::Program;
use xt_core::session::CoreModel;
use xt_core::{CoreConfig, OooCore, PerfCounters};
use xt_emu::{ClusterCtl, DynInst, Emulator, StoreRec, TraceSource};
use xt_mem::{MemConfig, MemOp, MemStats, MemSystem, MemTracer};
use xt_snapshot::{SnapshotState, Stream};

/// Default epoch length in simulated cycles. Long enough to amortize
/// the serial barrier over thousands of parallel core-steps, short
/// enough that coherence lag stays bounded.
pub const DEFAULT_EPOCH_CYCLES: u64 = 8192;

/// LR/SC reservation granularity for cross-core kills (one cache line).
const RESERVATION_LINE: u64 = 64;

/// Host-time breakdown of the epoch engine for one run: how much wall
/// clock went to the parallelizable slice phase versus the serial
/// barrier. This is *measured host time* — informational, excluded from
/// the determinism contract (every simulated-cycle field stays
/// bit-identical across thread counts; these nanoseconds do not).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Epoch barriers executed.
    pub epochs: u64,
    /// Host nanoseconds inside the serial barrier (drain/replay,
    /// store propagation, gated-instruction release).
    pub serial_ns: u64,
    /// Host nanoseconds inside the slice phase (worker threads or the
    /// inline sequential oracle).
    pub parallel_ns: u64,
}

impl EngineStats {
    /// Fraction of engine wall clock spent in the serial barrier — the
    /// Amdahl term that bounds host-parallel speedup.
    pub fn serial_share(&self) -> f64 {
        let total = self.serial_ns + self.parallel_ns;
        if total == 0 {
            0.0
        } else {
            self.serial_ns as f64 / total as f64
        }
    }
}

/// Result of a cluster run.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Per-core counters.
    pub cores: Vec<PerfCounters>,
    /// Shared memory-system statistics (the master hierarchy, which saw
    /// every core's traffic in deterministic barrier order).
    pub mem: MemStats,
    /// Per-core exit codes.
    pub exit_codes: Vec<Option<u64>>,
    /// Per-core Konata pipeline traces, when tracing was enabled with
    /// [`ClusterSim::with_tracers`].
    pub konata: Option<Vec<String>>,
    /// Engine host-time breakdown (measured, non-deterministic; see
    /// [`EngineStats`]).
    pub engine: EngineStats,
    /// Per-epoch per-core progress attribution, when enabled with
    /// [`ClusterSim::with_timeline`]. Guest columns are deterministic;
    /// host columns are measurements (see [`EpochTimeline`]).
    pub timeline: Option<EpochTimeline>,
    /// The master hierarchy's memory-event stream, when enabled with
    /// [`ClusterSim::with_mem_tracing`]. Every event mirrors a counter
    /// in [`ClusterReport::mem`] ([`MemTracer::reconcile`]), and the
    /// stream is bit-identical for any host thread count.
    pub mem_events: Option<MemTracer>,
}

impl ClusterReport {
    /// Cluster makespan: the slowest core's cycle count.
    pub fn makespan(&self) -> u64 {
        self.cores.iter().map(|c| c.cycles).max().unwrap_or(0)
    }

    /// Aggregate instructions retired.
    pub fn total_instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.instructions).sum()
    }

    /// Aggregate throughput: total instructions over the makespan.
    pub fn throughput_ipc(&self) -> f64 {
        let m = self.makespan();
        if m == 0 {
            0.0
        } else {
            self.total_instructions() as f64 / m as f64
        }
    }
}

/// One core's private simulation state. Everything a slice touches
/// lives here or in the core's replica of the hierarchy, which is what
/// makes the slice phase thread-safe without locks: disjoint slots and
/// replicas go to disjoint worker threads.
struct CoreSlot {
    /// This core's index (fixes the resync replay order below).
    id: usize,
    core: OooCore,
    trace: TraceSource,
    /// The record each [`CoreSlot::advance`] fills and the core steps
    /// over. Scratch: the core is done with it before the next fill, so
    /// no frame carries it.
    rec: DynInst,
    /// All cores' logs from the last barrier, waiting to be resynced
    /// into this core's replica.
    pending: Option<Arc<Vec<Vec<MemOp>>>>,
    /// Parked in front of a gated (globally visible) instruction.
    parked: bool,
    /// Trace exhausted (halt, error, or instruction limit).
    done: bool,
    steps: u64,
}

impl CoreSlot {
    /// Pulls one record (a one-record [`TraceSource::fill`]) and returns
    /// whether one retired: it steps the timing core against `mem` and
    /// counts toward `max_insts`. An empty fill parks the core at a gate,
    /// or finishes it once the trace has ended. The one place a cluster
    /// core moves.
    fn advance(&mut self, mem: &mut MemSystem, max_insts: u64) -> bool {
        if self.trace.fill(std::slice::from_mut(&mut self.rec)) == 0 {
            self.done = self.trace.ended();
            self.parked = !self.done;
            return false;
        }
        self.core.step_inst(&self.rec, mem);
        self.steps += 1;
        if self.steps >= max_insts {
            self.done = true;
        }
        true
    }

    /// Runs this core against `mem` until the epoch boundary, a barrier
    /// request, or end of trace — no shared state touched.
    fn run_slice(&mut self, mem: &mut MemSystem, epoch_end: u64, max_insts: u64) {
        // resync first: replay the other cores' last-epoch traffic into
        // the private replica, in core-index order (deterministic, and
        // off the serial barrier's critical path)
        if let Some(logs) = self.pending.take() {
            for (j, log) in logs.iter().enumerate() {
                if j != self.id {
                    for op in log {
                        mem.apply_op(j, op);
                    }
                }
            }
        }
        while !self.done && !self.parked && self.core.cycles() < epoch_end {
            self.advance(mem, max_insts);
        }
    }

    /// The slot with its replica `mem`, which the frame carries between
    /// the timing core and the pending logs.
    fn transfer<S: Stream>(&mut self, s: &mut S, mem: &mut MemSystem) -> xt_snapshot::Result<()> {
        self.trace.transfer(s)?;
        let bus = bus_of_mut(self.trace.emulator_mut());
        s.present(bus, "interrupt platform", |s, bus| bus.transfer(s))?;
        self.core.transfer(s)?;
        mem.transfer(s)?;
        // all cores' logs, shared with the other slots: the encoder reads
        // them through the `Arc`, the decoder builds a fresh one
        let cfg = *mem.config();
        let mut pending = self.pending.is_some();
        s.bool(&mut pending)?;
        if S::DECODING {
            let mut logs: Vec<Vec<MemOp>> = Vec::new();
            if pending {
                s.vec(&mut logs, 8, |s, log| {
                    s.vec(log, 8, |s, op| op.transfer(s, &cfg))
                })?;
                // one log per core, as every barrier drains them
                s.check(logs.len() == cfg.cores, "pending log count")?;
            }
            self.pending = pending.then(|| Arc::new(logs));
        } else if let Some(logs) = &self.pending {
            s.len(&mut logs.len(), 8)?;
            for log in logs.iter() {
                s.len(&mut log.len(), 8)?;
                for mut op in log.iter().copied() {
                    op.transfer(s, &cfg)?;
                }
            }
        }
        s.bool(&mut self.parked)?;
        s.bool(&mut self.done)?;
        s.u64(&mut self.steps)
    }
}

/// A cluster of out-of-order cores sharing one coherent memory
/// hierarchy, simulated by the epoch-barriered parallel engine (see the
/// [module docs](self)).
pub struct ClusterSim {
    slots: Vec<CoreSlot>,
    /// Core `i`'s private replica of the full memory hierarchy. The core
    /// steps against it between barriers; the previous barrier's traffic
    /// from the other cores is cross-applied at the start of the next
    /// slice (delayed coherence), on the slot's own worker thread.
    replicas: Vec<MemSystem>,
    /// The canonical memory system: replays every core's traffic in
    /// barrier order and supplies the reported [`MemStats`].
    master: MemSystem,
    max_insts: u64,
    epoch_cycles: u64,
    tracing: bool,
    engine: EngineStats,
    /// Per-epoch attribution rows, when enabled.
    timeline: Option<EpochTimeline>,
    /// All cores done *and* the one-shot final drain has run.
    finished: bool,
}

impl ClusterSim {
    /// Builds a cluster running `programs[i]` on core `i`. The memory
    /// configuration's `cores` field must equal `programs.len()`.
    ///
    /// # Panics
    ///
    /// Panics if the counts disagree or the configuration is invalid.
    pub fn new(
        programs: &[Program],
        core_cfg: &CoreConfig,
        mem_cfg: MemConfig,
        max_insts: u64,
    ) -> Self {
        assert_eq!(
            mem_cfg.cores,
            programs.len(),
            "mem_cfg.cores must match program count"
        );
        let n = programs.len();
        let mut replicas = Vec::with_capacity(n);
        let slots = programs
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut emu = Emulator::new();
                emu.load(p);
                // statistics come from the master alone, so a replica
                // keeps no miss classifier and no prefetch scorecard
                let mut mem = MemSystem::replica(mem_cfg);
                if n > 1 {
                    // multicore: buffer stores and park at AMO/fence
                    emu.cluster = Some(ClusterCtl {
                        gate: true,
                        ..ClusterCtl::default()
                    });
                    mem.start_recording();
                }
                replicas.push(mem);
                CoreSlot {
                    id: i,
                    core: OooCore::new(core_cfg.clone(), i),
                    trace: TraceSource::new(emu, max_insts),
                    rec: DynInst::trap_entry(0, 0),
                    pending: None,
                    parked: false,
                    done: false,
                    steps: 0,
                }
            })
            .collect();
        ClusterSim {
            slots,
            replicas,
            master: MemSystem::new(mem_cfg),
            max_insts,
            epoch_cycles: DEFAULT_EPOCH_CYCLES,
            tracing: false,
            engine: EngineStats::default(),
            timeline: None,
            finished: false,
        }
    }

    /// Overrides the epoch length (simulated cycles between barriers).
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub fn with_epoch(mut self, cycles: u64) -> Self {
        assert!(cycles > 0, "epoch must be at least one cycle");
        self.epoch_cycles = cycles;
        if let Some(tl) = &mut self.timeline {
            tl.epoch_cycles = cycles;
        }
        self
    }

    /// Records a per-epoch, per-core progress timeline; the report then
    /// carries an [`EpochTimeline`] whose guest columns are
    /// deterministic (host columns are wall-clock measurements).
    pub fn with_timeline(mut self) -> Self {
        self.timeline = Some(EpochTimeline::new(self.slots.len(), self.epoch_cycles));
        self
    }

    /// Attaches a [`MemTracer`] to the *master* memory hierarchy — the
    /// canonical instance every core's recorded traffic replays into at
    /// the barrier, in core-index order — so the collected event stream
    /// is deterministic for any host thread count and reconciles with
    /// the reported [`MemStats`]. Purely observational (the
    /// `tracing_does_not_change_timing` guarantee).
    pub fn with_mem_tracing(mut self) -> Self {
        self.master.start_tracing();
        self
    }

    /// Puts every core's emulator on the decoded-block fast path (the
    /// default) or on the reference interpreter. Architecturally a no-op
    /// either way — the determinism suite runs both settings against each
    /// other.
    pub fn with_fastpath(mut self, on: bool) -> Self {
        for s in &mut self.slots {
            s.trace.emulator_mut().set_fastpath(on);
        }
        self
    }

    /// Attaches the interrupt platform: every core gets its hart id and
    /// a private replica of the [`MmioBus`] (CLINT + PLIC + UART) sized
    /// for the whole cluster. Device *stores* travel the same buffered
    /// path as memory stores, so an MSIP write on core 0 lands on core
    /// 1's replica at the next epoch barrier — the IPI latency is the
    /// (bounded, deterministic) coherence lag. `mtime` advances with
    /// each core's retired instructions and is resynced to the cluster
    /// maximum at every barrier (docs/INTERRUPTS.md).
    pub fn with_interrupts(mut self) -> Self {
        let n = self.slots.len();
        for (i, s) in self.slots.iter_mut().enumerate() {
            let emu = s.trace.emulator_mut();
            emu.cpu.hart_id = i as u64;
            emu.attach_platform(Box::new(MmioBus::new(n)));
        }
        self
    }

    /// Attaches a pipeline tracer to every core; the report then carries
    /// per-core Konata trace text.
    pub fn with_tracers(mut self) -> Self {
        for s in &mut self.slots {
            s.core.attach_tracer();
        }
        self.tracing = true;
        self
    }

    /// Runs with the host's available parallelism as the thread count
    /// (clamped to the core count). The result is bit-identical for
    /// every thread count.
    pub fn run(self) -> ClusterReport {
        let threads = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.run_threads(threads)
    }

    /// Runs with an explicit worker-thread count (clamped to the core
    /// count). Cores are partitioned into contiguous chunks, one scoped
    /// thread per chunk per epoch; the barrier is always serial. One
    /// thread runs the identical epoch/barrier pipeline inline on the
    /// calling thread — the sequential oracle the determinism tests
    /// compare the threaded runs against.
    pub fn run_threads(mut self, threads: usize) -> ClusterReport {
        while !self.step_epochs(1, threads) {}
        self.into_report()
    }

    /// Whether every core has finished and the final drain has run —
    /// further [`ClusterSim::step_epochs`] calls are no-ops.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Simulated-cycle epoch boundaries crossed so far.
    pub fn epochs(&self) -> u64 {
        self.engine.epochs
    }

    /// Advances the engine by up to `count` epochs with `threads` worker
    /// threads (1 = inline, the sequential oracle; results are
    /// bit-identical either way). Returns [`ClusterSim::finished`].
    ///
    /// This is the resumable driver underneath the consuming
    /// [`ClusterSim::run`]* entry points: a [`ClusterSim::save`]d
    /// snapshot taken between `step_epochs` calls and
    /// [`ClusterSim::restore`]d into a same-shape instance continues
    /// bit-identically (tests/snapshot_resume.rs).
    pub fn step_epochs(&mut self, count: u64, threads: usize) -> bool {
        for _ in 0..count {
            if self.finished {
                break;
            }
            self.step_one_epoch(threads);
        }
        self.finished
    }

    /// One epoch: parallel (or inline) slice phase, then the serial
    /// barrier. A single-core cluster steps straight against the master
    /// hierarchy — its replica idles, and there is no barrier.
    fn step_one_epoch(&mut self, threads: usize) {
        let n = self.slots.len();
        let epoch_end = (self.engine.epochs + 1).saturating_mul(self.epoch_cycles);
        let progress_before: Option<Vec<(u64, u64)>> = self
            .timeline
            .as_ref()
            .map(|_| self.slots.iter().map(|s| (s.core.cycles(), s.steps)).collect());
        let threads = threads.clamp(1, n);
        let max_insts = self.max_insts;
        let t0 = Instant::now();
        if n == 1 {
            self.slots[0].run_slice(&mut self.master, epoch_end, max_insts);
        } else if threads == 1 {
            for (slot, mem) in self.slots.iter_mut().zip(&mut self.replicas) {
                slot.run_slice(mem, epoch_end, max_insts);
            }
        } else {
            let chunk = n.div_ceil(threads);
            let chunks = self
                .slots
                .chunks_mut(chunk)
                .zip(self.replicas.chunks_mut(chunk));
            thread::scope(|scope| {
                for (slots, mems) in chunks {
                    scope.spawn(move || {
                        for (slot, mem) in slots.iter_mut().zip(mems) {
                            slot.run_slice(mem, epoch_end, max_insts);
                        }
                    });
                }
            });
        }
        let par_ns = t0.elapsed().as_nanos() as u64;
        let mut ser_ns = 0;
        if n > 1 {
            let t1 = Instant::now();
            self.barrier();
            ser_ns = t1.elapsed().as_nanos() as u64;
        }
        self.engine.parallel_ns += par_ns;
        self.engine.serial_ns += ser_ns;
        self.engine.epochs += 1;
        if self.slots.iter().all(|s| s.done) {
            // traffic from the final barrier's released instructions
            let _ = self.drain_to_master();
            self.finished = true;
        }
        self.record_epoch(progress_before, par_ns, ser_ns);
    }

    /// Appends one timeline row: each core's guest-cycle and
    /// instruction deltas across the epoch just executed (slice plus
    /// barrier-released work), with the epoch's measured host split.
    fn record_epoch(
        &mut self,
        progress_before: Option<Vec<(u64, u64)>>,
        parallel_ns: u64,
        serial_ns: u64,
    ) {
        let (Some(tl), Some(before)) = (self.timeline.as_mut(), progress_before) else {
            return;
        };
        let mut cycles = Vec::with_capacity(self.slots.len());
        let mut steps = Vec::with_capacity(self.slots.len());
        for (s, (c0, s0)) in self.slots.iter().zip(before) {
            cycles.push(s.core.cycles() - c0);
            steps.push(s.steps - s0);
        }
        tl.record(EpochSample {
            cycles,
            steps,
            parallel_ns,
            serial_ns,
        });
    }

    /// Assembles the report after a [`ClusterSim::step_epochs`]-driven
    /// run (or mid-run, for the instructions consumed so far).
    pub fn into_report(self) -> ClusterReport {
        self.finish()
    }

    /// Core `core`'s private replica of the hierarchy. It keeps no miss
    /// classifier or scorecard: read statistics from the report.
    pub fn replica(&self, core: usize) -> &MemSystem {
        &self.replicas[core]
    }

    /// Serializes the whole cluster — every core's emulator (plus its
    /// bus replica when interrupts are attached), timing core, memory
    /// replica, pending resync logs, and the master hierarchy — into a
    /// [`xt_snapshot::KIND_CLUSTER`] frame. Valid at any
    /// [`ClusterSim::step_epochs`] boundary. Host-time fields of
    /// [`EngineStats`] are not written (they are measurements, not
    /// state), so equal simulated states produce equal snapshot bytes.
    /// Encoding changes nothing: the cluster runs on as if it had not
    /// been saved.
    pub fn save(&mut self) -> Vec<u8> {
        let mut e = xt_snapshot::Enc::new();
        self.transfer(&mut e).expect("encoding never fails");
        xt_snapshot::seal(xt_snapshot::KIND_CLUSTER, e.bytes())
    }

    /// Restores a [`ClusterSim::save`]d frame into this cluster. The
    /// target must have been built with the same shape — core count,
    /// core/memory configuration, interrupt platform on or off — or
    /// [`xt_snapshot::SnapshotError::Mismatch`] is returned (the target
    /// is then partially restored and must be discarded). The engine
    /// fast-path setting is *not* part of the snapshot: it is
    /// architecturally invisible, so a snapshot taken with the block
    /// cache on restores fine into an instance running with it off.
    pub fn restore(&mut self, bytes: &[u8]) -> xt_snapshot::Result<()> {
        let payload = xt_snapshot::open(bytes, xt_snapshot::KIND_CLUSTER)?;
        let mut d = xt_snapshot::Dec::new(payload);
        self.transfer(&mut d)?;
        d.finish()
    }

    /// The frame's payload: the engine's position, every slot, the
    /// master hierarchy, the timeline.
    fn transfer<S: Stream>(&mut self, s: &mut S) -> xt_snapshot::Result<()> {
        s.expect("core count", self.slots.len())?;
        s.u64(&mut self.epoch_cycles)?;
        s.check(self.epoch_cycles != 0, "epoch cycles")?;
        s.u64(&mut self.max_insts)?;
        s.bool(&mut self.tracing)?;
        s.bool(&mut self.finished)?;
        if S::DECODING {
            self.engine = EngineStats::default();
        }
        s.u64(&mut self.engine.epochs)?;
        for (slot, mem) in self.slots.iter_mut().zip(&mut self.replicas) {
            slot.transfer(s, mem)?;
        }
        self.master.transfer(s)?;
        s.present(self.timeline.as_mut(), "epoch timeline", |s, tl| {
            tl.transfer(s)
        })
    }

    /// The serial epoch barrier (see the [module docs](self) for the
    /// three phases and the ordering argument).
    fn barrier(&mut self) {
        let n = self.slots.len();
        // phase 1: timing traffic to the master; replicas resync from
        // the shared logs at the start of their next slice, in parallel
        let logs = Arc::new(self.drain_to_master());
        for slot in &mut self.slots {
            if !slot.done {
                slot.pending = Some(Arc::clone(&logs));
            }
        }
        // phase 2: buffered functional stores become globally visible
        for src in 0..n {
            let log = self.take_store_log(src);
            self.propagate_stores(src, &log);
        }
        // phase 3: release parked cores' gated instructions, one each
        for i in 0..n {
            let slot = &mut self.slots[i];
            if !slot.parked {
                continue;
            }
            slot.parked = false;
            if let Some(ctl) = slot.trace.emulator_mut().cluster.as_mut() {
                ctl.release_one = true;
            }
            if slot.advance(&mut self.replicas[i], self.max_insts) {
                // the released op is globally visible *now*: its store
                // reaches every core (killing reservations) before the
                // next core's gated op executes, which is what
                // serializes cluster-wide atomics
                let log = self.take_store_log(i);
                self.propagate_stores(i, &log);
            } else {
                assert!(!slot.parked, "released instruction parked again");
            }
        }
        self.sync_mtime();
    }

    /// Resyncs every bus replica's `mtime` to the cluster maximum. Each
    /// core ticks its private CLINT replica per retired instruction, so
    /// between barriers the replicas drift apart by at most one epoch's
    /// retirement; pinning them to the deterministic maximum here keeps
    /// timer-interrupt delivery a function of the instruction streams
    /// alone (not of which replica a compare was armed on).
    fn sync_mtime(&mut self) {
        let max = self
            .slots
            .iter()
            .filter_map(|s| bus_of(s.trace.emulator()).map(|b| b.clint.mtime()))
            .max();
        if let Some(max) = max {
            for s in &mut self.slots {
                if let Some(b) = bus_of_mut(s.trace.emulator_mut()) {
                    b.clint.set_mtime(max);
                }
            }
        }
    }

    /// Replays every replica's recorded [`MemOp`] log into the master in
    /// core-index order (the canonical, deterministic arbitration) and
    /// returns the logs for the replicas' parallel resync.
    fn drain_to_master(&mut self) -> Vec<Vec<MemOp>> {
        let logs: Vec<Vec<MemOp>> = self.replicas.iter_mut().map(MemSystem::take_log).collect();
        for (i, log) in logs.iter().enumerate() {
            for op in log {
                self.master.apply_op(i, op);
            }
        }
        logs
    }

    /// Drains core `i`'s buffered functional stores.
    fn take_store_log(&mut self, i: usize) -> Vec<StoreRec> {
        self.slots[i]
            .trace
            .emulator_mut()
            .cluster
            .as_mut()
            .map(|c| std::mem::take(&mut c.store_log))
            .unwrap_or_default()
    }

    /// Applies `src`'s store log to every core's memory, in program
    /// order, killing LR reservations on touched lines (a core's own
    /// stores never kill its own reservation). The source core is
    /// included — its values are already present, so its own writes are
    /// no-ops value-wise — because the barrier propagates all logs in
    /// core-index order: when two cores raced on the same address in
    /// one epoch, re-applying every log in the canonical order leaves
    /// *every* core holding the same winner (the highest-index writer,
    /// matching [`ClusterSim::drain_to_master`]'s arbitration).
    fn propagate_stores(&mut self, src: usize, log: &[StoreRec]) {
        if log.is_empty() {
            return;
        }
        let line_mask = !(RESERVATION_LINE - 1);
        for j in 0..self.slots.len() {
            let own = j == src;
            let emu = self.slots[j].trace.emulator_mut();
            for s in log {
                // a device store already took effect on the source
                // core's own bus replica at execute time; re-applying it
                // here would double the side effect (MSIP toggles,
                // claim/complete). Other cores' replicas do receive it —
                // that is the IPI delivery path.
                if own && emu.mmio_contains(s.pa) {
                    continue;
                }
                // through the emulator, not raw memory: a cross-core
                // store to a cached code page must invalidate the
                // receiving core's decoded blocks (docs/FASTPATH.md)
                emu.apply_external_store(s.pa, s.val, s.size as usize);
                if own {
                    continue;
                }
                if let Some(resv) = emu.cpu.reservation {
                    if resv & line_mask == s.pa & line_mask {
                        emu.cpu.reservation = None;
                    }
                }
            }
        }
    }

    /// Assembles the report from the master stats and per-core state.
    fn finish(mut self) -> ClusterReport {
        let mstats = self.master.stats();
        let konata = if self.tracing {
            Some(
                self.slots
                    .iter_mut()
                    .map(|s| {
                        s.core
                            .take_tracer()
                            .map(|t| t.to_konata())
                            .unwrap_or_default()
                    })
                    .collect(),
            )
        } else {
            None
        };
        let cores: Vec<PerfCounters> = self
            .slots
            .iter_mut()
            .enumerate()
            .map(|(i, s)| {
                let mut p = s.core.perf().clone();
                p.cycles = s.core.cycles();
                p.prefetch_hits = mstats.prefetches_useful.get(i).copied().unwrap_or(0);
                p
            })
            .collect();
        ClusterReport {
            cores,
            mem: mstats,
            exit_codes: self.slots.iter().map(|s| s.trace.exit_code).collect(),
            konata,
            engine: self.engine,
            timeline: self.timeline.take(),
            mem_events: self.master.stop_tracing(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_asm::Asm;
    use xt_isa::reg::Gpr;

    /// Runs the cluster `mk` builds at 1 and at 4 host threads, requires
    /// identical results, and returns the 4-thread report.
    fn run_at_1_and_4(mk: impl Fn() -> ClusterSim) -> ClusterReport {
        let one = mk().run_threads(1);
        let four = mk().run_threads(4);
        assert_eq!(one.cores, four.cores, "perf counters, 1 vs 4 threads");
        assert_eq!(one.mem, four.mem, "memory statistics, 1 vs 4 threads");
        assert_eq!(
            one.exit_codes, four.exit_codes,
            "exit codes, 1 vs 4 threads"
        );
        four
    }

    /// A private-working-set kernel: each core sums its own array.
    fn private_kernel(id: u64) -> Program {
        let mut a = Asm::new().with_data_base(0x8100_0000 + id * 0x0010_0000);
        let buf = a.data_zeros("buf", 64 * 1024);
        a.la(Gpr::A1, buf);
        a.li(Gpr::A2, 4096);
        let top = a.here();
        a.ld(Gpr::A4, Gpr::A1, 0);
        a.add(Gpr::A5, Gpr::A5, Gpr::A4);
        a.addi(Gpr::A1, Gpr::A1, 8);
        a.addi(Gpr::A2, Gpr::A2, -1);
        a.bnez(Gpr::A2, top);
        a.halt();
        a.finish().unwrap()
    }

    /// A sharing kernel: all cores hammer the same cache line with an
    /// atomic counter (the contended pattern that exposes ping-pong).
    fn sharing_kernel(iters: i64) -> Program {
        let mut a = Asm::new();
        let cell = a.data_u64("cell", &[0]);
        a.la(Gpr::A1, cell);
        a.li(Gpr::A2, iters);
        a.li(Gpr::A3, 1);
        let top = a.here();
        a.amoadd_d(Gpr::A4, Gpr::A3, Gpr::A1);
        a.addi(Gpr::A2, Gpr::A2, -1);
        a.bnez(Gpr::A2, top);
        a.halt();
        a.finish().unwrap()
    }

    /// The same atomic-counter kernel on a private cell.
    fn private_atomic_kernel(id: u64, iters: i64) -> Program {
        let mut a = Asm::new().with_data_base(0x8100_0000 + id * 0x0010_0000);
        let cell = a.data_u64("cell", &[0]);
        a.la(Gpr::A1, cell);
        a.li(Gpr::A2, iters);
        a.li(Gpr::A3, 1);
        let top = a.here();
        a.amoadd_d(Gpr::A4, Gpr::A3, Gpr::A1);
        a.addi(Gpr::A2, Gpr::A2, -1);
        a.bnez(Gpr::A2, top);
        a.halt();
        a.finish().unwrap()
    }

    #[test]
    fn four_private_cores_scale() {
        let mk = |n: usize| {
            let progs: Vec<Program> = (0..n as u64).map(private_kernel).collect();
            let mem_cfg = MemConfig {
                cores: n,
                ..MemConfig::default()
            };
            run_at_1_and_4(|| ClusterSim::new(&progs, &CoreConfig::xt910(), mem_cfg, 10_000_000))
        };
        let one = mk(1);
        let four = mk(4);
        assert!(four.total_instructions() > 3 * one.total_instructions());
        // private working sets: near-linear throughput scaling
        assert!(
            four.throughput_ipc() > 2.0 * one.throughput_ipc(),
            "4-core throughput {:.2} vs 1-core {:.2}",
            four.throughput_ipc(),
            one.throughput_ipc()
        );
        // the only shared line is the halt mailbox: a handful of snoops
        assert!(
            four.mem.snoops_sent <= 8,
            "private sets should barely snoop: {}",
            four.mem.snoops_sent
        );
    }

    #[test]
    fn sharing_generates_coherence_traffic() {
        let progs: Vec<Program> = (0..4).map(|_| sharing_kernel(200)).collect();
        let mem_cfg = MemConfig {
            cores: 4,
            ..MemConfig::default()
        };
        let r =
            run_at_1_and_4(|| ClusterSim::new(&progs, &CoreConfig::xt910(), mem_cfg, 1_000_000));
        assert!(r.mem.snoops_sent > 0, "line ping-pong produces snoops");
        assert!(r.mem.c2c_transfers > 0, "dirty lines move cache-to-cache");
        for code in &r.exit_codes {
            assert!(code.is_some(), "all cores halted");
        }
    }

    #[test]
    fn contended_atomic_slower_than_private_atomic() {
        let share: Vec<Program> = (0..2).map(|_| sharing_kernel(500)).collect();
        let priv_: Vec<Program> = (0..2u64).map(|i| private_atomic_kernel(i, 500)).collect();
        let mem2 = || MemConfig {
            cores: 2,
            ..MemConfig::default()
        };
        let rs =
            run_at_1_and_4(|| ClusterSim::new(&share, &CoreConfig::xt910(), mem2(), 1_000_000));
        let shared_cpi = rs.makespan() as f64 / rs.total_instructions() as f64;
        let rp =
            run_at_1_and_4(|| ClusterSim::new(&priv_, &CoreConfig::xt910(), mem2(), 1_000_000));
        let priv_cpi = rp.makespan() as f64 / rp.total_instructions() as f64;
        assert!(
            shared_cpi > priv_cpi * 1.2,
            "contended CPI {shared_cpi:.2} vs private {priv_cpi:.2}"
        );
        assert!(rs.mem.c2c_transfers > rp.mem.c2c_transfers);
    }

    #[test]
    fn atomic_increments_serialize_cluster_wide() {
        // 4 cores x 50 atomic increments on one cell: the cell must end
        // at exactly 200 in every core's view of memory
        let progs: Vec<Program> = (0..4).map(|_| sharing_kernel(50)).collect();
        let mem_cfg = MemConfig {
            cores: 4,
            ..MemConfig::default()
        };
        let r =
            run_at_1_and_4(|| ClusterSim::new(&progs, &CoreConfig::xt910(), mem_cfg, 1_000_000));
        for code in &r.exit_codes {
            assert!(code.is_some(), "all cores halted");
        }
        // the final amoadd_d result (old value) on some core is 199
        // exactly when no increment was lost; total retires confirm all
        // 4 x 50 loop iterations ran
        let total: u64 = r.cores.iter().map(|c| c.instructions).sum();
        assert!(total > 4 * 50 * 3, "all loops completed");
    }

    #[test]
    fn engine_stats_record_epochs_and_host_time() {
        let progs: Vec<Program> = (0..2u64).map(private_kernel).collect();
        let mem_cfg = MemConfig {
            cores: 2,
            ..MemConfig::default()
        };
        let r = ClusterSim::new(&progs, &CoreConfig::xt910(), mem_cfg, 1_000_000)
            .run_threads(2);
        assert!(r.engine.epochs > 0, "multicore run crosses barriers");
        assert!(r.engine.parallel_ns > 0, "slice phase takes host time");
        let share = r.engine.serial_share();
        assert!((0.0..=1.0).contains(&share), "share in [0,1]: {share}");
    }

    #[test]
    fn timeline_accounts_every_cycle_and_instruction() {
        let progs: Vec<Program> = (0..2u64).map(private_kernel).collect();
        let mem_cfg = MemConfig {
            cores: 2,
            ..MemConfig::default()
        };
        let r = ClusterSim::new(&progs, &CoreConfig::xt910(), mem_cfg, 1_000_000)
            .with_timeline()
            .run_threads(2);
        let tl = r.timeline.as_ref().expect("timeline requested");
        assert_eq!(tl.cores, 2);
        assert_eq!(tl.epochs.len() as u64, r.engine.epochs, "one row per epoch");
        for (c, core) in r.cores.iter().enumerate() {
            assert_eq!(
                tl.core_cycles(c),
                core.cycles,
                "core {c}: timeline rows sum to the reported cycle count"
            );
        }
        // host attribution sums to the engine totals
        let par: u64 = tl.epochs.iter().map(|e| e.parallel_ns).sum();
        let ser: u64 = tl.epochs.iter().map(|e| e.serial_ns).sum();
        assert_eq!(par, r.engine.parallel_ns);
        assert_eq!(ser, r.engine.serial_ns);
        // the guest-axis chrome render is valid and host-free
        let j = tl.to_chrome_json(false);
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(!j.contains("host"));
    }

    #[test]
    fn timeline_guest_columns_deterministic_across_threads() {
        let mk = || {
            let progs: Vec<Program> = (0..4u64).map(private_kernel).collect();
            let mem_cfg = MemConfig {
                cores: 4,
                ..MemConfig::default()
            };
            ClusterSim::new(&progs, &CoreConfig::xt910(), mem_cfg, 200_000).with_timeline()
        };
        let a = mk().run_threads(1).timeline.unwrap();
        let b = mk().run_threads(4).timeline.unwrap();
        assert_eq!(a.epochs.len(), b.epochs.len());
        for (ra, rb) in a.epochs.iter().zip(&b.epochs) {
            assert_eq!(ra.cycles, rb.cycles, "guest cycles are thread-invariant");
            assert_eq!(ra.steps, rb.steps, "guest steps are thread-invariant");
        }
        assert_eq!(
            a.to_chrome_json(false),
            b.to_chrome_json(false),
            "guest-axis render is byte-identical"
        );
    }

    #[test]
    fn cluster_mem_events_reconcile_and_are_thread_invariant() {
        let mk = || {
            let progs: Vec<Program> = (0..2).map(|_| sharing_kernel(100)).collect();
            let mem_cfg = MemConfig {
                cores: 2,
                ..MemConfig::default()
            };
            ClusterSim::new(&progs, &CoreConfig::xt910(), mem_cfg, 500_000).with_mem_tracing()
        };
        let r1 = mk().run_threads(1);
        let r2 = mk().run_threads(2);
        assert_eq!(r1.mem, r2.mem, "stats thread-invariant");
        let e1 = r1.mem_events.expect("tracing requested");
        let e2 = r2.mem_events.expect("tracing requested");
        assert!(!e1.is_empty());
        assert_eq!(e1.events, e2.events, "event stream bit-identical");
        e1.reconcile(&r1.mem).expect("events reconcile with stats");
    }

    /// The replicas keep no miss classifier and no prefetch scorecard;
    /// the report is the master's, which keeps both. A replica still
    /// counts everything else about its own core, and an unclassed miss
    /// is in no class — not even compulsory.
    #[test]
    fn reported_statistics_come_from_an_observing_master() {
        let progs: Vec<Program> = (0..2u64).map(private_kernel).collect();
        let mem_cfg = MemConfig {
            cores: 2,
            ..MemConfig::default()
        };
        let mut sim = ClusterSim::new(&progs, &CoreConfig::xt910(), mem_cfg, 1_000_000);
        while !sim.step_epochs(64, 1) {}
        let replicas: Vec<xt_mem::MemStats> = sim.replicas.iter().map(MemSystem::stats).collect();
        // the master replays every core and runs none: no TLB arrays
        assert!((0..2).all(|c| !sim.master.tlb(c).is_materialized()));
        let r = sim.into_report();
        for (c, own) in replicas.iter().enumerate() {
            assert!(r.mem.l1d[c].1 > 0, "core {c} missed in its L1D");
            assert_eq!(
                r.mem.miss_class_sum(c),
                r.mem.l1d[c].1,
                "core {c}: every miss classified"
            );
            let scored: u64 = r.mem.pf_scorecard[c].iter().map(|s| s.issued).sum();
            assert!(scored > 0, "core {c}: the stream prefetched");
            assert_eq!(
                scored, r.mem.prefetches_issued[c],
                "core {c}: every request scored"
            );
            // core c's own replica: the master's counts for core c, with
            // the observers' columns at zero
            assert_eq!(own.l1d[c], r.mem.l1d[c]);
            assert_eq!(own.tlb_walks[c], r.mem.tlb_walks[c]);
            assert_eq!(own.prefetches_issued[c], r.mem.prefetches_issued[c]);
            assert_eq!(own.prefetches_useful[c], r.mem.prefetches_useful[c]);
            assert_eq!(own.miss_class_sum(c), 0, "core {c}: no observer, no class");
            assert!(own.pf_scorecard[c]
                .iter()
                .all(|s| *s == xt_mem::StreamScore::default()));
        }
    }

    #[test]
    fn thread_counts_agree_on_private_work() {
        let mk = || {
            let progs: Vec<Program> = (0..4u64).map(private_kernel).collect();
            let mem_cfg = MemConfig {
                cores: 4,
                ..MemConfig::default()
            };
            ClusterSim::new(&progs, &CoreConfig::xt910(), mem_cfg, 1_000_000)
        };
        let t1 = mk().run_threads(1);
        let t2 = mk().run_threads(2);
        let t4 = mk().run_threads(4);
        assert_eq!(t1.cores, t2.cores);
        assert_eq!(t1.cores, t4.cores);
        assert_eq!(t1.mem, t2.mem);
        assert_eq!(t1.mem, t4.mem);
        assert_eq!(t1.exit_codes, t4.exit_codes);
    }
}
