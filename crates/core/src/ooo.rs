//! The XT-910 out-of-order pipeline timing model.
//!
//! Replays the committed trace through the 12-stage structure. Constant
//! pipeline depth shifts every instruction equally and cancels out of
//! IPC, so stages are modeled as bandwidth/occupancy constraints plus the
//! *differential* penalties the paper describes: taken-branch bubbles by
//! redirect source (§III-B), ≥7-cycle mispredict correction at the
//! branch-jump unit (§III-A), loop-buffer streaming (§III-C), rename and
//! ROB/issue-queue occupancy (§IV), the dual-issue LSU with pseudo
//! double stores and ordering-violation flushes (§V), and vector-unit
//! latencies (§VII).

use crate::config::CoreConfig;
use crate::ifu::{FrontEnd, Redirect};
use crate::lsu::Lsu;
use crate::perf::{PerfCounters, RunReport, StallCause};
use crate::resources::{Bandwidth, PipeGroup, RetireWindow, SlotLimiter, Window};
use xt_emu::DynInst;
use xt_isa::{ExecClass, Op, RegFile};
use xt_mem::MemSystem;
use xt_trace::{FlushCause, FlushEvent, InstRecord, TraceBuffer, TraceSink};

/// The out-of-order core.
///
/// A [`crate::Session`] drives it over a whole trace; the interface
/// itself is *bounded-epoch* stepping: call [`Self::step`] instruction by
/// instruction and watch [`Self::cycles`] to stop at an epoch boundary.
/// All state is plain data (`Send`, asserted below), so the `xt-soc`
/// epoch engine can move each core onto a worker thread for a cycle
/// slice and hand it back at the barrier.
#[derive(Debug)]
pub struct OooCore {
    cfg: CoreConfig,
    core_id: usize,
    fe: FrontEnd,
    lsu: Lsu,
    // front-end fetch state
    fetch_cycle: u64,
    fetch_bytes: u64,
    cur_fetch_line: u64,
    /// Cycles fetch may run ahead of decode: IBUF depth ÷ decode width.
    ibuf_cycles: u64,
    // stage bandwidth
    decode_bw: Bandwidth,
    rename_bw: Bandwidth,
    retire_bw: Bandwidth,
    issue_slots: SlotLimiter,
    // windows: everything held to retirement releases in order; only the
    // issue queue, left at completion, does not
    rob: RetireWindow,
    iq: Window,
    phys: [RetireWindow; 3],
    // execution pipes
    alu: PipeGroup,
    bju: PipeGroup,
    mdu: PipeGroup,
    fpvec: PipeGroup,
    // scoreboard: cycle each architectural register's value is ready
    reg_ready: [[u64; 32]; 3],
    // vector scoreboard: per-vreg (first-slice, whole-group, chainable)
    // readiness — dependent vector ops chain off `first` (§VII, docs/VECTOR.md)
    vreg: [xt_vector::VregReady; 32],
    serialize_point: u64,
    max_complete: u64,
    last_retire: u64,
    /// Flush bubble awaiting attribution: set at a redirect, charged at
    /// the next instruction's fetch (whose cycle bounds the interval, so
    /// conservation holds even when the flush is the last event).
    pending_flush: Option<(u64, StallCause)>,
    /// Optional per-instruction pipeline tracer (None = zero overhead).
    tracer: Option<TraceBuffer>,
    vec_cfg: xt_vector::VectorConfig,
    last_vset_imm: Option<i64>,
    /// vsetvl speculation failures (§VII).
    pub vset_spec_fails: u64,
    perf: PerfCounters,
}

// The epoch engine hands cores to scoped worker threads; if a non-Send
// field (Rc, raw pointer, …) ever sneaks in, fail the build here rather
// than in xt-soc.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<OooCore>();
};

impl OooCore {
    /// Creates a core with id `core_id` (its index in the cluster memory
    /// system).
    pub fn new(cfg: CoreConfig, core_id: usize) -> Self {
        OooCore {
            fe: FrontEnd::new(&cfg),
            lsu: Lsu::new(&cfg),
            fetch_cycle: 0,
            fetch_bytes: 0,
            cur_fetch_line: u64::MAX,
            ibuf_cycles: (cfg.ibuf_entries as u64 / cfg.decode_width).max(1),
            decode_bw: Bandwidth::new(cfg.decode_width),
            rename_bw: Bandwidth::new(cfg.rename_width),
            retire_bw: Bandwidth::new(cfg.retire_width),
            issue_slots: SlotLimiter::new(cfg.issue_width as u32),
            rob: RetireWindow::new(cfg.rob_entries),
            iq: Window::new(cfg.iq_entries),
            phys: [
                RetireWindow::new(cfg.phys_int),
                RetireWindow::new(cfg.phys_fp),
                RetireWindow::new(cfg.phys_vec),
            ],
            alu: PipeGroup::new(cfg.alu_pipes),
            bju: PipeGroup::new(1),
            mdu: PipeGroup::new(1),
            fpvec: PipeGroup::new(cfg.fp_pipes.max(cfg.vec_pipes)),
            reg_ready: [[0; 32]; 3],
            vreg: [xt_vector::VregReady::default(); 32],
            serialize_point: 0,
            max_complete: 0,
            last_retire: 0,
            pending_flush: None,
            tracer: None,
            vec_cfg: xt_vector::VectorConfig::default(),
            last_vset_imm: None,
            vset_spec_fails: 0,
            perf: PerfCounters::default(),
            core_id,
            cfg,
        }
    }

    /// Seals the counters after the last [`Self::step`] and produces the
    /// report. Its drivers ([`crate::Session`], the `xt-soc` epoch
    /// engine) call it once the trace is exhausted.
    pub fn finish_report(&mut self, mem: &MemSystem, exit_code: Option<u64>) -> RunReport {
        self.perf.cycles = self.last_retire.max(self.max_complete);
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
        self.last_retire.max(self.max_complete)
    }

    /// Performance counters (for incremental use).
    pub fn perf(&self) -> &PerfCounters {
        &self.perf
    }

    /// Cycle at which the most recently stepped instruction retired.
    /// Retirement is in-order, so across successive [`Self::step`]
    /// calls this must never decrease — checkers rely on that.
    pub fn last_retire_cycle(&self) -> u64 {
        self.last_retire
    }

    /// Attaches a fresh trace buffer: subsequent [`Self::step`] calls
    /// record one [`InstRecord`] per instruction plus flush events.
    /// Tracing is off (and free) until this is called.
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

    /// Records a flush for stall attribution and tracing. Call *before*
    /// the accompanying [`Self::redirect_fetch`]: the stall interval
    /// starts at the pre-redirect fetch cycle and is charged lazily at
    /// the next instruction's fetch, whose cycle keeps the charge inside
    /// the program's run (see the conservation notes in [`crate::perf`]).
    fn note_flush(&mut self, pc: u64, at: u64, cause: FlushCause, stall: StallCause) {
        self.pending_flush = Some((self.fetch_cycle, stall));
        if let Some(t) = self.tracer.as_mut() {
            t.flush_event(FlushEvent { cycle: at, pc, cause });
        }
    }

    fn src_file_index(rf: RegFile) -> usize {
        match rf {
            RegFile::Int => 0,
            RegFile::Fp => 1,
            RegFile::Vec => 2,
            RegFile::None => 0,
        }
    }

    /// Advances the model by one committed instruction.
    pub fn step(&mut self, d: &DynInst, mem: &mut MemSystem) {
        let cfg = &self.cfg;
        let traits = d.inst.op.traits_of();
        let class = traits.class;
        let dest = d.inst.dest_of(traits);
        let fo = self.fe.observe(d, class, &mut self.perf);

        // Charge the flush bubble left by the previous instruction's
        // redirect. The interval ends at this instruction's fetch cycle,
        // which bounds the charge inside the program's run; a flush on
        // the very last instruction stays unattributed (conservative).
        if let Some((from, cause)) = self.pending_flush.take() {
            self.perf.charge(cause, from, self.fetch_cycle);
        }

        // ---- IF/IP/IB: fetch bandwidth, I-cache, IBUF ----
        if !fo.from_lbuf {
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
            if self.fetch_bytes + d.inst.len as u64 > cfg.fetch_bytes {
                self.fetch_cycle += 1;
                self.fetch_bytes = 0;
            }
            self.fetch_bytes += d.inst.len as u64;
        }
        let fetched = self.fetch_cycle;

        // ---- ID: decode (3/cycle) ----
        let dec = self.decode_bw.take(fetched + 1);
        // IBUF back-pressure: fetch cannot run more than the buffer depth
        // ahead of decode.
        if dec > self.fetch_cycle + self.ibuf_cycles {
            self.fetch_cycle = dec - self.ibuf_cycles;
            self.fetch_bytes = 0;
        }

        // ---- IR: rename (4 µops/cycle) + physical registers ----
        let uops = if class == ExecClass::Store && cfg.split_stores {
            2
        } else {
            1
        };
        self.perf.uops += uops;
        let mut ren = self.rename_bw.take_n(dec + 1, uops);
        if let Some((rf, _)) = dest {
            ren = self.phys[Self::src_file_index(rf)].alloc(ren);
        }

        // ---- IS: dispatch into ROB + issue queue ----
        // Stall attribution is frontier-based (see [`crate::perf`]): when
        // several in-flight instructions wait out the same full-ROB (or
        // full-IQ) cycles, each wall-clock cycle is charged at most once,
        // so the per-cause sums can never exceed total cycles.
        let rob_at = self.rob.alloc(ren + 1);
        self.perf.charge(StallCause::RobFull, ren + 1, rob_at);
        let iq_at = self.iq.alloc(rob_at);
        self.perf.charge(StallCause::IqFull, rob_at, iq_at);
        let disp = iq_at;

        // ---- RF/EX: operands, issue slots, pipes ----
        // Element width (the trace carries SEW in bits) and the number
        // of registers an operand group spans (the effective LMUL): only
        // instructions with an operand in the vector file read either.
        let touches_vec = [traits.rd, traits.rs1, traits.rs2, traits.rs3].contains(&RegFile::Vec);
        let (sew, group) = if touches_vec {
            let sew = xt_isa::vector::Sew::decode(
                (d.sew_bits.max(8) as u32).trailing_zeros().saturating_sub(3),
            )
            .unwrap_or(xt_isa::vector::Sew::E64);
            let group = xt_vector::chain::group_regs(&self.vec_cfg, d.vl as u64, sew);
            (sew, group)
        } else {
            (xt_isa::vector::Sew::E64, 0)
        };
        let mut ready = disp + 1;
        // Scalar operands: three unconditional scoreboard reads. A
        // position that names no register contributes 0, as does a vector
        // one (those chain, below), and integer `x0` is never written, so
        // its entry stays 0.
        let inst = &d.inst;
        for (rf, idx) in [
            (traits.rs1, inst.rs1),
            (traits.rs2, inst.rs2),
            (traits.rs3, inst.rs3),
        ] {
            let scalar = matches!(rf, RegFile::Int | RegFile::Fp) as u64;
            ready = ready.max(scalar * self.reg_ready[Self::src_file_index(rf)][idx as usize % 32]);
        }
        if touches_vec {
            for (rf, idx) in inst.sources_of(traits) {
                if rf == RegFile::Vec {
                    // chaining: an element-ordered consumer starts at the
                    // producer's first slice, not the whole-group completion
                    for k in 0..group {
                        let vr = &self.vreg[((idx as u64 + k) % 32) as usize];
                        ready = ready.max(xt_vector::source_ready(inst.op, vr));
                    }
                }
            }
        }
        ready = ready.max(self.serialize_point);

        let lat = cfg.lat;
        let mut violation = false;
        // chain-in/whole-group readiness a vector arm computed for its
        // destination; None means the generic writeback (whole group at
        // `complete`, no chaining) applies
        let mut vec_dest: Option<xt_vector::VregReady> = None;
        // The one issue slot of the µop, taken before anything else it
        // does: stores issue st.addr as soon as they are dispatched,
        // serialising classes wait for the machine to drain instead.
        // No wildcard: a new class must say here whether it takes one.
        let slot_want = match class {
            ExecClass::Fence | ExecClass::Csr | ExecClass::System | ExecClass::CacheOp => None,
            ExecClass::Store | ExecClass::VecStore => Some(disp + 1),
            ExecClass::Alu
            | ExecClass::Mul
            | ExecClass::Div
            | ExecClass::Branch
            | ExecClass::Jump
            | ExecClass::JumpInd
            | ExecClass::Load
            | ExecClass::Amo
            | ExecClass::VSet
            | ExecClass::FpAdd
            | ExecClass::FpMul
            | ExecClass::FpDiv
            | ExecClass::FpCvt
            | ExecClass::VecAlu
            | ExecClass::VecFAdd
            | ExecClass::VecMul
            | ExecClass::VecDiv
            | ExecClass::VecPerm
            | ExecClass::VecLoad => Some(ready),
        };
        let at = slot_want.map_or(0, |want| self.issue_slots.take(want));
        // cycle the µop won an issue slot and a pipe — EX1 in the trace
        let exec_start;
        let complete = match class {
            ExecClass::Alu => {
                let start = self.alu.issue(at, 1);
                exec_start = start;
                start + lat.alu
            }
            ExecClass::Mul => {
                // multiplier shares the ALU pipe pair (§II)
                let start = self.alu.issue(at, 1);
                exec_start = start;
                start + lat.mul
            }
            ExecClass::Div => {
                // divider shares the multi-cycle pipe, unpipelined
                let start = self.mdu.issue(at, lat.div);
                exec_start = start;
                start + lat.div
            }
            ExecClass::Branch | ExecClass::Jump | ExecClass::JumpInd => {
                let start = self.bju.issue(at, 1);
                exec_start = start;
                start + lat.alu
            }
            ExecClass::Load => {
                let mem_info = d.mem.expect("load has a memory access");
                exec_start = at;
                let r = self.lsu.load(
                    self.core_id,
                    d.pc,
                    mem_info.vaddr,
                    mem_info.paddr,
                    mem_info.size as u64,
                    at,
                    mem,
                );
                violation = r.violation;
                if r.forwarded {
                    self.perf.store_forwards += 1;
                }
                if let Some((f, t)) = r.queue_wait {
                    self.perf.charge(StallCause::LsuQueueFull, f, t);
                }
                if let Some((f, t)) = r.miss_wait {
                    self.perf.charge(StallCause::DCacheMiss, f, t);
                }
                r.complete
            }
            ExecClass::Store => {
                let mem_info = d.mem.expect("store has a memory access");
                // base register gates st.addr; the data register (rs2 for
                // scalar stores) gates st.data
                let base_rdy = self.reg_ready[0][d.inst.rs1 as usize].max(disp + 1);
                let data_rdy = ready; // includes all sources
                exec_start = at;
                let s = self.lsu.store(
                    mem_info.paddr,
                    mem_info.size as u64,
                    at,
                    base_rdy,
                    data_rdy,
                );
                if let Some((f, t)) = s.queue_wait {
                    self.perf.charge(StallCause::LsuQueueFull, f, t);
                }
                // the write-allocate / ownership request launches as soon
                // as the address resolves (pseudo double store, Fig. 10);
                // the write buffer absorbs the fill latency off the
                // retirement critical path
                let _ = mem.dstore(self.core_id, s.addr_ready, mem_info.vaddr, mem_info.paddr);
                s.complete
            }
            ExecClass::Amo => {
                let start = at;
                exec_start = start;
                // an AMO is a read-modify-write: it needs the line in a
                // writable state, so it takes the store coherence path
                let done = match d.mem {
                    Some(m) => mem
                        .dstore(self.core_id, start, m.vaddr, m.paddr)
                        .max(start + 4),
                    None => start + 4,
                };
                self.serialize_point = done; // acquire/release ordering
                done
            }
            ExecClass::Fence => {
                let done = ready.max(self.max_complete);
                exec_start = done;
                self.serialize_point = done;
                done
            }
            ExecClass::Csr => {
                let start = ready.max(self.max_complete);
                exec_start = start;
                let done = start + lat.csr;
                self.serialize_point = done;
                done
            }
            ExecClass::System => {
                let start = ready.max(self.max_complete);
                exec_start = start;
                let done = start + lat.csr;
                self.serialize_point = done;
                done
            }
            ExecClass::CacheOp => {
                if d.inst.op == Op::XDcacheCall {
                    mem.dcache_flush_all(self.core_id);
                }
                let start = ready.max(self.max_complete);
                exec_start = start;
                let done = start + 8;
                self.serialize_point = done;
                done
            }
            ExecClass::VSet => {
                // §VII: vector parameters are predicted and vector ops
                // execute speculatively; failure only when vl changes.
                let start = self.alu.issue(at, 1);
                exec_start = start;
                let imm = d.inst.imm;
                let fail =
                    d.inst.op == Op::Vsetvl || self.last_vset_imm.is_some_and(|p| p != imm);
                self.last_vset_imm = Some(imm);
                if fail {
                    // speculation failure: vector ops issued under the
                    // stale parameters re-execute — serialize behind the
                    // corrected configuration (§VII)
                    self.vset_spec_fails += 1;
                    let done = start + 4;
                    self.serialize_point = self.serialize_point.max(done);
                    done
                } else {
                    start + lat.alu
                }
            }
            ExecClass::FpAdd => {
                let start = self.fpvec.issue(at, 1);
                exec_start = start;
                start + lat.fadd
            }
            ExecClass::FpMul => {
                let start = self.fpvec.issue(at, 1);
                exec_start = start;
                start + lat.fmul
            }
            ExecClass::FpDiv => {
                let start = self.fpvec.issue(at, lat.fdiv);
                exec_start = start;
                start + lat.fdiv
            }
            ExecClass::FpCvt => {
                let start = self.fpvec.issue(at, 1);
                exec_start = start;
                start + lat.fcvt
            }
            ExecClass::VecAlu | ExecClass::VecFAdd | ExecClass::VecMul | ExecClass::VecDiv
            | ExecClass::VecPerm => {
                // crack into lane slices: occupancy beats the pipes stay
                // busy, first/last slice results for the chaining
                // scoreboard (docs/VECTOR.md)
                let plan = xt_vector::VecPlan::crack(&self.vec_cfg, d.inst.op, d.vl as u64, sew);
                let start = self.fpvec.issue(at, plan.occupancy);
                // a ready vector µop held back by busy vector pipes is a
                // vector-unit stall, not core back-pressure
                self.perf.charge(StallCause::VecBusy, at, start);
                exec_start = start;
                vec_dest = Some(plan.dest_ready(start));
                plan.last_done(start)
            }
            ExecClass::VecLoad => {
                let mem_info = d.mem.expect("vector load accesses memory");
                let bytes = mem_info.size as u64;
                // the LSU moves 128 bits per cycle (§VII)
                let beats = bytes.div_ceil(16).max(1);
                exec_start = at;
                let r = self.lsu.load(
                    self.core_id,
                    d.pc,
                    mem_info.vaddr,
                    mem_info.paddr,
                    bytes,
                    at,
                    mem,
                );
                violation = r.violation;
                if let Some((f, t)) = r.queue_wait {
                    self.perf.charge(StallCause::LsuQueueFull, f, t);
                }
                if let Some((f, t)) = r.miss_wait {
                    self.perf.charge(StallCause::DCacheMiss, f, t);
                }
                // extra lines beyond the first
                let line = 64;
                let first_line = mem_info.paddr & !(line - 1);
                let last_line = (mem_info.paddr + bytes.max(1) - 1) & !(line - 1);
                let mut done = r.complete;
                let mut extra = 1;
                let mut pa = first_line + line;
                while pa <= last_line {
                    let t = mem.dload(
                        self.core_id,
                        r.complete.min(self.max_complete.max(ready)) + extra,
                        mem_info.vaddr + (pa - mem_info.paddr.min(pa)).min(bytes),
                        pa,
                    );
                    done = done.max(t);
                    extra += 1;
                    pa += line;
                }
                // loads forward beat by beat: dependents chain off the
                // first 128-bit beat while later beats stream in
                vec_dest = Some(xt_vector::VregReady {
                    first: r.complete,
                    last: done + beats - 1,
                    chainable: true,
                });
                done + beats - 1
            }
            ExecClass::VecStore => {
                let mem_info = d.mem.expect("vector store accesses memory");
                let bytes = mem_info.size as u64;
                let beats = bytes.div_ceil(16).max(1);
                let base_rdy = self.reg_ready[0][d.inst.rs1 as usize].max(disp + 1);
                exec_start = at;
                let s = self.lsu.store(mem_info.paddr, bytes, at, base_rdy, ready);
                if let Some((f, t)) = s.queue_wait {
                    self.perf.charge(StallCause::LsuQueueFull, f, t);
                }
                let _ = mem.dstore(self.core_id, s.addr_ready, mem_info.vaddr, mem_info.paddr);
                s.complete + beats - 1
            }
        };

        // ---- writeback ----
        if let Some((rf, idx)) = dest {
            // the scalar operand read relies on x0's entry staying 0
            debug_assert!(idx != 0 || rf != RegFile::Int, "x0 is never written");
            self.reg_ready[Self::src_file_index(rf)][idx as usize] = complete;
            if rf == RegFile::Vec {
                // the whole effective-LMUL group becomes ready together;
                // chain-in points come from the executing arm
                let vr = vec_dest.unwrap_or(xt_vector::VregReady::at(complete));
                for k in 0..group {
                    self.vreg[((idx as u64 + k) % 32) as usize] = vr;
                }
            }
        }
        self.max_complete = self.max_complete.max(complete);

        // ---- RT1/RT2: in-order retirement ----
        let ret = self.retire_bw.take((complete + 1).max(self.last_retire));
        self.last_retire = ret;
        self.perf.instructions += 1;
        self.rob.commit(ret);
        self.iq.commit(complete);
        if let Some((rf, _)) = dest {
            self.phys[Self::src_file_index(rf)].commit(ret);
        }
        match class {
            ExecClass::Load | ExecClass::VecLoad => self.lsu.lq.commit(ret),
            ExecClass::Store | ExecClass::VecStore => {
                self.lsu.sq.commit(ret + 1);
                self.lsu.drain_before(ret);
            }
            _ => {}
        }

        // ---- trace record (only when a tracer is attached) ----
        if let Some(tracer) = self.tracer.as_mut() {
            let ex1 = exec_start;
            let ex4 = exec_start.max(complete.saturating_sub(1));
            let span = ex4 - ex1;
            // IF/IP/IB share the fetch cycle, EX2/EX3 interpolate the
            // execution span, RT1/RT2 share the retire cycle — see
            // docs/PIPELINE.md for the modeled-vs-synthesized split.
            let rec = InstRecord::new(
                self.perf.instructions - 1,
                d.pc,
                xt_isa::disasm::disasm(&d.inst),
                [
                    fetched,
                    fetched,
                    fetched,
                    dec,
                    ren,
                    rob_at,
                    ready,
                    ex1,
                    ex1 + span / 3,
                    ex1 + 2 * span / 3,
                    ex4,
                    ret,
                    ret,
                ],
            );
            tracer.record(rec);
        }

        // ---- redirects ----
        let flush_pen = cfg.flush_penalty;
        let mispredict_pen = cfg.mispredict_penalty;
        if d.trapped {
            // Fig. 8: exception flushes the younger speculative work
            self.perf.exception_flushes += 1;
            self.note_flush(d.pc, complete, FlushCause::Exception, StallCause::OrderFlush);
            self.redirect_fetch(complete + flush_pen);
        } else if violation {
            self.perf.mem_order_flushes += 1;
            self.note_flush(d.pc, complete, FlushCause::MemOrder, StallCause::OrderFlush);
            self.redirect_fetch(complete + flush_pen);
        } else {
            match fo.redirect {
                Redirect::None => {}
                Redirect::TakenAtIf => {
                    if !fo.from_lbuf {
                        self.new_fetch_group(0);
                        // a taken branch ends the decode group; only the
                        // loop buffer can issue the loop-back edge
                        // together with the next iteration (SIII-C)
                        self.decode_bw.break_group();
                    }
                }
                Redirect::TakenAtIp => {
                    self.new_fetch_group(self.cfg.ip_jump_bubble);
                    self.decode_bw.break_group();
                }
                Redirect::Mispredict => {
                    self.note_flush(
                        d.pc,
                        complete,
                        FlushCause::Mispredict,
                        StallCause::MispredictFlush,
                    );
                    self.redirect_fetch(complete + mispredict_pen)
                }
            }
        }
    }

    fn new_fetch_group(&mut self, bubble: u64) {
        self.fetch_cycle += 1 + bubble;
        self.fetch_bytes = 0;
    }

    fn redirect_fetch(&mut self, at: u64) {
        self.fetch_cycle = self.fetch_cycle.max(at);
        self.fetch_bytes = 0;
        self.cur_fetch_line = u64::MAX;
    }
}

impl xt_snapshot::SnapshotState for OooCore {
    /// The configuration (`cfg`, `vec_cfg`) is construction-time data:
    /// only the machine name and vector geometry are written, and
    /// restore [`Mismatch`](xt_snapshot::SnapshotError::Mismatch)es
    /// against the live instance rather than overwriting it. Every
    /// sub-resource additionally checks its own width/capacity.
    fn save(&self, e: &mut xt_snapshot::Enc) {
        e.str(self.cfg.name);
        e.usize(self.core_id);
        e.u32(self.vec_cfg.vlen_bits);
        e.u32(self.vec_cfg.slen_bits);
        self.fe.save(e);
        self.lsu.save(e);
        e.u64(self.fetch_cycle);
        e.u64(self.fetch_bytes);
        e.u64(self.cur_fetch_line);
        self.decode_bw.save(e);
        self.rename_bw.save(e);
        self.retire_bw.save(e);
        self.issue_slots.save(e);
        self.rob.save(e);
        self.iq.save(e);
        for w in &self.phys {
            w.save(e);
        }
        self.alu.save(e);
        self.bju.save(e);
        self.mdu.save(e);
        self.fpvec.save(e);
        for file in &self.reg_ready {
            e.u64_seq(file);
        }
        for v in &self.vreg {
            e.u64(v.first);
            e.u64(v.last);
            e.bool(v.chainable);
        }
        e.u64(self.serialize_point);
        e.u64(self.max_complete);
        e.u64(self.last_retire);
        crate::perf::save_pending_flush(e, self.pending_flush);
        crate::perf::save_opt_tracer(e, self.tracer.as_ref());
        match self.last_vset_imm {
            None => e.u8(0),
            Some(v) => {
                e.u8(1);
                e.i64(v);
            }
        }
        e.u64(self.vset_spec_fails);
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
        if d.u32()? != self.vec_cfg.vlen_bits || d.u32()? != self.vec_cfg.slen_bits {
            return Err(xt_snapshot::SnapshotError::Mismatch {
                what: "vector geometry",
            });
        }
        self.fe.restore(d)?;
        self.lsu.restore(d)?;
        self.fetch_cycle = d.u64()?;
        self.fetch_bytes = d.u64()?;
        self.cur_fetch_line = d.u64()?;
        self.decode_bw.restore(d)?;
        self.rename_bw.restore(d)?;
        self.retire_bw.restore(d)?;
        self.issue_slots.restore(d)?;
        self.rob.restore(d)?;
        self.iq.restore(d)?;
        for w in &mut self.phys {
            w.restore(d)?;
        }
        self.alu.restore(d)?;
        self.bju.restore(d)?;
        self.mdu.restore(d)?;
        self.fpvec.restore(d)?;
        for file in &mut self.reg_ready {
            let v = d.u64_seq()?;
            if v.len() != file.len() {
                return Err(xt_snapshot::SnapshotError::Corrupt {
                    what: "scoreboard size",
                });
            }
            file.copy_from_slice(&v);
        }
        // the operand read takes x0's entry as it stands: no run writes it
        if self.reg_ready[0][0] != 0 {
            return Err(xt_snapshot::SnapshotError::Corrupt {
                what: "scoreboard x0",
            });
        }
        for v in &mut self.vreg {
            v.first = d.u64()?;
            v.last = d.u64()?;
            v.chainable = d.bool()?;
        }
        self.serialize_point = d.u64()?;
        self.max_complete = d.u64()?;
        self.last_retire = d.u64()?;
        // a frame is outside input: every retirement-ordered entry was
        // released at a retirement (the store queue's one cycle after), and
        // the next one must not come before it
        let mut held = [&self.rob, &self.lsu.lq].into_iter().chain(&self.phys);
        if held.any(|w| w.newest_release() > self.last_retire)
            || self.lsu.sq.newest_release() > self.last_retire.saturating_add(1)
        {
            return Err(xt_snapshot::SnapshotError::Corrupt {
                what: "window release after the last retirement",
            });
        }
        self.pending_flush = crate::perf::restore_pending_flush(d)?;
        self.tracer = crate::perf::restore_opt_tracer(d)?;
        self.last_vset_imm = match d.u8()? {
            0 => None,
            1 => Some(d.i64()?),
            _ => {
                return Err(xt_snapshot::SnapshotError::Corrupt {
                    what: "vset imm tag",
                })
            }
        };
        self.vset_spec_fails = d.u64()?;
        self.perf.restore(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_asm::Asm;
    use xt_isa::reg::Gpr;
    use xt_mem::{MemConfig, PrefetchConfig};

    fn report(cfg: CoreConfig, build: impl FnOnce(&mut Asm)) -> RunReport {
        let mut a = Asm::new();
        build(&mut a);
        a.halt();
        let p = a.finish().unwrap();
        crate::OooSession::new(&p, &cfg, 10_000_000).run_to_end()
    }

    #[test]
    fn independent_alu_ops_superscalar() {
        // warm loop of independent adds: IPC should approach the
        // narrower of decode width (3) and ALU+branch pipe supply
        let r = report(CoreConfig::xt910(), |a| {
            a.li(Gpr::S0, 2000);
            let top = a.here();
            a.addi(Gpr::A1, Gpr::A1, 1);
            a.addi(Gpr::A2, Gpr::A2, 1);
            a.addi(Gpr::A3, Gpr::A3, 1);
            a.addi(Gpr::A4, Gpr::A4, 1);
            a.addi(Gpr::A5, Gpr::A5, 1);
            a.addi(Gpr::A6, Gpr::A6, 1);
            a.addi(Gpr::S0, Gpr::S0, -1);
            a.bnez(Gpr::S0, top);
        });
        let ipc = r.perf.ipc();
        assert!(ipc > 1.8, "superscalar ALU loop, got IPC {ipc}");
    }

    #[test]
    fn dependent_chain_is_serial() {
        // a loop whose body is one long dependent chain: bounded by the
        // chain, not the 3-wide front end
        let r = report(CoreConfig::xt910(), |a| {
            a.li(Gpr::S0, 500);
            let top = a.here();
            for _ in 0..16 {
                a.addi(Gpr::A1, Gpr::A1, 1);
            }
            a.addi(Gpr::S0, Gpr::S0, -1);
            a.bnez(Gpr::S0, top);
        });
        let ipc = r.perf.ipc();
        assert!(ipc < 1.35, "dependent chain bounds IPC near 1, got {ipc}");
        assert!(ipc > 0.8, "but should sustain ~1, got {ipc}");
    }

    #[test]
    fn mispredicts_cost_cycles() {
        // data-dependent unpredictable branches (LCG parity)
        let build = |a: &mut Asm| {
            a.li(Gpr::S0, 12345);
            a.li(Gpr::S1, 1103515245);
            a.li(Gpr::S2, 12345);
            a.li(Gpr::A2, 0);
            a.li(Gpr::A3, 2000);
            let top = a.new_label();
            a.bind(top).unwrap();
            a.mul(Gpr::S0, Gpr::S0, Gpr::S1);
            a.add(Gpr::S0, Gpr::S0, Gpr::S2);
            a.srli(Gpr::T0, Gpr::S0, 17);
            a.andi(Gpr::T0, Gpr::T0, 1);
            let skip = a.new_label();
            a.beqz(Gpr::T0, skip);
            a.addi(Gpr::A2, Gpr::A2, 1);
            a.bind(skip).unwrap();
            a.addi(Gpr::A3, Gpr::A3, -1);
            a.bnez(Gpr::A3, top);
        };
        let r = report(CoreConfig::xt910(), build);
        assert!(
            r.perf.branch_accuracy() < 0.95,
            "random branch not predictable: {}",
            r.perf.branch_accuracy()
        );
        // the same loop with a predictable branch is much faster
        let r2 = report(CoreConfig::xt910(), |a| {
            a.li(Gpr::A3, 2000);
            let top = a.here();
            a.addi(Gpr::A2, Gpr::A2, 1);
            a.addi(Gpr::A2, Gpr::A2, 1);
            a.addi(Gpr::A2, Gpr::A2, 1);
            a.addi(Gpr::A3, Gpr::A3, -1);
            a.bnez(Gpr::A3, top);
        });
        assert!(r2.perf.branch_accuracy() > 0.99);
    }

    #[test]
    fn loop_buffer_feeds_small_loops() {
        let r = report(CoreConfig::xt910(), |a| {
            a.li(Gpr::A3, 3000);
            let top = a.here();
            a.addi(Gpr::A1, Gpr::A1, 1);
            a.addi(Gpr::A2, Gpr::A2, 2);
            a.addi(Gpr::A3, Gpr::A3, -1);
            a.bnez(Gpr::A3, top);
        });
        assert!(
            r.perf.lbuf_insts > 8000,
            "loop streamed from LBUF: {}",
            r.perf.lbuf_insts
        );
        let mut no_lbuf = CoreConfig::xt910();
        no_lbuf.loop_buffer = false;
        let r2 = report(no_lbuf, |a| {
            a.li(Gpr::A3, 3000);
            let top = a.here();
            a.addi(Gpr::A1, Gpr::A1, 1);
            a.addi(Gpr::A2, Gpr::A2, 2);
            a.addi(Gpr::A3, Gpr::A3, -1);
            a.bnez(Gpr::A3, top);
        });
        assert!(
            r.perf.cycles <= r2.perf.cycles,
            "LBUF never slower: {} vs {}",
            r.perf.cycles,
            r2.perf.cycles
        );
    }

    #[test]
    fn cache_misses_visible_in_pointer_chase() {
        // build a pointer chain with 4 KiB hops (every load misses L1)
        let r = report(CoreConfig::xt910(), |a| {
            // first symbol lands exactly at the data base (8-aligned)
            let n = 512u64;
            let base_addr = xt_asm::DEFAULT_DATA_BASE;
            let mut chain = vec![0u64; n as usize * 512];
            for k in 0..n {
                let next_idx = ((k + 1) % n) * 512;
                chain[(k * 512) as usize] = base_addr + next_idx * 8;
            }
            let base = a.data_u64("chain", &chain);
            assert_eq!(base, base_addr);
            a.la(Gpr::A1, base);
            a.li(Gpr::A3, 2000);
            let top = a.here();
            a.ld(Gpr::A1, Gpr::A1, 0);
            a.addi(Gpr::A3, Gpr::A3, -1);
            a.bnez(Gpr::A3, top);
        });
        let cpi = r.perf.cpi();
        assert!(cpi > 5.0, "memory-bound chase should be slow: CPI {cpi}");
    }

    #[test]
    fn store_forwarding_counted() {
        let r = report(CoreConfig::xt910(), |a| {
            let buf = a.data_zeros("buf", 64);
            a.la(Gpr::A1, buf);
            a.li(Gpr::A3, 1000);
            let top = a.here();
            a.sd(Gpr::A3, Gpr::A1, 0);
            a.ld(Gpr::A2, Gpr::A1, 0); // immediately reload
            a.addi(Gpr::A3, Gpr::A3, -1);
            a.bnez(Gpr::A3, top);
        });
        assert!(
            r.perf.store_forwards > 900,
            "store->load forwards: {}",
            r.perf.store_forwards
        );
    }

    #[test]
    fn prefetch_accelerates_streaming_in_core() {
        let stream = |pf: PrefetchConfig| {
            let mut a = Asm::new();
            let buf = a.data_zeros("buf", 512 * 1024);
            a.la(Gpr::A1, buf);
            a.li(Gpr::A2, 64 * 1024 / 8);
            let top = a.here();
            a.ld(Gpr::A4, Gpr::A1, 0);
            a.addi(Gpr::A1, Gpr::A1, 8);
            a.addi(Gpr::A2, Gpr::A2, -1);
            a.bnez(Gpr::A2, top);
            a.halt();
            let p = a.finish().unwrap();
            let mem_cfg = MemConfig {
                prefetch: pf,
                ..MemConfig::default()
            };
            crate::OooSession::with_mem(&p, &CoreConfig::xt910(), mem_cfg, 10_000_000).run_to_end()
        };
        let off = stream(PrefetchConfig::off());
        let on = stream(PrefetchConfig::all_large());
        assert!(
            on.perf.cycles * 2 < off.perf.cycles,
            "prefetch >2x on stream: {} vs {}",
            on.perf.cycles,
            off.perf.cycles
        );
    }

    #[test]
    fn stall_attribution_conserved_under_rob_pressure() {
        // A cache-missing pointer chase with a deep tail of independent
        // ALU work: the chase head blocks retirement while the back end
        // keeps allocating, so the ROB fills and every younger
        // instruction waits out the *same* stall cycles. The old
        // per-instruction accounting summed those overlapping waits and
        // overflowed total cycles by orders of magnitude.
        // shrink the windows so back-pressure is easy to provoke
        let mut cfg = CoreConfig::xt910();
        cfg.rob_entries = 16;
        cfg.iq_entries = 8;
        let alu_fill = |a: &mut Asm| {
            for _ in 0..32 {
                a.addi(Gpr::A2, Gpr::A2, 1); // independent fill
            }
        };
        let r = crate::OooSession::new(&chase_with(alu_fill), &cfg, 10_000_000).run_to_end();
        let p = &r.perf;
        assert!(
            p.rob_stall_cycles() > 0,
            "workload must actually exercise ROB back-pressure"
        );
        assert!(
            p.stalls_conserved(),
            "attributed {} must fit in {} cycles",
            p.attributed_stall_cycles(),
            p.cycles
        );
    }

    /// A chase whose every hop misses L1 (4 KiB apart), `fill` after each
    /// hop: the hop blocks retirement while the fill keeps allocating.
    fn chase_with(fill: impl Fn(&mut Asm)) -> xt_asm::Program {
        let mut a = Asm::new();
        let n = 256u64;
        let base_addr = xt_asm::DEFAULT_DATA_BASE;
        let mut chain = vec![0u64; n as usize * 512];
        for k in 0..n {
            chain[(k * 512) as usize] = base_addr + ((k + 1) % n) * 512 * 8;
        }
        let base = a.data_u64("chain", &chain);
        assert_eq!(base, base_addr);
        a.la(Gpr::A1, base);
        a.mv(Gpr::A5, Gpr::A1);
        a.li(Gpr::A3, 500);
        let top = a.here();
        a.ld(Gpr::A1, Gpr::A1, 0); // L1-missing chase head
        fill(&mut a);
        a.addi(Gpr::A3, Gpr::A3, -1);
        a.bnez(Gpr::A3, top);
        a.halt();
        a.finish().unwrap()
    }

    /// A frame holds a retirement-ordered window's occupied entries only;
    /// restore rebuilds its ring position and watermark from them. Cut a
    /// run where such a window is full — the next `alloc` waits for the
    /// oldest restored entry — and the rest of it must not notice.
    #[test]
    fn a_run_resumes_from_a_full_retirement_ordered_window() {
        let mut rob_bound = CoreConfig::xt910();
        rob_bound.rob_entries = 16;
        rob_bound.iq_entries = 8;
        let rob_full = |c: &OooCore| c.rob.occupancy() == c.cfg.rob_entries;
        let alu_fill = |a: &mut Asm| {
            for _ in 0..32 {
                a.addi(Gpr::A2, Gpr::A2, 1);
            }
        };
        let mut lq_bound = CoreConfig::xt910();
        lq_bound.lq_entries = 4;
        let lq_full = |c: &OooCore| c.lsu.lq.occupancy() == c.cfg.lq_entries;
        let load_fill = |a: &mut Asm| {
            for k in 0..8 {
                a.ld(Gpr::A4, Gpr::A5, 8 * k);
            }
        };
        type Full<'a> = &'a dyn Fn(&OooCore) -> bool;
        let cases: [(&str, CoreConfig, xt_asm::Program, Full); 2] = [
            ("ROB", rob_bound, chase_with(alu_fill), &rob_full),
            ("LQ", lq_bound, chase_with(load_fill), &lq_full),
        ];
        for (name, cfg, p, full) in cases {
            let whole = crate::OooSession::new(&p, &cfg, 1_000_000).run_to_end();
            let mut first = crate::OooSession::new(&p, &cfg, 1_000_000);
            // well into the run, so the ring has wrapped
            first.run_insts(2_000);
            while !full(first.core()) {
                assert!(first.step(), "the {name} never fills");
            }
            let snap = first.save();
            let mut resumed = crate::OooSession::new(&p, &cfg, 1_000_000);
            resumed.restore(&snap).unwrap();
            assert_eq!(resumed.save(), snap, "{name}: save∘restore∘save");
            let r = resumed.run_to_end();
            assert_eq!(r.perf, whole.perf, "{name}: counters");
            assert_eq!(r.mem, whole.mem, "{name}: memory counters");
            assert_eq!(r.exit_code, whole.exit_code, "{name}: exit code");
        }
    }

    #[test]
    fn exit_code_propagates() {
        let r = report(CoreConfig::xt910(), |a| {
            a.li(Gpr::A0, 55);
        });
        assert_eq!(r.exit_code, Some(55));
    }
}
