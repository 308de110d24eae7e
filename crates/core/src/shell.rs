//! The pipeline shell both timing cores share: fetch, redirect, the
//! trace record and the report are each defined here once, so the
//! XT-910 and the U74-class baseline of Fig. 17 differ only where their
//! pipelines do. Each core keeps the shell's state inside its own frame,
//! at the place it writes it.

use crate::config::CoreConfig;
use crate::ifu::Redirect;
use crate::laws;
use crate::perf::{PerfCounters, RunReport, StallCause};
use xt_emu::DynInst;
use xt_isa::vector::Sew;
use xt_isa::{Op, RegFile};
use xt_mem::MemSystem;
use xt_snapshot::{SnapshotState, Stream};
use xt_trace::{FlushCause, FlushEvent, InstRecord, TraceBuffer, TraceSink};

/// Fetch, redirect and accounting state of one core.
#[derive(Debug)]
pub(crate) struct Shell {
    fetch_cycle: u64,
    fetch_bytes: u64,
    cur_fetch_line: u64,
    /// Flush bubble awaiting attribution: set at a redirect, charged at
    /// the next instruction's fetch (whose cycle bounds the interval, so
    /// conservation holds even when the flush is the last event).
    pending_flush: Option<(u64, StallCause)>,
    /// Optional per-instruction pipeline tracer (None = zero overhead).
    pub(crate) tracer: Option<TraceBuffer>,
    pub(crate) perf: PerfCounters,
}

/// Scoreboard row of a register file (`None` names no register and
/// reads row 0).
pub(crate) fn file_index(rf: RegFile) -> usize {
    match rf {
        RegFile::Int | RegFile::None => 0,
        RegFile::Fp => 1,
        RegFile::Vec => 2,
    }
}

/// Element width of a vector record (the trace carries SEW in bits).
pub(crate) fn sew_of(d: &DynInst) -> Sew {
    let log2_bytes = (d.sew_bits.max(8) as u32)
        .trailing_zeros()
        .saturating_sub(3);
    Sew::decode(log2_bytes).unwrap_or(Sew::E64)
}

impl Shell {
    pub(crate) fn new() -> Self {
        Shell {
            fetch_cycle: 0,
            fetch_bytes: 0,
            cur_fetch_line: u64::MAX,
            pending_flush: None,
            tracer: None,
            perf: PerfCounters::default(),
        }
    }

    /// IF/IP/IB: charges the flush bubble the previous instruction's
    /// redirect left, then fetches `d` — through the I-cache, one access
    /// per line, and `width` bytes a cycle, unless the loop buffer
    /// supplies it — and returns its fetch cycle.
    #[inline]
    pub(crate) fn fetch(
        &mut self,
        d: &DynInst,
        mem: &mut MemSystem,
        core_id: usize,
        width: u64,
        from_lbuf: bool,
    ) -> u64 {
        // the interval ends at this fetch, which bounds the charge inside
        // the program's run; a flush on the very last instruction stays
        // unattributed (conservative)
        if let Some((from, cause)) = self.pending_flush.take() {
            self.perf.charge(cause, from, self.fetch_cycle);
        }
        if !from_lbuf {
            let line = d.fetch_pa >> mem.config().line_bytes.trailing_zeros();
            if line != self.cur_fetch_line {
                let t = mem.icache_fetch(core_id, self.fetch_cycle, d.fetch_pa);
                if t > self.fetch_cycle {
                    self.perf
                        .charge(StallCause::ICacheMiss, self.fetch_cycle, t);
                    self.fetch_cycle = t;
                    self.fetch_bytes = 0;
                }
                self.cur_fetch_line = line;
            }
            if self.fetch_bytes + d.inst.len as u64 > width {
                self.fetch_cycle += 1;
                self.fetch_bytes = 0;
            }
            self.fetch_bytes += d.inst.len as u64;
        }
        self.fetch_cycle
    }

    /// Fetch back-pressure: fetch runs at most `depth` cycles ahead of
    /// the stage that took the instruction at `at`.
    #[inline]
    pub(crate) fn hold_fetch(&mut self, at: u64, depth: u64) {
        if at > self.fetch_cycle + depth {
            self.fetch_cycle = at - depth;
            self.fetch_bytes = 0;
        }
    }

    /// Records the instruction just retired, if a tracer is attached:
    /// IF/IP/IB share `front[0]`, the fetch cycle, followed by ID, IR and
    /// IS; EX2/EX3 interpolate EX1..EX4 in thirds, EX4 is the last
    /// execution cycle and RT1/RT2 share `retire` (docs/PIPELINE.md).
    #[inline]
    pub(crate) fn record(
        &mut self,
        d: &DynInst,
        front: [u64; 4],
        ready: u64,
        ex1: u64,
        complete: u64,
        retire: u64,
    ) {
        if let Some(tracer) = self.tracer.as_mut() {
            let [fetched, id, ir, is] = front;
            let ex4 = ex1.max(complete.saturating_sub(1));
            let (ex2, ex3) = (ex1 + (ex4 - ex1) / 3, ex1 + 2 * (ex4 - ex1) / 3);
            let seq = self.perf.instructions - 1;
            tracer.record(InstRecord::new(
                seq,
                d.pc,
                xt_isa::disasm::disasm(&d.inst),
                [
                    fetched, fetched, fetched, id, ir, is, ready, ex1, ex2, ex3, ex4, retire,
                    retire,
                ],
            ));
        }
    }

    /// Redirects fetch after `d`, which completed at `complete`: a trap
    /// or a memory-order `violation` flushes, a mispredict refills from
    /// the branch-jump unit, and a taken branch starts a new fetch group.
    /// Returns whether the redirect ends the core's decode/issue group.
    #[inline]
    pub(crate) fn redirect(
        &mut self,
        d: &DynInst,
        complete: u64,
        cfg: &CoreConfig,
        violation: bool,
        redirect: Redirect,
        from_lbuf: bool,
    ) -> bool {
        let (cause, stall, penalty) = if d.trapped {
            // Fig. 8: an exception flushes the younger speculative work
            self.perf.exception_flushes += 1;
            (
                FlushCause::Exception,
                StallCause::OrderFlush,
                cfg.flush_penalty,
            )
        } else if violation {
            self.perf.mem_order_flushes += 1;
            (
                FlushCause::MemOrder,
                StallCause::OrderFlush,
                cfg.flush_penalty,
            )
        } else if redirect == Redirect::Mispredict {
            (
                FlushCause::Mispredict,
                StallCause::MispredictFlush,
                cfg.mispredict_penalty,
            )
        } else {
            let bubble = match redirect {
                Redirect::TakenAtIp => cfg.ip_jump_bubble,
                // only the loop buffer can issue the loop-back edge
                // together with the next iteration (§III-C)
                Redirect::TakenAtIf if !from_lbuf => 0,
                _ => return false,
            };
            self.fetch_cycle += 1 + bubble;
            self.fetch_bytes = 0;
            return true;
        };
        // the stall interval starts at the pre-redirect fetch cycle and is
        // charged at the next fetch (the conservation notes in
        // [`crate::perf`]); fetch restarts `penalty` after `complete`
        self.pending_flush = Some((self.fetch_cycle, stall));
        if let Some(t) = self.tracer.as_mut() {
            t.flush_event(FlushEvent {
                cycle: complete,
                pc: d.pc,
                cause,
            });
        }
        self.fetch_cycle = self.fetch_cycle.max(complete + penalty);
        self.fetch_bytes = 0;
        self.cur_fetch_line = u64::MAX;
        false
    }

    /// The memory side of a cache-maintenance op: `x.dcache.call` cleans
    /// and invalidates `core_id`'s whole L1D (untimed; its
    /// `CacheFlush` event counts the dirty lines).
    pub(crate) fn cache_op(d: &DynInst, mem: &mut MemSystem, core_id: usize) {
        if d.inst.op == Op::XDcacheCall {
            mem.dcache_flush_all(core_id);
        }
    }

    /// Seals the counters at `cycles` and produces the run report.
    pub(crate) fn report(
        &mut self,
        cycles: u64,
        mem: &MemSystem,
        core_id: usize,
        machine: &'static str,
        exit_code: Option<u64>,
    ) -> RunReport {
        self.perf.cycles = cycles;
        let mem_stats = mem.stats();
        self.perf.prefetch_hits = mem_stats
            .prefetches_useful
            .get(core_id)
            .copied()
            .unwrap_or(0);
        debug_assert_eq!(laws::check(&self.perf, &[laws::STALL_BUDGET]), Ok(()));
        RunReport {
            machine,
            perf: self.perf.clone(),
            mem: mem_stats,
            exit_code,
        }
    }

    /// The fetch words of a frame.
    pub(crate) fn transfer_fetch<S: Stream>(&mut self, s: &mut S) -> xt_snapshot::Result<()> {
        s.u64(&mut self.fetch_cycle)?;
        s.u64(&mut self.fetch_bytes)?;
        s.u64(&mut self.cur_fetch_line)
    }

    /// The pending flush and the tracer of a frame.
    pub(crate) fn transfer_flush<S: Stream>(&mut self, s: &mut S) -> xt_snapshot::Result<()> {
        s.opt(&mut self.pending_flush, |s, (from, cause)| {
            s.u64(from)?;
            s.variant(cause, &StallCause::ALL, "stall cause tag")
        })?;
        s.opt(&mut self.tracer, |s, t| t.transfer(s))
    }
}

#[cfg(test)]
mod tests {
    use crate::session::{CoreModel, Session};
    use crate::{CoreConfig, InOrderCore, OooCore};
    use std::collections::BTreeSet;
    use xt_asm::Asm;
    use xt_isa::reg::Gpr;
    use xt_mem::{MemConfig, MemEventKind};

    /// A straight-line run on `line_bytes`-byte lines makes one demand
    /// L1I access per line it crosses.
    fn fetches_each_line_once<C: CoreModel>(cfg: &CoreConfig, line_bytes: u32) {
        let mut a = Asm::new();
        for k in 0..100 {
            a.addi(Gpr::A1, Gpr::A1, k);
        }
        a.halt();
        let p = a.finish().unwrap();
        let mem = MemConfig {
            line_bytes,
            ..MemConfig::default()
        };
        let (r, trace) = Session::<C>::with_mem(&p, cfg, mem, 10_000).run_traced();
        let lines: BTreeSet<u64> = trace
            .records()
            .iter()
            .map(|t| t.pc / line_bytes as u64)
            .collect();
        let (hits, misses) = r.mem.l1i[0];
        assert_eq!(
            hits + misses,
            lines.len() as u64,
            "{} at {line_bytes}-byte lines",
            cfg.name
        );
    }

    #[test]
    fn fetch_takes_the_line_size_from_the_memory_system() {
        for line_bytes in [32, 64] {
            fetches_each_line_once::<OooCore>(&CoreConfig::xt910(), line_bytes);
            fetches_each_line_once::<InOrderCore>(&CoreConfig::u74_like(), line_bytes);
        }
    }

    /// A guest that dirties `LINES` lines and then issues `x.dcache.call`,
    /// on `C`: the dirty-line counts of its `CacheFlush` events, and
    /// whether any line it stored to is still in its L1D.
    fn flush_after_stores<C: CoreModel>(cfg: &CoreConfig) -> (Vec<u64>, bool) {
        const LINES: u64 = 16;
        let mut a = Asm::new();
        let buf = a.data_zeros("buf", (LINES * 64) as usize);
        a.la(Gpr::S0, buf);
        for k in 0..LINES {
            a.sd(Gpr::S0, Gpr::S0, (k * 64) as i64);
        }
        a.xdcache_call();
        a.halt();
        let p = a.finish().unwrap();
        let mut s = Session::<C>::new(&p, cfg, 10_000);
        s.mem_mut().start_tracing();
        s.run_to_end();
        let mem = s.mem();
        let flushes = mem.tracer().expect("tracing").events.iter();
        let flushes = flushes.filter_map(|e| match e.kind {
            MemEventKind::CacheFlush { dirty_lines } => Some(dirty_lines),
            _ => None,
        });
        let resident = (0..LINES).any(|k| mem.l1d(0).contains(buf + k * 64));
        (flushes.collect(), resident)
    }

    /// `x.dcache.call` cleans and invalidates the L1D on both cores: the
    /// same guest leaves none of its lines valid and reports the same
    /// dirty-line count.
    #[test]
    fn both_cores_flush_the_l1d_on_x_dcache_call() {
        let ooo = flush_after_stores::<OooCore>(&CoreConfig::xt910());
        let inorder = flush_after_stores::<InOrderCore>(&CoreConfig::u74_like());
        assert_eq!(ooo, (vec![16], false), "out of order");
        assert_eq!(inorder, ooo, "in order");
    }
}
