//! # xt-trace — per-stage pipeline instruction tracing (the observability layer)
//!
//! The paper's evaluation is measurement-driven; this crate is what lets
//! the simulator be *measured* at instruction granularity instead of
//! only through aggregate counters. The `xt-core` timing models emit one
//! [`InstRecord`] per committed instruction — the cycle it entered every
//! modeled stage of the XT-910's 12-stage pipeline
//! (IF IP IB ID IR IS RF EX1-EX4 RT1-RT2, [`Stage`]) — plus a
//! [`FlushEvent`] for every pipeline flush (mispredict, memory-order
//! violation, exception), which is how squashed wrong-path work appears
//! in a trace-driven model that only replays the committed stream.
//!
//! Records flow into a [`TraceSink`]; [`TraceBuffer`] is the standard
//! in-memory sink and renders two interchange formats:
//!
//! * [`TraceBuffer::to_konata`] — the Kanata/Konata pipeline-viewer text
//!   format (load the file in [Konata](https://github.com/shioyadan/Konata)
//!   to scroll through the pipeline),
//! * [`TraceBuffer::to_chrome_json`] — Chrome `trace_event` JSON
//!   (open in `chrome://tracing` or Perfetto), hand-rolled like the rest
//!   of the workspace's JSON (no serde; hermetic-build policy).
//!
//! Tracing is **opt-in and zero-cost when disabled**: the core models
//! hold an `Option<TraceBuffer>` that defaults to `None`, and no record
//! is constructed unless a buffer is attached (see
//! `OooCore::attach_tracer` in `xt-core`).
//!
//! Both emitters are deterministic: the same record stream produces
//! byte-identical output, which is what lets the golden-trace fixtures
//! under `tests/fixtures/` be checked in.
//!
//! How the model's event times map onto the 13 stage slots (several
//! front-end stages are collapsed in the model) is documented in
//! `docs/PIPELINE.md` and in [`Stage`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod chrome;
mod konata;
pub mod lanes;

/// The XT-910's pipeline stages as modeled (paper §II, Fig. 3).
///
/// The timing model collapses stages that have no differential cost
/// (constant depth cancels out of IPC): IF/IP/IB share the fetch
/// timestamp, and EX2/EX3 are interpolated between issue and
/// completion. The trace still carries all 13 slots so the rendered
/// pipeline has the paper's shape; `docs/PIPELINE.md` spells out which
/// timestamps are modeled and which are synthesized.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
#[repr(usize)]
pub enum Stage {
    /// Instruction fetch: I-cache / loop-buffer access.
    If = 0,
    /// Instruction pre-decode (branch target from the IP-stage BTB).
    Ip = 1,
    /// Instruction buffer (IBUF) — decouples fetch from decode.
    Ib = 2,
    /// Decode (3 instructions per cycle).
    Id = 3,
    /// Rename (4 µops per cycle) and physical-register allocation.
    Ir = 4,
    /// Dispatch into the ROB and issue queue.
    Is = 5,
    /// Register-file read / wait for operands (out-of-order issue).
    Rf = 6,
    /// Execute 1 — the cycle the µop wins an issue slot and a pipe.
    Ex1 = 7,
    /// Execute 2 (interpolated for multi-cycle operations).
    Ex2 = 8,
    /// Execute 3 (interpolated for multi-cycle operations).
    Ex3 = 9,
    /// Execute 4 — the last execution cycle; leaving EX4 is completion.
    Ex4 = 10,
    /// Retire 1 — in-order commit from the ROB.
    Rt1 = 11,
    /// Retire 2 — architectural state update.
    Rt2 = 12,
}

/// Number of stage slots in a record.
pub const NUM_STAGES: usize = 13;

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; NUM_STAGES] = [
        Stage::If,
        Stage::Ip,
        Stage::Ib,
        Stage::Id,
        Stage::Ir,
        Stage::Is,
        Stage::Rf,
        Stage::Ex1,
        Stage::Ex2,
        Stage::Ex3,
        Stage::Ex4,
        Stage::Rt1,
        Stage::Rt2,
    ];

    /// Short display name (also used in Konata and Chrome output).
    pub fn name(self) -> &'static str {
        match self {
            Stage::If => "IF",
            Stage::Ip => "IP",
            Stage::Ib => "IB",
            Stage::Id => "ID",
            Stage::Ir => "IR",
            Stage::Is => "IS",
            Stage::Rf => "RF",
            Stage::Ex1 => "EX1",
            Stage::Ex2 => "EX2",
            Stage::Ex3 => "EX3",
            Stage::Ex4 => "EX4",
            Stage::Rt1 => "RT1",
            Stage::Rt2 => "RT2",
        }
    }
}

/// Per-instruction pipeline record: the cycle the instruction entered
/// each stage.
///
/// Entry cycles are non-decreasing in stage order (enforced by
/// [`InstRecord::new`], which clamps with a running maximum). An
/// instruction *leaves* a stage when it enters the next one; leaving
/// [`Stage::Rt2`] (cycle [`InstRecord::retired_at`]) is architectural
/// retirement.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InstRecord {
    /// Commit-order sequence number (0-based).
    pub seq: u64,
    /// Fetch program counter (virtual).
    pub pc: u64,
    /// Disassembly text for viewers (empty if the producer skipped it).
    pub disasm: String,
    /// Entry cycle per stage, indexed by `Stage as usize`.
    pub enter: [u64; NUM_STAGES],
}

impl InstRecord {
    /// Builds a record, clamping `enter` to be non-decreasing across
    /// stages (collapsed stages share their predecessor's cycle).
    pub fn new(seq: u64, pc: u64, disasm: String, enter: [u64; NUM_STAGES]) -> Self {
        let mut e = enter;
        for i in 1..NUM_STAGES {
            e[i] = e[i].max(e[i - 1]);
        }
        InstRecord {
            seq,
            pc,
            disasm,
            enter: e,
        }
    }

    /// Cycle the instruction entered `stage`.
    pub fn enter(&self, stage: Stage) -> u64 {
        self.enter[stage as usize]
    }

    /// Cycle the instruction left `stage` (= entry of the next stage;
    /// the final stage is held for one cycle).
    pub fn leave(&self, stage: Stage) -> u64 {
        let i = stage as usize;
        if i + 1 < NUM_STAGES {
            self.enter[i + 1]
        } else {
            self.enter[i] + 1
        }
    }

    /// Cycle of architectural retirement (leaving RT2).
    pub fn retired_at(&self) -> u64 {
        self.leave(Stage::Rt2)
    }

    /// Total cycles from fetch to retirement.
    pub fn latency(&self) -> u64 {
        self.retired_at() - self.enter(Stage::If)
    }
}

/// Why the pipeline flushed (squashing younger speculative work).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub enum FlushCause {
    /// Branch direction or indirect-target misprediction, corrected at
    /// the branch-jump unit (§III-A).
    #[default]
    Mispredict,
    /// Memory-order violation: a load speculated past a conflicting
    /// older store (§V-A).
    MemOrder,
    /// Exception / trap entry (Fig. 8).
    Exception,
}

impl FlushCause {
    /// Every cause, in snapshot tag order.
    pub const ALL: [FlushCause; 3] = [
        FlushCause::Mispredict,
        FlushCause::MemOrder,
        FlushCause::Exception,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            FlushCause::Mispredict => "mispredict",
            FlushCause::MemOrder => "mem-order",
            FlushCause::Exception => "exception",
        }
    }
}

/// A pipeline flush: the squashed wrong-path work of a trace-driven
/// model, which replays only committed instructions.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct FlushEvent {
    /// Cycle the flush was triggered (resolution of the faulting
    /// instruction).
    pub cycle: u64,
    /// PC of the instruction that caused the flush.
    pub pc: u64,
    /// Why the pipeline flushed.
    pub cause: FlushCause,
}

/// Consumer of pipeline trace events.
///
/// The core models are instrumented against this trait so alternative
/// sinks (streaming writers, filters) can be dropped in;
/// [`TraceBuffer`] is the standard in-memory implementation and
/// [`NullSink`] the explicit no-op.
pub trait TraceSink: std::fmt::Debug {
    /// Receives one committed instruction's pipeline record.
    fn record(&mut self, rec: InstRecord);
    /// Receives a pipeline-flush event.
    fn flush_event(&mut self, ev: FlushEvent);
}

/// A sink that discards everything (for measuring tracing overhead).
#[derive(Clone, Copy, Default, Debug)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _rec: InstRecord) {}
    fn flush_event(&mut self, _ev: FlushEvent) {}
}

/// In-memory trace buffer: collects records in commit order and renders
/// the interchange formats.
#[derive(Clone, Default, Debug)]
pub struct TraceBuffer {
    records: Vec<InstRecord>,
    flushes: Vec<FlushEvent>,
}

impl TraceBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        TraceBuffer::default()
    }

    /// The collected instruction records, in commit order.
    pub fn records(&self) -> &[InstRecord] {
        &self.records
    }

    /// The collected flush events, in trigger order.
    pub fn flushes(&self) -> &[FlushEvent] {
        &self.flushes
    }

    /// Renders the buffer in the Konata/Kanata pipeline-viewer format.
    pub fn to_konata(&self) -> String {
        konata::render(&self.records, &self.flushes)
    }

    /// Renders the buffer as Chrome `trace_event` JSON (one `X` slice
    /// per stage per instruction, instant events for flushes).
    pub fn to_chrome_json(&self) -> String {
        chrome::render(&self.records, &self.flushes)
    }
}

impl TraceSink for TraceBuffer {
    fn record(&mut self, rec: InstRecord) {
        self.records.push(rec);
    }
    fn flush_event(&mut self, ev: FlushEvent) {
        self.flushes.push(ev);
    }
}

impl xt_snapshot::SnapshotState for TraceBuffer {
    /// Records are restored verbatim, bypassing [`InstRecord::new`]'s
    /// clamp: they were clamped when they were made.
    fn transfer<S: xt_snapshot::Stream>(&mut self, s: &mut S) -> xt_snapshot::Result<()> {
        s.vec(&mut self.records, 24 + 8 * NUM_STAGES, |s, r| {
            s.u64(&mut r.seq)?;
            s.u64(&mut r.pc)?;
            s.string(&mut r.disasm)?;
            r.enter.iter_mut().try_for_each(|c| s.u64(c))
        })?;
        s.vec(&mut self.flushes, 17, |s, f| {
            s.u64(&mut f.cycle)?;
            s.u64(&mut f.pc)?;
            s.variant(&mut f.cause, &FlushCause::ALL, "flush cause")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, base: u64) -> InstRecord {
        let mut enter = [0u64; NUM_STAGES];
        for (i, e) in enter.iter_mut().enumerate() {
            *e = base + i as u64;
        }
        InstRecord::new(seq, 0x1000 + 4 * seq, format!("inst{seq}"), enter)
    }

    #[test]
    fn stage_order_and_names() {
        assert_eq!(Stage::ALL.len(), NUM_STAGES);
        for w in Stage::ALL.windows(2) {
            assert!((w[0] as usize) < (w[1] as usize));
        }
        assert_eq!(Stage::If.name(), "IF");
        assert_eq!(Stage::Rt2.name(), "RT2");
    }

    #[test]
    fn record_clamps_monotonic() {
        let mut enter = [5u64; NUM_STAGES];
        enter[3] = 2; // out of order: must clamp up to 5
        enter[10] = 9;
        let r = InstRecord::new(0, 0x80, String::new(), enter);
        for w in r.enter.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(r.enter(Stage::Id), 5);
        assert_eq!(r.enter(Stage::Ex4), 9);
        assert_eq!(r.leave(Stage::Rt2), r.enter(Stage::Rt2) + 1);
        assert_eq!(r.retired_at(), r.enter(Stage::Rt2) + 1);
        assert!(r.latency() >= NUM_STAGES as u64 - 9);
    }

    #[test]
    fn buffer_collects_in_order() {
        let mut b = TraceBuffer::new();
        b.record(rec(0, 0));
        b.record(rec(1, 1));
        b.flush_event(FlushEvent {
            cycle: 7,
            pc: 0x1004,
            cause: FlushCause::Mispredict,
        });
        assert_eq!(b.records().len(), 2);
        assert_eq!(b.flushes().len(), 1);
        assert_eq!(b.records()[1].seq, 1);
    }

    #[test]
    fn null_sink_discards() {
        let mut s = NullSink;
        s.record(rec(0, 0));
        s.flush_event(FlushEvent {
            cycle: 0,
            pc: 0,
            cause: FlushCause::Exception,
        });
    }

    #[test]
    fn konata_and_chrome_render_nonempty() {
        let mut b = TraceBuffer::new();
        b.record(rec(0, 0));
        b.record(rec(1, 2));
        let k = b.to_konata();
        assert!(k.starts_with("Kanata\t0004\n"));
        assert!(k.contains("\tIF"));
        let j = b.to_chrome_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"traceEvents\""));
    }

    #[test]
    fn rendering_is_deterministic() {
        let mut b = TraceBuffer::new();
        for s in 0..5 {
            b.record(rec(s, s * 3));
        }
        assert_eq!(b.to_konata(), b.clone().to_konata());
        assert_eq!(b.to_chrome_json(), b.clone().to_chrome_json());
    }
}
