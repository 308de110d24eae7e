//! Golden pipeline trace: a ten-instruction hand-scheduled program whose
//! per-stage cycle table is written out below and asserted against the
//! tracer on both timing models, then rendered and compared
//! byte-for-byte against the checked-in Konata / Chrome-trace fixtures.
//!
//! The program exercises one of each interesting flow: address
//! materialization (`la` → lui+slli), an immediate, a 2-deep dependent
//! ALU chain, a store, a same-address load (store-to-load forwarding on
//! the OoO core, a cold D-cache miss on the forwarding-less in-order
//! baseline), a dependent consumer, and the halt sequence (lui+sd to the
//! MMIO halt address).
//!
//! Stage slots per record: IF IP IB ID IR IS RF EX1 EX2 EX3 EX4 RT1 RT2
//! (see docs/PIPELINE.md for which timestamps are modeled vs
//! synthesized). Cycle numbers are absolute; the run starts at cycle 214
//! because the first instruction fetch cold-misses the I-cache all the
//! way to DRAM (200-cycle latency plus L1/L2 probe and transfer).

use xt_asm::Asm;
use xt_core::{CoreConfig, InOrderSession, OooSession};
use xt_isa::reg::Gpr;
use xt_trace::{InstRecord, NUM_STAGES};

/// The golden program. Ten committed instructions after expansion.
fn golden_program() -> xt_asm::Program {
    let mut a = Asm::new();
    let buf = a.data_zeros("buf", 64);
    a.la(Gpr::S2, buf); // lui s2, … ; slli s2, s2, 12
    a.li(Gpr::A0, 5); // addi a0, zero, 5
    a.addi(Gpr::A1, Gpr::A0, 1);
    a.addi(Gpr::A2, Gpr::A1, 2);
    a.sd(Gpr::A2, Gpr::S2, 0);
    a.ld(Gpr::A3, Gpr::S2, 0); // forwarded (OoO) / cold miss (in-order)
    a.add(Gpr::A4, Gpr::A3, Gpr::A0);
    a.halt(); // lui t6, … ; sd a0, 0(t6)
    a.finish().expect("golden program assembles")
}

/// The expected XT-910 (OoO) table.
///
/// Reading it: the first fetch group (4 insts within the 16-byte fetch
/// window) arrives together at 214, decodes 3-wide (insts 0-2 at 215,
/// inst 3 at 216), renames 4-wide one cycle later, and dispatches in
/// order. Execution is out of order: the dependent addi chain (insts
/// 3-5) issues one per cycle as each operand forwards; the load (inst 6)
/// issues at 220 but its EX stretches to 224 — store-to-load forwarding
/// from inst 5's store-queue entry (SQ read + align), not a cache
/// access. Its consumer (inst 7) therefore starts only at 225, while the
/// younger halt-sequence instructions (8-9) execute earlier — visible
/// out-of-order execution with in-order retirement (RT cycles are
/// monotone, 2/cycle).
const GOLDEN_OOO: [[u64; NUM_STAGES]; 10] = [
    [214, 214, 214, 215, 216, 217, 218, 218, 218, 218, 218, 220, 220], // lui  s2
    [214, 214, 214, 215, 216, 217, 219, 219, 219, 219, 219, 221, 221], // slli s2 (dep on 0)
    [214, 214, 214, 215, 216, 217, 218, 219, 219, 219, 219, 221, 221], // li   a0
    [214, 214, 214, 216, 217, 218, 220, 220, 220, 220, 220, 222, 222], // addi a1 (dep on 2)
    [215, 215, 215, 216, 217, 218, 221, 221, 221, 221, 221, 223, 223], // addi a2 (dep on 3)
    [215, 215, 215, 216, 217, 218, 222, 222, 222, 222, 222, 224, 224], // sd   a2 (dep on 4)
    [215, 215, 215, 217, 218, 219, 220, 220, 221, 222, 224, 226, 226], // ld   a3 (forwarded)
    [215, 215, 215, 217, 218, 219, 225, 225, 225, 225, 225, 227, 227], // add  a4 (dep on 6)
    [216, 216, 216, 217, 218, 219, 220, 222, 222, 222, 222, 227, 227], // lui  t6 (halt seq)
    [216, 216, 216, 218, 219, 220, 223, 223, 223, 223, 223, 227, 227], // sd   a0 (halt)
];

/// The expected U74-class (in-order) table.
///
/// Dual-issue in order: IF/ID advance 2 per cycle and EX follows issue
/// directly. The same-address load (inst 6) has no store-to-load
/// forwarding, so it cold-misses the D-cache and completes at 1084 —
/// and, being in-order, everything younger (insts 7-9) waits for it:
/// the scoreboard stalls issue and fetch backs up to 1077. The OoO/IO
/// cycle gap on this one program (227 vs 1088 total) is the paper's
/// §V-B forwarding argument in miniature.
const GOLDEN_INORDER: [[u64; NUM_STAGES]; 10] = [
    [214, 214, 214, 215, 215, 215, 215, 215, 215, 215, 215, 216, 216], // lui  s2
    [214, 214, 214, 215, 215, 215, 216, 216, 216, 216, 216, 217, 217], // slli s2
    [215, 215, 215, 216, 216, 216, 216, 216, 216, 216, 216, 217, 217], // li   a0
    [215, 215, 215, 216, 216, 216, 217, 217, 217, 217, 217, 218, 218], // addi a1
    [216, 216, 216, 217, 217, 217, 218, 218, 218, 218, 218, 219, 219], // addi a2
    [216, 216, 216, 217, 217, 217, 219, 219, 219, 219, 220, 221, 221], // sd   a2
    [217, 217, 217, 218, 218, 218, 219, 219, 507, 795, 1084, 1085, 1085], // ld a3 (cold miss)
    [217, 217, 217, 218, 218, 218, 1085, 1085, 1085, 1085, 1085, 1086, 1086], // add a4
    [1077, 1077, 1077, 1078, 1078, 1078, 1085, 1085, 1085, 1085, 1085, 1086, 1086], // lui t6
    [1077, 1077, 1077, 1078, 1078, 1078, 1086, 1086, 1086, 1086, 1087, 1088, 1088], // sd a0
];

fn assert_table(records: &[InstRecord], expect: &[[u64; NUM_STAGES]; 10], model: &str) {
    assert_eq!(records.len(), expect.len(), "{model}: record count");
    for (r, want) in records.iter().zip(expect) {
        assert_eq!(
            &r.enter, want,
            "{model}: stage table for #{} `{}` (pc {:#x})",
            r.seq, r.disasm, r.pc
        );
    }
    // structural sanity independent of the concrete numbers
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.seq, i as u64, "{model}: commit-order seq");
        assert!(!r.disasm.is_empty(), "{model}: disasm present");
        for w in r.enter.windows(2) {
            assert!(w[0] <= w[1], "{model}: stages non-decreasing");
        }
        if i > 0 {
            assert!(
                r.retired_at() >= records[i - 1].retired_at(),
                "{model}: retirement is in order"
            );
        }
    }
}

#[test]
fn golden_ooo_stage_table() {
    let p = golden_program();
    let (report, trace) = OooSession::new(&p, &CoreConfig::xt910(), 1000).run_traced();
    assert_eq!(report.perf.instructions, 10);
    assert_eq!(report.perf.cycles, 227);
    assert!(report.perf.stalls_conserved());
    assert_eq!(report.perf.store_forwards, 1, "the reload is forwarded");
    assert_table(trace.records(), &GOLDEN_OOO, "ooo");
    assert!(trace.flushes().is_empty(), "straight-line code never flushes");
}

#[test]
fn golden_inorder_stage_table() {
    let p = golden_program();
    let (report, trace) = InOrderSession::new(&p, &CoreConfig::u74_like(), 1000).run_traced();
    assert_eq!(report.perf.instructions, 10);
    assert_eq!(report.perf.cycles, 1088);
    assert!(report.perf.stalls_conserved());
    assert_table(trace.records(), &GOLDEN_INORDER, "inorder");
}

#[test]
fn golden_renders_match_fixtures() {
    let p = golden_program();
    let (_, trace) = OooSession::new(&p, &CoreConfig::xt910(), 1000).run_traced();
    assert_eq!(
        trace.to_konata(),
        include_str!("fixtures/golden.kanata"),
        "Konata render drifted from tests/fixtures/golden.kanata"
    );
    assert_eq!(
        trace.to_chrome_json(),
        include_str!("fixtures/golden_chrome.json"),
        "Chrome render drifted from tests/fixtures/golden_chrome.json"
    );
}

/// The decoded-block cache (docs/FASTPATH.md) must be invisible to the
/// timing models: the committed fixtures render byte-identically with
/// the fast path forced off (the suite's other tests run with it on —
/// the default — so together they pin both engines to one trace).
#[test]
fn golden_renders_identical_without_fastpath() {
    let p = golden_program();
    let cfg = CoreConfig::xt910();
    let mut emu = xt_emu::Emulator::new();
    emu.set_fastpath(false);
    emu.load(&p);
    let (report, buf) = OooSession::from_parts(
        xt_emu::TraceSource::new(emu, 1000),
        xt_core::OooCore::new(cfg.clone(), 0),
        xt_mem::MemSystem::new(cfg.mem),
    )
    .run_traced();
    assert_eq!(report.perf.cycles, 227, "slow-path timing unchanged");
    assert_table(buf.records(), &GOLDEN_OOO, "ooo-slowpath");
    assert_eq!(
        buf.to_konata(),
        include_str!("fixtures/golden.kanata"),
        "Konata fixture must not depend on the block cache"
    );
    assert_eq!(
        buf.to_chrome_json(),
        include_str!("fixtures/golden_chrome.json"),
        "Chrome fixture must not depend on the block cache"
    );
}

#[test]
fn tracing_does_not_change_timing() {
    // the tracer must be observational: cycle counts with and without it
    // attached are identical
    let p = golden_program();
    let traced = OooSession::new(&p, &CoreConfig::xt910(), 1000).run_traced().0;
    let plain = OooSession::new(&p, &CoreConfig::xt910(), 1000).run_to_end();
    assert_eq!(traced.perf.cycles, plain.perf.cycles);
    assert_eq!(
        traced.perf.attributed_stall_cycles(),
        plain.perf.attributed_stall_cycles()
    );
}
