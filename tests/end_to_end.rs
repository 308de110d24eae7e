//! Whole-stack integration: IR → compiler → assembler → emulator →
//! timing models → cluster, cross-checked at every level.

use xt_compiler::{CompileOpts, FuncBuilder, Rval};
use xt_core::{CoreConfig, InOrderSession, OooSession};
use xt_emu::Emulator;
use xt_mem::MemConfig;
use xt_soc::ClusterSim;

/// A kernel exercising loads, stores, branches, MACs and selects.
fn build_kernel() -> (FuncBuilder, u64) {
    let n = 48u64;
    let data: Vec<u64> = (0..n).map(|k| (k * 37 + 11) % 101).collect();
    // host: sum of data[i]*i for data[i] odd
    let expected: u64 = data
        .iter()
        .enumerate()
        .filter(|(_, &v)| v % 2 == 1)
        .map(|(i, &v)| v * i as u64)
        .sum::<u64>()
        & 0x3fff_ffff;

    let mut f = FuncBuilder::new("e2e");
    let sym = f.symbol_u64("data", &data);
    let base = f.addr_of(&sym);
    let (i, acc) = (f.vreg(), f.vreg());
    f.li(i, 0);
    f.li(acc, 0);
    let head = f.new_block();
    let body = f.new_block();
    let exit = f.new_block();
    f.jmp(head);
    f.switch_to(head);
    f.br_lt(Rval::Reg(i), Rval::Imm(n as i64), body, exit);
    f.switch_to(body);
    let v = f.load_indexed_u64(base, i);
    let odd = f.vreg();
    f.and(odd, Rval::Reg(v), Rval::Imm(1));
    let term = f.vreg();
    f.mul(term, Rval::Reg(v), Rval::Reg(i));
    // zero the term when even: select term=0 if odd==0
    f.select_eqz(term, Rval::Imm(0), odd);
    f.add(acc, Rval::Reg(acc), Rval::Reg(term));
    f.add(i, Rval::Reg(i), Rval::Imm(1));
    f.jmp(head);
    f.switch_to(exit);
    f.and(acc, Rval::Reg(acc), Rval::Imm(0x3fff_ffff));
    f.halt(Rval::Reg(acc));
    (f, expected)
}

#[test]
fn every_layer_agrees_on_the_result() {
    let (f, expected) = build_kernel();
    for opts in [CompileOpts::native(), CompileOpts::optimized()] {
        let prog = f.compile(&opts).expect("compiles");
        // emulator
        let mut emu = Emulator::new();
        emu.load(&prog);
        assert_eq!(emu.run(10_000_000).unwrap(), expected, "{opts:?} emu");
        // out-of-order model (exit code travels through the trace)
        let r = OooSession::new(&prog, &CoreConfig::xt910(), 10_000_000).run_to_end();
        assert_eq!(r.exit_code, Some(expected), "{opts:?} ooo");
        // in-order model
        let r = InOrderSession::new(&prog, &CoreConfig::u74_like(), 10_000_000).run_to_end();
        assert_eq!(r.exit_code, Some(expected), "{opts:?} inorder");
    }
}

#[test]
fn machines_rank_as_expected() {
    let (f, _) = build_kernel();
    let prog = f.compile(&CompileOpts::optimized()).unwrap();
    let xt = OooSession::new(&prog, &CoreConfig::xt910(), 10_000_000).run_to_end().perf.cycles;
    let a73 = OooSession::new(&prog, &CoreConfig::a73_like(), 10_000_000).run_to_end().perf.cycles;
    let u74 = InOrderSession::new(&prog, &CoreConfig::u74_like(), 10_000_000).run_to_end()
        .perf
        .cycles;
    assert!(xt <= a73, "3-wide XT-910 ({xt}) <= 2-wide reference ({a73})");
    assert!(a73 < u74, "out-of-order ({a73}) < in-order ({u74})");
}

#[test]
fn cluster_runs_the_same_kernel_on_all_cores() {
    let (f, expected) = build_kernel();
    let prog = f.compile(&CompileOpts::optimized()).unwrap();
    let progs = vec![prog.clone(), prog.clone(), prog.clone(), prog];
    let mem = MemConfig {
        cores: 4,
        ..MemConfig::default()
    };
    let r = ClusterSim::new(&progs, &CoreConfig::xt910(), mem, 10_000_000).run();
    for (c, code) in r.exit_codes.iter().enumerate() {
        assert_eq!(*code, Some(expected), "core {c}");
    }
    assert_eq!(r.cores.len(), 4);
    // This kernel is too short (~500 insts/core, cold TLBs) for an
    // absolute IPC floor; assert throughput *scaling* instead — four
    // cores doing independent work must deliver close to 4x the
    // aggregate IPC of one core on the same kernel.
    let mem1 = MemConfig {
        cores: 1,
        ..MemConfig::default()
    };
    let r1 = ClusterSim::new(&progs[..1], &CoreConfig::xt910(), mem1, 10_000_000).run();
    assert!(
        r.throughput_ipc() > 3.0 * r1.throughput_ipc(),
        "4-core aggregate IPC {:.3} should be ~4x the 1-core {:.3}",
        r.throughput_ipc(),
        r1.throughput_ipc()
    );
}

#[test]
fn workload_suites_all_self_check() {
    for opts in [CompileOpts::native(), CompileOpts::optimized()] {
        for k in xt_workloads::coremark::all(&opts) {
            k.verify(100_000_000);
        }
        for k in xt_workloads::eembc::all(&opts) {
            k.verify(100_000_000);
        }
        for k in xt_workloads::nbench::all(&opts) {
            k.verify(200_000_000);
        }
    }
    xt_workloads::stream::stream(2048).verify(10_000_000);
    xt_workloads::spec_like::spec_like().verify(50_000_000);
    xt_workloads::blockchain::hash_verify(false).verify(50_000_000);
    xt_workloads::blockchain::hash_verify(true).verify(50_000_000);
}
