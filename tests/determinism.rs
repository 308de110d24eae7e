//! The cluster engine's determinism contract: one simulation, any host
//! thread count, bit-identical results.
//!
//! A 4-core workload mixing private streaming, a contended atomic
//! counter, and a fence-synchronized producer/consumer pair runs through
//! the inline sequential oracle and the threaded engine at 1, 2, and 4
//! workers. Perf counters, memory-system statistics, exit codes, and
//! Konata pipeline traces must match byte for byte (docs/CLUSTER.md).

use xt_asm::{Asm, Program};
use xt_core::CoreConfig;
use xt_isa::reg::Gpr;
use xt_mem::MemConfig;
use xt_soc::{ClusterReport, ClusterSim};

const MAX_INSTS: u64 = 2_000_000;

/// Core 0: private streaming sum over 64 KiB.
fn stream_kernel() -> Program {
    let mut a = Asm::new().with_data_base(0x8300_0000);
    let buf = a.data_zeros("buf", 64 * 1024);
    a.la(Gpr::A1, buf);
    a.li(Gpr::A2, 8192);
    let top = a.here();
    a.ld(Gpr::A4, Gpr::A1, 0);
    a.add(Gpr::A5, Gpr::A5, Gpr::A4);
    a.addi(Gpr::A1, Gpr::A1, 8);
    a.addi(Gpr::A2, Gpr::A2, -1);
    a.bnez(Gpr::A2, top);
    a.mv(Gpr::A0, Gpr::A5);
    a.halt();
    a.finish().unwrap()
}

/// Cores 1-2: hammer one shared atomic counter.
fn counter_kernel(iters: i64) -> Program {
    let mut a = Asm::new();
    let cell = a.data_u64("cell", &[0]);
    a.la(Gpr::A1, cell);
    a.li(Gpr::A2, iters);
    a.li(Gpr::A3, 1);
    let top = a.here();
    a.amoadd_d(Gpr::A4, Gpr::A3, Gpr::A1);
    a.addi(Gpr::A2, Gpr::A2, -1);
    a.bnez(Gpr::A2, top);
    a.mv(Gpr::A0, Gpr::A4);
    a.halt();
    a.finish().unwrap()
}

/// Core 3: publishes into a mailbox with a fence after every write,
/// exercising the barrier's park/release path on each iteration.
fn fenced_producer(iters: i64) -> Program {
    let mut a = Asm::new().with_data_base(0x8400_0000);
    let slot = a.data_u64("slot", &[0]);
    a.la(Gpr::A1, slot);
    a.li(Gpr::A2, iters);
    let top = a.here();
    a.sd(Gpr::A2, Gpr::A1, 0);
    a.fence();
    a.addi(Gpr::A2, Gpr::A2, -1);
    a.bnez(Gpr::A2, top);
    a.li(Gpr::A0, 0);
    a.halt();
    a.finish().unwrap()
}

fn build() -> ClusterSim {
    let progs = vec![
        stream_kernel(),
        counter_kernel(300),
        counter_kernel(300),
        fenced_producer(100),
    ];
    let mem_cfg = MemConfig {
        cores: progs.len(),
        ..MemConfig::default()
    };
    ClusterSim::new(&progs, &CoreConfig::xt910(), mem_cfg, MAX_INSTS).with_tracers()
}

fn assert_identical(a: &ClusterReport, b: &ClusterReport, what: &str) {
    assert_eq!(a.cores, b.cores, "{what}: per-core perf counters differ");
    assert_eq!(a.mem, b.mem, "{what}: memory-system stats differ");
    assert_eq!(a.exit_codes, b.exit_codes, "{what}: exit codes differ");
    let (ka, kb) = (a.konata.as_ref().unwrap(), b.konata.as_ref().unwrap());
    assert_eq!(ka.len(), kb.len(), "{what}: trace count differs");
    for (i, (ta, tb)) in ka.iter().zip(kb).enumerate() {
        assert!(
            ta == tb,
            "{what}: core {i} Konata trace diverges (len {} vs {})",
            ta.len(),
            tb.len()
        );
    }
}

/// The headline contract: 1 thread (the sequential oracle) == 2
/// threads == 4 threads, byte for byte, including pipeline traces.
#[test]
fn thread_count_does_not_change_results() {
    let seq = build().run_threads(1);
    let t2 = build().run_threads(2);
    let t4 = build().run_threads(4);
    assert_identical(&seq, &t2, "sequential vs 2 threads");
    assert_identical(&seq, &t4, "sequential vs 4 threads");
    // sanity: the workload really ran
    assert!(seq.total_instructions() > 40_000);
    assert!(seq.mem.snoops_sent > 0, "counter cores contend");
}

/// Determinism must hold at every epoch length, including degenerate
/// single-cycle epochs (maximum barrier pressure) and oversized ones.
#[test]
fn thread_count_invariance_across_epoch_lengths() {
    for epoch in [1, 97, 4096, 1 << 20] {
        let seq = build().with_epoch(epoch).run_threads(1);
        let t4 = build().with_epoch(epoch).run_threads(4);
        assert_identical(&seq, &t4, &format!("epoch {epoch}"));
    }
}

/// Two identical runs at the same thread count are themselves
/// bit-identical — no wall-clock or scheduling leak into the model.
#[test]
fn repeated_runs_are_reproducible() {
    let a = build().run_threads(4);
    let b = build().run_threads(4);
    assert_identical(&a, &b, "repeated 4-thread runs");
}

/// The decoded-block cache (docs/FASTPATH.md) is a per-core speed
/// optimization and must not perturb the cluster contract: with caching
/// forced off, every thread count still reproduces the cached runs'
/// reports bit for bit — counters, memory stats, exit codes, and Konata
/// traces.
#[test]
fn fastpath_does_not_change_cluster_results() {
    let fast = build().with_fastpath(true).run_threads(1);
    for threads in [1, 2, 4] {
        let on = build().with_fastpath(true).run_threads(threads);
        let off = build().with_fastpath(false).run_threads(threads);
        assert_identical(&fast, &on, &format!("fast, {threads} threads"));
        assert_identical(&fast, &off, &format!("slow, {threads} threads"));
    }
}
