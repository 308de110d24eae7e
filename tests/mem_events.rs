//! Memory-event observability contract at the cluster level
//! (docs/OBSERVABILITY.md).
//!
//! For 1-, 2-, and 4-core workloads that mix streaming (prefetcher
//! traffic), a contended atomic counter (coherence traffic), and
//! fenced publishing, the traced runs must:
//!
//! 1. replay into event counts that reconcile *exactly* with every
//!    [`xt_mem::MemStats`] counter ([`xt_mem::MemTracer::reconcile`]);
//! 2. leave the simulation untouched — a traced run's counters and
//!    exit codes are bit-identical to an untraced run's;
//! 3. produce the identical event stream at every host thread count
//!    (the master hierarchy's replay is the canonical stream);
//! 4. keep the miss-classification conservation law,
//!    `misses == compulsory + capacity + conflict + coherence`, per
//!    core.
//!
//! The suite picks its thread counts and, for the sequential oracle, the
//! reference interpreter in code, so the contract is pinned across the
//! engine's execution modes.

use xt_asm::{Asm, Program};
use xt_core::CoreConfig;
use xt_isa::reg::Gpr;
use xt_mem::MemConfig;
use xt_soc::{ClusterReport, ClusterSim};

const MAX_INSTS: u64 = 2_000_000;

/// Private streaming sum: unit-stride loads that confirm a prefetch
/// stream and generate compulsory + capacity misses.
fn stream_kernel(base: u64) -> Program {
    let mut a = Asm::new().with_data_base(base);
    let buf = a.data_zeros("buf", 32 * 1024);
    a.la(Gpr::A1, buf);
    a.li(Gpr::A2, 4096);
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

/// Shared atomic counter: cross-core upgrades, invalidations, and
/// cache-to-cache transfers (coherence misses).
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

/// Fenced producer: stores plus fences, exercising writebacks and the
/// barrier paths.
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

fn workload(cores: usize) -> Vec<Program> {
    match cores {
        1 => vec![stream_kernel(0x8300_0000)],
        2 => vec![counter_kernel(200), counter_kernel(200)],
        4 => vec![
            stream_kernel(0x8300_0000),
            counter_kernel(200),
            counter_kernel(200),
            fenced_producer(80),
        ],
        n => panic!("unsupported core count {n}"),
    }
}

fn build(cores: usize, traced: bool) -> ClusterSim {
    let progs = workload(cores);
    let mem_cfg = MemConfig {
        cores: progs.len(),
        ..MemConfig::default()
    };
    let sim = ClusterSim::new(&progs, &CoreConfig::xt910(), mem_cfg, MAX_INSTS);
    if traced {
        sim.with_mem_tracing()
    } else {
        sim
    }
}

fn assert_same_simulation(a: &ClusterReport, b: &ClusterReport, what: &str) {
    assert_eq!(a.cores, b.cores, "{what}: per-core perf counters differ");
    assert_eq!(a.mem, b.mem, "{what}: memory-system stats differ");
    assert_eq!(a.exit_codes, b.exit_codes, "{what}: exit codes differ");
}

/// Laws 1, 2, and 4 at every supported core count: traced == untraced,
/// events reconcile exactly, miss classes conserve per core.
#[test]
fn events_reconcile_with_counters_at_every_core_count() {
    for cores in [1usize, 2, 4] {
        let plain = build(cores, false).run_threads(2);
        let traced = build(cores, true).run_threads(2);
        assert_same_simulation(&plain, &traced, &format!("{cores}-core traced vs untraced"));
        assert!(plain.mem_events.is_none(), "untraced run carries no events");

        let tracer = traced
            .mem_events
            .as_ref()
            .unwrap_or_else(|| panic!("{cores}-core traced run returned no event stream"));
        assert!(!tracer.events.is_empty(), "{cores}-core run produced events");
        tracer
            .reconcile(&traced.mem)
            .unwrap_or_else(|e| panic!("{cores}-core reconcile failed: {e}"));

        for c in 0..cores {
            assert_eq!(
                traced.mem.miss_class_sum(c),
                traced.mem.l1d[c].1,
                "core {c}/{cores}: miss classes must sum to the L1D miss total"
            );
        }
        if cores > 1 {
            assert!(traced.mem.snoops_sent > 0, "counter cores contend");
            let matrix_sum: u64 = traced.mem.snoop_matrix.iter().sum();
            assert_eq!(matrix_sum, traced.mem.snoops_sent, "snoop matrix conserves");
        }
    }
}

/// Law 3: the canonical event stream is identical at 1, 2, and 4 host
/// threads, event for event, and its chrome render is byte-identical.
#[test]
fn event_stream_is_identical_across_thread_counts() {
    for cores in [2usize, 4] {
        let t1 = build(cores, true).run_threads(1);
        let t2 = build(cores, true).run_threads(2);
        let t4 = build(cores, true).run_threads(4);
        let (e1, e2, e4) = (
            &t1.mem_events.as_ref().unwrap().events,
            &t2.mem_events.as_ref().unwrap().events,
            &t4.mem_events.as_ref().unwrap().events,
        );
        assert!(e1 == e2, "{cores}-core: 1-thread vs 2-thread event streams diverge");
        assert!(e1 == e4, "{cores}-core: 1-thread vs 4-thread event streams diverge");
        assert_eq!(
            t1.mem_events.as_ref().unwrap().to_chrome_json(cores),
            t4.mem_events.as_ref().unwrap().to_chrome_json(cores),
            "{cores}-core: chrome render must be byte-identical across thread counts"
        );
    }
}

/// The sequential oracle on the reference interpreter produces the same
/// stream as the threaded engine on decoded blocks — the replay path and
/// the oracle agree on observability, whichever engine feeds them.
#[test]
fn sequential_oracle_matches_threaded_event_stream() {
    let seq = build(4, true).with_fastpath(false).run_threads(1);
    let thr = build(4, true).run_threads(4);
    assert_same_simulation(&seq, &thr, "sequential vs threaded");
    assert!(
        seq.mem_events.as_ref().unwrap().events == thr.mem_events.as_ref().unwrap().events,
        "sequential and threaded event streams diverge"
    );
}
