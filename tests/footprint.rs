//! Host heap of the memory hierarchy and of the 4-core cluster engine,
//! counted by a `#[global_allocator]` that tracks live and peak bytes.
//!
//! Four budgets are pinned, each this tree's measurement plus 10 %: a
//! 1-core `MemSystem::new` before any access, one observer-less 4-core
//! `MemSystem::replica`, `ClusterSim::new` on four private-slice kernels
//! (the `cluster4` benchmark's private job), and the peak heap of that
//! cluster's run; a fifth, the guest pages the cluster holds for its
//! barrier's store propagation, is pinned at its page count. A
//! hierarchy that builds its L2 tag store before a fill, a replica or a
//! master that materializes TLB arrays for a core it never runs live,
//! or an emulator that copies a peer's output it never reads, fails
//! here, and `--nocapture` prints where the bytes go:
//!
//! ```sh
//! cargo test --release --test footprint -- --nocapture
//! ```
//!
//! Everything is one `#[test]`: the allocator counts the whole process,
//! so a second test running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use xt_asm::{Asm, Program};
use xt_core::CoreConfig;
use xt_isa::reg::Gpr;
use xt_mem::{Cache, MemConfig, MemSystem, MissClassifier, Prefetcher, Tlb};
use xt_soc::ClusterSim;

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(now, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the heap bytes it leaves allocated.
fn heap_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Relaxed);
    let v = f();
    (v, LIVE.load(Relaxed).saturating_sub(before))
}

fn kib(bytes: usize) -> f64 {
    bytes as f64 / 1024.0
}

/// Elements each core of the `cluster4` private job sums.
const ELEMS: u64 = 12 * 1024;

/// Core `core` sums its own `ELEMS`-word array into a running total and
/// writes every partial sum to a second array (the benchmark's
/// private-slice guest at one sweep).
fn private_slice(core: u64) -> Program {
    let init: Vec<u64> = (0..ELEMS).map(|k| (k * 7 + core) % 13).collect();
    let mut a = Asm::new().with_data_base(0x8200_0000 + core * 0x0100_0000);
    let src = a.data_u64("a", &init);
    let dst = a.data_zeros("b", (ELEMS * 8) as usize);
    a.li(Gpr::A0, 0);
    a.la(Gpr::A1, src);
    a.la(Gpr::A2, dst);
    a.li(Gpr::A3, ELEMS as i64);
    let top = a.here();
    a.ld(Gpr::A4, Gpr::A1, 0);
    a.add(Gpr::A0, Gpr::A0, Gpr::A4);
    a.sd(Gpr::A0, Gpr::A2, 0);
    a.addi(Gpr::A1, Gpr::A1, 8);
    a.addi(Gpr::A2, Gpr::A2, 8);
    a.addi(Gpr::A3, Gpr::A3, -1);
    a.bnez(Gpr::A3, top);
    a.halt();
    a.finish().expect("slice assembles")
}

fn cluster_mem() -> MemConfig {
    MemConfig {
        cores: 4,
        ..MemConfig::default()
    }
}

/// Fails with the measurement when `bytes` exceeds `budget`.
fn within(what: &str, bytes: usize, budget: usize) {
    println!(
        "{what:<50} {:>9.1} KiB (budget {:.1})",
        kib(bytes),
        kib(budget)
    );
    assert!(
        bytes <= budget,
        "{what}: {bytes} B over its budget of {budget} B"
    );
}

#[test]
fn heap_footprint_of_a_replica_and_a_cluster() {
    let cfg = cluster_mem();

    // where one hierarchy's bytes go
    let line = cfg.line_bytes;
    let (_, l2) = heap_of(|| Cache::sparse("L2", cfg.l2_kib, cfg.l2_ways, line));
    let (_, l2_chunk) = heap_of(|| {
        let mut c = Cache::sparse("L2", cfg.l2_kib, cfg.l2_ways, line);
        c.fill(0x8000_0000, xt_mem::LineState::Exclusive, false);
        c
    });
    let (_, l1) = heap_of(|| Cache::new("L1D", cfg.l1d_kib, cfg.l1_ways, line));
    let (_, tlb_idle) = heap_of(|| Tlb::new(cfg.utlb_entries, cfg.jtlb_sets));
    let (_, tlb_used) = heap_of(|| {
        let mut t = Tlb::new(cfg.utlb_entries, cfg.jtlb_sets);
        t.lookup(0x8000_0000);
        t.install(xt_mem::tlb::Mapping {
            va: 0x8000_0000,
            pa: 0x8000_0000,
            size: xt_mem::tlb::PageSize::P4K,
            asid: 0,
            global: false,
        });
        t
    });
    let (_, pf) = heap_of(|| Prefetcher::new(cfg.prefetch, line));
    let l1d_lines = cfg.l1d_kib as usize * 1024 / line as usize;
    let (_, cls) = heap_of(|| MissClassifier::new(l1d_lines));
    println!("per hierarchy (4 cores, default geometry):");
    println!("  L2 tag store, never filled {:>9.1} KiB", kib(l2));
    println!("  L2 tag store, one fill     {:>9.1} KiB", kib(l2_chunk));
    println!("  one L1 (of 8)              {:>9.1} KiB", kib(l1));
    println!("  one TLB, never installed   {:>9.1} KiB", kib(tlb_idle));
    println!("  one TLB, installed         {:>9.1} KiB", kib(tlb_used));
    println!("  one stream table           {:>9.1} KiB", kib(pf));
    println!("  one miss classifier        {:>9.1} KiB", kib(cls));

    // 34.2 KiB (35.2 with 16-byte L2 ways); 545.2 KiB with the L2 tag
    // store built eagerly
    let one_core = MemConfig {
        cores: 1,
        ..cfg
    };
    let (mem, mem_bytes) = heap_of(|| MemSystem::new(one_core));
    within("MemSystem::new, 1 core, no access", mem_bytes, 38 * 1024);
    drop(mem);

    // 133.9 KiB (134.9 with 16-byte L2 ways); 644.9 KiB with an eager
    // L2 tag store, 1,096.9 KiB with 24-byte ways and eager TLB arrays
    // besides
    let (replica, replica_bytes) = heap_of(|| MemSystem::replica(cfg));
    within("MemSystem::replica, 4 cores", replica_bytes, 148 * 1024);
    drop(replica);

    let progs: Vec<Program> = (0..4).map(private_slice).collect();
    let base = LIVE.load(Relaxed);
    // 1,757.0 KiB (1,757.8 with 16-byte L2 ways and no published
    // pages); 4,307.8 KiB with eager L2 tag stores, 6,552.6 KiB with
    // 24-byte ways and eager TLB arrays besides
    let (mut sim, new_bytes) =
        heap_of(|| ClusterSim::new(&progs, &CoreConfig::xt910(), cfg, 10_000_000));
    within("ClusterSim::new, private slices", new_bytes, 1_933 * 1024);

    PEAK.store(LIVE.load(Relaxed), Relaxed);
    while !sim.step_epochs(1, 1) {}
    // 6,602.8 KiB; 7,005.9 KiB with logs that double their capacity
    // when an epoch outgrows the last, 8,331.6 KiB with each emulator
    // holding its peers' output and 16-byte L2 ways besides (8,348.8
    // with eager L2 tag stores); 11,163.7 KiB with 24-byte ways, eager
    // TLB arrays and 56-byte log records
    let peak = PEAK.load(Relaxed) - base;
    within("peak during the run", peak, 7_264 * 1024);

    // each core's output, published once for the cluster: 96 pages;
    // each emulator held its peers' 72 (288 KiB) when every barrier
    // store went into every emulator
    let published = sim.published().len() * 4096;
    within("guest pages held for store propagation (cluster)", published, 96 * 4096);
    // and no emulator holds a page of another core's slice
    for i in 0..4u64 {
        for j in (0..4u64).filter(|&j| j != i) {
            let slice = 0x8200_0000 + j * 0x0100_0000;
            let held = (slice..slice + 2 * ELEMS * 8)
                .step_by(4096)
                .filter(|&page| sim.emulator(i as usize).mem.is_resident(page))
                .count();
            assert_eq!(held, 0, "emulator {i} holds {held} pages of core {j}'s slice");
        }
    }

    // a core's TLB exists only in the replica it runs live on
    for i in 0..4 {
        for j in 0..4 {
            assert_eq!(
                sim.replica(i).tlb(j).is_materialized(),
                i == j,
                "replica {i}, core {j}'s TLB"
            );
        }
    }
    let sums = (0..4).map(|core| Some((0..ELEMS).map(|k| (k * 7 + core) % 13).sum()));
    assert!(
        sim.into_report().exit_codes.into_iter().eq(sums),
        "every slice summed"
    );
}
