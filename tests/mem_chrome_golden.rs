//! Golden chrome://tracing fixtures for the memory-observability
//! renders (docs/OBSERVABILITY.md).
//!
//! A fixed 2-core workload (two cores hammering one shared counter)
//! runs traced with the epoch timeline attached; the memory-event
//! render and the guest-only epoch-timeline render must match the
//! committed fixtures byte for byte. Host-time lanes are excluded
//! (`include_host = false`) — they are measurements, not state, and
//! would never be reproducible.
//!
//! Re-bless after a deliberate render change with:
//!
//! ```sh
//! XT_BLESS=1 cargo test --test mem_chrome_golden
//! ```

use xt_asm::{Asm, Program};
use xt_core::CoreConfig;
use xt_isa::reg::Gpr;
use xt_mem::MemConfig;
use xt_soc::{ClusterReport, ClusterSim};

const MEM_FIXTURE: &str = "tests/fixtures/mem_chrome.json";
const TIMELINE_FIXTURE: &str = "tests/fixtures/epoch_timeline.json";
const MAX_INSTS: u64 = 100_000;
const EPOCH: u64 = 512;

/// The fixture workload: both cores bump one shared counter a few
/// times. Small (the event fixture embeds every memory event) but it
/// still crosses several epochs and exercises hits, misses, upgrades,
/// invalidations, and cache-to-cache transfers. Must never change —
/// the committed renders embed its full event stream.
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

/// The fixture run, on decoded blocks or on the reference interpreter.
fn run(fastpath: bool) -> ClusterReport {
    let progs = vec![counter_kernel(6), counter_kernel(6)];
    let mem_cfg = MemConfig {
        cores: progs.len(),
        ..MemConfig::default()
    };
    ClusterSim::new(&progs, &CoreConfig::xt910(), mem_cfg, MAX_INSTS)
        .with_epoch(EPOCH)
        .with_mem_tracing()
        .with_timeline()
        .with_fastpath(fastpath)
        .run_threads(2)
}

fn fixture_path(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

#[test]
fn chrome_renders_match_fixtures() {
    let r = run(true);
    let mem_render = r.mem_events.as_ref().expect("traced").to_chrome_json(2);
    let timeline_render = r.timeline.as_ref().expect("timeline on").to_chrome_json(false);

    if xt_harness::blessing() {
        std::fs::write(fixture_path(MEM_FIXTURE), &mem_render).expect("write fixture");
        std::fs::write(fixture_path(TIMELINE_FIXTURE), &timeline_render).expect("write fixture");
        eprintln!("blessed {MEM_FIXTURE} and {TIMELINE_FIXTURE}");
        return;
    }

    assert_eq!(
        mem_render,
        include_str!("fixtures/mem_chrome.json"),
        "memory-event render drifted from tests/fixtures/mem_chrome.json — \
         if deliberate, re-bless with XT_BLESS=1 cargo test --test mem_chrome_golden"
    );
    assert_eq!(
        timeline_render,
        include_str!("fixtures/epoch_timeline.json"),
        "epoch-timeline render drifted from tests/fixtures/epoch_timeline.json — \
         if deliberate, re-bless with XT_BLESS=1 cargo test --test mem_chrome_golden"
    );
}

/// The fixture workload itself stays deterministic: repeated runs give
/// identical renders, so a fixture mismatch always means a code change,
/// never run-to-run noise — and the reference interpreter renders the
/// same bytes as the decoded blocks.
#[test]
fn fixture_workload_is_reproducible() {
    let a = run(true);
    let b = run(false);
    assert_eq!(
        a.mem_events.as_ref().unwrap().to_chrome_json(2),
        b.mem_events.as_ref().unwrap().to_chrome_json(2)
    );
    assert_eq!(
        a.timeline.as_ref().unwrap().to_chrome_json(false),
        b.timeline.as_ref().unwrap().to_chrome_json(false)
    );
    assert!(a.timeline.as_ref().unwrap().epochs.len() > 1, "spans several epochs");
}
