//! Golden snapshot fixture: the committed frame in
//! `tests/fixtures/golden.xtsnap` must restore byte-exactly into the
//! current build.
//!
//! The fixture is a mid-run [`OooSession`] frame (a fixed countdown
//! loop cut after 100 retired instructions) saved by a past build. If
//! any `SnapshotState` impl changes its wire layout, restoring the
//! fixture fails — the change then requires a *deliberate*
//! [`xt_snapshot::VERSION`] bump plus a fixture re-bless, never a
//! silent format drift (docs/SNAPSHOT.md).
//!
//! Re-bless after a deliberate version bump with:
//!
//! ```sh
//! XT_BLESS=1 cargo test --test snapshot_golden
//! ```

use xt_asm::{Asm, Program};
use xt_core::{CoreConfig, OooSession};
use xt_isa::reg::Gpr;

const FIXTURE: &str = "tests/fixtures/golden.xtsnap";
const MAX_INSTS: u64 = 100_000;
const CUT: u64 = 100;

/// The fixture workload: a fixed countdown loop exiting with 42. Must
/// never change — the committed frame embeds its memory image.
fn golden_prog() -> Program {
    let mut a = Asm::new();
    a.li(Gpr::A0, 300);
    let top = a.here();
    a.addi(Gpr::A0, Gpr::A0, -1);
    a.bnez(Gpr::A0, top);
    a.li(Gpr::A0, 42);
    a.halt();
    a.finish().unwrap()
}

fn fresh_session() -> OooSession {
    OooSession::new(&golden_prog(), &CoreConfig::xt910(), MAX_INSTS)
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE)
}

#[test]
fn golden_fixture_restores_byte_exactly() {
    if std::env::var("XT_BLESS").is_ok() {
        let mut s = fresh_session();
        s.run_insts(CUT);
        std::fs::write(fixture_path(), s.save()).expect("write fixture");
        eprintln!("blessed {FIXTURE}");
        return;
    }

    let bytes = std::fs::read(fixture_path()).expect(
        "tests/fixtures/golden.xtsnap missing — regenerate with \
         XT_BLESS=1 cargo test --test snapshot_golden",
    );

    // the header still parses and names the current format version
    let manifest = xt_snapshot::describe(&bytes);
    assert!(
        manifest.contains("\"magic_ok\":true"),
        "fixture header: {manifest}"
    );
    assert!(
        manifest.contains(&format!("\"version\":{}", xt_snapshot::VERSION)),
        "fixture was blessed under a different format version — if the \
         bump was deliberate, re-bless it: {manifest}"
    );

    // restore must succeed and re-save must reproduce the exact bytes;
    // any divergence means a SnapshotState wire layout changed without
    // a VERSION bump
    let mut s = fresh_session();
    s.restore(&bytes).expect(
        "golden fixture no longer restores — a SnapshotState impl \
         changed its wire layout; bump xt_snapshot::VERSION and re-bless",
    );
    assert_eq!(
        s.save(),
        bytes,
        "restore∘save drifted from the committed fixture"
    );

    // the restored run still completes with the architectural result
    assert_eq!(s.retired(), CUT, "fixture captures the documented cut");
    let report = s.run_to_end();
    assert_eq!(report.exit_code, Some(42), "continuation reaches halt");
}

/// The continuation from the fixture matches a from-scratch run of the
/// same program in every deterministic observable.
#[test]
fn golden_fixture_continuation_matches_fresh_run() {
    if std::env::var("XT_BLESS").is_ok() {
        return;
    }
    let bytes = std::fs::read(fixture_path()).expect("fixture present");
    let mut whole = fresh_session();
    let reference = whole.run_to_end();

    let mut resumed = fresh_session();
    resumed.restore(&bytes).expect("fixture restores");
    let report = resumed.run_to_end();
    assert_eq!(reference.perf, report.perf);
    assert_eq!(reference.mem, report.mem);
    assert_eq!(reference.exit_code, report.exit_code);
}
