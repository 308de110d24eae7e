//! `xt-report` — generate the pipeline-observability report.
//!
//! Runs STREAM (prefetch on/off) plus the dependency-chain and branchy
//! microbenches on both timing models and writes, to the current
//! directory:
//!
//! * `BENCH_pipeline.json` — machine-readable results (per-cause stall
//!   attribution, IPC, prefetch hits, and the multicore section with
//!   STREAM-rate and producer/consumer cells at 1/2/4 cores plus the
//!   parallel engine's host MIPS; schema `xt-report/v2`),
//! * `REPORT_pipeline.md` — the same matrix as Markdown tables.
//!
//! Flags:
//!   --smoke        shrink every workload (CI gate; seconds instead of
//!                  minutes)
//!   --trace        additionally dump the depchain microbench pipeline
//!                  trace as `TRACE_depchain.kanata` (Konata) and
//!                  `TRACE_depchain_chrome.json` (chrome://tracing)
//!   --mips-sanity  measure the functional emulator's MIPS with the
//!                  decoded-block cache on vs. off, through the
//!                  by-reference step driver and under an `OooSession`,
//!                  then a 4-core `ClusterSim` against one `OooSession`
//!                  on the private-slice kernel; print all, and exit
//!                  non-zero if the cache made the emulator slower,
//!                  stepping fell under `multicore::STEP_DRIVER_FLOOR`
//!                  of `Emulator::run`, the session under
//!                  `multicore::OOO_SESSION_FLOOR` of it, or the cluster
//!                  under `multicore::CLUSTER4_FLOOR` of the session
//!                  (CI guard; writes no files)
//!   --snapshot-every N
//!                  run every single-core cell through a save/restore
//!                  cycle each N retired instructions (docs/SNAPSHOT.md),
//!                  re-run the matrix without snapshots, and exit
//!                  non-zero unless both produce byte-identical
//!                  `BENCH_pipeline.json` documents (CI gate)
//!
//! Output is deterministic: same binary, same flags → byte-identical
//! files (no timestamps, no ambient randomness). The one exception is
//! the full (non-smoke) run's `multicore.host` block, which reports
//! measured wall-clock MIPS; smoke runs emit `null` there.

use xt_bench::{multicore, report};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let trace = args.iter().any(|a| a == "--trace");
    let mips_sanity = args.iter().any(|a| a == "--mips-sanity");
    let mut snapshot_every = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--snapshot-every" {
            let v = it.next().unwrap_or_else(|| {
                eprintln!("xt-report: --snapshot-every needs an instruction count");
                std::process::exit(2);
            });
            let n: u64 = v.parse().unwrap_or_else(|_| {
                eprintln!("xt-report: bad --snapshot-every value {v:?}");
                std::process::exit(2);
            });
            if n == 0 {
                eprintln!("xt-report: --snapshot-every must be nonzero");
                std::process::exit(2);
            }
            snapshot_every = Some(n);
        } else {
            rest.push(a.clone());
        }
    }
    if let Some(bad) = rest
        .iter()
        .find(|a| *a != "--smoke" && *a != "--trace" && *a != "--mips-sanity")
    {
        eprintln!(
            "xt-report: unknown flag {bad} \
             (known: --smoke --trace --mips-sanity --snapshot-every N)"
        );
        std::process::exit(2);
    }

    if mips_sanity {
        let s = multicore::emu_speed();
        let (fast, slow) = (s.fastpath, s.slowpath);
        println!(
            "emulator speed: {fast:.2} MIPS with the decoded-block cache, \
             {slow:.2} MIPS per-step decode ({:.2}x)",
            fast / slow
        );
        let ratio = s.step_driver / fast;
        println!(
            "step driver: {:.2} MIPS through TraceSource by reference, \
             {ratio:.2} of Emulator::run (floor {})",
            s.step_driver,
            multicore::STEP_DRIVER_FLOOR
        );
        if fast < slow {
            eprintln!("xt-report: MIPS sanity FAILED — fast path slower than per-step decode");
            std::process::exit(1);
        }
        if ratio < multicore::STEP_DRIVER_FLOOR {
            eprintln!(
                "xt-report: MIPS sanity FAILED — stepping costs more than {:.1}x Emulator::run",
                1.0 / multicore::STEP_DRIVER_FLOOR
            );
            std::process::exit(1);
        }
        let ooo_ratio = s.ooo_session / fast;
        println!(
            "timing model: {:.2} MIPS through an OooSession, \
             {ooo_ratio:.3} of Emulator::run (floor {})",
            s.ooo_session,
            multicore::OOO_SESSION_FLOOR
        );
        if ooo_ratio < multicore::OOO_SESSION_FLOOR {
            eprintln!(
                "xt-report: MIPS sanity FAILED — the OoO model costs more than {:.0}x Emulator::run",
                1.0 / multicore::OOO_SESSION_FLOOR
            );
            std::process::exit(1);
        }
        let c = multicore::cluster_speed();
        let cluster_ratio = c.cluster4 / c.one_session;
        println!(
            "cluster engine: {:.2} MIPS on four private slices at one host thread, \
             {cluster_ratio:.2} of one slice's {:.2} under an OooSession (floor {})",
            c.cluster4,
            c.one_session,
            multicore::CLUSTER4_FLOOR
        );
        if cluster_ratio < multicore::CLUSTER4_FLOOR {
            eprintln!(
                "xt-report: MIPS sanity FAILED — a guest instruction costs more than {:.1}x \
                 in the 4-core cluster what it costs alone",
                1.0 / multicore::CLUSTER4_FLOOR
            );
            std::process::exit(1);
        }
        return;
    }

    let mc = multicore::report_section(smoke);
    let results = match snapshot_every {
        Some(n) => {
            let snapped = report::run_all_with(smoke, Some(n));
            let plain = report::run_all(smoke);
            let a = report::render_json(&snapped, &mc, smoke);
            let b = report::render_json(&plain, &mc, smoke);
            if a != b {
                eprintln!(
                    "xt-report: snapshot identity FAILED — save/restore every {n} \
                     instructions changed BENCH_pipeline.json"
                );
                std::process::exit(1);
            }
            println!(
                "snapshot identity: save/restore every {n} instructions leaves \
                 BENCH_pipeline.json byte-identical"
            );
            snapped
        }
        None => report::run_all(smoke),
    };
    let json = report::render_json(&results, &mc, smoke);
    let md = report::render_markdown(&results, &mc, smoke);
    std::fs::write("BENCH_pipeline.json", &json).expect("write BENCH_pipeline.json");
    std::fs::write("REPORT_pipeline.md", &md).expect("write REPORT_pipeline.md");
    println!(
        "wrote BENCH_pipeline.json and REPORT_pipeline.md ({} cells + {} multicore)",
        results.len(),
        mc.cells.len()
    );
    for r in &results {
        println!("  {:<14} {}", r.workload, r.report.summary());
    }
    if let Some(h) = &mc.host {
        println!(
            "  engine speed: {:.2} MIPS @1 thread, {:.2} MIPS @4 threads ({:.2}x)",
            h.mips_1_thread, h.mips_4_threads, h.speedup
        );
    }

    if trace {
        let buf = report::traced_depchain(if smoke { 20 } else { 200 });
        std::fs::write("TRACE_depchain.kanata", buf.to_konata())
            .expect("write TRACE_depchain.kanata");
        std::fs::write("TRACE_depchain_chrome.json", buf.to_chrome_json())
            .expect("write TRACE_depchain_chrome.json");
        println!(
            "wrote TRACE_depchain.kanata and TRACE_depchain_chrome.json ({} records)",
            buf.records().len()
        );
    }
}
