//! The one source of truth for what the benchmark declares: workload
//! names and "why" lines, metric names, units, directions and bounds.
//! `BENCHMARK.json` at the repository root is [`benchmark_json`]
//! written to a file; a unit test keeps the two byte-identical.

/// Program and arguments the driver runs from the repository root.
pub const COMMAND: [&str; 2] = ["bash", "benchmark/run.sh"];
/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];
/// Wall seconds one run spends, from process start to the last pass.
pub const RUN_SECONDS: u64 = 30;
/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 910;

/// One of the four workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Functional emulator only.
    EmuFunc,
    /// Single-core out-of-order timing model, L1-resident compute.
    OooCore,
    /// Memory-bound programs under both timing models.
    MemStream,
    /// The 4-core epoch engine at one host thread.
    Cluster4,
}

impl Workload {
    /// All workloads, in declaration order.
    pub const ALL: [Workload; 4] = [
        Workload::EmuFunc,
        Workload::OooCore,
        Workload::MemStream,
        Workload::Cluster4,
    ];

    /// Name as declared in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EmuFunc => "emu_func",
            Workload::OooCore => "ooo_core",
            Workload::MemStream => "mem_stream",
            Workload::Cluster4 => "cluster4",
        }
    }

    /// Why the workload exists: what it stresses and what must not move.
    pub fn why(self) -> &'static str {
        match self {
            Workload::EmuFunc => {
                "Emulator::run only: xt-isa decode and the xt-emu block cache do all the work, \
                 xt-core/xt-mem/xt-soc none, so emulator gains show here and timing-model work must not"
            }
            Workload::OooCore => {
                "OooSession on L1-resident CoreMark/EEMBC/NBench/vector kernels (Figs 17-20 cells): \
                 OooCore::step self time dominates, MemSystem is a few percent"
            }
            Workload::MemStream => {
                "STREAM prefetch off/on under OoO and in-order, a 4 MiB pointer chase and a seeded store fill: \
                 MemSystem miss/fill/prefetch paths and the TraceSource hand-off dominate"
            }
            Workload::Cluster4 => {
                "4-core ClusterSim at one host thread over private slices, mailbox sharing and timer/IPI interrupts: \
                 slice recording, barrier replay, snoops and the MmioBus poll that xt-soc adds"
            }
        }
    }

    /// Parses a declared name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A declared metric. `bound` is `Some` for end-to-end metrics: the
/// share of the parent's median by which the metric may worsen.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

/// What a user of the simulator sees; the same three on every workload.
pub const END_TO_END: [MetricSpec; 3] = [
    e2e("sim_mips", "MIPS", Better::Higher, 0.10),
    e2e("setup_s", "s", Better::Lower, 0.20),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10),
];

/// The layer ladder (README "Per-layer metrics" says what measures each
/// and which end-to-end metric it should move).
pub const PER_LAYER: [MetricSpec; 70] = [
    lo("workloads.build_ms", "ms"),
    lo("workloads.kernels", "count"),
    lo("workloads.text_bytes", "bytes"),
    lo("isa.decode_ns", "ns/inst"),
    lo("isa.decodes", "count"),
    lo("emu.run_ns", "ns/inst"),
    lo("emu.run_slow_ns", "ns/inst"),
    hi("emu.block_hit_ratio", "ratio"),
    lo("emu.blocks_built", "count"),
    lo("emu.trace_next_ns", "ns/inst"),
    lo("emu.dyninst_ns", "ns/inst"),
    lo("emu.load_ms", "ms"),
    lo("core.ooo_step_ns", "ns/inst"),
    lo("core.ooo_self_ns", "ns/inst"),
    lo("core.inorder_step_ns", "ns/inst"),
    lo("core.inorder_self_ns", "ns/inst"),
    lo("core.host_ns_per_cycle", "ns/cycle"),
    lo("core.sim_cycles", "cycles"),
    hi("core.sim_ipc", "inst/cycle"),
    lo("core.sim_digest", "hash48"),
    lo("core.new_us", "us"),
    lo("mem.op_ns_stream_off", "ns/op"),
    lo("mem.op_ns_stream_on", "ns/op"),
    lo("mem.op_ns_chase", "ns/op"),
    lo("mem.op_ns_fill", "ns/op"),
    lo("mem.ops_per_inst", "ops/inst"),
    lo("mem.ns_per_inst", "ns/inst"),
    lo("mem.stats_ns", "ns/call"),
    lo("mem.record_ratio", "ratio"),
    lo("mem.trace_ratio", "ratio"),
    lo("mem.l1d_miss_ratio", "ratio"),
    lo("mem.l2_miss_ratio", "ratio"),
    lo("mem.pf_issued", "count"),
    hi("mem.pf_useful", "count"),
    lo("mem.new_us", "us"),
    hi("vector.inst_share", "ratio"),
    lo("vector.step_ns", "ns/inst"),
    lo("vector.crack_ns", "ns/call"),
    hi("soc.private_mips", "MIPS"),
    hi("soc.sharing_mips", "MIPS"),
    hi("soc.irq_mips", "MIPS"),
    lo("soc.serial_share", "ratio"),
    lo("soc.us_per_epoch", "us"),
    lo("soc.epochs", "count"),
    hi("soc.thread_speedup", "ratio"),
    lo("soc.snoops_sent", "count"),
    lo("soc.c2c_transfers", "count"),
    lo("soc.new_ms", "ms"),
    lo("snapshot.save_ms", "ms"),
    lo("snapshot.restore_ms", "ms"),
    lo("snapshot.frame_kb", "KiB"),
    hi("snapshot.mb_per_s", "MB/s"),
    lo("trace.record_ratio", "ratio"),
    hi("trace.konata_mb_per_s", "MB/s"),
    hi("trace.chrome_mb_per_s", "MB/s"),
    lo("trace.bytes_per_inst", "B/inst"),
    lo("perf.sampled_ratio", "ratio"),
    lo("perf.sample_ns", "ns/call"),
    lo("perf.intervals", "count"),
    lo("bench.report_s", "s"),
    lo("bench.stat_s", "s"),
    lo("bench.figures_s", "s"),
    lo("bench.paper_err_core", "ratio"),
    lo("bench.paper_err_mem", "ratio"),
    lo("trace_overhead_ratio", "ratio"),
    // where a traced pass of the selected workload spends its time,
    // from the benchmark's own spans (self time = span - children)
    lo("span.setup_share", "ratio"),
    lo("span.run_share", "ratio"),
    lo("span.check_share", "ratio"),
    lo("span.unattributed_share", "ratio"),
    lo("span.pass_ms", "ms"),
];

/// Whether `s` is a legal metric/workload name: `[A-Za-z0-9_.-]+`,
/// starting with a letter or digit, at most 64 characters.
#[cfg(test)]
pub fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && s.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `s` is a legal unit: `[A-Za-z0-9_/%.-]+`, at most 16 chars.
#[cfg(test)]
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn quoted_list(items: &[&str]) -> String {
    let q: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    q.join(", ")
}

/// Renders `BENCHMARK.json`. No declared string contains a character
/// that needs JSON escaping ([`tests::declared_strings_are_plain`]).
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"command\": [{}],\n", quoted_list(&COMMAND)));
    s.push_str(&format!("  \"paths\": [{}],\n", quoted_list(&PATHS)));
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let w: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    s.push_str(&format!("  \"workloads\": [\n{}\n  ],\n", w.join(",\n")));
    let e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    s.push_str(&format!("  \"end_to_end\": [\n{}\n  ],\n", e.join(",\n")));
    let l: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    s.push_str(&format!("  \"per_layer\": [\n{}\n  ]\n}}\n", l.join(",\n")));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn name_validator_accepts_the_contract_alphabet_only() {
        for ok in ["sim_mips", "mem.op_ns_fill", "a-b", "9lives", "A.B_c-9"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "-x",
            "_x",
            "a b",
            "a/b",
            "µs",
            "a\"b",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_unit("ns/inst") && valid_unit("MB/s") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn declared_names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
            assert!(seen.insert(w.name()), "{} declared twice", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
        assert!(Workload::parse("nope").is_none());
    }

    #[test]
    fn declared_strings_are_plain() {
        for w in Workload::ALL {
            let why = w.why();
            assert!(
                why.chars().count() <= 200,
                "{}: why is {} chars",
                w.name(),
                why.chars().count()
            );
            assert!(!why.contains(['"', '\\', '\n']), "{}", w.name());
        }
    }

    #[test]
    fn bounds_follow_the_contract() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        // the issue's tenth, except set-up: the contract gives it the
        // largest bound, and a disturbed phase moved the median of ten
        // cluster4 set-ups by 15 % (README, "End-to-end metrics")
        assert_eq!(setup.bound, Some(0.20));
        for m in END_TO_END.iter().filter(|m| m.name != "setup_s") {
            assert_eq!(m.bound, Some(0.10), "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_benchmark_json_is_this_rendering() {
        let committed =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with: run.sh --print-benchmark-json > BENCHMARK.json"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
