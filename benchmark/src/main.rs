//! `xt-hostbench` — how fast does the XT-910 simulator itself run?
//!
//! Four fixed-work workloads measured in thread-CPU time at the fast
//! decile (`--trace 0`), and an outside-in ladder that times each
//! simulator layer through its public functions (`--trace 1`). See
//! `benchmark/README.md` for the protocol and `BENCHMARK.json` for the
//! declared names; `spec.rs` is the source of both.

mod clock;
mod e2e;
mod gate;
mod guest;
mod jobs;
mod ladder;
mod span;
mod spec;
mod stats;

use e2e::{Budget, Plan};
use spec::{MetricSpec, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "usage: xt-hostbench --workload NAME [--seed N] [--seconds S] [--trace 0] [--out DIR]
       xt-hostbench --workload NAME [--workload NAME ...] [--seed N] --trace 1 [--out DIR]
       xt-hostbench --smoke [--out DIR]
       xt-hostbench --gate FIRST.txt SECOND.txt
       xt-hostbench --print-benchmark-json";

/// One metric value of a result line.
#[derive(Clone, Copy)]
pub struct Metric {
    name: &'static str,
    value: f64,
}

impl Metric {
    fn new(name: &'static str, value: f64) -> Metric {
        Metric { name, value }
    }
}

/// The one-line JSON object a run ends with: exactly `correct`,
/// `attempted`, `failed` and `metrics`, every declared metric once.
fn result_line(declared: &[MetricSpec], metrics: &[Metric], tally: e2e::Tally) -> String {
    let body: Vec<String> = declared
        .iter()
        .map(|d| {
            let mut found = metrics.iter().filter(|m| m.name == d.name);
            let m = found
                .next()
                .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
            assert!(found.next().is_none(), "metric {} measured twice", d.name);
            assert!(m.value.is_finite(), "metric {} is {}", d.name, m.value);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name, m.value, d.unit
            )
        })
        .collect();
    assert_eq!(
        metrics.len(),
        declared.len(),
        "an undeclared metric was measured"
    );
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn e2e_metrics(r: &e2e::E2e) -> Vec<Metric> {
    vec![
        Metric::new("sim_mips", r.sim_mips),
        Metric::new("setup_s", r.setup_s),
        Metric::new("peak_rss_mb", r.peak_rss_mb),
    ]
}

fn describe(plan: Plan, r: &e2e::E2e) {
    let [p10, median, p90] = r.mips_by_pass;
    eprintln!(
        "{}: seed {} | {} timed passes of {} guest insts | MIPS {:.3} undisturbed; whole passes p10 {p10:.3} median {median:.3} p90 {p90:.3} | \
         setup {:.2} ms undisturbed, median {:.2} ms | peak RSS {:.1} MiB | {} ops, {} failed | sim_digest {}",
        plan.workload.name(),
        plan.seed,
        r.passes,
        r.insts_per_pass,
        r.sim_mips,
        r.setup_s * 1e3,
        r.setup_median_s * 1e3,
        r.peak_rss_mb,
        r.tally.attempted,
        r.tally.failed,
        r.digest
    );
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_run_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workloads
                    .push(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 170.0) {
                    return Err("--seconds must be in (0, 170]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--out" => a.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

/// A run counts only if it attempted something and nothing failed.
fn verdict(workload: Workload, tally: e2e::Tally) -> Result<(), String> {
    if tally.failed > 0 || tally.attempted == 0 {
        return Err(format!(
            "{}: {} of {} operations failed",
            workload.name(),
            tally.failed,
            tally.attempted
        ));
    }
    Ok(())
}

/// Runs and prints one result line per workload. A run whose
/// operations did not all succeed still prints its line, then fails.
fn run(args: Args, started: Instant) -> Result<(), String> {
    let plans: Vec<Plan> = args
        .workloads
        .iter()
        .map(|&workload| Plan {
            workload,
            seed: args.seed,
            smoke: false,
        })
        .collect();
    let results: Vec<(String, e2e::Tally)> = match (args.trace, &plans[..]) {
        (_, []) => return Err("--workload is required".into()),
        (true, _) => {
            let name = match &plans[..] {
                [one] => one.workload.name(),
                _ => "all",
            };
            ladder::run(&plans, name, &args.out)?
                .iter()
                .map(|r| (result_line(&spec::PER_LAYER, &r.metrics, r.tally), r.tally))
                .collect()
        }
        (false, [plan]) => {
            let r = e2e::run(*plan, Budget::Until(started, args.seconds));
            describe(*plan, &r);
            vec![(
                result_line(&spec::END_TO_END, &e2e_metrics(&r), r.tally),
                r.tally,
            )]
        }
        // peak RSS is a per-process number
        (false, _) => return Err("an untraced run measures one workload per process".into()),
    };
    let mut bad = Vec::new();
    for ((line, tally), plan) in results.iter().zip(&plans) {
        println!("{line}");
        bad.extend(verdict(plan.workload, *tally).err());
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("; "))
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("--print-benchmark-json") => {
            print!("{}", spec::benchmark_json());
            Ok(())
        }
        Some("--gate") if argv.len() == 3 => gate::repeat_gate(&argv[1], &argv[2]),
        Some("--smoke") => {
            parse_run_args(argv.into_iter().skip(1)).and_then(|a| ladder::smoke(&a.out))
        }
        Some(_) => parse_run_args(argv.into_iter()).and_then(|a| run(a, started)),
        None => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("xt-hostbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = e2e::E2e {
            sim_mips: 5.25,
            mips_by_pass: [5.1, 5.0, 4.5],
            passes: 40,
            insts_per_pass: 1,
            setup_s: 0.0251,
            setup_median_s: 0.027,
            peak_rss_mb: 31.5,
            tally: e2e::Tally {
                attempted: 123,
                failed: 0,
            },
            digest: 1,
        };
        let line = result_line(&spec::END_TO_END, &e2e_metrics(&r), r.tally);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 123, \"failed\": 0, \"metrics\": {\
             \"sim_mips\": {\"value\": 5.25, \"unit\": \"MIPS\"}, \
             \"setup_s\": {\"value\": 0.0251, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 31.5, \"unit\": \"MiB\"}}}"
        );
        let doc = xt_perf::json::parse(&line).expect("the result line is JSON");
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_num()),
            Some(0.0251)
        );
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let tally = e2e::Tally {
            attempted: 10,
            failed: 1,
        };
        let m = vec![
            Metric::new("sim_mips", 1.0),
            Metric::new("setup_s", 1.0),
            Metric::new("peak_rss_mb", 1.0),
        ];
        assert!(result_line(&spec::END_TO_END, &m, tally)
            .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1,"));
        // ... and the process exits non-zero
        assert!(verdict(Workload::OooCore, tally)
            .unwrap_err()
            .contains("ooo_core: 1 of 10"));
        assert!(verdict(Workload::OooCore, e2e::Tally::default()).is_err());
        let good = e2e::Tally {
            attempted: 10,
            failed: 0,
        };
        assert!(verdict(Workload::OooCore, good).is_ok());
    }

    #[test]
    fn arguments_parse_in_the_drivers_order() {
        let a = parse_run_args(
            [
                "--workload",
                "cluster4",
                "--seed",
                "7",
                "--seconds",
                "2.5",
                "--trace",
                "1",
            ]
            .map(String::from)
            .into_iter(),
        )
        .unwrap();
        assert_eq!(
            (a.workloads, a.seed, a.seconds, a.trace),
            (vec![Workload::Cluster4], 7, 2.5, true)
        );
        for bad in [
            vec!["--workload", "x"],
            vec!["--trace", "2"],
            vec!["--seconds", "0"],
            vec!["--seed"],
            vec!["--frob"],
        ] {
            assert!(parse_run_args(bad.into_iter().map(String::from)).is_err());
        }
    }
}
