//! The A/A gate behind `run.sh --repeat`: two sets of runs of the same
//! build must agree within the benchmark's own bounds, or the bounds
//! mean nothing.

use crate::spec::{Workload, END_TO_END};
use xt_perf::json;

/// One `<workload> <result line>` record of a set file.
fn parse_set(path: &str) -> Result<Vec<(Workload, json::Value)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let (name, doc) = l
                .split_once(' ')
                .ok_or(format!("{path}: expected '<workload> <json>', got {l:?}"))?;
            let w = Workload::parse(name).ok_or(format!("{path}: unknown workload {name:?}"))?;
            Ok((
                w,
                json::parse(doc).map_err(|e| format!("{path}: {name}: {e}"))?,
            ))
        })
        .collect()
}

fn value(doc: &json::Value, metric: &str) -> Option<f64> {
    doc.get("metrics")?.get(metric)?.get("value")?.as_num()
}

/// Relative distance of two readings of one metric, as a share of the
/// smaller (so the order of the sets does not matter).
pub fn spread(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.min(b)
}

/// Compares the two sets metric by metric, prints the spread table and
/// fails if any end-to-end metric differs by more than its bound, if a
/// run was incorrect, or if a workload is missing from either set.
pub fn repeat_gate(first: &str, second: &str) -> Result<(), String> {
    let (a, b) = (parse_set(first)?, parse_set(second)?);
    let mut failures = Vec::new();
    println!("| workload | metric | unit | first | second | spread | bound | |");
    println!("|---|---|---|---|---|---|---|---|");
    for w in Workload::ALL {
        let find = |set: &[(Workload, json::Value)], which: &str| {
            set.iter()
                .find(|(x, _)| *x == w)
                .map(|(_, d)| d.clone())
                .ok_or(format!("{}: no run in the {which} set", w.name()))
        };
        let (da, db) = (find(&a, "first")?, find(&b, "second")?);
        for d in [&da, &db] {
            if d.get("failed").and_then(|v| v.as_num()) != Some(0.0) {
                failures.push(format!("{}: a run had failed operations", w.name()));
            }
        }
        for m in &END_TO_END {
            let read = |d: &json::Value| {
                value(d, m.name).ok_or(format!("{}: no {} in a result line", w.name(), m.name))
            };
            let (va, vb) = (read(&da)?, read(&db)?);
            let (s, bound) = (
                spread(va, vb),
                m.bound.expect("end-to-end metrics carry a bound"),
            );
            let verdict = if s <= bound { "ok" } else { "OUT OF BOUND" };
            println!(
                "| {} | {} | {} | {va:.4} | {vb:.4} | {:.2} % | {:.0} % | {verdict} |",
                w.name(),
                m.name,
                m.unit,
                s * 100.0,
                bound * 100.0
            );
            if s > bound {
                failures.push(format!(
                    "{}/{}: {va} vs {vb} differ by {:.1} %, bound {:.0} %",
                    w.name(),
                    m.name,
                    s * 100.0,
                    bound * 100.0
                ));
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "the two sets disagree:\n  {}",
            failures.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(dir: &std::path::Path, name: &str, mips: f64) -> String {
        let line = |w: Workload| {
            format!(
                "{} {{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {{\"sim_mips\": {{\"value\": {mips}, \"unit\": \"MIPS\"}}, \
                 \"setup_s\": {{\"value\": 0.025, \"unit\": \"s\"}}, \"peak_rss_mb\": {{\"value\": 40.5, \"unit\": \"MiB\"}}}}}}\n",
                w.name()
            )
        };
        let path = dir.join(name);
        std::fs::write(&path, Workload::ALL.map(line).concat()).unwrap();
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn spread_is_symmetric_and_relative() {
        assert_eq!(spread(5.0, 5.0), 0.0);
        assert!((spread(5.0, 5.5) - 0.1).abs() < 1e-12);
        assert_eq!(spread(5.0, 5.5), spread(5.5, 5.0));
    }

    #[test]
    fn gate_passes_within_the_bound_and_fails_beyond_it() {
        let dir = std::env::temp_dir().join(format!("xt-hostbench-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = set(&dir, "a.txt", 5.0);
        assert!(repeat_gate(&base, &set(&dir, "b.txt", 5.3)).is_ok());
        let err = repeat_gate(&base, &set(&dir, "c.txt", 3.5)).unwrap_err();
        assert!(err.contains("ooo_core/sim_mips"), "{err}");
        assert!(repeat_gate(&base, "/nonexistent").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
