//! The one artifact gate: diff, selftest and command line for every
//! JSON artifact the workspace commits a baseline of.
//!
//! The comparison is schema-agnostic. [`diff`] walks the baseline and
//! the candidate [`Value`] trees together: every number is compared at
//! the tolerance, and everything that is not a number — object keys,
//! strings, booleans, `null`s, array lengths, the kind of each value —
//! must match exactly, or the documents are *structurally
//! incomparable*. There is no list of fields to keep in step with the
//! emitters, so a number an emitter writes is a number the gate reads.
//!
//! What differs between artifacts is the four fields of an
//! [`Artifact`] constant kept next to each emitter
//! ([`crate::stat::ARTIFACT`]; `xt-bench` has the `xt-figures` one).
//!
//! Exit codes of [`main`]: 0 = clean, 1 = at least one number out of
//! tolerance (or, for `selftest`, a gate that failed to catch an
//! injected fault), 2 = structurally incomparable, failed validation,
//! unreadable or unparseable file, or bad usage.

use crate::json::{self, Value};

/// What the gate needs to know about one kind of artifact.
#[derive(Clone, Copy, Debug)]
pub struct Artifact {
    /// Tool name; prefixes every message.
    pub tool: &'static str,
    /// Accepts a document on its own: the schema tag, plus whatever
    /// internal law it must obey. Both sides of a [`diff`] must pass.
    pub validate: fn(&Value) -> Result<(), String>,
    /// Object keys holding measured host time. Both documents must have
    /// the key; what is under it is not looked at.
    pub host_keys: &'static [&'static str],
    /// Forgeries for [`selftest`]: adding 1 to every number stored under
    /// one of these keys must make `validate` refuse the document.
    pub forgeries: &'static [&'static str],
}

/// Outcome of a baseline/candidate comparison.
#[derive(Clone, Debug, Default)]
pub struct DiffOutcome {
    /// Out-of-tolerance numbers, one line each, named by path.
    pub issues: Vec<String>,
    /// Numbers compared.
    pub compared: usize,
}

/// The first thing every [`Artifact::validate`] checks: `doc` carries
/// the schema tag `want`.
pub fn expect_schema(doc: &Value, want: &str) -> Result<(), String> {
    match doc.get("schema").and_then(Value::as_str) {
        Some(tag) if tag == want => Ok(()),
        other => Err(format!("schema {other:?}, want {want}")),
    }
}

/// Scalars as written, containers by kind (for mismatch messages).
fn brief(v: &Value) -> String {
    match v {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::Num(n) => n.to_string(),
        Value::Str(s) => format!("{s:?}"),
        Value::Arr(_) => "an array".into(),
        Value::Obj(_) => "an object".into(),
    }
}

/// The walk behind [`diff`]; `path` is where it is, e.g.
/// `runs[0].series.ipc[1]`.
fn walk(
    art: &Artifact,
    tol: f64,
    path: &str,
    base: &Value,
    cand: &Value,
    out: &mut DiffOutcome,
) -> Result<(), String> {
    match (base, cand) {
        (&Value::Num(b), &Value::Num(c)) => {
            out.compared += 1;
            if (c - b).abs() > tol * b.abs() {
                // a percentage of a zero baseline says nothing
                let pct = if b == 0.0 {
                    String::new()
                } else {
                    format!(", {:+.2}%", (c - b) / b.abs() * 100.0)
                };
                out.issues.push(format!("{path}: {b} -> {c} ({:+}{pct})", c - b));
            }
            Ok(())
        }
        (Value::Arr(bs), Value::Arr(cs)) if bs.len() != cs.len() => {
            Err(format!("{path}: array length {} vs {}", bs.len(), cs.len()))
        }
        (Value::Arr(bs), Value::Arr(cs)) => bs.iter().zip(cs).enumerate().try_for_each(
            |(i, (b, c))| walk(art, tol, &format!("{path}[{i}]"), b, c, out),
        ),
        (Value::Obj(bf), Value::Obj(cf)) => {
            if let Some((extra, _)) = cf.iter().find(|(k, _)| base.get(k).is_none()) {
                return Err(format!("{path}: candidate has extra key {extra:?}"));
            }
            let dot = if path.is_empty() { "" } else { "." };
            bf.iter().try_for_each(|(k, b)| match cand.get(k) {
                None => Err(format!("{path}{dot}{k}: missing from the candidate")),
                Some(_) if art.host_keys.contains(&k.as_str()) => Ok(()),
                Some(c) => walk(art, tol, &format!("{path}{dot}{k}"), b, c, out),
            })
        }
        _ if base == cand => Ok(()),
        _ => Err(format!("{path}: {} vs {}", brief(base), brief(cand))),
    }
}

/// Compares `cand` against `base`: every number outside
/// [`Artifact::host_keys`] may deviate by at most `tol × |baseline|`
/// (`tol` 0 = exact), everything else must be equal. `Err` means the
/// documents cannot be compared — one of them fails
/// [`Artifact::validate`], or their shapes differ.
pub fn diff(art: &Artifact, base: &Value, cand: &Value, tol: f64) -> Result<DiffOutcome, String> {
    for (who, doc) in [("baseline", base), ("candidate", cand)] {
        (art.validate)(doc).map_err(|e| format!("{who}: {e}"))?;
    }
    let mut out = DiffOutcome::default();
    walk(art, tol, "", base, cand, &mut out)?;
    Ok(out)
}

/// Deep-copies `doc` with `f` applied to every number stored directly
/// under an object key `key` — how [`selftest`] (and the artifacts' own
/// tests) inject a regression or forge a count.
pub fn map_key(doc: &Value, key: &str, f: &dyn Fn(f64) -> f64) -> Value {
    match doc {
        Value::Obj(fields) => Value::Obj(
            fields
                .iter()
                .map(|(k, v)| match v {
                    Value::Num(n) if k == key => (k.clone(), Value::Num(f(*n))),
                    _ => (k.clone(), map_key(v, key, f)),
                })
                .collect(),
        ),
        Value::Arr(items) => Value::Arr(items.iter().map(|v| map_key(v, key, f)).collect()),
        other => other.clone(),
    }
}

/// Proves the gate works on `base`: it must diff clean against itself
/// having compared something, every `"cycles"` scaled comfortably past
/// the tolerance must be flagged, and every one of
/// [`Artifact::forgeries`] must be refused. CI runs this so a broken
/// comparator can never silently wave regressions through.
pub fn selftest(art: &Artifact, base: &Value, tol: f64) -> Result<(), String> {
    let clean = diff(art, base, base, tol)?;
    if !clean.issues.is_empty() {
        return Err(format!("baseline differs from itself: {}", clean.issues.join("; ")));
    }
    if clean.compared == 0 {
        return Err("self-diff compared zero numbers".into());
    }
    let factor = 1.2 + 2.0 * tol;
    let hurt = map_key(base, "cycles", &|n| n * factor);
    if diff(art, base, &hurt, tol)?.issues.is_empty() {
        return Err(format!(
            "injected {:.0}% cycle regression was not flagged at tolerance {tol}",
            (factor - 1.0) * 100.0
        ));
    }
    for key in art.forgeries {
        if diff(art, base, &map_key(base, key, &|n| n + 1.0), tol).is_ok() {
            return Err(format!("forged \"{key}\" + 1 was not rejected"));
        }
    }
    Ok(())
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `diff` / `selftest` over files; `Err` is exit code 2.
fn gate_cmd(art: &Artifact, cmd: &str, args: &[String]) -> Result<i32, String> {
    let tool = art.tool;
    let mut paths = Vec::new();
    let mut tol = 0.0;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--tolerance" {
            let v = it.next().ok_or("--tolerance needs a value")?;
            tol = v
                .parse::<f64>()
                .ok()
                .filter(|t| t.is_finite() && *t >= 0.0)
                .ok_or_else(|| format!("bad --tolerance value {v:?}"))?;
        } else if a.starts_with("--") {
            return Err(format!("unknown flag {a}"));
        } else {
            paths.push(a.as_str());
        }
    }
    match (cmd, paths.as_slice()) {
        ("diff", [base, cand]) => {
            let out = diff(art, &load(base)?, &load(cand)?, tol)
                .map_err(|e| format!("structural mismatch: {e}"))?;
            if out.issues.is_empty() {
                println!("{tool} diff: OK — {} numbers within tolerance {tol}", out.compared);
                return Ok(0);
            }
            let (bad, all) = (out.issues.len(), out.compared);
            eprintln!("{tool} diff: {bad} of {all} numbers out of tolerance {tol}:");
            out.issues.iter().for_each(|issue| eprintln!("  {issue}"));
            Ok(1)
        }
        ("selftest", [base]) => match selftest(art, &load(base)?, tol) {
            Ok(()) => {
                println!("{tool} selftest: OK — gate detects injected regressions at tolerance {tol}");
                Ok(0)
            }
            Err(e) => {
                eprintln!("{tool} selftest: FAILED: {e}");
                Ok(1)
            }
        },
        ("diff", _) => Err("usage: diff <baseline.json> <candidate.json> [--tolerance T]".into()),
        _ => Err("usage: selftest <baseline.json> [--tolerance T]".into()),
    }
}

/// The whole command line of an artifact tool, returning its exit code:
/// `diff <baseline> <candidate> [--tolerance T]`,
/// `selftest <baseline> [--tolerance T]`, or `[--smoke]`, which calls
/// `generate(smoke)`.
pub fn main(art: &Artifact, args: &[String], generate: impl FnOnce(bool)) -> i32 {
    let tool = art.tool;
    match args.first().map(String::as_str) {
        Some(cmd @ ("diff" | "selftest")) => gate_cmd(art, cmd, &args[1..]).unwrap_or_else(|e| {
            eprintln!("{tool} {cmd}: {e}");
            2
        }),
        _ => match args.iter().find(|a| *a != "--smoke") {
            Some(bad) => {
                eprintln!("{tool}: unknown argument {bad} (try: [--smoke] | diff | selftest)");
                2
            }
            None => {
                generate(!args.is_empty());
                0
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::stat;

    /// Accepts anything; `host` is host time.
    const ANY: Artifact = Artifact {
        tool: "test",
        validate: |_| Ok(()),
        host_keys: &["host"],
        forgeries: &[],
    };
    const PERF_SMOKE: &str = include_str!("../../../baselines/BENCH_perf_smoke.json");
    const FIGURES_SMOKE: &str = include_str!("../../../baselines/BENCH_figures_smoke.json");

    #[test]
    fn numbers_at_the_tolerance_everything_else_exactly() {
        let base = r#"{"s": "a", "n": 100, "z": 0, "xs": [1, 2], "o": {"k": null, "b": true}, "host": {"ns": 5}}"#;
        // (edit of `base` that makes the candidate, tolerance, want)
        type Want = Result<&'static [&'static str], &'static str>; // Ok(issues) | Err(why)
        let table: &[(&str, &str, f64, Want)] = &[
            ("", "", 0.0, Ok(&[])),
            (r#", "b": true"#, "", 0.5, Err("o.b: missing from the candidate")),
            ("true", r#"true, "x": 1"#, 0.5, Err("o: candidate has extra key \"x\"")),
            ("[1, 2]", "[1, 2, 3]", 0.5, Err("xs: array length 2 vs 3")),
            (r#""a""#, r#""b""#, 0.5, Err("s: \"a\" vs \"b\"")),
            ("100", r#""100""#, 0.5, Err("n: 100 vs \"100\"")),
            ("null", "0", 0.5, Err("o.k: null vs 0")),
            ("true", "false", 0.5, Err("o.b: true vs false")),
            (r#", "host": {"ns": 5}"#, "", 0.5, Err("host: missing from the candidate")),
            ("[1, 2]", "[1, 2.5]", 0.1, Ok(&["xs[1]: 2 -> 2.5 (+0.5, +25.00%)"])),
            ("100", "109", 0.1, Ok(&[])),
            (r#"{"ns": 5}"#, r#""unmeasured""#, 0.0, Ok(&[])),
            ("100", "100.5", 0.0, Ok(&["n: 100 -> 100.5 (+0.5, +0.50%)"])),
            (r#""z": 0"#, r#""z": 3"#, 0.5, Ok(&["z: 0 -> 3 (+3)"])),
        ];
        for &(from, to, tol, want) in table {
            let cand = parse(&base.replacen(from, to, 1)).unwrap();
            match (want, diff(&ANY, &parse(base).unwrap(), &cand, tol)) {
                (Err(why), Err(e)) => assert!(e.contains(why), "{from} -> {to}: {e}"),
                (Ok(issues), Ok(out)) => {
                    assert_eq!(out.issues, issues, "{from} -> {to}");
                    assert_eq!(out.compared, 4, "n, z, xs[0], xs[1]; not host.ns");
                }
                (_, got) => panic!("{from} -> {to}: {got:?}"),
            }
        }
    }

    #[test]
    fn committed_baselines_self_diff_clean_with_every_number_read() {
        let perf = parse(PERF_SMOKE).unwrap();
        let out = diff(&stat::ARTIFACT, &perf, &perf, 0.0).unwrap();
        assert_eq!((out.compared, out.issues.len()), (776, 0));
        selftest(&stat::ARTIFACT, &perf, 0.0).expect("xt-stat gate is healthy");
        let figures = parse(FIGURES_SMOKE).unwrap();
        let out = diff(&ANY, &figures, &figures, 0.0).unwrap();
        assert_eq!((out.compared, out.issues.len()), (128, 0));
        selftest(&ANY, &figures, 0.05).expect("a cycles scaling is flagged");
    }

    /// The two candidates the field-list gate this replaced let through.
    #[test]
    fn forgeries_outside_the_old_field_lists_are_flagged() {
        let base = parse(PERF_SMOKE).unwrap();
        let issues = |from: &str, to: &str| {
            let cand = parse(&PERF_SMOKE.replacen(from, to, 1)).unwrap();
            diff(&stat::ARTIFACT, &base, &cand, 0.0).unwrap().issues
        };
        assert_eq!(
            issues("0.5703125,", "1.0703125,"),
            ["runs[0].series.ipc[1]: 0.5703125 -> 1.0703125 (+0.5, +87.67%)"]
        );
        // a snoop moved to another requester/holder pair: the sum, and so
        // the conservation law, still holds
        assert_eq!(
            issues("[0, 0, 0, 0, 1,", "[1, 0, 0, 0, 0,"),
            [
                "cluster.cells[0].snoop_matrix[0]: 0 -> 1 (+1)",
                "cluster.cells[0].snoop_matrix[4]: 1 -> 0 (-1, -100.00%)"
            ]
        );
    }

    #[test]
    fn selftest_refuses_a_gate_that_cannot_see() {
        let doc = parse(r#"{"cycles": 10, "law": 1}"#).unwrap();
        selftest(&ANY, &doc, 0.0).expect("healthy");
        let err = selftest(&ANY, &parse(r#"{"n": 1}"#).unwrap(), 0.0).unwrap_err();
        assert!(err.contains("not flagged"), "nothing to scale: {err}");
        let err = selftest(&ANY, &parse(r#"{"s": "x"}"#).unwrap(), 0.0).unwrap_err();
        assert!(err.contains("zero numbers"), "nothing compared: {err}");
        let blind = Artifact { forgeries: &["law"], ..ANY };
        let err = selftest(&blind, &doc, 0.0).unwrap_err();
        assert!(err.contains("\"law\" + 1 was not rejected"), "{err}");
        let law = |d: &Value| match d.get("law") {
            Some(Value::Num(1.0)) => Ok(()),
            _ => Err("law broken".to_string()),
        };
        selftest(&Artifact { validate: law, ..blind }, &doc, 0.0).expect("law enforced");
    }

    #[test]
    fn command_line_exit_codes() {
        let dir = std::env::temp_dir().join(format!("xt-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = |name: &str, text: &str| {
            std::fs::write(dir.join(name), text).unwrap();
            dir.join(name).to_str().unwrap().to_string()
        };
        let base = file("base.json", r#"{"cycles": 10, "name": "a"}"#);
        let slow = file("slow.json", r#"{"cycles": 12, "name": "a"}"#);
        let other = file("other.json", r#"{"cycles": 10, "name": "b"}"#);
        let deep = file("deep.json", &("[".repeat(200_000) + &"]".repeat(200_000)));
        let absent = dir.join("absent.json").to_str().unwrap().to_string();
        let table: &[(&[&str], i32)] = &[
            (&["diff", &base, &base], 0),
            (&["diff", &base, &slow], 1),
            (&["diff", &base, &slow, "--tolerance", "0.25"], 0),
            (&["diff", &base, &other], 2),
            (&["diff", &base, &deep], 2),
            (&["diff", &base, &absent], 2),
            (&["diff", &base], 2),
            (&["diff", &base, &slow, "--tolerance", "nan"], 2),
            (&["diff", &base, &slow, "--tolerance", "-1"], 2),
            (&["diff", &base, &slow, "--tolerance"], 2),
            (&["diff", &base, &slow, "--verbose"], 2),
            (&["selftest", &base, "--tolerance", "0.05"], 0),
            (&["selftest", &base, &base], 2),
            (&["selftest", &deep], 2),
            (&["--smoke", "--fast"], 2),
        ];
        for (args, code) in table {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            assert_eq!(main(&ANY, &args, |_| panic!("not for generate")), *code, "{args:?}");
        }
        let mut smoke = None;
        assert_eq!(main(&ANY, &["--smoke".to_string()], |s| smoke = Some(s)), 0);
        assert_eq!(main(&ANY, &[], |s| assert!(!s)), 0);
        assert_eq!(smoke, Some(true));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
