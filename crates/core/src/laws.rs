//! The conservation laws: every exact relation between the simulator's
//! counters is one named row of [`LAWS`], and [`check`] is the one
//! evaluator every surface runs them through. docs/OBSERVABILITY.md
//! ("Conservation laws") tabulates the rows and their surfaces.
//!
//! Counter names are the keys of the `xt-stat` artifact, and one that
//! holds an array or an object (`stalls`, `topdown`, `snoop_matrix`)
//! stands for the sum of its entries. Values are `i128`: exact for
//! every `u64` counter and for the signed top-down `retiring`.

use crate::PerfCounters;
use xt_mem::MemStats;

/// How a law's two sums compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rel {
    /// `Σ lhs == Σ rhs`.
    Eq,
    /// `Σ lhs ≤ Σ rhs`.
    Le,
}

/// One conservation law: `Σ lhs rel Σ rhs` over named counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Law {
    /// Stable name; every violation message leads with it.
    pub name: &'static str,
    /// Counters summed on the left.
    pub lhs: &'static [&'static str],
    /// The relation.
    pub rel: Rel,
    /// Counters summed on the right.
    pub rhs: &'static [&'static str],
}

const fn law(
    name: &'static str,
    lhs: &'static [&'static str],
    rel: Rel,
    rhs: &'static [&'static str],
) -> Law {
    Law {
        name,
        lhs,
        rel,
        rhs,
    }
}

/// Frontier attribution charges each cycle to at most one stall cause.
pub const STALL_BUDGET: Law = law("stall_budget", &["stalls"], Rel::Le, &["cycles"]);
/// The rendered residue is exactly the cycles no cause claimed.
pub const UNATTRIBUTED: Law = law(
    "unattributed",
    &["unattributed", "stalls"],
    Rel::Eq,
    &["cycles"],
);
/// The six top-down buckets, `retiring` signed, partition the cycles.
pub const TOPDOWN: Law = law("topdown", &["topdown"], Rel::Eq, &["cycles"]);
/// Every L1D miss gets exactly one of the 3C + coherence classes.
pub const MISS_CLASSES: Law = law(
    "miss_classes",
    &["compulsory", "capacity", "conflict", "coherence"],
    Rel::Eq,
    &["misses"],
);
/// A late prefetch is by definition also a useful one.
pub const LATE_LE_USEFUL: Law = law("late_le_useful", &["pf_late"], Rel::Le, &["pf_useful"]);
/// Every probe sent lands in one requester/holder cell.
pub const SNOOP_MATRIX: Law = law("snoop_matrix", &["snoop_matrix"], Rel::Eq, &["snoops_sent"]);
/// Every core a snoop-filter mask names is either probed or suppressed.
pub const SNOOP_BOOKS: Law = law(
    "snoop_books",
    &["snoops_sent", "snoops_suppressed"],
    Rel::Eq,
    &["probe_candidates"],
);

/// Every law, in the order docs/OBSERVABILITY.md lists them.
pub const LAWS: [Law; 7] = [
    STALL_BUDGET,
    UNATTRIBUTED,
    TOPDOWN,
    MISS_CLASSES,
    LATE_LE_USEFUL,
    SNOOP_MATRIX,
    SNOOP_BOOKS,
];

/// What laws are evaluated on: a counter name answered with its value,
/// or `None` where the surface does not carry it.
pub trait Counters {
    /// Counter `name`, or the sum of its entries.
    fn sum(&self, name: &str) -> Option<i128>;
}

/// Two views as one: the first answers, else the second.
impl<A: Counters + ?Sized, B: Counters + ?Sized> Counters for (&A, &B) {
    fn sum(&self, name: &str) -> Option<i128> {
        self.0.sum(name).or_else(|| self.1.sum(name))
    }
}

/// A list of named counters.
impl<T: Copy + Into<i128>> Counters for [(&str, T)] {
    fn sum(&self, name: &str) -> Option<i128> {
        self.iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v.into())
    }
}

/// Evaluates `laws` on `view` in order. `Err` names the first law that
/// is broken, or whose counter `view` lacks, and prints every term.
pub fn check<V: Counters + ?Sized>(view: &V, laws: &[Law]) -> Result<(), String> {
    for law in laws {
        let side = |names: &[&str]| -> Result<(i128, String), String> {
            let (mut sum, mut terms) = (0, Vec::new());
            for &n in names {
                let v = view
                    .sum(n)
                    .ok_or_else(|| format!("law {}: no counter \"{n}\"", law.name))?;
                sum += v;
                terms.push(format!("{n} {v}"));
            }
            Ok((sum, terms.join(" + ")))
        };
        let ((l, lhs), (r, rhs)) = (side(law.lhs)?, side(law.rhs)?);
        let (holds, broken) = match law.rel {
            Rel::Eq => (l == r, "!="),
            Rel::Le => (l <= r, ">"),
        };
        if !holds {
            return Err(format!("law {} broken: {lhs} {broken} {rhs}", law.name));
        }
    }
    Ok(())
}

/// The live [`MemStats`] view: evaluates `miss_classes` per core,
/// `late_le_useful` per scorecard slot, and the snoop laws.
pub fn check_mem(mem: &MemStats) -> Result<(), String> {
    for (c, &(_, misses)) in mem.l1d.iter().enumerate() {
        let classes = [
            ("compulsory", mem.miss_compulsory[c]),
            ("capacity", mem.miss_capacity[c]),
            ("conflict", mem.miss_conflict[c]),
            ("coherence", mem.miss_coherence[c]),
            ("misses", misses),
        ];
        check(&classes[..], &[MISS_CLASSES]).map_err(|e| format!("core {c}: {e}"))?;
    }
    for (c, slots) in mem.pf_scorecard.iter().enumerate() {
        for (s, score) in slots.iter().enumerate() {
            let slot = [("pf_late", score.late), ("pf_useful", score.useful)];
            check(&slot[..], &[LATE_LE_USEFUL]).map_err(|e| format!("core {c} slot {s}: {e}"))?;
        }
    }
    let snoops = [
        ("snoop_matrix", mem.snoop_matrix.iter().sum()),
        ("snoops_sent", mem.snoops_sent),
        ("snoops_suppressed", mem.snoops_suppressed),
        ("probe_candidates", mem.probe_candidates),
    ];
    check(&snoops[..], &[SNOOP_MATRIX, SNOOP_BOOKS])
}

impl Counters for PerfCounters {
    fn sum(&self, name: &str) -> Option<i128> {
        match name {
            "cycles" => Some(self.cycles.into()),
            "stalls" => Some(self.attributed_stall_cycles().into()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StallCause;
    use xt_mem::StreamScore;

    /// Every term 1, except the first right-hand one, which balances.
    fn balanced(law: &Law) -> Vec<(&'static str, i128)> {
        let mut view: Vec<_> = law.lhs.iter().chain(law.rhs).map(|&n| (n, 1)).collect();
        let i = law.lhs.len();
        view[i].1 = law.lhs.len() as i128 - (law.rhs.len() as i128 - 1);
        view
    }

    #[test]
    fn every_law_passes_when_it_holds_and_names_itself_when_forged() {
        let names: Vec<&str> = LAWS.iter().map(|l| l.name).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), LAWS.len(), "law names are unique: {names:?}");
        for law in &LAWS {
            let view = balanced(law);
            assert_eq!(
                check(view.as_slice(), &[*law]),
                Ok(()),
                "{}: {view:?}",
                law.name
            );
            // pushing any left term up breaks both relations; for an
            // equality, so does pushing a right term up
            let pushable = match law.rel {
                Rel::Eq => view.len(),
                Rel::Le => law.lhs.len(),
            };
            for i in 0..pushable {
                let mut forged = view.clone();
                forged[i].1 += 1;
                let err = check(forged.as_slice(), &[*law]).expect_err(law.name);
                assert!(
                    err.starts_with(&format!("law {} broken: ", law.name)),
                    "{err}"
                );
                for (n, v) in &forged {
                    assert!(err.contains(&format!("{n} {v}")), "{err} prints {n}");
                }
            }
            let missing = &view[1..];
            let err = check(missing, &[*law]).expect_err("a missing counter is an error");
            assert!(
                err.starts_with(&format!("law {}: no counter", law.name)),
                "{err}"
            );
        }
    }

    #[test]
    fn live_views_read_the_fields() {
        let mut p = PerfCounters::default();
        p.cycles = 100;
        p.charge(StallCause::RobFull, 10, 40);
        p.charge(StallCause::DCacheMiss, 50, 60);
        assert_eq!(p.sum("cycles"), Some(100));
        assert_eq!(p.sum("stalls"), Some(40));
        assert_eq!(p.sum("stalls"), Some(p.attributed_stall_cycles().into()));

        // check_mem, the MemStats view, reads every term from its field:
        // a balanced table passes, and each forged field breaks its law
        let mut m = MemStats::zeroed(2, 2);
        m.snoop_matrix = vec![0, 3, 4, 0];
        (m.snoops_sent, m.snoops_suppressed, m.probe_candidates) = (7, 2, 9);
        m.l1d[1] = (7, 10);
        (m.miss_compulsory[1], m.miss_capacity[1]) = (1, 2);
        (m.miss_conflict[1], m.miss_coherence[1]) = (3, 4);
        m.pf_scorecard[1][1] = StreamScore {
            issued: 9,
            useful: 5,
            late: 5,
            useless: 1,
        };
        assert_eq!(check_mem(&m), Ok(()));
        let forged = |f: fn(&mut MemStats)| {
            let mut forged = m.clone();
            f(&mut forged);
            check_mem(&forged).expect_err("forged field refused")
        };
        let classes = "compulsory 1 + capacity 2 + conflict 3 + coherence 4";
        let broken = |rest: &str| format!("core 1: law miss_classes broken: {rest}");
        assert_eq!(
            forged(|m| m.l1d[1].1 = 11),
            broken(&format!("{classes} != misses 11"))
        );
        let errs = [
            forged(|m| m.miss_compulsory[1] = 2),
            forged(|m| m.miss_capacity[1] = 3),
            forged(|m| m.miss_conflict[1] = 4),
            forged(|m| m.miss_coherence[1] = 5),
        ];
        for (err, term) in
            errs.iter()
                .zip(["compulsory 2", "capacity 3", "conflict 4", "coherence 5"])
        {
            assert!(err.starts_with(&broken("")) && err.contains(term), "{err}");
        }
        let late = "core 1 slot 1: law late_le_useful broken";
        assert_eq!(
            forged(|m| m.pf_scorecard[1][1].late = 6),
            format!("{late}: pf_late 6 > pf_useful 5")
        );
        assert_eq!(
            forged(|m| m.pf_scorecard[1][1].useful = 4),
            format!("{late}: pf_late 5 > pf_useful 4")
        );
        assert_eq!(
            forged(|m| m.snoop_matrix[2] = 5),
            "law snoop_matrix broken: snoop_matrix 8 != snoops_sent 7"
        );
        assert_eq!(
            forged(|m| m.snoops_sent = 8),
            "law snoop_matrix broken: snoop_matrix 7 != snoops_sent 8"
        );
        assert_eq!(
            forged(|m| m.snoops_suppressed = 3),
            "law snoop_books broken: snoops_sent 7 + snoops_suppressed 3 != probe_candidates 9"
        );
        assert_eq!(
            forged(|m| m.probe_candidates = 10),
            "law snoop_books broken: snoops_sent 7 + snoops_suppressed 2 != probe_candidates 10"
        );
    }

    #[test]
    fn observability_md_tabulates_the_laws() {
        let md = include_str!("../../../docs/OBSERVABILITY.md");
        let table = md
            .split_once("\n## Conservation laws\n")
            .expect("docs/OBSERVABILITY.md has a \"Conservation laws\" section")
            .1;
        let rows: Vec<Vec<&str>> = table
            .lines()
            .skip_while(|l| !l.starts_with('|'))
            .take_while(|l| l.starts_with('|'))
            .skip(2)
            .map(|row| row.trim_matches('|').split('|').map(str::trim).collect())
            .collect();
        let names: Vec<&str> = rows.iter().map(|r| r[0].trim_matches('`')).collect();
        let want: Vec<&str> = LAWS.iter().map(|l| l.name).collect();
        assert_eq!(names, want, "the table lists exactly LAWS, in order");
        for (row, law) in rows.iter().zip(&LAWS) {
            let rel = match law.rel {
                Rel::Eq => "==",
                Rel::Le => "≤",
            };
            let relation = format!("`{} {rel} {}`", law.lhs.join(" + "), law.rhs.join(" + "));
            assert_eq!(row[1], relation, "{}", law.name);
        }
    }
}
