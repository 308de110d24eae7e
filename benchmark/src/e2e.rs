//! The untraced run: one warm-up pass, timed passes, and the three
//! end-to-end metrics.

use crate::clock::{peak_rss_kib, thread_cpu_ns};
use crate::jobs::{self, Job, Outcome};
use crate::span::{Recorder, NO_JOB};
use crate::spec::Workload;
use crate::stats;
use std::time::Instant;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Seed of the job order and the generated guest programs.
    pub seed: u64,
    /// Shrunken jobs (the `--smoke` self-test).
    pub smoke: bool,
}

/// How long to keep running timed passes.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Until this much wall clock has passed since `started`, and at
    /// least [`MIN_PASSES`] passes ran.
    Until(Instant, f64),
    /// Exactly this many passes.
    Passes(usize),
}

/// Fewest timed passes of a time-budgeted run, however slow the host:
/// a run that has not reached them when its seconds are up keeps going.
/// Every workload fits 52–90 passes into 30 s on a quiet box.
pub const MIN_PASSES: usize = 40;

/// A workload built and checked against its oracle, ready for passes.
pub struct Prepared {
    /// The jobs, oracle attached.
    pub jobs: Vec<Job>,
    /// Job indices in pass order.
    pub order: Vec<usize>,
}

impl Prepared {
    /// Builds the workload's jobs and runs the reference interpreter.
    pub fn new(plan: Plan) -> Prepared {
        let mut jobs = jobs::build(plan.workload, plan.seed, plan.smoke);
        jobs::attach_oracle(&mut jobs);
        let order = jobs::pass_order(&jobs, plan.seed);
        Prepared { jobs, order }
    }
}

/// One operation: one job of one pass.
pub struct Op {
    /// Index into the job list.
    pub job: usize,
    /// Thread-CPU ns of `Job::instantiate`.
    pub setup_ns: u64,
    /// Thread-CPU ns of `Ready::run`.
    pub run_ns: u64,
    /// What the run computed.
    pub outcome: Outcome,
}

/// One pass, in execution order.
pub struct PassResult {
    /// Every job, `reps` times.
    pub ops: Vec<Op>,
}

impl PassResult {
    /// Guest instructions retired.
    pub fn insts(&self) -> u64 {
        self.ops.iter().map(|op| op.outcome.insts).sum()
    }

    /// Thread-CPU ns inside the `run` calls.
    pub fn run_ns(&self) -> u64 {
        self.ops.iter().map(|op| op.run_ns).sum()
    }

    /// Thread-CPU ns inside the `instantiate` calls.
    pub fn setup_ns(&self) -> u64 {
        self.ops.iter().map(|op| op.setup_ns).sum()
    }
}

/// Runs one pass. Each job is set up, run (both timed on their own,
/// thread CPU) and digested (untimed). With a recorder, every one of
/// those calls also gets a span — the only difference between a traced
/// and an untraced pass, which is what `trace_overhead_ratio` measures.
pub fn run_pass(p: &Prepared, mut rec: Option<&mut Recorder>) -> PassResult {
    fn spanned<R>(
        rec: &mut Option<&mut Recorder>,
        name: &'static str,
        job: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        match rec {
            Some(r) => r.span(name, job, |_| f()).0,
            None => f(),
        }
    }
    let ops = p
        .order
        .iter()
        .map(|&j| {
            let job = &p.jobs[j];
            let id = j as u32;
            let t0 = thread_cpu_ns();
            let ready = spanned(&mut rec, "setup", id, || job.instantiate());
            let t1 = thread_cpu_ns();
            let raw = spanned(&mut rec, "run", id, || ready.run());
            let t2 = thread_cpu_ns();
            Op {
                job: j,
                setup_ns: t1 - t0,
                run_ns: t2 - t1,
                outcome: spanned(&mut rec, "check", id, || raw.outcome()),
            }
        })
        .collect();
    PassResult { ops }
}

/// [`run_pass`] inside a `pass` span.
pub fn run_pass_traced(p: &Prepared, rec: &mut Recorder) -> PassResult {
    rec.span("pass", NO_JOB, |r| run_pass(p, Some(r))).0
}

/// Counts of checked operations (one operation = one job of one pass).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations run.
    pub attempted: u64,
    /// Operations whose exit code, instruction count or simulated
    /// statistics were wrong.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation: `got` must satisfy the job's oracle and
    /// equal `reference`. `what` names the way the job was run.
    pub fn check(&mut self, job: &Job, got: &Outcome, reference: &Outcome, what: &str) {
        self.attempted += 1;
        if !job.accepts(got, Some(reference)) {
            self.failed += 1;
            eprintln!(
                "FAILED {} ({what}): {got:?}, reference {reference:?}",
                job.name
            );
        }
    }
}

/// The first pass's outcome per job, in job-list order: what every
/// later pass must reproduce exactly.
pub struct Reference(pub Vec<Outcome>);

impl Reference {
    /// Takes the reference from a pass (every job appears in a pass).
    pub fn from_pass(p: &Prepared, pass: &PassResult) -> Reference {
        Reference(
            (0..p.jobs.len())
                .map(|j| {
                    let op = pass
                        .ops
                        .iter()
                        .find(|op| op.job == j)
                        .expect("a pass runs every job");
                    op.outcome.clone()
                })
                .collect(),
        )
    }

    /// Checks every operation of `pass` against the oracle and this
    /// reference.
    pub fn check(&self, p: &Prepared, pass: &PassResult, tally: &mut Tally) {
        for op in &pass.ops {
            tally.check(&p.jobs[op.job], &op.outcome, &self.0[op.job], "pass");
        }
    }

    /// The 48-bit digest of the workload's simulated statistics.
    pub fn digest(&self) -> u64 {
        jobs::pass_digest(&self.0)
    }
}

/// The undisturbed cost of a pass, job by job: the least time each
/// job's `instantiate` and `run` ever took in this process. A pass is
/// fixed work, so anything above a job's minimum is the host's doing —
/// a neighbour on the sibling thread, a cache it flushed, a migration —
/// and on this box that comes in phases longer than a pass: whole
/// passes are rarely quiet, but every 1–150 ms job meets a quiet
/// moment somewhere in 40+ passes (README, "Noise measurements").
pub struct Quiet {
    setup_ns: Vec<u64>,
    run_ns: Vec<u64>,
}

impl Quiet {
    /// No measurement yet, for `jobs` jobs.
    pub fn new(jobs: usize) -> Quiet {
        Quiet {
            setup_ns: vec![u64::MAX; jobs],
            run_ns: vec![u64::MAX; jobs],
        }
    }

    /// Takes in the operations of one pass.
    pub fn add(&mut self, pass: &PassResult) {
        for op in &pass.ops {
            self.setup_ns[op.job] = self.setup_ns[op.job].min(op.setup_ns);
            self.run_ns[op.job] = self.run_ns[op.job].min(op.run_ns);
        }
    }

    fn pass_secs(per_job: &[u64], jobs: &[Job]) -> f64 {
        let ns: u64 = per_job
            .iter()
            .zip(jobs)
            .map(|(&ns, job)| {
                assert_ne!(ns, u64::MAX, "{} never ran", job.name);
                ns * job.reps as u64
            })
            .sum();
        ns as f64 / 1e9
    }

    /// Seconds the `run` calls of one pass take undisturbed.
    pub fn run_secs(&self, jobs: &[Job]) -> f64 {
        Quiet::pass_secs(&self.run_ns, jobs)
    }

    /// Seconds the `instantiate` calls of one pass take undisturbed.
    pub fn setup_secs(&self, jobs: &[Job]) -> f64 {
        Quiet::pass_secs(&self.setup_ns, jobs)
    }
}

/// Everything an untraced run reports.
#[derive(Clone, Debug)]
pub struct E2e {
    /// Guest MIPS at the undisturbed pass time — the gated metric.
    pub sim_mips: f64,
    /// MIPS at the fast decile, the median and the slow decile of the
    /// whole-pass times (informational).
    pub mips_by_pass: [f64; 3],
    /// Timed passes.
    pub passes: usize,
    /// Guest instructions per pass.
    pub insts_per_pass: u64,
    /// Undisturbed seconds per set-up — the gated metric.
    pub setup_s: f64,
    /// Median seconds per set-up over the passes (informational).
    pub setup_median_s: f64,
    /// `VmHWM` in MiB when the run ended.
    pub peak_rss_mb: f64,
    /// Checked operations.
    pub tally: Tally,
    /// Digest of the simulated statistics.
    pub digest: u64,
}

/// The untraced run. Every timed pass is one sample of both gated
/// times: its `run` calls give the pass time; a fresh build of the job
/// list from the seed plus its `instantiate` calls are one complete
/// set-up (seed → generated, compiled and assembled guest programs →
/// every simulator instance the pass needs, ready to step).
pub fn run(plan: Plan, budget: Budget) -> E2e {
    let p = Prepared::new(plan);
    let mut tally = Tally::default();
    let warm = run_pass(&p, None);
    let reference = Reference::from_pass(&p, &warm);
    reference.check(&p, &warm, &mut tally);
    let insts = warm.insts();

    let mut quiet = Quiet::new(p.jobs.len());
    let mut build_ns = Vec::new();
    let (mut run_secs, mut setup_secs) = (Vec::new(), Vec::new());
    let more = |done: usize| match budget {
        Budget::Passes(n) => done < n,
        Budget::Until(t0, s) => done < MIN_PASSES || t0.elapsed().as_secs_f64() < s,
    };
    while more(run_secs.len()) {
        let t0 = thread_cpu_ns();
        drop(std::hint::black_box(jobs::build(
            plan.workload,
            plan.seed,
            plan.smoke,
        )));
        let build = thread_cpu_ns() - t0;
        let pass = run_pass(&p, None);
        assert_eq!(pass.insts(), insts, "a pass is fixed work");
        reference.check(&p, &pass, &mut tally);
        quiet.add(&pass);
        build_ns.push(build);
        run_secs.push(pass.run_ns() as f64 / 1e9);
        setup_secs.push((build + pass.setup_ns()) as f64 / 1e9);
    }
    let mips = |secs: f64| insts as f64 / secs / 1e6;
    let quiet_build = *build_ns.iter().min().expect("at least one timed pass") as f64 / 1e9;
    E2e {
        sim_mips: mips(quiet.run_secs(&p.jobs)),
        mips_by_pass: [
            stats::p10(&run_secs),
            stats::median(&run_secs),
            stats::quantile(&run_secs, 0.90),
        ]
        .map(mips),
        passes: run_secs.len(),
        insts_per_pass: insts,
        setup_s: quiet_build + quiet.setup_secs(&p.jobs),
        setup_median_s: stats::median(&setup_secs),
        peak_rss_mb: peak_rss_kib() as f64 / 1024.0,
        tally,
        digest: reference.digest(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(job: usize, setup_ns: u64, run_ns: u64) -> Op {
        Op {
            job,
            setup_ns,
            run_ns,
            outcome: Outcome {
                exit: vec![Some(0)],
                insts: 1,
                cycles: 0,
                digest: 0,
            },
        }
    }

    #[test]
    fn quiet_cost_is_each_jobs_minimum_times_its_reps() {
        let mut jobs = jobs::build(Workload::Cluster4, 910, true);
        jobs.truncate(2);
        (jobs[0].reps, jobs[1].reps) = (1, 3);
        let mut quiet = Quiet::new(2);
        // no pass was quiet throughout, but every job was quiet once
        quiet.add(&PassResult {
            ops: vec![op(0, 10, 100), op(1, 9, 70), op(1, 5, 50), op(1, 7, 90)],
        });
        quiet.add(&PassResult {
            ops: vec![op(1, 6, 60), op(0, 4, 140), op(1, 8, 55), op(1, 9, 51)],
        });
        assert_eq!(quiet.run_secs(&jobs), (100 + 3 * 50) as f64 / 1e9);
        assert_eq!(quiet.setup_secs(&jobs), (4 + 3 * 5) as f64 / 1e9);
    }
}
