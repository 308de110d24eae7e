//! The four workloads as fixed job lists.
//!
//! A **job** is one guest program (or one 4-core program set) on one
//! simulator configuration; a **pass** runs every job of the workload a
//! fixed number of times in a seed-shuffled order. The work of a pass
//! is a compile-time constant — a pass is never time-boxed — so pass
//! times of one build are directly comparable and `sim_mips` is
//! `instructions of a pass / time of a pass`.

use crate::guest::{self, Guest};
use crate::spec::Workload;
use xt_asm::Program;
use xt_bench::report;
use xt_compiler::CompileOpts;
use xt_core::{CoreConfig, InOrderCore, InOrderSession, OooCore, OooSession, RunReport, Session};
use xt_emu::{Emulator, TraceSource};
use xt_harness::Rng;
use xt_mem::{MemConfig, MemSystem, PrefetchConfig};
use xt_snapshot::fnv1a;
use xt_soc::{ClusterReport, ClusterSim};
use xt_workloads::{
    ai, blockchain, coremark, eembc, nbench, sched, spec_like, stream, vecbench, Kernel,
};

/// Instruction budget of any one run (a safety net; no job comes close).
pub const MAX_INSTS: u64 = 500_000_000;

/// Times a job runs per pass, sizing a pass to 0.2–0.6 s of CPU.
const EMU_FUNC_REPS: usize = 8;
const OOO_CORE_REPS: usize = 2;
/// `sched` has no size knob and runs in 15 ms; repeat it so interrupts
/// are a fifth of a `cluster4` pass.
const IRQ_REPS: usize = 6;

/// STREAM elements per array in `mem_stream`: 10 Ki against
/// `xt-report`'s 32 Ki, because four full-size cells alone take 0.96 s
/// of CPU and a 30 s run must fit 40 passes with room to spare (it fits
/// ~65). 3 × 80 KiB still overflows the 64 KiB L1D almost four times
/// and stays L2-resident after the first touch, like the original.
pub const STREAM_ELEMS: u64 = 10 * 1024;

/// What a per-layer metric groups jobs by.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Group {
    /// Scalar compute.
    Scalar,
    /// Contains RVV instructions.
    Vector,
    /// STREAM, prefetch off.
    StreamOff,
    /// STREAM, all prefetchers on, large distance.
    StreamOn,
    /// DRAM-bound pointer chase (`spec_like`).
    Chase,
    /// Store-heavy fill.
    Fill,
    /// Cluster: private per-core slices.
    Private,
    /// Cluster: producer/consumer mailboxes.
    Sharing,
    /// Cluster: timer + IPI interrupts.
    Irq,
}

/// Which simulator runs a job.
#[derive(Clone, Copy, Debug)]
pub enum Model {
    /// `Emulator::run`, fast path on.
    Emu,
    /// `OooSession` on `CoreConfig::xt910()` with this memory system.
    Ooo(MemConfig),
    /// `InOrderSession` on `CoreConfig::u74_like()`.
    InOrder(MemConfig),
    /// 4-core `ClusterSim` on `xt910()`, `run_threads(1)`.
    Cluster {
        /// Attach the CLINT/PLIC/UART bus to every core.
        interrupts: bool,
    },
}

/// One job of a workload.
#[derive(Clone, Debug)]
pub struct Job {
    /// Label, e.g. `coremark/crc@ooo`.
    pub name: String,
    /// Per-layer grouping.
    pub group: Group,
    /// How often the job runs in one pass (1 in smoke mode).
    pub reps: usize,
    /// The simulator configuration.
    pub model: Model,
    /// One program per core.
    pub programs: Vec<Program>,
    /// Expected exit code per core (`None` until [`attach_oracle`]
    /// fills it from the reference interpreter).
    pub expect_exit: Vec<Option<u64>>,
    /// Instructions the reference interpreter retires (single-core
    /// jobs only; a cluster's spin loops depend on timing).
    pub expect_insts: Option<u64>,
}

impl Job {
    fn kernel(k: Kernel, group: Group, model: Model, suffix: &str) -> Job {
        Job {
            name: format!("{}{suffix}", k.name),
            group,
            reps: 1,
            model,
            programs: vec![k.program],
            expect_exit: vec![k.expected],
            expect_insts: None,
        }
    }

    fn guest(g: Guest, group: Group, model: Model, suffix: &str) -> Job {
        Job {
            name: format!("{}{suffix}", g.name),
            group,
            reps: 1,
            model,
            programs: g.programs,
            expect_exit: g.expected.into_iter().map(Some).collect(),
            expect_insts: None,
        }
    }

    fn program(name: &str, program: Program, model: Model) -> Job {
        Job {
            name: name.to_string(),
            group: Group::Scalar,
            reps: 1,
            model,
            programs: vec![program],
            expect_exit: vec![None],
            expect_insts: None,
        }
    }
}

fn mem_with(prefetch: PrefetchConfig) -> MemConfig {
    MemConfig {
        prefetch,
        ..MemConfig::default()
    }
}

/// The memory system of the 4-core cluster.
pub fn cluster_mem() -> MemConfig {
    MemConfig {
        cores: 4,
        ..MemConfig::default()
    }
}

/// CoreMark ×4, EEMBC ×5, NBench ×7 (smoke: the eleven cheapest).
fn scalar_kernels(smoke: bool) -> Vec<Kernel> {
    let opts = CompileOpts::optimized();
    let mut ks = coremark::all(&opts);
    ks.extend(eembc::all(&opts));
    ks.extend(nbench::all(&opts));
    if smoke {
        ks.retain(|k| {
            !matches!(
                k.name,
                "coremark/state"
                    | "coremark/crc"
                    | "coremark/matrix"
                    | "nbench/bitfield"
                    | "nbench/idea"
            )
        });
    }
    ks
}

/// Builds the job list of `workload` from `seed`. `smoke` shrinks it
/// and runs every job once per pass.
pub fn build(workload: Workload, seed: u64, smoke: bool) -> Vec<Job> {
    let mut jobs = build_once(workload, seed, smoke);
    let reps = match workload {
        _ if smoke => 1,
        Workload::EmuFunc => EMU_FUNC_REPS,
        Workload::OooCore => OOO_CORE_REPS,
        Workload::MemStream | Workload::Cluster4 => 1,
    };
    for job in &mut jobs {
        job.reps = if job.group == Group::Irq && !smoke {
            IRQ_REPS
        } else {
            reps
        };
    }
    jobs
}

fn build_once(workload: Workload, seed: u64, smoke: bool) -> Vec<Job> {
    let mut rng = Rng::new(seed);
    let xt910_mem = CoreConfig::xt910().mem;
    match workload {
        Workload::EmuFunc => {
            let m = Model::Emu;
            let mut jobs: Vec<Job> = scalar_kernels(smoke)
                .into_iter()
                .map(|k| Job::kernel(k, Group::Scalar, m, ""))
                .collect();
            jobs.extend(
                vecbench::all(&CompileOpts::vector_base())
                    .into_iter()
                    .chain([ai::dot_vector(), ai::dot_f16()])
                    .map(|k| Job::kernel(k, Group::Vector, m, "")),
            );
            jobs.extend(
                [
                    ai::dot_scalar(false),
                    ai::dot_scalar(true),
                    blockchain::hash_verify(true),
                ]
                .into_iter()
                .map(|k| Job::kernel(k, Group::Scalar, m, "")),
            );
            let (nodes, steps, iters) = if smoke {
                (1024, 4000, 2000)
            } else {
                (16 * 1024, 40_000, 20_000)
            };
            if !smoke {
                jobs.push(Job::kernel(spec_like::spec_like(), Group::Scalar, m, ""));
            }
            jobs.push(Job::guest(
                guest::chase(&mut rng, nodes, steps),
                Group::Scalar,
                m,
                "",
            ));
            jobs.push(Job::guest(
                guest::branchy(&mut rng, iters),
                Group::Scalar,
                m,
                "",
            ));
            jobs
        }
        Workload::OooCore => {
            let m = Model::Ooo(xt910_mem);
            let mut jobs: Vec<Job> = scalar_kernels(smoke)
                .into_iter()
                .map(|k| Job::kernel(k, Group::Scalar, m, "@ooo"))
                .collect();
            jobs.extend(
                vecbench::all(&CompileOpts::vector_tuned())
                    .into_iter()
                    .chain([ai::dot_vector()])
                    .map(|k| Job::kernel(k, Group::Vector, m, "@ooo")),
            );
            let iters = if smoke { 500 } else { 5000 };
            jobs.push(Job::program(
                "report/depchain@ooo",
                report::depchain(iters),
                m,
            ));
            jobs.push(Job::program(
                "report/branchy@ooo",
                report::branchy(iters),
                m,
            ));
            jobs.push(Job::guest(
                guest::branchy(&mut rng, iters as u64),
                Group::Scalar,
                m,
                "@ooo",
            ));
            jobs
        }
        Workload::MemStream => {
            let elems = if smoke { 2048 } else { STREAM_ELEMS };
            let st = stream::stream(elems);
            let mut jobs = Vec::new();
            for (pf, group, tag) in [
                (PrefetchConfig::off(), Group::StreamOff, "pf_off"),
                (PrefetchConfig::all_large(), Group::StreamOn, "pf_on"),
            ] {
                let mem = mem_with(pf);
                jobs.push(Job::kernel(
                    st.clone(),
                    group,
                    Model::Ooo(mem),
                    &format!("/{tag}@ooo"),
                ));
                jobs.push(Job::kernel(
                    st.clone(),
                    group,
                    Model::InOrder(mem),
                    &format!("/{tag}@inorder"),
                ));
            }
            let inorder = Model::InOrder(MemConfig::default());
            if smoke {
                // spec_like has no size knob; a 256 KiB chase stands in
                jobs.push(Job::guest(
                    guest::chase(&mut rng, 4096, 4000),
                    Group::Chase,
                    inorder,
                    "@inorder",
                ));
            } else {
                jobs.push(Job::kernel(
                    spec_like::spec_like(),
                    Group::Chase,
                    inorder,
                    "@inorder",
                ));
            }
            let (blocks, lines) = if smoke { (8, 32) } else { (64, 256) };
            jobs.push(Job::guest(
                guest::fill(&mut rng, blocks, lines),
                Group::Fill,
                inorder,
                "@inorder",
            ));
            jobs
        }
        Workload::Cluster4 => {
            let (elems, items, lines) = if smoke {
                (1024, 16, 8)
            } else {
                (12 * 1024, 150, 32)
            };
            let plain = Model::Cluster { interrupts: false };
            vec![
                Job::guest(
                    guest::private_slices(&mut rng, elems, 1),
                    Group::Private,
                    plain,
                    "@cluster4",
                ),
                Job::guest(
                    guest::mailboxes(items, lines),
                    Group::Sharing,
                    plain,
                    "@cluster4",
                ),
                Job {
                    name: "sched/timer_ipi@cluster4".to_string(),
                    group: Group::Irq,
                    reps: 1,
                    model: Model::Cluster { interrupts: true },
                    programs: sched::cluster_programs(4),
                    expect_exit: vec![Some(sched::EXIT_OK); 4],
                    expect_insts: None,
                },
            ]
        }
    }
}

/// The order a pass runs its jobs in: every job index `reps` times,
/// shuffled by the seed.
pub fn pass_order(jobs: &[Job], seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = jobs
        .iter()
        .enumerate()
        .flat_map(|(j, job)| std::iter::repeat_n(j, job.reps))
        .collect();
    Rng::new(seed).fork(1).shuffle(&mut order);
    order
}

/// A loaded emulator with the fast path set explicitly (never from
/// `XT_FASTPATH`).
pub fn loaded_emulator(prog: &Program, fastpath: bool) -> Emulator {
    let mut emu = Emulator::new();
    emu.set_fastpath(fastpath);
    emu.load(prog);
    emu
}

/// Runs every single-core job's program on the reference interpreter
/// (fast path **off**) and records its exit code and instruction
/// count: the oracle each timed run is checked against.
///
/// # Panics
///
/// Panics if a program's own self-check fails on the reference
/// interpreter — a broken generator, not a measurement.
pub fn attach_oracle(jobs: &mut [Job]) {
    for job in jobs
        .iter_mut()
        .filter(|j| !matches!(j.model, Model::Cluster { .. }))
    {
        let mut emu = loaded_emulator(&job.programs[0], false);
        let code = emu
            .run(MAX_INSTS)
            .unwrap_or_else(|e| panic!("{}: reference run failed: {e}", job.name));
        if let Some(want) = job.expect_exit[0] {
            assert_eq!(
                code, want,
                "{}: self-check fails on the reference interpreter",
                job.name
            );
        }
        job.expect_exit[0] = Some(code);
        job.expect_insts = Some(emu.cpu.instret);
    }
}

/// A simulator instance, loaded and ready to step — what one set-up
/// produces for one job.
pub enum Ready {
    /// Functional emulator.
    Emu(Box<Emulator>),
    /// Out-of-order session.
    Ooo(Box<OooSession>),
    /// In-order session.
    InOrder(Box<InOrderSession>),
    /// 4-core cluster.
    Cluster(Box<ClusterSim>),
}

/// What a finished run hands back, before any (untimed) digesting.
pub enum Raw {
    /// Exit code (`None` on an emulator error) and retired count.
    Emu(Option<u64>, u64),
    /// Single-core timing report.
    Core(Box<RunReport>),
    /// Cluster report.
    Cluster(Box<ClusterReport>),
}

impl Job {
    /// One set-up of this job: every `Emulator::new` + `load`,
    /// `MemSystem::new`, core `new` and `ClusterSim::new` it needs.
    pub fn instantiate(&self) -> Ready {
        let trace = |p: &Program| TraceSource::new(loaded_emulator(p, true), MAX_INSTS);
        match self.model {
            Model::Emu => Ready::Emu(Box::new(loaded_emulator(&self.programs[0], true))),
            Model::Ooo(mem) => Ready::Ooo(Box::new(Session::from_parts(
                trace(&self.programs[0]),
                OooCore::new(CoreConfig::xt910(), 0),
                MemSystem::new(mem),
            ))),
            Model::InOrder(mem) => Ready::InOrder(Box::new(Session::from_parts(
                trace(&self.programs[0]),
                InOrderCore::new(CoreConfig::u74_like(), 0),
                MemSystem::new(mem),
            ))),
            Model::Cluster { interrupts } => {
                let sim = ClusterSim::new(
                    &self.programs,
                    &CoreConfig::xt910(),
                    cluster_mem(),
                    MAX_INSTS,
                )
                .with_fastpath(true);
                Ready::Cluster(Box::new(if interrupts {
                    sim.with_interrupts()
                } else {
                    sim
                }))
            }
        }
    }

    /// Whether `got` is a correct run of this job: exit codes and
    /// instruction count match the oracle, and every simulated
    /// statistic equals `reference` (the same job in the first pass).
    pub fn accepts(&self, got: &Outcome, reference: Option<&Outcome>) -> bool {
        got.exit == self.expect_exit
            && self.expect_insts.is_none_or(|n| n == got.insts)
            && reference.is_none_or(|r| r == got)
    }
}

impl Ready {
    /// Runs to the end. This is the call a pass times.
    pub fn run(self) -> Raw {
        match self {
            Ready::Emu(mut emu) => {
                let code = emu.run(MAX_INSTS).ok();
                Raw::Emu(code, emu.cpu.instret)
            }
            Ready::Ooo(mut s) => Raw::Core(Box::new(s.run_to_end())),
            Ready::InOrder(mut s) => Raw::Core(Box::new(s.run_to_end())),
            Ready::Cluster(sim) => Raw::Cluster(Box::new(sim.run_threads(1))),
        }
    }
}

/// The checked summary of one run. Two runs of the same job on the
/// same build must produce equal `Outcome`s: simulated statistics
/// repeat exactly; only host time may vary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Exit code per core.
    pub exit: Vec<Option<u64>>,
    /// Guest instructions retired (all cores).
    pub insts: u64,
    /// Simulated cycles (cluster: makespan; emulator: 0).
    pub cycles: u64,
    /// FNV-1a of the full counter set: `PerfCounters` and `MemStats`.
    pub digest: u64,
}

/// Digests a single-core timing report.
pub fn core_outcome(r: &RunReport) -> Outcome {
    Outcome {
        exit: vec![r.exit_code],
        insts: r.perf.instructions,
        cycles: r.perf.cycles,
        digest: fnv1a(format!("{:?}{:?}", r.perf, r.mem).as_bytes()),
    }
}

impl Raw {
    /// Digests the run (untimed: formats every counter).
    pub fn outcome(&self) -> Outcome {
        match self {
            Raw::Emu(code, insts) => Outcome {
                exit: vec![*code],
                insts: *insts,
                cycles: 0,
                digest: fnv1a(format!("{code:?}{insts}").as_bytes()),
            },
            Raw::Core(r) => core_outcome(r),
            Raw::Cluster(r) => Outcome {
                exit: r.exit_codes.clone(),
                insts: r.total_instructions(),
                cycles: r.makespan(),
                digest: fnv1a(format!("{:?}{:?}", r.cores, r.mem).as_bytes()),
            },
        }
    }
}

/// Folds per-job outcomes (in job-list order) into the 48-bit digest
/// reported as `core.sim_digest`: equal between a traced and an
/// untraced run, and between two builds that differ only in host code.
pub fn pass_digest(reference: &[Outcome]) -> u64 {
    let mut bytes = Vec::new();
    for o in reference {
        bytes.extend(o.insts.to_le_bytes());
        bytes.extend(o.cycles.to_le_bytes());
        bytes.extend(o.digest.to_le_bytes());
    }
    let h = fnv1a(&bytes);
    (h ^ (h >> 48)) & ((1 << 48) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_order_is_a_seeded_permutation_of_every_rep() {
        let jobs = build(Workload::Cluster4, 910, false);
        let a = pass_order(&jobs, 910);
        assert_eq!(a, pass_order(&jobs, 910));
        assert_ne!(a, pass_order(&jobs, 911));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 2, 2, 2, 2, 2]);
        assert!(build(Workload::Cluster4, 910, true)
            .iter()
            .all(|j| j.reps == 1));
    }

    #[test]
    fn smoke_jobs_pass_their_oracle_on_every_model() {
        for w in Workload::ALL {
            let mut jobs = build(w, 7, true);
            attach_oracle(&mut jobs);
            for job in &jobs {
                let first = job.instantiate().run().outcome();
                assert!(
                    job.accepts(&first, None),
                    "{}: {first:?} vs {:?}/{:?}",
                    job.name,
                    job.expect_exit,
                    job.expect_insts
                );
                let again = job.instantiate().run().outcome();
                assert!(
                    job.accepts(&again, Some(&first)),
                    "{}: not repeatable",
                    job.name
                );
            }
        }
    }

    #[test]
    fn a_wrong_exit_code_count_or_statistic_is_rejected() {
        let mut jobs = build(Workload::OooCore, 7, true);
        attach_oracle(&mut jobs);
        let job = &jobs[0];
        let good = job.instantiate().run().outcome();
        let bad = |f: fn(&mut Outcome)| {
            let mut o = good.clone();
            f(&mut o);
            o
        };
        assert!(!job.accepts(&bad(|o| o.exit[0] = Some(u64::MAX)), Some(&good)));
        assert!(!job.accepts(&bad(|o| o.insts += 1), Some(&good)));
        assert!(!job.accepts(&bad(|o| o.cycles += 1), Some(&good)));
        assert!(!job.accepts(&bad(|o| o.digest ^= 1), Some(&good)));
        assert_ne!(
            pass_digest(std::slice::from_ref(&good)),
            pass_digest(&[bad(|o| o.cycles += 1)])
        );
    }
}
