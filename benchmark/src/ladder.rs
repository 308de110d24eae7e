//! The traced run: per-layer metrics from an outside-in ladder.
//!
//! Nothing inside the simulator is instrumented. Each rung calls one
//! layer's public functions with the layers above it taken away, and
//! the difference between two rungs is a layer's own cost:
//!
//! * **L0** `Emulator::run` — the functional emulator alone;
//! * **L1** drain `TraceSource::try_next` with no core attached —
//!   L1 − L0 is the price of materialising a `DynInst` per instruction;
//! * **L2** pre-collect `DynInst`s in ≤ 256 Ki chunks (untimed), then
//!   time `OooCore::step` / `InOrderCore::step` against a live
//!   `MemSystem` — the timing model with the emulator taken away;
//! * **L3** record that run's `MemOp`s and time `apply_op` on a fresh
//!   `MemSystem` — the memory hierarchy alone; L2 − L3 is the core's
//!   self time.
//!
//! Every timed call sits in a [`Recorder`] span; times are thread-CPU
//! ns and each reported time is the minimum over the timed passes.
//! Counts are exact and every ladder run is checked against the same
//! oracle and reference as the end-to-end passes.
//!
//! The builder contract wants every per-layer metric from every traced
//! run, so one process climbs the ladder over all four job lists
//! **once** ([`global`]) and then, for each workload it was asked for,
//! runs that workload's ordinary passes with and without spans
//! ([`specific`]: `trace_overhead_ratio`, `span.*`, `core.sim_digest`).

use crate::e2e::{self, Budget, Plan, Prepared, Reference, Tally};
use crate::jobs::{self, Group, Job, Model, Raw, Ready, MAX_INSTS};
use crate::span::{self_times, Recorder, NO_JOB};
use crate::spec::{self, Workload};
use crate::Metric;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use xt_bench::figures::Figure;
use xt_core::session::CoreModel;
use xt_core::{CoreConfig, InOrderCore, OooCore, RunReport};
use xt_emu::{DynInst, TraceEvent, TraceSource};
use xt_isa::{Op, Sew};
use xt_mem::{MemConfig, MemOp, MemSystem};
use xt_soc::ClusterSim;
use xt_vector::{VecPlan, VectorConfig};

/// `DynInst`s collected per L2 chunk.
const CHUNK: usize = 256 * 1024;
/// `xt-stat`'s sampling interval.
const SAMPLE_INTERVAL: u64 = 8192;

/// What a traced run reports for one workload.
pub struct Layers {
    /// Every per-layer metric, once.
    pub metrics: Vec<Metric>,
    /// Operations checked: the shared ladder's and this workload's own.
    pub tally: Tally,
    /// The workload's `core.sim_digest`.
    pub digest: u64,
}

/// Smallest of several measurements of the same fixed work.
#[derive(Clone, Copy)]
struct Min(u64);

impl Min {
    fn new() -> Min {
        Min(u64::MAX)
    }
    fn add(&mut self, ns: u64) {
        self.0 = self.0.min(ns);
    }
    fn ns(self) -> f64 {
        assert_ne!(self.0, u64::MAX, "a ladder rung was never measured");
        self.0 as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

// ---------------------------------------------------------------- specific

/// The selected workload's own passes, with and without spans.
fn specific(plan: Plan, rec: &mut Recorder, tally: &mut Tally, m: &mut Vec<Metric>) -> u64 {
    let p = Prepared::new(plan);
    let warm = e2e::run_pass(&p, None);
    let reference = Reference::from_pass(&p, &warm);
    reference.check(&p, &warm, tally);

    let first_span = rec.spans().len();
    let (mut plain, mut traced) = (Min::new(), Min::new());
    let passes = if plan.smoke { 1 } else { 3 };
    for _ in 0..passes {
        let a = e2e::run_pass(&p, None);
        reference.check(&p, &a, tally);
        plain.add(a.run_ns());
        let b = e2e::run_pass_traced(&p, rec);
        reference.check(&p, &b, tally);
        traced.add(b.run_ns());
    }
    m.push(Metric::new(
        "trace_overhead_ratio",
        traced.ns() / plain.ns(),
    ));

    // where the traced passes went, by self time
    let spans = &rec.spans()[first_span..];
    let rebased: Vec<_> = spans
        .iter()
        .cloned()
        .map(|mut s| {
            s.parent = s.parent.map(|p| p - first_span);
            s
        })
        .collect();
    let st = self_times(&rebased);
    let total: u64 = st.values().sum();
    let share = |name: &str| ratio(st.get(name).copied().unwrap_or(0) as f64, total as f64);
    m.push(Metric::new("span.setup_share", share("setup")));
    m.push(Metric::new("span.run_share", share("run")));
    m.push(Metric::new("span.check_share", share("check")));
    m.push(Metric::new("span.unattributed_share", share("pass")));
    m.push(Metric::new(
        "span.pass_ms",
        total as f64 / passes as f64 / 1e6,
    ));
    m.push(Metric::new("core.sim_digest", reference.digest() as f64));
    reference.digest()
}

// ------------------------------------------------------------------ ladder

/// Per-job accumulators of the L0/L1 rungs (functional emulator).
#[derive(Default)]
struct EmuRungs {
    insts: u64,
    programs: u64,
    hits: u64,
    misses: u64,
    blocks_built: u64,
}

fn decode_all(text: &[u8]) -> u64 {
    let mut at = 0;
    let mut n = 0;
    while at + 2 <= text.len() {
        let half = u16::from_le_bytes([text[at], text[at + 1]]);
        if half & 3 != 3 {
            let _ = black_box(xt_isa::decode_compressed(black_box(half)));
            at += 2;
        } else if at + 4 <= text.len() {
            let word = u32::from_le_bytes([text[at], text[at + 1], text[at + 2], text[at + 3]]);
            let _ = black_box(xt_isa::decode(black_box(word)));
            at += 4;
        } else {
            break;
        }
        n += 1;
    }
    n
}

/// How an L2 run's `MemSystem` is observed.
#[derive(Clone, Copy, PartialEq, Eq)]
enum MemMode {
    Plain,
    Recording,
    Tracing,
}

struct L2 {
    step_ns: u64,
    report: RunReport,
    log: Vec<MemOp>,
    mem: MemSystem,
}

/// One L2 run: collect a chunk of `DynInst`s (untimed), step the core
/// over it (timed), repeat to the end of the trace.
#[allow(clippy::too_many_arguments)]
fn l2<C: CoreModel>(
    rec: &mut Recorder,
    span: &'static str,
    id: u32,
    job: &Job,
    mut core: C,
    mem_cfg: MemConfig,
    mode: MemMode,
    chunk: &mut Vec<DynInst>,
    mut seen: impl FnMut(&DynInst),
) -> L2 {
    let mut trace = TraceSource::new(jobs::loaded_emulator(&job.programs[0], true), MAX_INSTS);
    let mut mem = MemSystem::new(mem_cfg);
    match mode {
        MemMode::Plain => {}
        MemMode::Recording => mem.start_recording(),
        MemMode::Tracing => mem.start_tracing(),
    }
    let mut step_ns = 0;
    loop {
        chunk.clear();
        rec.span("emu.collect", id, |_| {
            while chunk.len() < CHUNK {
                match trace.try_next() {
                    TraceEvent::Inst(d) => chunk.push(d),
                    TraceEvent::Barrier | TraceEvent::Done => break,
                }
            }
        });
        if chunk.is_empty() {
            break;
        }
        chunk.iter().for_each(&mut seen);
        step_ns += rec
            .span(span, id, |_| {
                for d in chunk.iter() {
                    core.step_inst(d, &mut mem);
                }
            })
            .1;
    }
    let report = core.report(&mem, trace.exit_code);
    let log = mem.take_log();
    L2 {
        step_ns,
        report,
        log,
        mem,
    }
}

fn l2_for(
    rec: &mut Recorder,
    id: u32,
    job: &Job,
    mode: MemMode,
    chunk: &mut Vec<DynInst>,
    seen: impl FnMut(&DynInst),
) -> L2 {
    match job.model {
        Model::Ooo(mem) => l2(
            rec,
            "core.ooo_step",
            id,
            job,
            OooCore::new(CoreConfig::xt910(), 0),
            mem,
            mode,
            chunk,
            seen,
        ),
        Model::InOrder(mem) => l2(
            rec,
            "core.inorder_step",
            id,
            job,
            InOrderCore::new(CoreConfig::u74_like(), 0),
            mem,
            mode,
            chunk,
            seen,
        ),
        Model::Emu | Model::Cluster { .. } => unreachable!("L2 runs timing jobs only"),
    }
}

fn mem_cfg_of(job: &Job) -> MemConfig {
    match job.model {
        Model::Ooo(m) | Model::InOrder(m) => m,
        Model::Emu | Model::Cluster { .. } => unreachable!("timing jobs only"),
    }
}

/// Per-timing-job minima over the ladder passes.
struct TimingRungs {
    plain: Min,
    recording: Min,
    tracing: Min,
    replay: Min,
    ops: u64,
    vec_insts: u64,
    report: Option<RunReport>,
}

impl TimingRungs {
    fn new() -> TimingRungs {
        TimingRungs {
            plain: Min::new(),
            recording: Min::new(),
            tracing: Min::new(),
            replay: Min::new(),
            ops: 0,
            vec_insts: 0,
            report: None,
        }
    }

    fn report(&self) -> &RunReport {
        self.report.as_ref().expect("every job ran")
    }
}

/// Sums `f` over the jobs (and their rungs) `pick` selects.
fn sum<'a>(
    jobs: &'a [Job],
    rungs: &'a [TimingRungs],
    pick: impl Fn(&Job) -> bool + 'a,
) -> impl Fn(&dyn Fn(&TimingRungs) -> f64) -> f64 + 'a {
    move |f| {
        jobs.iter()
            .zip(rungs)
            .filter(|(j, _)| pick(j))
            .map(|(_, r)| f(r))
            .sum()
    }
}

/// Climbs L2/L3 over one list of timing jobs.
fn timing_ladder(
    rec: &mut Recorder,
    p: &Prepared,
    reference: &Reference,
    passes: usize,
    with_tracing: bool,
    vec_ops: &mut BTreeSet<(u16, u16, u8)>,
    tally: &mut Tally,
) -> (Vec<TimingRungs>, Option<MemSystem>) {
    let mut rungs: Vec<TimingRungs> = p.jobs.iter().map(|_| TimingRungs::new()).collect();
    let mut chunk = Vec::with_capacity(CHUNK);
    let mut used_mem = None;
    for pass in 0..=passes {
        let timed_pass = pass > 0;
        for (j, job) in p.jobs.iter().enumerate() {
            let id = j as u32;
            let r = &mut rungs[j];
            let want = &reference.0[j];
            let mut vec_insts = 0;
            let plain = l2_for(rec, id, job, MemMode::Plain, &mut chunk, |d| {
                if d.inst.op.is_vector() {
                    vec_insts += 1;
                    if vec_ops.len() < 64 {
                        vec_ops.insert((d.inst.op as u16, d.vl, d.sew_bits));
                    }
                }
            });
            let recorded = l2_for(rec, id, job, MemMode::Recording, &mut chunk, |_| {});
            let mut fresh = MemSystem::new(mem_cfg_of(job));
            let ((), replay_ns) = rec.span("mem.apply_op", id, |_| {
                for op in &recorded.log {
                    fresh.apply_op(0, op);
                }
            });
            if timed_pass {
                r.plain.add(plain.step_ns);
                r.recording.add(recorded.step_ns);
                r.replay.add(replay_ns);
            }
            if with_tracing {
                let traced = l2_for(rec, id, job, MemMode::Tracing, &mut chunk, |_| {});
                if timed_pass {
                    r.tracing.add(traced.step_ns);
                }
                tally.check(
                    job,
                    &jobs::core_outcome(&traced.report),
                    want,
                    "L2, MemSystem tracing",
                );
            }
            r.ops = recorded.log.len() as u64;
            r.vec_insts = vec_insts;
            tally.check(
                job,
                &jobs::core_outcome(&recorded.report),
                want,
                "L2, MemSystem recording",
            );
            // the replayed hierarchy must end in the state the live one did
            tally.attempted += 1;
            if fresh.stats() != plain.report.mem {
                tally.failed += 1;
                eprintln!(
                    "FAILED {} (L3): replayed MemStats differ from the live run",
                    job.name
                );
            }
            tally.check(job, &jobs::core_outcome(&plain.report), want, "L2");
            r.report = Some(plain.report);
            used_mem = Some(plain.mem);
        }
    }
    (rungs, used_mem)
}

fn paper_error(rows: &[(f64, f64)]) -> f64 {
    rows.iter().map(|(v, p)| (v / p - 1.0).abs()).sum::<f64>() / rows.len() as f64
}

fn rows_with_paper<'a>(
    f: &'a Figure,
    pick: impl Fn(&str) -> bool + 'a,
) -> impl Iterator<Item = (f64, f64)> + 'a {
    f.rows
        .iter()
        .filter(move |r| pick(&r.label))
        .filter_map(|r| r.paper.map(|p| (r.value, p)))
}

/// The ladder over all four job lists. Independent of `--workload`.
fn global(seed: u64, smoke: bool, rec: &mut Recorder, tally: &mut Tally, m: &mut Vec<Metric>) {
    let passes = if smoke { 1 } else { 3 };
    let plan = |workload| Plan {
        workload,
        seed,
        smoke,
    };

    // ---- xt-workloads / xt-compiler / xt-asm: building the job lists
    let mut build = Min::new();
    for _ in 0..passes {
        let ((), ns) = rec.span("workloads.build", NO_JOB, |_| {
            for w in Workload::ALL {
                black_box(jobs::build(w, seed, smoke));
            }
        });
        build.add(ns);
    }
    let prepared: Vec<Prepared> = Workload::ALL
        .into_iter()
        .map(|w| Prepared::new(plan(w)))
        .collect();
    let all_programs = || {
        prepared
            .iter()
            .flat_map(|p| &p.jobs)
            .flat_map(|j| &j.programs)
    };
    m.push(Metric::new("workloads.build_ms", build.ns() / 1e6));
    m.push(Metric::new(
        "workloads.kernels",
        prepared.iter().map(|p| p.jobs.len()).sum::<usize>() as f64,
    ));
    m.push(Metric::new(
        "workloads.text_bytes",
        all_programs().map(|p| p.text.len()).sum::<usize>() as f64,
    ));

    // ---- xt-isa: decode every text word
    let (mut decode, mut decodes) = (Min::new(), 0);
    for _ in 0..passes {
        let (n, ns) = rec.span("isa.decode", NO_JOB, |_| {
            all_programs().map(|p| decode_all(&p.text)).sum::<u64>()
        });
        decodes = n;
        decode.add(ns);
    }
    m.push(Metric::new("isa.decode_ns", decode.ns() / decodes as f64));
    m.push(Metric::new("isa.decodes", decodes as f64));

    // references: each list's first ordinary pass
    let references: Vec<Reference> = prepared
        .iter()
        .map(|p| {
            let warm = e2e::run_pass(p, None);
            let r = Reference::from_pass(p, &warm);
            r.check(p, &warm, tally);
            r
        })
        .collect();
    let [emu_p, ooo_p, mem_p, soc_p] = &prepared[..] else {
        unreachable!("four workloads")
    };
    let [emu_ref, ooo_ref, mem_ref, soc_ref] = &references[..] else {
        unreachable!("four workloads")
    };

    // ---- L0 and L1 over the emu_func list
    let (mut fast, mut slow, mut drain, mut load) =
        (Min::new(), Min::new(), Min::new(), Min::new());
    let mut e = EmuRungs::default();
    for pass in 0..=passes {
        let (mut fast_ns, mut slow_ns, mut drain_ns, mut load_ns) = (0, 0, 0, 0);
        e = EmuRungs::default();
        for (j, job) in emu_p.jobs.iter().enumerate() {
            let id = j as u32;
            let prog = &job.programs[0];
            for (fastpath, span, acc) in [
                (true, "emu.run", &mut fast_ns),
                (false, "emu.run_slow", &mut slow_ns),
            ] {
                let (mut emu, ns) =
                    rec.span("emu.load", id, |_| jobs::loaded_emulator(prog, fastpath));
                load_ns += ns;
                e.programs += 1;
                let (code, ns) = rec.span(span, id, |_| emu.run(MAX_INSTS).ok());
                *acc += ns;
                tally.check(
                    job,
                    &Raw::Emu(code, emu.cpu.instret).outcome(),
                    &emu_ref.0[j],
                    span,
                );
                if fastpath {
                    let c = emu.cache_stats();
                    e.insts += emu.cpu.instret;
                    e.hits += c.hits;
                    e.misses += c.misses;
                    e.blocks_built += c.blocks_built;
                }
            }
            let mut trace = TraceSource::new(jobs::loaded_emulator(prog, true), MAX_INSTS);
            drain_ns += rec
                .span("emu.trace_next", id, |_| {
                    while let TraceEvent::Inst(d) = trace.try_next() {
                        black_box(d);
                    }
                })
                .1;
            tally.check(
                job,
                &Raw::Emu(trace.exit_code, trace.retired()).outcome(),
                &emu_ref.0[j],
                "L1",
            );
        }
        if pass > 0 {
            fast.add(fast_ns);
            slow.add(slow_ns);
            drain.add(drain_ns);
            load.add(load_ns);
        }
    }
    let per_inst = |ns: f64| ns / e.insts as f64;
    m.push(Metric::new("emu.run_ns", per_inst(fast.ns())));
    m.push(Metric::new("emu.run_slow_ns", per_inst(slow.ns())));
    m.push(Metric::new(
        "emu.block_hit_ratio",
        ratio(e.hits as f64, (e.hits + e.misses) as f64),
    ));
    m.push(Metric::new("emu.blocks_built", e.blocks_built as f64));
    m.push(Metric::new("emu.trace_next_ns", per_inst(drain.ns())));
    m.push(Metric::new(
        "emu.dyninst_ns",
        per_inst(drain.ns() - fast.ns()),
    ));
    m.push(Metric::new(
        "emu.load_ms",
        load.ns() / e.programs as f64 / 1e6,
    ));

    // ---- L2 and L3 over the ooo_core and mem_stream lists
    let mut vec_ops = BTreeSet::new();
    let (ooo, used_mem) = timing_ladder(rec, ooo_p, ooo_ref, passes, true, &mut vec_ops, tally);
    let (mem, _) = timing_ladder(rec, mem_p, mem_ref, passes, false, &mut vec_ops, tally);
    let plain = |r: &TimingRungs| r.plain.ns();
    let replay = |r: &TimingRungs| r.replay.ns();
    let insts = |r: &TimingRungs| r.report().perf.instructions as f64;
    let cycles = |r: &TimingRungs| r.report().perf.cycles as f64;
    let ops = |r: &TimingRungs| r.ops as f64;

    let all_ooo = sum(&ooo_p.jobs, &ooo, |_| true);
    m.push(Metric::new(
        "core.ooo_step_ns",
        all_ooo(&plain) / all_ooo(&insts),
    ));
    m.push(Metric::new(
        "core.ooo_self_ns",
        (all_ooo(&plain) - all_ooo(&replay)) / all_ooo(&insts),
    ));
    m.push(Metric::new(
        "core.host_ns_per_cycle",
        all_ooo(&plain) / all_ooo(&cycles),
    ));
    m.push(Metric::new("core.sim_cycles", all_ooo(&cycles)));
    m.push(Metric::new(
        "core.sim_ipc",
        all_ooo(&insts) / all_ooo(&cycles),
    ));
    m.push(Metric::new(
        "mem.ops_per_inst",
        all_ooo(&ops) / all_ooo(&insts),
    ));
    m.push(Metric::new(
        "mem.ns_per_inst",
        all_ooo(&replay) / all_ooo(&insts),
    ));
    m.push(Metric::new(
        "mem.trace_ratio",
        all_ooo(&|r| r.tracing.ns()) / all_ooo(&plain),
    ));

    let inorder = sum(&mem_p.jobs, &mem, |j| matches!(j.model, Model::InOrder(_)));
    m.push(Metric::new(
        "core.inorder_step_ns",
        inorder(&plain) / inorder(&insts),
    ));
    m.push(Metric::new(
        "core.inorder_self_ns",
        (inorder(&plain) - inorder(&replay)) / inorder(&insts),
    ));

    let all_mem = sum(&mem_p.jobs, &mem, |_| true);
    let recording = |r: &TimingRungs| r.recording.ns();
    m.push(Metric::new(
        "mem.record_ratio",
        (all_ooo(&recording) + all_mem(&recording)) / (all_ooo(&plain) + all_mem(&plain)),
    ));
    for (name, group) in [
        ("mem.op_ns_stream_off", Group::StreamOff),
        ("mem.op_ns_stream_on", Group::StreamOn),
        ("mem.op_ns_chase", Group::Chase),
        ("mem.op_ns_fill", Group::Fill),
    ] {
        let of = sum(&mem_p.jobs, &mem, move |j| j.group == group);
        m.push(Metric::new(name, of(&replay) / of(&ops)));
    }
    let stat = |f: &dyn Fn(&xt_mem::MemStats) -> u64| -> f64 {
        mem.iter().map(|r| f(&r.report().mem) as f64).sum()
    };
    let (l1d_hits, l1d_misses) = (stat(&|s| s.l1d[0].0), stat(&|s| s.l1d[0].1));
    let (l2_hits, l2_misses) = (stat(&|s| s.l2().0), stat(&|s| s.l2().1));
    m.push(Metric::new(
        "mem.l1d_miss_ratio",
        ratio(l1d_misses, l1d_hits + l1d_misses),
    ));
    m.push(Metric::new(
        "mem.l2_miss_ratio",
        ratio(l2_misses, l2_hits + l2_misses),
    ));
    m.push(Metric::new(
        "mem.pf_issued",
        stat(&|s| s.prefetches_issued[0]),
    ));
    m.push(Metric::new(
        "mem.pf_useful",
        stat(&|s| s.prefetches_useful[0]),
    ));

    let vector = sum(&ooo_p.jobs, &ooo, |j| j.group == Group::Vector);
    m.push(Metric::new(
        "vector.inst_share",
        vector(&|r| r.vec_insts as f64) / vector(&insts),
    ));
    m.push(Metric::new(
        "vector.step_ns",
        vector(&plain) / vector(&insts),
    ));

    // ---- constructors and small calls, in isolation
    let reps = if smoke { 20 } else { 200 };
    let mean_of = |rec: &mut Recorder, name: &'static str, n: usize, f: &mut dyn FnMut()| {
        let ((), ns) = rec.span(name, NO_JOB, |_| (0..n).for_each(|_| f()));
        ns as f64 / n as f64
    };
    let xt910 = CoreConfig::xt910();
    m.push(Metric::new(
        "core.new_us",
        mean_of(rec, "core.new", reps, &mut || {
            drop(black_box(OooCore::new(xt910.clone(), 0)))
        }) / 1e3,
    ));
    m.push(Metric::new(
        "mem.new_us",
        mean_of(rec, "mem.new", reps / 4, &mut || {
            drop(black_box(MemSystem::new(MemConfig::default())))
        }) / 1e3,
    ));
    let used_mem = used_mem.expect("the ooo_core list is not empty");
    m.push(Metric::new(
        "mem.stats_ns",
        mean_of(rec, "mem.stats", reps * 10, &mut || {
            drop(black_box(used_mem.stats()))
        }),
    ));
    let vcfg = VectorConfig::new(128);
    let crack: Vec<(Op, u64, Sew)> = ooo_p
        .jobs
        .iter()
        .filter(|j| j.group == Group::Vector)
        .flat_map(|j| TraceSource::new(jobs::loaded_emulator(&j.programs[0], true), MAX_INSTS))
        .filter(|d| {
            d.inst.op.is_vector() && vec_ops.contains(&(d.inst.op as u16, d.vl, d.sew_bits))
        })
        .filter_map(|d| {
            Some((
                d.inst.op,
                d.vl as u64,
                Sew::decode(d.sew_bits.trailing_zeros().checked_sub(3)?)?,
            ))
        })
        .take(4096)
        .collect();
    assert!(
        !crack.is_empty(),
        "the vector jobs retire vector instructions"
    );
    let mut at = 0;
    m.push(Metric::new(
        "vector.crack_ns",
        mean_of(rec, "vector.crack", reps * 1000, &mut || {
            let (op, vl, sew) = crack[at % crack.len()];
            at += 1;
            black_box(VecPlan::crack(&vcfg, black_box(op), vl, sew));
        }),
    ));

    // ---- xt-soc: the three cluster scenarios
    let mut scenario: Vec<Min> = soc_p.jobs.iter().map(|_| Min::new()).collect();
    let mut new_ns = Min::new();
    let (mut serial, mut parallel, mut epochs, mut snoops, mut c2c) = (0, 0, 0, 0, 0);
    for pass in 0..=passes {
        (serial, parallel, epochs, snoops, c2c) = (0, 0, 0, 0, 0);
        for (j, job) in soc_p.jobs.iter().enumerate() {
            let id = j as u32;
            let (ready, ns) = rec.span("soc.new", id, |_| job.instantiate());
            let (raw, run_ns) = rec.span("soc.run", id, |_| ready.run());
            tally.check(job, &raw.outcome(), &soc_ref.0[j], "cluster");
            let Raw::Cluster(r) = raw else {
                unreachable!("cluster jobs give cluster reports")
            };
            serial += r.engine.serial_ns;
            parallel += r.engine.parallel_ns;
            epochs += r.engine.epochs;
            snoops += r.mem.snoops_sent;
            c2c += r.mem.c2c_transfers;
            if pass > 0 {
                scenario[j].add(run_ns);
                if job.group == Group::Private {
                    new_ns.add(ns);
                }
            }
        }
    }
    for (name, group) in [
        ("soc.private_mips", Group::Private),
        ("soc.sharing_mips", Group::Sharing),
        ("soc.irq_mips", Group::Irq),
    ] {
        let j = soc_p
            .jobs
            .iter()
            .position(|j| j.group == group)
            .expect("one job per scenario");
        eprintln!(
            "{name}: {} insts in {:.3} ms",
            soc_ref.0[j].insts,
            scenario[j].ns() / 1e6
        );
        m.push(Metric::new(
            name,
            soc_ref.0[j].insts as f64 / scenario[j].ns() * 1e3,
        ));
    }
    m.push(Metric::new(
        "soc.serial_share",
        ratio(serial as f64, (serial + parallel) as f64),
    ));
    m.push(Metric::new(
        "soc.us_per_epoch",
        ratio((serial + parallel) as f64, epochs as f64) / 1e3,
    ));
    m.push(Metric::new("soc.epochs", epochs as f64));
    m.push(Metric::new("soc.snoops_sent", snoops as f64));
    m.push(Metric::new("soc.c2c_transfers", c2c as f64));
    m.push(Metric::new("soc.new_ms", new_ns.ns() / 1e6));
    // wall clock, the one place host threads are used: informational
    let private = soc_p
        .jobs
        .iter()
        .find(|j| j.group == Group::Private)
        .expect("private scenario");
    let wall = |threads: usize| {
        (0..passes)
            .map(|_| {
                let sim =
                    ClusterSim::new(&private.programs, &xt910, jobs::cluster_mem(), MAX_INSTS)
                        .with_fastpath(true);
                let t0 = Instant::now();
                black_box(sim.run_threads(threads));
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    m.push(Metric::new("soc.thread_speedup", wall(1) / wall(2)));

    // ---- snapshot, pipeline trace and sampler on the longest ooo_core job
    let (long_j, long) = ooo_p
        .jobs
        .iter()
        .enumerate()
        .max_by_key(|(_, j)| j.expect_insts)
        .expect("jobs");
    let session = || match long.instantiate() {
        Ready::Ooo(s) => s,
        _ => unreachable!("ooo_core jobs are OoO sessions"),
    };
    let mut half = session();
    half.run_insts(long.expect_insts.expect("oracle ran") / 2);
    let (mut save, mut restore) = (Min::new(), Min::new());
    let mut frame = Vec::new();
    for _ in 0..=passes {
        let (bytes, ns) = rec.span("snapshot.save", long_j as u32, |_| half.save());
        save.add(ns);
        let mut fresh = session();
        let (restored, ns) = rec.span("snapshot.restore", long_j as u32, |_| fresh.restore(&bytes));
        restore.add(ns);
        restored.unwrap_or_else(|e| panic!("{}: snapshot does not restore: {e:?}", long.name));
        tally.check(
            long,
            &jobs::core_outcome(&fresh.run_to_end()),
            &ooo_ref.0[long_j],
            "resumed from snapshot",
        );
        frame = bytes;
    }
    m.push(Metric::new("snapshot.save_ms", save.ns() / 1e6));
    m.push(Metric::new("snapshot.restore_ms", restore.ns() / 1e6));
    m.push(Metric::new(
        "snapshot.frame_kb",
        frame.len() as f64 / 1024.0,
    ));
    m.push(Metric::new(
        "snapshot.mb_per_s",
        frame.len() as f64 / save.ns() * 1e3,
    ));

    // the pipeline tracer keeps ~270 B of Konata text per instruction:
    // render the first (a short) job, not the longest
    let short = &ooo_p.jobs[0];
    let (mut plain_run, mut traced_run) = (Min::new(), Min::new());
    let mut buffer = None;
    for _ in 0..=passes {
        let Ready::Ooo(mut s) = short.instantiate() else {
            unreachable!("ooo_core jobs are OoO sessions")
        };
        let (r, ns) = rec.span("trace.run_plain", 0, |_| s.run_to_end());
        plain_run.add(ns);
        tally.check(short, &jobs::core_outcome(&r), &ooo_ref.0[0], "session");
        let Ready::Ooo(mut s) = short.instantiate() else {
            unreachable!("ooo_core jobs are OoO sessions")
        };
        s.attach_tracer();
        let (r, ns) = rec.span("trace.run_traced", 0, |_| s.run_to_end());
        traced_run.add(ns);
        tally.check(
            short,
            &jobs::core_outcome(&r),
            &ooo_ref.0[0],
            "pipeline tracer attached",
        );
        buffer = s.take_tracer();
    }
    let buffer = buffer.expect("tracer was attached");
    let (konata, konata_ns) = rec.span("trace.to_konata", 0, |_| buffer.to_konata());
    let (chrome, chrome_ns) = rec.span("trace.to_chrome_json", 0, |_| buffer.to_chrome_json());
    m.push(Metric::new(
        "trace.record_ratio",
        traced_run.ns() / plain_run.ns(),
    ));
    m.push(Metric::new(
        "trace.konata_mb_per_s",
        konata.len() as f64 / konata_ns as f64 * 1e3,
    ));
    m.push(Metric::new(
        "trace.chrome_mb_per_s",
        chrome.len() as f64 / chrome_ns as f64 * 1e3,
    ));
    m.push(Metric::new(
        "trace.bytes_per_inst",
        konata.len() as f64 / buffer.records().len() as f64,
    ));

    let (sampled_j, sampled_job) = mem_p
        .jobs
        .iter()
        .enumerate()
        .find(|(_, j)| j.group == Group::StreamOff && matches!(j.model, Model::Ooo(_)))
        .expect("stream/pf_off@ooo");
    let (mut unsampled, mut sampled) = (Min::new(), Min::new());
    let (mut intervals, mut last) = (0, None);
    for _ in 0..=passes {
        let prog = &sampled_job.programs[0];
        let (r, ns) = rec.span("perf.run_plain", sampled_j as u32, |_| {
            xt_core::run_ooo_with_mem(prog, &xt910, mem_cfg_of(sampled_job), MAX_INSTS)
        });
        unsampled.add(ns);
        tally.check(
            sampled_job,
            &jobs::core_outcome(&r),
            &mem_ref.0[sampled_j],
            "run_ooo_with_mem",
        );
        let ((r, series), ns) = rec.span("perf.run_sampled", sampled_j as u32, |_| {
            xt_perf::run_ooo_sampled(
                prog,
                &xt910,
                mem_cfg_of(sampled_job),
                MAX_INSTS,
                SAMPLE_INTERVAL,
            )
        });
        sampled.add(ns);
        tally.check(
            sampled_job,
            &jobs::core_outcome(&r),
            &mem_ref.0[sampled_j],
            "run_ooo_sampled",
        );
        intervals = series.samples.len();
        last = Some(r.perf);
    }
    m.push(Metric::new(
        "perf.sampled_ratio",
        sampled.ns() / unsampled.ns(),
    ));
    // a run has too few samples for their cost to show in the ratio:
    // time the sampler's own call (`MemSystem::stats` + `observe`) alone
    let perf = last.expect("the sampled run ran");
    let mut sampler = xt_perf::Sampler::new(0, SAMPLE_INTERVAL);
    let mut cycle = 0;
    m.push(Metric::new(
        "perf.sample_ns",
        mean_of(rec, "perf.sample", reps * 10, &mut || {
            cycle += SAMPLE_INTERVAL;
            sampler.observe(cycle, &perf, &used_mem.stats());
        }),
    ));
    m.push(Metric::new("perf.intervals", intervals as f64));

    // ---- the drivers users run, in process (smoke: their smoke sizes)
    let ((), report_ns) = rec.span("bench.report", NO_JOB, |_| {
        drop(black_box(xt_bench::report::run_all(smoke)))
    });
    let ((), stat_ns) = rec.span("bench.stat", NO_JOB, |_| {
        drop(black_box(xt_perf::stat::run_all(smoke)))
    });
    let (figs, figures_ns) = rec.span("bench.figures", NO_JOB, |_| {
        black_box(xt_bench::artifact::run_grid());
        if smoke {
            // plumbing only: one figure per error metric
            (vec![xt_bench::fig17()], vec![xt_bench::specint()])
        } else {
            (
                vec![
                    xt_bench::fig17(),
                    xt_bench::fig18(),
                    xt_bench::fig19(),
                    xt_bench::fig20(),
                ],
                vec![xt_bench::fig21(), xt_bench::specint()],
            )
        }
    });
    m.push(Metric::new("bench.report_s", report_ns as f64 / 1e9));
    m.push(Metric::new("bench.stat_s", stat_ns as f64 / 1e9));
    m.push(Metric::new("bench.figures_s", figures_ns as f64 / 1e9));
    // accuracy beside speed: Fig. 17 ratio and the Fig. 18/19/20 geomeans;
    // Fig. 21 b-e and the SPECInt ratio (rows whose paper value is the 1.0 baseline are skipped)
    let core_rows: Vec<_> = figs
        .0
        .iter()
        .flat_map(|f| rows_with_paper(f, |l| l.contains("ratio") || l.contains("geomean")))
        .collect();
    let mem_rows: Vec<_> = figs
        .1
        .iter()
        .flat_map(|f| rows_with_paper(f, |l| !l.starts_with("a)") && !l.contains("reference")))
        .collect();
    m.push(Metric::new("bench.paper_err_core", paper_error(&core_rows)));
    m.push(Metric::new("bench.paper_err_mem", paper_error(&mem_rows)));
}

/// The traced run: the ladder once, then each plan's own passes. Every
/// [`Layers`] carries all per-layer metrics; the span trace goes to
/// `<out>/trace-<name>.json`. The plans share one seed and size.
pub fn run(plans: &[Plan], name: &str, out: &Path) -> Result<Vec<Layers>, String> {
    let first = plans.first().ok_or("a traced run needs a workload")?;
    let mut rec = Recorder::new();
    let mut shared_tally = Tally::default();
    let mut shared = Vec::new();
    global(
        first.seed,
        first.smoke,
        &mut rec,
        &mut shared_tally,
        &mut shared,
    );
    let layers = plans
        .iter()
        .map(|&plan| {
            let mut tally = shared_tally;
            let mut metrics = Vec::new();
            let digest = specific(plan, &mut rec, &mut tally, &mut metrics);
            metrics.extend(shared.iter().copied());
            Layers {
                metrics,
                tally,
                digest,
            }
        })
        .collect();
    write_trace(&rec, name, out)?;
    Ok(layers)
}

fn write_trace(rec: &Recorder, run: &str, out: &Path) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let path = out.join(format!("trace-{run}.json"));
    std::fs::write(&path, rec.to_chrome_json("xt-hostbench"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let st = self_times(rec.spans());
    eprintln!(
        "{run}: {} spans -> {} (open in chrome://tracing or ui.perfetto.dev); self time by span:",
        rec.spans().len(),
        path.display()
    );
    let mut by_time: Vec<_> = st.into_iter().collect();
    by_time.sort_by_key(|(_, ns)| std::cmp::Reverse(*ns));
    for (name, ns) in by_time {
        eprintln!("  {name:<22} {:>10.3} ms", ns as f64 / 1e6);
    }
    Ok(())
}

/// `--smoke`: two passes per workload and the ladder on shrunken jobs;
/// asserts correctness, that every declared name comes out exactly
/// once, and that traced and untraced runs agree on `core.sim_digest`.
pub fn smoke(out: &Path) -> Result<(), String> {
    let started = Instant::now();
    let plans = Workload::ALL.map(|workload| Plan {
        workload,
        seed: spec::DEFAULT_SEED,
        smoke: true,
    });
    let layers = run(&plans, "smoke", out)?;
    for (plan, traced) in plans.into_iter().zip(&layers) {
        let name = plan.workload.name();
        let untraced = e2e::run(plan, Budget::Passes(2));
        crate::describe(plan, &untraced);
        // both panic unless every declared name is there exactly once
        crate::result_line(
            &spec::END_TO_END,
            &crate::e2e_metrics(&untraced),
            untraced.tally,
        );
        crate::result_line(&spec::PER_LAYER, &traced.metrics, traced.tally);
        if traced.digest != untraced.digest {
            return Err(format!(
                "{name}: traced sim_digest {} != untraced {}",
                traced.digest, untraced.digest
            ));
        }
        crate::verdict(plan.workload, untraced.tally)?;
        crate::verdict(plan.workload, traced.tally)?;
        let value = |metric: &str| {
            traced
                .metrics
                .iter()
                .find(|m| m.name == metric)
                .expect("checked above")
                .value
        };
        let lost = value("span.unattributed_share");
        if lost > 0.10 {
            return Err(format!(
                "{name}: {:.1} % of the traced pass is under no layer span",
                lost * 100.0
            ));
        }
        eprintln!(
            "{name}: traced digest matches; span overhead x{:.3}, unattributed {:.2} %",
            value("trace_overhead_ratio"),
            lost * 100.0
        );
    }
    eprintln!(
        "smoke ok: {} per-layer and {} end-to-end names emitted once each, {:.1} s",
        spec::PER_LAYER.len(),
        spec::END_TO_END.len(),
        started.elapsed().as_secs_f64()
    );
    Ok(())
}
