//! Vector phase: auto-vectorizer differential + vector top-down
//! invariants on random kernels.
//!
//! Each generated [`VecSpec`] is a small elementwise/reduction kernel
//! over random 64-bit data, built once from the compiler IR and
//! compiled four ways — `rv64gc|rv64gcv × base|tuned`, with the vector
//! cells at the spec's LMUL. The checks:
//!
//! 1. **model vs. host** — every cell's emulator run must produce the
//!    host-computed expected value (the vectorizer may never change a
//!    kernel's result),
//! 2. **fast vs. slow** — the `rv64gcv` program must retire the same
//!    result with the decoded-block engine on and off (vector ops take
//!    the same architectural path through both engines),
//! 3. **coverage** — `rv64gcv` cells must actually contain `vsetvli`
//!    strip-mine loops and `rv64gc` cells must not (a silent vectorizer
//!    rejection would quietly turn this phase into scalar-only noise),
//! 4. **vector top-down invariants** — on the XT-910 OoO model the
//!    vectorized kernel's stall counters must conserve and the
//!    six-bucket top-down decomposition (including the `vector` bucket)
//!    must sum (signed) to total cycles, with the `vector` bucket equal
//!    to the `VecBusy` counter it is defined from.
//!
//! Failures shrink (fewer elements, LMUL→1, simpler kernel kind) and
//! replay from the printed `XT_HARNESS_SEED`.

use xt_compiler::{CompileOpts, FuncBuilder, MemWidth, Rval};
use xt_core::{CoreConfig, OooSession, StallCause, NUM_STALL_CAUSES};
use xt_emu::Emulator;
use xt_harness::{Gen, Rng};
use xt_perf::TopDown;

/// Dynamic instruction budget per generated kernel.
const MAX_INSTS: u64 = 1_000_000;

/// Kernel shapes the generator draws from, ordered simplest-first so
/// shrinking walks toward `Sum`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VecKind {
    /// `acc += x[i]` — single-input reduction.
    Sum,
    /// `d[i] = x[i]` — pure copy.
    Copy,
    /// `d[i] = x[i] op y[i]` — elementwise binary op.
    Map,
    /// `d[i] = x[i] * s + y[i]` — scalar broadcast (`vmul.vx`).
    ScaleAdd,
    /// `acc += x[i] * y[i]` — multiply-accumulate reduction.
    Dot,
}

/// Elementwise operators for [`VecKind::Map`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MapOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
}

/// One generated vector kernel.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VecSpec {
    /// Kernel shape.
    pub kind: VecKind,
    /// Operator when `kind == Map`.
    pub op: MapOp,
    /// Element count (odd values exercise the strip-mine tail).
    pub n: u16,
    /// LMUL for the vector cells (1, 2 or 4).
    pub lmul: u8,
    /// Data-generation seed.
    pub seed: u64,
    /// Broadcast scalar for `ScaleAdd`.
    pub scalar: u32,
}

impl VecSpec {
    fn data(&self) -> (Vec<u64>, Vec<u64>) {
        let mut rng = Rng::new(self.seed | 1);
        let n = self.n as usize;
        let x = (0..n).map(|_| rng.below(1 << 40)).collect();
        let y = (0..n).map(|_| rng.below(1 << 40)).collect();
        (x, y)
    }

    /// Host oracle: the value the guest must halt with.
    pub fn expected(&self) -> u64 {
        let (x, y) = self.data();
        let fold = |it: Box<dyn Iterator<Item = u64>>| {
            it.fold(0u64, |a, v| a.wrapping_add(v))
        };
        match self.kind {
            VecKind::Sum => fold(Box::new(x.into_iter())),
            VecKind::Copy => fold(Box::new(x.into_iter())),
            VecKind::Map => {
                let op = self.op;
                fold(Box::new(x.into_iter().zip(y).map(move |(a, b)| match op {
                    MapOp::Add => a.wrapping_add(b),
                    MapOp::Sub => a.wrapping_sub(b),
                    MapOp::Mul => a.wrapping_mul(b),
                    MapOp::And => a & b,
                    MapOp::Or => a | b,
                    MapOp::Xor => a ^ b,
                })))
            }
            VecKind::ScaleAdd => {
                let s = self.scalar as u64;
                fold(Box::new(
                    x.into_iter()
                        .zip(y)
                        .map(move |(a, b)| a.wrapping_mul(s).wrapping_add(b)),
                ))
            }
            VecKind::Dot => fold(Box::new(
                x.into_iter().zip(y).map(|(a, b)| a.wrapping_mul(b)),
            )),
        }
    }

    /// Builds the kernel as compiler IR: the compute loop (and, for
    /// non-reduction kinds, a summing checksum loop over the output).
    pub fn build(&self) -> FuncBuilder {
        let (x, y) = self.data();
        let n = self.n as i64;
        let mut f = FuncBuilder::new("veccheck");
        let xs = f.symbol_u64("x", &x);
        let ys = f.symbol_u64("y", &y);
        let ds = f.symbol_zeros("d", (self.n as usize) * 8);
        let bx = f.addr_of(&xs);
        let by = f.addr_of(&ys);
        let bd = f.addr_of(&ds);
        let scal = f.vreg();
        f.li(scal, self.scalar as i64);

        let open = |f: &mut FuncBuilder, i| {
            let head = f.new_block();
            let body = f.new_block();
            let exit = f.new_block();
            f.li(i, 0);
            f.jmp(head);
            f.switch_to(head);
            f.br_lt(Rval::Reg(i), Rval::Imm(n), body, exit);
            f.switch_to(body);
            (head, exit)
        };
        let close = |f: &mut FuncBuilder, i, head, exit| {
            f.add(i, Rval::Reg(i), Rval::Imm(1));
            f.jmp(head);
            f.switch_to(exit);
        };

        let acc = f.vreg();
        f.li(acc, 0);
        let reduced = matches!(self.kind, VecKind::Sum | VecKind::Dot);
        let i = f.vreg();
        let (head, exit) = open(&mut f, i);
        match self.kind {
            VecKind::Sum => {
                let v = f.load_indexed_u64(bx, i);
                f.add(acc, Rval::Reg(acc), Rval::Reg(v));
            }
            VecKind::Copy => {
                let v = f.load_indexed_u64(bx, i);
                f.store_indexed(Rval::Reg(v), bd, i, MemWidth::B8);
            }
            VecKind::Map => {
                let a = f.load_indexed_u64(bx, i);
                let b = f.load_indexed_u64(by, i);
                let r = f.vreg();
                match self.op {
                    MapOp::Add => f.add(r, Rval::Reg(a), Rval::Reg(b)),
                    MapOp::Sub => f.sub(r, Rval::Reg(a), Rval::Reg(b)),
                    MapOp::Mul => f.mul(r, Rval::Reg(a), Rval::Reg(b)),
                    MapOp::And => f.and(r, Rval::Reg(a), Rval::Reg(b)),
                    MapOp::Or => f.or(r, Rval::Reg(a), Rval::Reg(b)),
                    MapOp::Xor => f.xor(r, Rval::Reg(a), Rval::Reg(b)),
                }
                f.store_indexed(Rval::Reg(r), bd, i, MemWidth::B8);
            }
            VecKind::ScaleAdd => {
                let a = f.load_indexed_u64(bx, i);
                let b = f.load_indexed_u64(by, i);
                let t = f.vreg();
                f.mul(t, Rval::Reg(a), Rval::Reg(scal));
                let r = f.vreg();
                f.add(r, Rval::Reg(t), Rval::Reg(b));
                f.store_indexed(Rval::Reg(r), bd, i, MemWidth::B8);
            }
            VecKind::Dot => {
                let a = f.load_indexed_u64(bx, i);
                let b = f.load_indexed_u64(by, i);
                f.mul_acc(acc, a, b);
            }
        }
        close(&mut f, i, head, exit);

        if !reduced {
            let j = f.vreg();
            let (head, exit) = open(&mut f, j);
            let v = f.load_indexed_u64(bd, j);
            f.add(acc, Rval::Reg(acc), Rval::Reg(v));
            close(&mut f, j, head, exit);
        }
        f.halt(Rval::Reg(acc));
        f
    }

    /// The four compile cells this spec sweeps.
    pub fn cells(&self) -> [(CompileOpts, &'static str); 4] {
        let vec = |tuned: bool| CompileOpts {
            vector: true,
            vector_lmul: self.lmul,
            ..CompileOpts::ablation(false, tuned)
        };
        [
            (CompileOpts::native(), "rv64gc/base"),
            (CompileOpts::optimized(), "rv64gc/tuned"),
            (vec(false), "rv64gcv/base"),
            (vec(true), "rv64gcv/tuned"),
        ]
    }
}

fn run_emu(prog: &xt_asm::Program, fastpath: bool) -> Result<u64, String> {
    let mut emu = Emulator::new();
    emu.set_fastpath(fastpath);
    emu.load(prog);
    emu.run(MAX_INSTS)
        .map_err(|e| format!("emulator error: {e:?}"))
}

/// Runs all checks for one spec; `Err` carries the replay artifact.
pub fn check_vector(spec: &VecSpec) -> Result<(), String> {
    let want = spec.expected();
    let f = spec.build();
    let mut vec_prog = None;
    for (opts, cell) in spec.cells() {
        let prog = f
            .compile(&opts)
            .map_err(|e| format!("{cell}: compile failed: {e:?}"))?;
        let dis = prog.disassemble();
        if dis.contains("vsetvli") != opts.vector {
            return Err(format!(
                "{cell}: vectorizer coverage mismatch for {spec:?} \
                 (vsetvli present = {}, expected {})\n{dis}",
                dis.contains("vsetvli"),
                opts.vector
            ));
        }
        for fastpath in [false, true] {
            let got = run_emu(&prog, fastpath)?;
            if got != want {
                return Err(format!(
                    "{cell} (fastpath={fastpath}): wrong result for {spec:?}: \
                     got {got:#x}, want {want:#x}\n{dis}"
                ));
            }
        }
        if opts.vector && opts.optimize {
            vec_prog = Some(prog);
        }
    }

    // vector top-down invariants on the tuned rv64gcv cell
    let prog = vec_prog.expect("cells() always contains rv64gcv/tuned");
    let r = OooSession::new(&prog, &CoreConfig::xt910(), MAX_INSTS).run_to_end();
    if r.exit_code != Some(want) {
        return Err(format!(
            "OoO model: wrong result for {spec:?}: got {:?}, want {want:#x}",
            r.exit_code
        ));
    }
    if !r.perf.stalls_conserved() {
        return Err(format!(
            "stall conservation violated on {spec:?}: attributed {} > cycles {}",
            r.perf.attributed_stall_cycles(),
            r.perf.cycles
        ));
    }
    let mut stalls = [0u64; NUM_STALL_CAUSES];
    for c in StallCause::ALL {
        stalls[c as usize] = r.perf.stall(c);
    }
    let td = TopDown::from_stalls(r.perf.cycles, &stalls);
    if !td.sums_to(r.perf.cycles) {
        return Err(format!(
            "top-down buckets do not sum to cycles on {spec:?}: {td:?} vs {}",
            r.perf.cycles
        ));
    }
    if td.vector != r.perf.stall(StallCause::VecBusy) {
        return Err(format!(
            "vector bucket {} != VecBusy counter {} on {spec:?}",
            td.vector,
            r.perf.stall(StallCause::VecBusy)
        ));
    }
    Ok(())
}

/// Generator for [`VecSpec`]s.
#[derive(Clone, Debug, Default)]
pub struct VecGen;

impl Gen for VecGen {
    type Value = VecSpec;

    fn generate(&self, rng: &mut Rng) -> VecSpec {
        let kind = match rng.below(5) {
            0 => VecKind::Sum,
            1 => VecKind::Copy,
            2 => VecKind::Map,
            3 => VecKind::ScaleAdd,
            _ => VecKind::Dot,
        };
        let op = match rng.below(6) {
            0 => MapOp::Add,
            1 => MapOp::Sub,
            2 => MapOp::Mul,
            3 => MapOp::And,
            4 => MapOp::Or,
            _ => MapOp::Xor,
        };
        VecSpec {
            kind,
            op,
            n: rng.gen_range_u64(1, 97) as u16,
            lmul: 1 << rng.below(3),
            seed: rng.next_u64(),
            scalar: rng.next_u32(),
        }
    }

    fn shrink(&self, v: &VecSpec) -> Vec<VecSpec> {
        let mut out = Vec::new();
        if v.n > 1 {
            out.push(VecSpec { n: 1, ..v.clone() });
            out.push(VecSpec { n: v.n / 2, ..v.clone() });
        }
        if v.lmul > 1 {
            out.push(VecSpec { lmul: 1, ..v.clone() });
        }
        if v.kind != VecKind::Sum {
            out.push(VecSpec {
                kind: VecKind::Sum,
                ..v.clone()
            });
        }
        if v.kind == VecKind::Map && v.op != MapOp::Add {
            out.push(VecSpec {
                op: MapOp::Add,
                ..v.clone()
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handwritten_specs_pass() {
        for kind in [
            VecKind::Sum,
            VecKind::Copy,
            VecKind::Map,
            VecKind::ScaleAdd,
            VecKind::Dot,
        ] {
            let spec = VecSpec {
                kind,
                op: MapOp::Xor,
                n: 21, // odd: exercises the tail chunk
                lmul: 4,
                seed: 0x5eed,
                scalar: 0x9e37_79b9,
            };
            check_vector(&spec).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        }
    }

    #[test]
    fn single_element_and_lmul1_edge_cases_pass() {
        for (n, lmul) in [(1u16, 1u8), (1, 4), (8, 1), (9, 2)] {
            let spec = VecSpec {
                kind: VecKind::Dot,
                op: MapOp::Add,
                n,
                lmul,
                seed: 7,
                scalar: 3,
            };
            check_vector(&spec).unwrap_or_else(|e| panic!("n={n} lmul={lmul}: {e}"));
        }
    }

    #[test]
    fn fixed_suite_passes() {
        use xt_harness::prop::{check_with, Config};
        let cfg = Config::seeded_cases(crate::SUITE_SEED ^ 0x7EC7_0B10, 12);
        check_with(&cfg, "vector_unit_suite", &VecGen, |spec| {
            if let Err(e) = check_vector(spec) {
                panic!("{e}");
            }
        });
    }
}
