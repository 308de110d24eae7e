//! Vector benchmark kernels (Figs. 18–20 artifact): memcpy, saxpy, dot
//! and matmul built from the IR so one source sweeps the full
//! `rv64gc|rv64gcv × base|tuned` ablation grid (`xt-figures`).
//!
//! Every kernel is written as canonical counted loops the
//! auto-vectorizer ([`xt_compiler::passes::vectorize`]) recognizes:
//! a single body block whose last instruction is the `i += 1` latch,
//! guarded by an empty head with an `i < n` branch. All element types
//! are 64-bit so reductions are exact under lane truncation
//! (docs/VECTOR.md); results self-check via a host-computed expected
//! value that is identical across all four compile cells.

use crate::{Kernel, Rng};
use xt_compiler::{CompileOpts, FuncBuilder, MemWidth, Rval, VReg};

/// Elements in the memcpy / saxpy / dot vectors.
pub const VEC_N: u64 = 2048;
/// Matrix dimension for the matmul kernel (24³ multiply-accumulates).
pub const MATMUL_N: u64 = 24;

/// All vector-benchmark kernels under the given toolchain cell.
pub fn all(opts: &CompileOpts) -> Vec<Kernel> {
    vec![memcpy(opts), saxpy(opts), dot(opts), matmul(opts)]
}

/// Canonical single-body counted loop `for i in 0..n`: returns
/// `(body, exit)` with the cursor left in the body. The caller fills
/// the body and must finish it with [`close_loop`].
fn open_loop(
    f: &mut FuncBuilder,
    i: VReg,
    n: i64,
) -> (
    xt_compiler::BlockId,
    xt_compiler::BlockId,
    xt_compiler::BlockId,
) {
    let head = f.new_block();
    let body = f.new_block();
    let exit = f.new_block();
    f.li(i, 0);
    f.jmp(head);
    f.switch_to(head);
    f.br_lt(Rval::Reg(i), Rval::Imm(n), body, exit);
    f.switch_to(body);
    (head, body, exit)
}

/// Emits the `i += 1` latch and the back edge, then moves to `exit`.
fn close_loop(f: &mut FuncBuilder, i: VReg, head: xt_compiler::BlockId, exit: xt_compiler::BlockId) {
    f.add(i, Rval::Reg(i), Rval::Imm(1));
    f.jmp(head);
    f.switch_to(exit);
}

/// memcpy: `dst[i] = src[i]` over [`VEC_N`] doubles, then a summed
/// checksum over `dst` (both loops vectorize).
pub fn memcpy(opts: &CompileOpts) -> Kernel {
    let mut rng = Rng::new(0x7ec0);
    let src: Vec<u64> = (0..VEC_N).map(|_| rng.below(1 << 32)).collect();
    let expected = src.iter().fold(0u64, |a, &v| a.wrapping_add(v));

    let mut f = FuncBuilder::new("vec_memcpy");
    let s = f.symbol_u64("src", &src);
    let d = f.symbol_zeros("dst", (VEC_N * 8) as usize);
    let bs = f.addr_of(&s);
    let bd = f.addr_of(&d);

    let i = f.vreg();
    let (head, _, exit) = open_loop(&mut f, i, VEC_N as i64);
    let v = f.load_indexed_u64(bs, i);
    f.store_indexed(Rval::Reg(v), bd, i, MemWidth::B8);
    close_loop(&mut f, i, head, exit);

    let (j, acc) = (f.vreg(), f.vreg());
    f.li(acc, 0);
    let (head, _, exit) = open_loop(&mut f, j, VEC_N as i64);
    let v = f.load_indexed_u64(bd, j);
    f.add(acc, Rval::Reg(acc), Rval::Reg(v));
    close_loop(&mut f, j, head, exit);
    f.halt(Rval::Reg(acc));

    Kernel {
        name: "vec_memcpy",
        program: f.compile(opts).expect("memcpy compiles"),
        expected: Some(expected),
        work: VEC_N,
    }
}

/// saxpy: `y[i] += a * x[i]` over [`VEC_N`] doubles (scalar broadcast
/// becomes `vmul.vx`), then a summed checksum over `y`.
pub fn saxpy(opts: &CompileOpts) -> Kernel {
    let a_scal = 2654435761u64; // Knuth multiplicative constant
    let mut rng = Rng::new(0x5a99);
    let x: Vec<u64> = (0..VEC_N).map(|_| rng.below(1 << 24)).collect();
    let y0: Vec<u64> = (0..VEC_N).map(|_| rng.below(1 << 24)).collect();
    let expected = x
        .iter()
        .zip(&y0)
        .fold(0u64, |s, (&xi, &yi)| {
            s.wrapping_add(yi.wrapping_add(a_scal.wrapping_mul(xi)))
        });

    let mut f = FuncBuilder::new("vec_saxpy");
    let xs = f.symbol_u64("x", &x);
    let ys = f.symbol_u64("y", &y0);
    let bx = f.addr_of(&xs);
    let by = f.addr_of(&ys);
    let a = f.vreg();
    f.li(a, a_scal as i64);

    let i = f.vreg();
    let (head, _, exit) = open_loop(&mut f, i, VEC_N as i64);
    let xv = f.load_indexed_u64(bx, i);
    let yv = f.load_indexed_u64(by, i);
    let t = f.vreg();
    f.mul(t, Rval::Reg(xv), Rval::Reg(a));
    let s = f.vreg();
    f.add(s, Rval::Reg(yv), Rval::Reg(t));
    f.store_indexed(Rval::Reg(s), by, i, MemWidth::B8);
    close_loop(&mut f, i, head, exit);

    let (j, acc) = (f.vreg(), f.vreg());
    f.li(acc, 0);
    let (head, _, exit) = open_loop(&mut f, j, VEC_N as i64);
    let v = f.load_indexed_u64(by, j);
    f.add(acc, Rval::Reg(acc), Rval::Reg(v));
    close_loop(&mut f, j, head, exit);
    f.halt(Rval::Reg(acc));

    Kernel {
        name: "vec_saxpy",
        program: f.compile(opts).expect("saxpy compiles"),
        expected: Some(expected),
        work: VEC_N,
    }
}

/// dot product: `acc += x[i] * y[i]` over [`VEC_N`] doubles — the
/// multiply-accumulate maps to `vmacc.vv` with a `vredsum.vs` epilogue.
pub fn dot(opts: &CompileOpts) -> Kernel {
    let mut rng = Rng::new(0xd07);
    let x: Vec<u64> = (0..VEC_N).map(|_| rng.below(1 << 20)).collect();
    let y: Vec<u64> = (0..VEC_N).map(|_| rng.below(1 << 20)).collect();
    let expected = x
        .iter()
        .zip(&y)
        .fold(0u64, |s, (&a, &b)| s.wrapping_add(a.wrapping_mul(b)));

    let mut f = FuncBuilder::new("vec_dot");
    let xs = f.symbol_u64("x", &x);
    let ys = f.symbol_u64("y", &y);
    let bx = f.addr_of(&xs);
    let by = f.addr_of(&ys);

    let (i, acc) = (f.vreg(), f.vreg());
    f.li(acc, 0);
    let (head, _, exit) = open_loop(&mut f, i, VEC_N as i64);
    let a = f.load_indexed_u64(bx, i);
    let b = f.load_indexed_u64(by, i);
    f.mul_acc(acc, a, b);
    close_loop(&mut f, i, head, exit);
    f.halt(Rval::Reg(acc));

    Kernel {
        name: "vec_dot",
        program: f.compile(opts).expect("dot compiles"),
        expected: Some(expected),
        work: VEC_N,
    }
}

/// matmul: `C += A × B` over [`MATMUL_N`]³ with the j-inner (saxpy-form)
/// loop vectorized. The row pointers are computed per iteration, so the
/// store-aliasing proof needs the [`FuncBuilder::assume_noalias`]
/// promise — exactly the `#pragma ivdep` a human would write. Exit code
/// is a summed checksum over `C`.
pub fn matmul(opts: &CompileOpts) -> Kernel {
    let n = MATMUL_N as usize;
    let mut rng = Rng::new(0x3a73);
    let a: Vec<u64> = (0..n * n).map(|_| rng.below(1 << 16)).collect();
    let b: Vec<u64> = (0..n * n).map(|_| rng.below(1 << 16)).collect();
    let mut c = vec![0u64; n * n];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            for j in 0..n {
                c[i * n + j] = c[i * n + j].wrapping_add(aik.wrapping_mul(b[k * n + j]));
            }
        }
    }
    let expected = c.iter().fold(0u64, |s, &v| s.wrapping_add(v));

    let mut f = FuncBuilder::new("vec_matmul");
    f.assume_noalias(); // distinct matrices; rows of C never overlap B
    let asym = f.symbol_u64("a", &a);
    let bsym = f.symbol_u64("b", &b);
    let csym = f.symbol_zeros("c", n * n * 8);
    let ba = f.addr_of(&asym);
    let bb = f.addr_of(&bsym);
    let bc = f.addr_of(&csym);
    let nn = MATMUL_N as i64;
    let row_bytes = nn * 8;

    let (i, k, j) = (f.vreg(), f.vreg(), f.vreg());
    let ih = f.new_block();
    let ib = f.new_block();
    let kh = f.new_block();
    let kb = f.new_block();
    let jh = f.new_block();
    let jb = f.new_block();
    let klatch = f.new_block();
    let ilatch = f.new_block();
    let cspre = f.new_block();
    let csh = f.new_block();
    let csb = f.new_block();
    let done = f.new_block();

    f.li(i, 0);
    f.jmp(ih);
    f.switch_to(ih);
    f.br_lt(Rval::Reg(i), Rval::Imm(nn), ib, cspre);

    f.switch_to(ib);
    let ioff = f.vreg();
    f.mul(ioff, Rval::Reg(i), Rval::Imm(row_bytes));
    let (row_a, row_c) = (f.vreg(), f.vreg());
    f.add(row_a, Rval::Reg(ba), Rval::Reg(ioff));
    f.add(row_c, Rval::Reg(bc), Rval::Reg(ioff));
    f.li(k, 0);
    f.jmp(kh);
    f.switch_to(kh);
    f.br_lt(Rval::Reg(k), Rval::Imm(nn), kb, ilatch);

    f.switch_to(kb);
    let aik = f.load_indexed_u64(row_a, k);
    let koff = f.vreg();
    f.mul(koff, Rval::Reg(k), Rval::Imm(row_bytes));
    let row_b = f.vreg();
    f.add(row_b, Rval::Reg(bb), Rval::Reg(koff));
    f.li(j, 0);
    f.jmp(jh);
    f.switch_to(jh);
    f.br_lt(Rval::Reg(j), Rval::Imm(nn), jb, klatch);

    // the vectorizable inner loop: c_row[j] += a_ik * b_row[j]
    f.switch_to(jb);
    let bv = f.load_indexed_u64(row_b, j);
    let cv = f.load_indexed_u64(row_c, j);
    let t = f.vreg();
    f.mul(t, Rval::Reg(bv), Rval::Reg(aik));
    let s = f.vreg();
    f.add(s, Rval::Reg(cv), Rval::Reg(t));
    f.store_indexed(Rval::Reg(s), row_c, j, MemWidth::B8);
    f.add(j, Rval::Reg(j), Rval::Imm(1));
    f.jmp(jh);

    f.switch_to(klatch);
    f.add(k, Rval::Reg(k), Rval::Imm(1));
    f.jmp(kh);
    f.switch_to(ilatch);
    f.add(i, Rval::Reg(i), Rval::Imm(1));
    f.jmp(ih);

    // checksum: acc = Σ c[idx] over the flattened matrix (vectorizes too)
    f.switch_to(cspre);
    let (ci, acc) = (f.vreg(), f.vreg());
    f.li(ci, 0);
    f.li(acc, 0);
    f.jmp(csh);
    f.switch_to(csh);
    f.br_lt(Rval::Reg(ci), Rval::Imm(nn * nn), csb, done);
    f.switch_to(csb);
    let v = f.load_indexed_u64(bc, ci);
    f.add(acc, Rval::Reg(acc), Rval::Reg(v));
    f.add(ci, Rval::Reg(ci), Rval::Imm(1));
    f.jmp(csh);
    f.switch_to(done);
    f.halt(Rval::Reg(acc));

    Kernel {
        name: "vec_matmul",
        program: f.compile(opts).expect("matmul compiles"),
        expected: Some(expected),
        work: MATMUL_N * MATMUL_N * MATMUL_N,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every cell's kernels halt with their expected results on both
    /// engines, which leave byte-equal frames.
    #[test]
    fn every_kernel_self_checks_in_every_cell() {
        for vector in [false, true] {
            for tuned in [false, true] {
                let opts = CompileOpts::ablation(vector, tuned);
                for k in all(&opts) {
                    let [emu, _] = xt_emu::run_both_engines(&k.program, 5_000_000, |_| {})
                        .unwrap_or_else(|e| panic!("{}: {e}", k.name));
                    assert!(emu.halted.is_some(), "{} halts", k.name);
                    assert_eq!(emu.halted, k.expected, "{}: wrong result", k.name);
                    let dis = k.program.disassemble();
                    assert_eq!(
                        dis.contains("vsetvli"),
                        vector,
                        "{} under {opts:?}",
                        k.name
                    );
                }
            }
        }
    }

    #[test]
    fn vector_cells_execute_fewer_instructions() {
        let scalar = dot(&CompileOpts::native());
        let vec = dot(&CompileOpts::vector_tuned());
        let count = |k: &Kernel| {
            let mut e = xt_emu::Emulator::new();
            e.load(&k.program);
            let mut trace = xt_emu::TraceSource::new(e, u64::MAX);
            let mut recs = [xt_emu::DynInst::trap_entry(0, 0); 64];
            let mut n = 0u64;
            loop {
                match trace.fill(&mut recs) {
                    0 => break n,
                    got => n += got as u64,
                }
            }
        };
        let (s, v) = (count(&scalar), count(&vec));
        assert!(
            v * 3 < s,
            "vector dot should retire <1/3 the instructions ({v} vs {s})"
        );
    }
}
