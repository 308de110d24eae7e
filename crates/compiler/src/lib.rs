//! # xt-compiler — the co-optimized toolchain (§VIII/§IX)
//!
//! The paper attributes ~20% of XT-910's benchmark performance (Fig. 20)
//! to hardware/toolchain co-design: >50 custom instructions plus three
//! compiler optimizations the stock RISC-V GCC of the time lacked. This
//! crate reproduces that toggle as a small typed IR with two compilation
//! modes:
//!
//! * **native** — base RV64GC output, no custom instructions, no
//!   co-optimization passes (the "native RISC-V ISA and compiler" bar);
//! * **optimized** — enables
//!   1. *induction-variable optimization* (§IX item 1): loop index
//!      increments and derived address computations are strength-reduced
//!      to pointer increments hoisted out of the loop body,
//!   2. *anchor addressing* (§IX item 2): symbols referenced by a
//!      function are clustered around one anchor register instead of
//!      materializing each absolute address,
//!   3. *dead-store elimination* (§IX item 3),
//!      plus **custom-extension selection** (§VIII): indexed loads/stores
//!      (`x.lr*/x.sr*`), address fusion (`x.addsl`), zero-extending address
//!      arithmetic (`x.adduw`/`x.zextw`), multiply-accumulate (`x.mula*`),
//!      and conditional moves (`x.mveqz/x.mvnez`).
//!
//! A third, orthogonal axis targets the vector extension: with
//! [`CompileOpts::vector`] set, canonical counted loops are
//! auto-vectorized into RVV 0.7.1 strip-mine loops
//! ([`passes::vectorize`], `docs/VECTOR.md`), giving the
//! `rv64gc|rv64gcv × base|tuned` 2×2 grid the `xt-figures` artifact
//! sweeps.
//!
//! # Example
//!
//! ```
//! use xt_compiler::{CompileOpts, FuncBuilder, Rval};
//!
//! // sum = Σ a[i], i in 0..n
//! let mut f = FuncBuilder::new("sum");
//! let a = f.symbol_u64("a", &[1, 2, 3, 4]);
//! let base = f.addr_of(&a);
//! let (i, sum) = (f.vreg(), f.vreg());
//! f.li(i, 0);
//! f.li(sum, 0);
//! let (head, body, exit) = (f.new_block(), f.new_block(), f.new_block());
//! f.jmp(head);
//! f.switch_to(head);
//! f.br_lt(Rval::Reg(i), Rval::Imm(4), body, exit);
//! f.switch_to(body);
//! let v = f.load_indexed_u64(base, i);
//! f.add(sum, Rval::Reg(sum), Rval::Reg(v));
//! f.add(i, Rval::Reg(i), Rval::Imm(1));
//! f.jmp(head);
//! f.switch_to(exit);
//! f.halt(Rval::Reg(sum));
//!
//! let prog = f.compile(&CompileOpts::optimized()).expect("compiles");
//! let mut emu = xt_emu::Emulator::new();
//! emu.load(&prog);
//! assert_eq!(emu.run(100_000).unwrap(), 10);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codegen;
pub mod ir;
pub mod passes;
pub mod regalloc;

pub use codegen::CompileError;
pub use ir::{BlockId, Cond, FuncBuilder, IrInst, MemWidth, Rval, VReg, VecLoopDesc, VecStmt};

/// Compilation mode switches.
///
/// The four named constructors span the 2×2 ablation grid the figure
/// artifact sweeps (`xt-figures`): ISA target (`rv64gc` vs `rv64gcv`,
/// the [`Self::vector`] axis) × compiler tuning (`base` vs `tuned`,
/// the passes + custom-extension axis). [`Self::ablation`] maps a grid
/// cell to its options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompileOpts {
    /// Allow XT-910 custom instructions (§VIII).
    pub custom_ext: bool,
    /// Run the co-optimization passes (§IX).
    pub optimize: bool,
    /// Auto-vectorize canonical loops to the RVV 0.7.1 subset (§VII).
    /// When a vectorized loop's operands spill, codegen transparently
    /// falls back to scalar code (see `docs/VECTOR.md`).
    pub vector: bool,
    /// Register-group multiplier (LMUL) for vectorized loops: 1, 2 or 4.
    pub vector_lmul: u8,
}

impl CompileOpts {
    /// Stock RV64GC output — the Fig. 20 baseline (`rv64gc/base`).
    pub fn native() -> Self {
        CompileOpts {
            custom_ext: false,
            optimize: false,
            vector: false,
            vector_lmul: 1,
        }
    }

    /// Extensions + optimized compiler — the Fig. 20 treatment
    /// (`rv64gc/tuned`).
    pub fn optimized() -> Self {
        CompileOpts {
            custom_ext: true,
            optimize: true,
            vector: false,
            vector_lmul: 1,
        }
    }

    /// Vector ISA, untuned compiler (`rv64gcv/base`): LMUL=1 strip-mine
    /// loops, no scalar co-optimization, no custom extensions.
    pub fn vector_base() -> Self {
        CompileOpts {
            custom_ext: false,
            optimize: false,
            vector: true,
            vector_lmul: 1,
        }
    }

    /// Vector ISA with the full toolchain (`rv64gcv/tuned`): LMUL=4
    /// register groups plus the scalar passes and custom extensions.
    pub fn vector_tuned() -> Self {
        CompileOpts {
            custom_ext: true,
            optimize: true,
            vector: true,
            vector_lmul: 4,
        }
    }

    /// Maps a cell of the 2×2 figure grid (`rv64gcv?` × `tuned?`) to
    /// its compile options.
    pub fn ablation(vector: bool, tuned: bool) -> Self {
        match (vector, tuned) {
            (false, false) => Self::native(),
            (false, true) => Self::optimized(),
            (true, false) => Self::vector_base(),
            (true, true) => Self::vector_tuned(),
        }
    }
}
