//! Toolchain co-design tour (paper §VIII/§IX/Fig. 20): compile the same
//! IR kernel under the "native" and "extensions + optimized" modes,
//! disassemble both, and time them on the XT-910 model.
//!
//! ```sh
//! cargo run --release --example toolchain_tour
//! ```

use xt_compiler::{CompileOpts, FuncBuilder, Rval};
use xt_core::{CoreConfig, OooSession};

fn saxpy_like() -> FuncBuilder {
    // y[i] += a * x[i] over 64 elements — indexed loads, a MAC, a
    // counted loop: everything the co-optimizations target.
    let mut f = FuncBuilder::new("saxpy");
    let xs = f.symbol_u64("x", &(0..64u64).collect::<Vec<_>>());
    let ys = f.symbol_u64("y", &[1u64; 64]);
    let bx = f.addr_of(&xs);
    let by = f.addr_of(&ys);
    let (i, a, acc) = (f.vreg(), f.vreg(), f.vreg());
    f.li(i, 0);
    f.li(a, 3);
    f.li(acc, 0);
    let head = f.new_block();
    let body = f.new_block();
    let exit = f.new_block();
    f.jmp(head);
    f.switch_to(head);
    f.br_lt(Rval::Reg(i), Rval::Imm(64), body, exit);
    f.switch_to(body);
    let xv = f.load_indexed_u64(bx, i);
    let yv = f.load_indexed_u64(by, i);
    let t = f.vreg();
    f.mul(t, Rval::Reg(xv), Rval::Reg(a));
    f.add(t, Rval::Reg(t), Rval::Reg(yv));
    f.store_indexed(Rval::Reg(t), by, i, xt_compiler::MemWidth::B8);
    f.mul_acc(acc, xv, a);
    f.add(i, Rval::Reg(i), Rval::Imm(1));
    f.jmp(head);
    f.switch_to(exit);
    f.halt(Rval::Reg(acc));
    f
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let f = saxpy_like();
    for (name, opts) in [
        ("native RV64GC + stock compiler", CompileOpts::native()),
        ("custom extensions + co-optimized", CompileOpts::optimized()),
    ] {
        let prog = f.compile(&opts)?;
        let mut emu = xt_emu::Emulator::new();
        emu.load(&prog);
        let exit = emu.run(1_000_000)?;
        let r = OooSession::new(&prog, &CoreConfig::xt910(), 1_000_000).run_to_end();
        println!("== {name} ==");
        println!(
            "result {exit}, {} static bytes, {} retired insts, {} cycles (IPC {:.2})",
            prog.text_len(),
            r.perf.instructions,
            r.perf.cycles,
            r.perf.ipc()
        );
        println!("--- disassembly (first 24 lines) ---");
        for line in prog.disassemble().lines().take(24) {
            println!("  {line}");
        }
        println!();
    }
    println!("Fig. 20 in the paper reports ~20% from this toggle across suites;");
    println!("run `cargo run --release -p xt-bench --bin figures -- fig20` for the sweep.");
    Ok(())
}
