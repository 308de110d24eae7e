//! Quickstart: assemble a guest program, run it functionally, then time
//! it on the XT-910 pipeline model.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use xt_asm::Asm;
use xt_core::{CoreConfig, InOrderSession, OooSession};
use xt_emu::Emulator;
use xt_isa::reg::Gpr;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build a guest program: sum the first 100k integers.
    let mut a = Asm::new();
    a.li(Gpr::A0, 0);
    a.li(Gpr::A1, 100_000);
    let top = a.here();
    a.add(Gpr::A0, Gpr::A0, Gpr::A1);
    a.addi(Gpr::A1, Gpr::A1, -1);
    a.bnez(Gpr::A1, top);
    // keep only the low 32 bits as the exit code
    a.slli(Gpr::A0, Gpr::A0, 32);
    a.srli(Gpr::A0, Gpr::A0, 32);
    a.halt();
    let prog = a.finish()?;

    // 2. Run it functionally (the golden model).
    let mut emu = Emulator::new();
    emu.load(&prog);
    let exit = emu.run(10_000_000)?;
    let expect = (1..=100_000u64).sum::<u64>() & 0xffff_ffff;
    assert_eq!(exit, expect);
    println!("functional result: {exit} (expected {expect})  ✓");

    // 3. Replay it through the XT-910 out-of-order pipeline model.
    let xt = OooSession::new(&prog, &CoreConfig::xt910(), 10_000_000).run_to_end();
    println!("XT-910   : {}", xt.summary());

    // 4. Compare with the dual-issue in-order baseline.
    let u74 = InOrderSession::new(&prog, &CoreConfig::u74_like(), 10_000_000).run_to_end();
    println!("in-order : {}", u74.summary());

    println!(
        "speedup  : {:.2}x (out-of-order vs in-order)",
        u74.perf.cycles as f64 / xt.perf.cycles as f64
    );
    Ok(())
}
