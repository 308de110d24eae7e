//! Differential fuzzing: randomly generated (but always-terminating)
//! guest programs must produce identical results on the functional
//! emulator and through both timing models, with sane cycle counts.
//!
//! Ported from proptest to the in-tree `xt-harness` engine. Default
//! seed for this suite: `0xF022_0001` (fixed); override or replay with
//! `XT_HARNESS_SEED=<seed> cargo test`. On failure the body vector is
//! shrunk (ops removed, then each op simplified toward `Add(0,0,0)`),
//! so the panic message carries a minimal counterexample program.

use xt_harness::gen::{self, Gen};
use xt_harness::prop::{check_with, Config};
use xt_harness::Rng;
use xt_asm::Asm;
use xt_core::{CoreConfig, InOrderSession, OooSession};
use xt_emu::Emulator;
use xt_isa::reg::Gpr;

/// One random straight-line operation on the a1-a5 register pool.
#[derive(Clone, Copy, Debug)]
enum RandOp {
    Add(u8, u8, u8),
    Sub(u8, u8, u8),
    Mul(u8, u8, u8),
    Xor(u8, u8, u8),
    Sll(u8, u8, u8),
    Srl(u8, u8, u8),
    AddI(u8, u8, i16),
    Store(u8, u8),
    Load(u8, u8),
    Mac(u8, u8, u8),
    Ext(u8, u8, u8, u8),
    CondMove(u8, u8, u8),
}

const POOL: [Gpr; 5] = [Gpr::A1, Gpr::A2, Gpr::A3, Gpr::A4, Gpr::A5];

/// Generator for one [`RandOp`]. Shrinks by simplifying the operation
/// kind toward `Add` and all operand indices toward zero, so minimal
/// counterexample programs stay human-readable.
#[derive(Clone, Debug)]
struct RandOpGen;

const POOL_N: u8 = POOL.len() as u8;

impl Gen for RandOpGen {
    type Value = RandOp;

    fn generate(&self, rng: &mut Rng) -> RandOp {
        let r = |rng: &mut Rng| rng.below(POOL_N as u64) as u8;
        match rng.below(12) {
            0 => RandOp::Add(r(rng), r(rng), r(rng)),
            1 => RandOp::Sub(r(rng), r(rng), r(rng)),
            2 => RandOp::Mul(r(rng), r(rng), r(rng)),
            3 => RandOp::Xor(r(rng), r(rng), r(rng)),
            4 => RandOp::Sll(r(rng), r(rng), r(rng)),
            5 => RandOp::Srl(r(rng), r(rng), r(rng)),
            6 => RandOp::AddI(r(rng), r(rng), rng.gen_range(-500, 500) as i16),
            7 => RandOp::Store(r(rng), rng.below(8) as u8),
            8 => RandOp::Load(r(rng), rng.below(8) as u8),
            9 => RandOp::Mac(r(rng), r(rng), r(rng)),
            10 => RandOp::Ext(r(rng), r(rng), rng.below(64) as u8, rng.below(64) as u8),
            _ => RandOp::CondMove(r(rng), r(rng), r(rng)),
        }
    }

    fn shrink(&self, v: &RandOp) -> Vec<RandOp> {
        let mut out = Vec::new();
        // 1. simplify the kind: everything reduces toward a plain Add
        match *v {
            RandOp::Add(0, 0, 0) => return out,
            RandOp::Add(..) => {}
            RandOp::AddI(d, x, _) => out.push(RandOp::Add(d, x, 0)),
            RandOp::Sub(d, x, y)
            | RandOp::Mul(d, x, y)
            | RandOp::Xor(d, x, y)
            | RandOp::Sll(d, x, y)
            | RandOp::Srl(d, x, y)
            | RandOp::Mac(d, x, y)
            | RandOp::CondMove(d, x, y) => out.push(RandOp::Add(d, x, y)),
            RandOp::Ext(d, x, _, _) => out.push(RandOp::Add(d, x, 0)),
            RandOp::Store(x, _) | RandOp::Load(x, _) => out.push(RandOp::Add(x, x, x)),
        }
        // 2. zero out operand fields one at a time
        let fields: &[u8] = match v {
            RandOp::Add(a, b, c)
            | RandOp::Sub(a, b, c)
            | RandOp::Mul(a, b, c)
            | RandOp::Xor(a, b, c)
            | RandOp::Sll(a, b, c)
            | RandOp::Srl(a, b, c)
            | RandOp::Mac(a, b, c)
            | RandOp::CondMove(a, b, c) => &[*a, *b, *c],
            _ => &[],
        };
        if let RandOp::Add(a, b, c) = *v {
            for i in 0..3 {
                if fields[i] != 0 {
                    let mut f = [a, b, c];
                    f[i] = 0;
                    out.push(RandOp::Add(f[0], f[1], f[2]));
                }
            }
        }
        if let RandOp::AddI(d, x, imm) = *v {
            if imm != 0 {
                out.push(RandOp::AddI(d, x, imm / 2));
            }
        }
        out
    }
}

const SEED: u64 = 0xF022_0001;

fn build(seeds: &[i64; 5], body: &[RandOp], iters: u8) -> xt_asm::Program {
    let mut a = Asm::new();
    let buf = a.data_zeros("scratch", 64);
    a.la(Gpr::S2, buf);
    for (k, s) in seeds.iter().enumerate() {
        a.li(POOL[k], *s);
    }
    a.li(Gpr::S1, iters as i64 + 1);
    let top = a.here();
    for op in body {
        match *op {
            RandOp::Add(d, x, y) => {
                a.add(POOL[d as usize], POOL[x as usize], POOL[y as usize]);
            }
            RandOp::Sub(d, x, y) => {
                a.sub(POOL[d as usize], POOL[x as usize], POOL[y as usize]);
            }
            RandOp::Mul(d, x, y) => {
                a.mul(POOL[d as usize], POOL[x as usize], POOL[y as usize]);
            }
            RandOp::Xor(d, x, y) => {
                a.xor_(POOL[d as usize], POOL[x as usize], POOL[y as usize]);
            }
            RandOp::Sll(d, x, y) => {
                // mask the shift through a scratch register
                a.andi(Gpr::T0, POOL[y as usize], 63);
                a.sll(POOL[d as usize], POOL[x as usize], Gpr::T0);
            }
            RandOp::Srl(d, x, y) => {
                a.andi(Gpr::T0, POOL[y as usize], 63);
                a.srl(POOL[d as usize], POOL[x as usize], Gpr::T0);
            }
            RandOp::AddI(d, x, i) => {
                a.addi(POOL[d as usize], POOL[x as usize], i as i64);
            }
            RandOp::Store(x, slot) => {
                a.sd(POOL[x as usize], Gpr::S2, slot as i64 * 8);
            }
            RandOp::Load(d, slot) => {
                a.ld(POOL[d as usize], Gpr::S2, slot as i64 * 8);
            }
            RandOp::Mac(d, x, y) => {
                a.xmula(POOL[d as usize], POOL[x as usize], POOL[y as usize]);
            }
            RandOp::Ext(d, x, m, l) => {
                let (hi, lo) = (m.max(l) as u32, m.min(l) as u32);
                a.xextu(POOL[d as usize], POOL[x as usize], hi, lo);
            }
            RandOp::CondMove(d, x, t) => {
                a.xmveqz(POOL[d as usize], POOL[x as usize], POOL[t as usize]);
            }
        }
    }
    a.addi(Gpr::S1, Gpr::S1, -1);
    a.bnez(Gpr::S1, top);
    // fold the pool into the exit code
    a.mv(Gpr::A0, POOL[0]);
    for r in &POOL[1..] {
        a.xor_(Gpr::A0, Gpr::A0, *r);
    }
    a.slli(Gpr::A0, Gpr::A0, 32);
    a.srli(Gpr::A0, Gpr::A0, 32);
    a.halt();
    a.finish().unwrap()
}


#[test]
fn emulator_and_timing_models_agree() {
    let seeds_gen: [_; 5] = std::array::from_fn(|_| gen::any::<i32>());
    let g = (
        seeds_gen,
        gen::vec_of(RandOpGen, 1..24),
        gen::ints(1u8..12),
    );
    let cfg = Config::seeded_cases(SEED, 40);
    check_with(&cfg, "emulator_and_timing_models_agree", &g, |(seeds, body, iters)| {
        let seeds = [
            seeds[0] as i64, seeds[1] as i64, seeds[2] as i64,
            seeds[3] as i64, seeds[4] as i64,
        ];
        let prog = build(&seeds, body, *iters);

        let mut emu = Emulator::new();
        emu.load(&prog);
        let functional = emu.run(5_000_000).expect("fuzz program terminates");

        let ooo = OooSession::new(&prog, &CoreConfig::xt910(), 5_000_000).run_to_end();
        assert_eq!(ooo.exit_code, Some(functional), "ooo agrees");

        let ino = InOrderSession::new(&prog, &CoreConfig::u74_like(), 5_000_000).run_to_end();
        assert_eq!(ino.exit_code, Some(functional), "inorder agrees");

        // cycle sanity: both models retire every instruction, and cannot
        // average below their theoretical per-cycle peaks
        assert_eq!(ooo.perf.instructions, ino.perf.instructions);
        assert!(ooo.perf.ipc() <= 3.0 + 1e-9, "3-wide decode bound");
        assert!(ino.perf.ipc() <= 2.0 + 1e-9, "dual-issue bound");
        assert!(ooo.perf.cycles > 0 && ino.perf.cycles > 0);
    });
}

#[test]
fn ablation_configs_preserve_correctness() {
    let seeds_gen: [_; 5] = std::array::from_fn(|_| gen::any::<i32>());
    let g = (seeds_gen, gen::vec_of(RandOpGen, 1..16));
    let cfg = Config::seeded_cases(SEED, 40);
    check_with(&cfg, "ablation_configs_preserve_correctness", &g, |(seeds, body)| {
        let seeds = [
            seeds[0] as i64, seeds[1] as i64, seeds[2] as i64,
            seeds[3] as i64, seeds[4] as i64,
        ];
        let prog = build(&seeds, body, 6);
        let mut emu = Emulator::new();
        emu.load(&prog);
        let functional = emu.run(5_000_000).unwrap();

        // every ablation switch must leave results identical (timing-only)
        for flip in 0..5 {
            let mut cfg = CoreConfig::xt910();
            match flip {
                0 => cfg.loop_buffer = false,
                1 => cfg.l0_btb = false,
                2 => cfg.two_level_buf = false,
                3 => cfg.split_stores = false,
                _ => cfg.mem_dep_predict = false,
            }
            let r = OooSession::new(&prog, &cfg, 5_000_000).run_to_end();
            assert_eq!(r.exit_code, Some(functional), "flip {}", flip);
        }
    });
}
