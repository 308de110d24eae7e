//! Benchmark-owned guest programs, generated from the run seed.
//!
//! The `xt-workloads` kernels keep their own fixed seeds; these are the
//! inputs `--seed` parameterises (besides the job order). The seed
//! changes *which* addresses, constants and block orders a program
//! uses, never how much work it does: every seed gives the same
//! instruction count per program (up to the handful of instructions
//! `li` needs for a seed-dependent constant), so `sim_mips` of
//! different seeds is comparable. The simulator only ever sees the
//! assembled [`Program`]s.

use xt_asm::{Asm, Program};
use xt_harness::Rng;
use xt_isa::reg::Gpr;

/// A generated program and the exit code a correct run produces.
#[derive(Clone, Debug)]
pub struct Guest {
    /// Stable name (job label).
    pub name: &'static str,
    /// The assembled program(s): one per core.
    pub programs: Vec<Program>,
    /// Expected exit code per core, from the host-side model.
    pub expected: Vec<u64>,
}

fn single(name: &'static str, program: Program, expected: u64) -> Guest {
    Guest {
        name,
        programs: vec![program],
        expected: vec![expected],
    }
}

/// Bytes between pointer-chase nodes: one node per cache line.
const NODE_STRIDE: u64 = 64;

/// Pointer chase over `nodes` line-sized nodes linked into one cycle
/// in a seed-shuffled visiting order, `steps` dependent loads. Exit
/// code: wrapping sum of the node offsets visited.
pub fn chase(rng: &mut Rng, nodes: u64, steps: u64) -> Guest {
    assert!(nodes >= 2);
    let mut order: Vec<u64> = (0..nodes).collect();
    rng.shuffle(&mut order);
    // node k holds the byte offset of its successor in the cycle
    let words_per_node = (NODE_STRIDE / 8) as usize;
    let mut image = vec![0u64; nodes as usize * words_per_node];
    for k in 0..order.len() {
        let next = order[(k + 1) % order.len()];
        image[order[k] as usize * words_per_node] = next * NODE_STRIDE;
    }
    let mut expected = 0u64;
    let mut off = 0u64;
    for _ in 0..steps {
        off = image[(off / 8) as usize];
        expected = expected.wrapping_add(off);
    }

    let mut a = Asm::new();
    let base = a.data_u64("nodes", &image);
    a.la(Gpr::S2, base);
    a.mv(Gpr::A1, Gpr::S2); // p = &node[0]
    a.li(Gpr::A0, 0);
    a.li(Gpr::A3, steps as i64);
    let top = a.here();
    a.ld(Gpr::A2, Gpr::A1, 0); // off = p->next
    a.add(Gpr::A0, Gpr::A0, Gpr::A2);
    a.add(Gpr::A1, Gpr::S2, Gpr::A2);
    a.addi(Gpr::A3, Gpr::A3, -1);
    a.bnez(Gpr::A3, top);
    a.halt();
    single(
        "guest/chase",
        a.finish().expect("chase assembles"),
        expected,
    )
}

/// One data-dependent, essentially unpredictable branch per iteration,
/// driven by a 64-bit LCG whose multiplier, increment and start state
/// come from the seed. Both arms retire three instructions, so the
/// instruction count does not depend on the outcomes. Exit code: how
/// often the branch fell through.
pub fn branchy(rng: &mut Rng, iters: u64) -> Guest {
    // full period modulo 2^64: multiplier ≡ 5 (mod 8), odd increment
    let mul = (rng.next_u64() & !7) | 5;
    let inc = rng.next_u64() | 1;
    let start = rng.next_u64();
    let mut s = start;
    let mut expected = 0u64;
    for _ in 0..iters {
        s = s.wrapping_mul(mul).wrapping_add(inc);
        expected += (s >> 40) & 1;
    }

    let mut a = Asm::new();
    a.li(Gpr::S0, start as i64);
    a.li(Gpr::S1, mul as i64);
    a.li(Gpr::S2, inc as i64);
    a.li(Gpr::A0, 0);
    a.li(Gpr::A3, iters as i64);
    let top = a.here();
    a.mul(Gpr::S0, Gpr::S0, Gpr::S1);
    a.add(Gpr::S0, Gpr::S0, Gpr::S2);
    a.srli(Gpr::T0, Gpr::S0, 40);
    a.andi(Gpr::T0, Gpr::T0, 1);
    let (zero, join) = (a.new_label(), a.new_label());
    a.beqz(Gpr::T0, zero);
    a.addi(Gpr::A0, Gpr::A0, 1);
    a.jump(join);
    a.bind(zero).expect("label binds once");
    a.addi(Gpr::A4, Gpr::A4, 1);
    a.addi(Gpr::A5, Gpr::A5, 1);
    a.bind(join).expect("label binds once");
    a.addi(Gpr::A3, Gpr::A3, -1);
    a.bnez(Gpr::A3, top);
    a.halt();
    single(
        "guest/branchy",
        a.finish().expect("branchy assembles"),
        expected,
    )
}

/// Store-heavy fill: `blocks` blocks of `block_lines` cache lines are
/// written front to back, eight 8-byte stores per line, in a block
/// order permuted by the seed. The stored value counts lines, so the
/// final image depends on the order. Exit code: sum of three words read
/// back (first, middle, last).
pub fn fill(rng: &mut Rng, blocks: u64, block_lines: u64) -> Guest {
    let block_bytes = block_lines * 64;
    let region = blocks * block_bytes;
    let mut order: Vec<u64> = (0..blocks).map(|b| b * block_bytes).collect();
    rng.shuffle(&mut order);
    let first_val = rng.below(1 << 20);
    // host model: word value per line
    let mut line_val = vec![0u64; (region / 64) as usize];
    let mut v = first_val;
    for &off in &order {
        for l in 0..block_lines {
            line_val[(off / 64 + l) as usize] = v;
            v += 1;
        }
    }
    let probes = [0, region / 2, region - 8];
    let expected = probes.iter().map(|&p| line_val[(p / 64) as usize]).sum();

    let mut a = Asm::new();
    let table = a.data_u64("order", &order);
    let buf = a.data_zeros("region", region as usize);
    a.la(Gpr::S2, buf);
    a.la(Gpr::S3, table);
    a.li(Gpr::S4, blocks as i64);
    a.li(Gpr::A2, first_val as i64);
    let next_block = a.here();
    a.ld(Gpr::T0, Gpr::S3, 0);
    a.add(Gpr::A1, Gpr::S2, Gpr::T0);
    a.li(Gpr::A3, block_lines as i64);
    let next_line = a.here();
    for w in 0..8 {
        a.sd(Gpr::A2, Gpr::A1, w * 8);
    }
    a.addi(Gpr::A2, Gpr::A2, 1);
    a.addi(Gpr::A1, Gpr::A1, 64);
    a.addi(Gpr::A3, Gpr::A3, -1);
    a.bnez(Gpr::A3, next_line);
    a.addi(Gpr::S3, Gpr::S3, 8);
    a.addi(Gpr::S4, Gpr::S4, -1);
    a.bnez(Gpr::S4, next_block);
    a.li(Gpr::A0, 0);
    for p in probes {
        a.la(Gpr::T0, buf + p);
        a.ld(Gpr::T1, Gpr::T0, 0);
        a.add(Gpr::A0, Gpr::A0, Gpr::T1);
    }
    a.halt();
    single("guest/fill", a.finish().expect("fill assembles"), expected)
}

/// Four private STREAM slices, one per core: `b[i] = running sum of
/// a[..=i]` over `elems` 8-byte elements, `sweeps` times. Each core's
/// arrays live in their own 16 MiB region, shifted by a seed-chosen
/// number of cache lines so the set mapping differs between seeds.
/// Exit code per core: the final running sum.
pub fn private_slices(rng: &mut Rng, elems: u64, sweeps: u64) -> Guest {
    let mut programs = Vec::new();
    let mut expected = Vec::new();
    for core in 0..4u64 {
        let shift = rng.below(128) * 64;
        let init: Vec<u64> = (0..elems).map(|k| (k * 7 + core) % 13).collect();
        expected.push(init.iter().sum::<u64>().wrapping_mul(sweeps));

        let mut a = Asm::new().with_data_base(0x8200_0000 + core * 0x0100_0000 + shift);
        let src = a.data_u64("a", &init);
        let dst = a.data_zeros("b", (elems * 8) as usize);
        a.li(Gpr::A0, 0);
        a.li(Gpr::A6, sweeps as i64);
        let sweep = a.here();
        a.la(Gpr::A1, src);
        a.la(Gpr::A2, dst);
        a.li(Gpr::A3, elems as i64);
        let top = a.here();
        a.ld(Gpr::A4, Gpr::A1, 0);
        a.add(Gpr::A0, Gpr::A0, Gpr::A4);
        a.sd(Gpr::A0, Gpr::A2, 0);
        a.addi(Gpr::A1, Gpr::A1, 8);
        a.addi(Gpr::A2, Gpr::A2, 8);
        a.addi(Gpr::A3, Gpr::A3, -1);
        a.bnez(Gpr::A3, top);
        a.addi(Gpr::A6, Gpr::A6, -1);
        a.bnez(Gpr::A6, sweep);
        a.halt();
        programs.push(a.finish().expect("slice assembles"));
    }
    Guest {
        name: "guest/private_slices",
        programs,
        expected,
    }
}

/// Two producer/consumer pairs (cores 0→1 and 2→3) handing `items`
/// messages of `lines` cache lines through a one-line mailbox each:
/// the producer writes one word per payload line, fences, publishes the
/// flag; the consumer spins on the flag (with a fence, so it parks once
/// per epoch), then reads the payload back. Exit codes: 0 for every
/// core — the consumer's is 1 if any word it read was older than the
/// flag it had seen.
pub fn mailboxes(items: u64, lines: u64) -> Guest {
    // every core lays out both symbols identically: shared addresses
    let layout = |a: &mut Asm, pair: u64| {
        let flags = a.data_zeros("mailboxes", 128) + pair * 64;
        let payload = a.data_zeros("payload", (2 * lines * 64) as usize) + pair * lines * 64;
        (flags, payload)
    };
    let producer = |pair: u64| {
        let mut a = Asm::new();
        let (flag, payload) = layout(&mut a, pair);
        a.la(Gpr::A1, flag);
        a.li(Gpr::A2, 1);
        a.li(Gpr::A3, items as i64);
        let top = a.here();
        a.la(Gpr::A4, payload);
        a.li(Gpr::A5, lines as i64);
        let line = a.here();
        a.sd(Gpr::A2, Gpr::A4, 0); // payload[l] = k
        a.addi(Gpr::A4, Gpr::A4, 64);
        a.addi(Gpr::A5, Gpr::A5, -1);
        a.bnez(Gpr::A5, line);
        a.fence();
        a.sd(Gpr::A2, Gpr::A1, 0); // flag = k
        a.addi(Gpr::A2, Gpr::A2, 1);
        a.addi(Gpr::A3, Gpr::A3, -1);
        a.bnez(Gpr::A3, top);
        a.li(Gpr::A0, 0);
        a.halt();
        a.finish().expect("producer assembles")
    };
    let consumer = |pair: u64| {
        let mut a = Asm::new();
        let (flag, payload) = layout(&mut a, pair);
        a.la(Gpr::A1, flag);
        a.li(Gpr::A2, 1);
        a.li(Gpr::A3, items as i64);
        a.li(Gpr::A0, 0);
        let top = a.here();
        a.ld(Gpr::A4, Gpr::A1, 0); // flag
        a.fence();
        a.blt(Gpr::A4, Gpr::A2, top);
        a.la(Gpr::A4, payload);
        a.li(Gpr::A5, lines as i64);
        let line = a.here();
        a.ld(Gpr::A6, Gpr::A4, 0); // program-later than the flag
        a.sltu(Gpr::A6, Gpr::A6, Gpr::A2); // older than expected?
        a.or_(Gpr::A0, Gpr::A0, Gpr::A6);
        a.addi(Gpr::A4, Gpr::A4, 64);
        a.addi(Gpr::A5, Gpr::A5, -1);
        a.bnez(Gpr::A5, line);
        a.addi(Gpr::A2, Gpr::A2, 1);
        a.addi(Gpr::A3, Gpr::A3, -1);
        a.bnez(Gpr::A3, top);
        a.halt();
        a.finish().expect("consumer assembles")
    };
    Guest {
        name: "guest/mailboxes",
        programs: vec![producer(0), consumer(0), producer(1), consumer(1)],
        expected: vec![0; 4],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_emu::Emulator;

    fn run(p: &Program) -> (u64, u64) {
        let mut emu = Emulator::new();
        emu.load(p);
        let code = emu.run(50_000_000).expect("guest halts");
        (code, emu.cpu.instret)
    }

    #[test]
    fn single_core_guests_self_check_and_do_equal_work_on_every_seed() {
        let gens: [fn(&mut Rng) -> Guest; 3] = [
            |r| chase(r, 512, 2000),
            |r| branchy(r, 2000),
            |r| fill(r, 8, 16),
        ];
        for gen in gens {
            let mut insts = Vec::new();
            let mut texts = Vec::new();
            for seed in [1u64, 2, 910] {
                let g = gen(&mut Rng::new(seed));
                let (code, n) = run(&g.programs[0]);
                assert_eq!(code, g.expected[0], "{} seed {seed}", g.name);
                insts.push(n);
                texts.push((g.programs[0].data.clone(), g.programs[0].text.clone()));
            }
            // only the `li` sequences of seed-dependent constants differ
            let spread = insts.iter().max().unwrap() - insts.iter().min().unwrap();
            assert!(spread <= 16, "{insts:?}: work is seed-independent");
            assert_ne!(texts[0], texts[1], "the seed changes the program");
            let again = gen(&mut Rng::new(1));
            assert_eq!(
                texts[0],
                (
                    again.programs[0].data.clone(),
                    again.programs[0].text.clone()
                )
            );
        }
    }

    #[test]
    fn private_slices_run_alone_and_sum_correctly() {
        let g = private_slices(&mut Rng::new(5), 256, 2);
        assert_eq!(g.programs.len(), 4);
        for (p, want) in g.programs.iter().zip(&g.expected) {
            assert_eq!(run(p).0, *want);
        }
    }
}
