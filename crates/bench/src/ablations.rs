//! Ablation experiments for the design features DESIGN.md calls out:
//! the Fig. 6 two-level prediction buffers, the Fig. 7 loop buffer, the
//! L0 BTB (§III-B), the Fig. 10 pseudo double store, and the §V-A
//! memory-dependence predictor. Each toggles one `CoreConfig` switch on
//! a microkernel designed to exercise that feature.

use crate::figures::{Figure, Row};
use xt_asm::{Asm, Program};
use xt_core::{CoreConfig, OooSession};
use xt_isa::reg::Gpr;

fn cycles(prog: &Program, cfg: &CoreConfig) -> u64 {
    OooSession::new(prog, cfg, 100_000_000)
        .run_to_end()
        .perf
        .cycles
}

fn onoff_row(name: &str, prog: &Program, flip: impl Fn(&mut CoreConfig)) -> Row {
    let on = CoreConfig::xt910();
    let mut off = CoreConfig::xt910();
    flip(&mut off);
    let c_on = cycles(prog, &on);
    let c_off = cycles(prog, &off);
    Row::new(name, c_off as f64 / c_on as f64, None)
}

/// A kernel whose second branch is correlated with the first — exactly
/// what stale history (no two-level buffers) mispredicts.
fn correlated_branches() -> Program {
    let mut a = Asm::new();
    a.li(Gpr::S0, 99991); // LCG state
    a.li(Gpr::S1, 2000);
    let top = a.new_label();
    a.bind(top).unwrap();
    // pseudo-random bit
    a.li(Gpr::T1, 1103515245);
    a.mul(Gpr::S0, Gpr::S0, Gpr::T1);
    a.li(Gpr::T1, 12345);
    a.add(Gpr::S0, Gpr::S0, Gpr::T1);
    a.srli(Gpr::T0, Gpr::S0, 16);
    a.andi(Gpr::T0, Gpr::T0, 1);
    // branch A on the bit
    let a_not = a.new_label();
    let b_site = a.new_label();
    a.beqz(Gpr::T0, a_not);
    a.addi(Gpr::A1, Gpr::A1, 1);
    a.bind(a_not).unwrap();
    a.jump(b_site);
    a.bind(b_site).unwrap();
    // branch B: identical condition — perfectly correlated with A
    let b_not = a.new_label();
    a.beqz(Gpr::T0, b_not);
    a.addi(Gpr::A2, Gpr::A2, 1);
    a.bind(b_not).unwrap();
    a.addi(Gpr::S1, Gpr::S1, -1);
    a.bnez(Gpr::S1, top);
    a.halt();
    a.finish().unwrap()
}

/// A hot 4-instruction loop — the loop buffer's bread and butter.
fn tiny_loop() -> Program {
    let mut a = Asm::new();
    a.li(Gpr::S1, 20_000);
    let top = a.here();
    a.addi(Gpr::A1, Gpr::A1, 1);
    a.addi(Gpr::A2, Gpr::A2, 3);
    a.addi(Gpr::S1, Gpr::S1, -1);
    a.bnez(Gpr::S1, top);
    a.halt();
    a.finish().unwrap()
}

/// Store kernel where the data operand arrives late (a multiply chain)
/// but the address is cheap, followed by a load that conflicts only on
/// alternate iterations. Once the dependence predictor tags the load, it
/// waits for older store *addresses*: the pseudo double store resolves
/// them early, the unified store only after the slow data (Fig. 10).
fn late_data_stores() -> Program {
    let mut a = Asm::new();
    let buf = a.data_zeros("buf", 4096);
    a.la(Gpr::S2, buf);
    a.li(Gpr::S1, 4000);
    a.li(Gpr::A1, 7);
    let top = a.here();
    // long-latency store data: three chained multiplies
    a.mul(Gpr::A1, Gpr::A1, Gpr::A1);
    a.mul(Gpr::A1, Gpr::A1, Gpr::A1);
    a.mul(Gpr::A1, Gpr::A1, Gpr::A1);
    a.ori(Gpr::A1, Gpr::A1, 3);
    // store address is loop-invariant: the split st.addr resolves it
    // right at dispatch, before the younger load issues; the unified
    // store resolves only with the slow data
    a.sd(Gpr::A1, Gpr::S2, 0);
    a.ld(Gpr::A3, Gpr::S2, 0);
    a.add(Gpr::A4, Gpr::A4, Gpr::A3);
    a.addi(Gpr::S1, Gpr::S1, -1);
    a.bnez(Gpr::S1, top);
    a.halt();
    a.finish().unwrap()
}

/// Kernel with a recurring store->load conflict the dependence
/// predictor should learn.
fn store_load_conflict() -> Program {
    let mut a = Asm::new();
    let buf = a.data_zeros("buf", 128);
    a.la(Gpr::S2, buf);
    a.li(Gpr::S1, 4000);
    a.li(Gpr::A1, 1);
    let top = a.here();
    // slow address for the store (dependent chain)
    a.mul(Gpr::T0, Gpr::A1, Gpr::A1);
    a.andi(Gpr::T0, Gpr::T0, 63);
    a.andi(Gpr::T0, Gpr::T0, 0); // always 0 — but computed late
    a.add(Gpr::T1, Gpr::S2, Gpr::T0);
    a.sd(Gpr::A1, Gpr::T1, 0);
    // young load from the same address
    a.ld(Gpr::A2, Gpr::S2, 0);
    a.add(Gpr::A1, Gpr::A2, Gpr::A1);
    a.addi(Gpr::S1, Gpr::S1, -1);
    a.bnez(Gpr::S1, top);
    a.halt();
    a.finish().unwrap()
}

/// Continuous-jump kernel: calls through a dense jump chain so taken
/// branches dominate and the IBUF cannot hide IP-stage bubbles (§III-B:
/// the L0 BTB case).
fn jump_chain() -> Program {
    let mut a = Asm::new();
    a.li(Gpr::S1, 4000);
    let top = a.new_label();
    a.bind(top).unwrap();
    // chain of unconditional jumps, one instruction apart
    let mut labels = Vec::new();
    for _ in 0..8 {
        labels.push(a.new_label());
    }
    for (k, l) in labels.iter().enumerate() {
        a.jump(*l);
        // dead filler the fall-through never executes
        let _ = k;
        a.nop();
        a.bind(*l).unwrap();
        a.addi(Gpr::A1, Gpr::A1, 1);
    }
    a.addi(Gpr::S1, Gpr::S1, -1);
    a.bnez(Gpr::S1, top);
    a.halt();
    a.finish().unwrap()
}

/// Runs all five ablations; each value is the slowdown from disabling
/// the feature (>1.0 means the feature helps).
pub fn all() -> Figure {
    let rows = vec![
        onoff_row(
            "two-level pred buffers (Fig.6)",
            &correlated_branches(),
            |c| c.two_level_buf = false,
        ),
        onoff_row("loop buffer (Fig.7)", &tiny_loop(), |c| {
            c.loop_buffer = false
        }),
        onoff_row("L0 BTB (SIII-B)", &jump_chain(), |c| c.l0_btb = false),
        {
            // isolate early disambiguation: dependence prediction off in
            // both arms, so a late store address costs a real flush
            let prog = late_data_stores();
            let mut on = CoreConfig::xt910();
            on.mem_dep_predict = false;
            let mut off = on.clone();
            off.split_stores = false;
            let slowdown = cycles(&prog, &off) as f64 / cycles(&prog, &on) as f64;
            Row::new("pseudo double store (Fig.10)", slowdown, None)
        },
        onoff_row(
            "mem-dependence predictor (SV-A)",
            &store_load_conflict(),
            |c| c.mem_dep_predict = false,
        ),
    ];
    Figure::new("Feature ablations", "slowdown when disabled (x)", rows)
}

#[cfg(test)]
mod tests {
    use crate::artifact::tests::committed;

    #[test]
    fn features_never_hurt() {
        for row in committed("ablations").rows {
            assert!(
                row.value >= 0.97,
                "{} should not slow the machine down: {:.3}",
                row.label,
                row.value
            );
        }
    }

    #[test]
    fn loop_buffer_and_split_store_help() {
        let f = committed("ablations");
        let get = |n: &str| {
            f.rows
                .iter()
                .find(|r| r.label.contains(n))
                .map(|r| r.value)
                .unwrap()
        };
        assert!(get("loop buffer") >= 1.0);
        assert!(
            get("pseudo double store") > 1.02,
            "split stores speed up late-data stores: {:.3}",
            get("pseudo double store")
        );
        assert!(
            get("mem-dependence") > 1.05,
            "dependence predictor avoids flushes: {:.3}",
            get("mem-dependence")
        );
    }
}
