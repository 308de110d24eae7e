//! The main figure/table reproductions (Figs. 17-21, Table II, §X
//! SPECInt, §X vector MACs, §I blockchain, §V-E ASID). Table I is a
//! configuration space, checked by `tests::table1_validates`.

use crate::{
    geomean, run_on_a73like, run_on_u74like, run_on_xt910, run_on_xt910_mem, COREMARK_SCALE,
};
use std::fmt;
use xt_compiler::CompileOpts;
use xt_mem::{MemConfig, MemSystem, PrefetchConfig};
use xt_uarch_model::{evaluate, Corner, UarchParams};
use xt_workloads::{ai, blockchain, coremark, eembc, nbench, spec_like, stream, Kernel};

/// One labeled score.
#[derive(Clone, Debug)]
pub struct Row {
    /// Label (kernel or machine name).
    pub label: String,
    /// Measured value.
    pub value: f64,
    /// Paper's value for the same row, when quoted.
    pub paper: Option<f64>,
}

impl Row {
    /// A row, with the paper's value when the paper quotes one.
    pub(crate) fn new(label: impl Into<String>, value: f64, paper: Option<f64>) -> Row {
        Row {
            label: label.into(),
            value,
            paper,
        }
    }
}

/// A rendered figure: title plus rows.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Title, e.g. "Fig. 17 CoreMark/MHz".
    pub title: String,
    /// What the value column means.
    pub unit: String,
    /// The rows.
    pub rows: Vec<Row>,
}

impl Figure {
    pub(crate) fn new(title: &str, unit: &str, rows: Vec<Row>) -> Figure {
        Figure {
            title: title.into(),
            unit: unit.into(),
            rows,
        }
    }

    /// The figure's error against the paper: the mean of
    /// `|value / paper − 1|` over the rows that quote a paper value, or
    /// `None` if none does.
    pub fn err(&self) -> Option<f64> {
        let errs: Vec<f64> = self
            .rows
            .iter()
            .filter_map(|r| r.paper.map(|p| (r.value / p - 1.0).abs()))
            .collect();
        (!errs.is_empty()).then(|| errs.iter().sum::<f64>() / errs.len() as f64)
    }
}

impl fmt::Display for Figure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ({}) ==", self.title, self.unit)?;
        for r in &self.rows {
            match r.paper {
                Some(p) => writeln!(f, "  {:<28} {:>9.3}   (paper: {:.2})", r.label, r.value, p)?,
                None => writeln!(f, "  {:<28} {:>9.3}", r.label, r.value)?,
            }
        }
        if let Some(e) = self.err() {
            writeln!(f, "  mean |value / paper - 1| = {e:.3}")?;
        }
        Ok(())
    }
}

/// Table II from the analytical PPA model, `xt-uarch-model`. Its
/// constants are calibrated to the paper's numbers, so the error is the
/// calibration's rounding.
pub fn table2() -> Figure {
    let vector = evaluate(&UarchParams::xt910(true), Corner::LvtNominal);
    let scalar = evaluate(&UarchParams::xt910(false), Corner::LvtNominal);
    let boost = evaluate(&UarchParams::xt910(true), Corner::UlvtBoost);
    Figure::new(
        "Table II: 12nm PPA (analytical model, not silicon)",
        "per core, unit in the label",
        vec![
            Row::new("frequency, LVT 0.8V (GHz)", vector.freq_ghz, Some(2.0)),
            Row::new("frequency, ULVT 1.0V (GHz)", boost.freq_ghz, Some(2.5)),
            Row::new("area, no VEC (mm2)", scalar.area_mm2, Some(0.6)),
            Row::new("area, VEC (mm2)", vector.area_mm2, Some(0.8)),
            Row::new("dynamic power (uW/MHz)", vector.uw_per_mhz, Some(100.0)),
        ],
    )
}

/// Fig. 17: CoreMark/MHz, XT-910 vs the U74-class dual-issue in-order
/// baseline. Paper: 7.1 vs 5.1 (+40%).
pub fn fig17() -> Figure {
    let suite = coremark::all(&CompileOpts::optimized());
    let score = |cycles: u64, work: u64| COREMARK_SCALE * work as f64 / cycles as f64;
    let (mut xt_c, mut u74_c, mut work) = (0u64, 0u64, 0u64);
    for k in &suite {
        xt_c += run_on_xt910(k).perf.cycles;
        u74_c += run_on_u74like(k).perf.cycles;
        work += k.work;
    }
    let xt = score(xt_c, work);
    let u74 = score(u74_c, work);
    Figure::new(
        "Fig. 17: CoreMark-class score",
        "marks/MHz (calibrated scale)",
        vec![
            Row::new("XT-910", xt, Some(7.1)),
            Row::new("U74-like in-order", u74, Some(5.1)),
            Row::new("XT-910 / U74 ratio", xt / u74, Some(1.4)),
        ],
    )
}

/// Each kernel of `suite` normalized to the A73-class reference, plus
/// their geomean, which the paper puts at parity.
fn vs_a73(title: &str, suite: &[Kernel]) -> Figure {
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for k in suite {
        let xt = run_on_xt910(k).perf.cycles as f64;
        let a73 = run_on_a73like(k).perf.cycles as f64;
        let norm = a73 / xt;
        ratios.push(norm);
        rows.push(Row::new(k.name, norm, None));
    }
    rows.push(Row::new("geomean", geomean(&ratios), Some(1.0)));
    Figure::new(title, "normalized to A73-class reference = 1.0", rows)
}

/// Fig. 18: EEMBC-class kernels, normalized to the A73-class reference
/// (paper: XT-910 ≈ parity, per-kernel scatter around 1.0).
pub fn fig18() -> Figure {
    vs_a73(
        "Fig. 18: EEMBC-class performance",
        &eembc::all(&CompileOpts::optimized()),
    )
}

/// Fig. 19: NBench-class kernels, normalized to the A73-class reference
/// (paper: overall parity).
pub fn fig19() -> Figure {
    vs_a73(
        "Fig. 19: NBench-class performance",
        &nbench::all(&CompileOpts::optimized()),
    )
}

/// Fig. 20: instruction extensions + optimized compiler vs native ISA +
/// stock compiler, on XT-910 (paper: ~+20%).
pub fn fig20() -> Figure {
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    let native: Vec<_> = coremark::all(&CompileOpts::native())
        .into_iter()
        .chain(eembc::all(&CompileOpts::native()))
        .collect();
    let optimized: Vec<_> = coremark::all(&CompileOpts::optimized())
        .into_iter()
        .chain(eembc::all(&CompileOpts::optimized()))
        .collect();
    for (n, o) in native.iter().zip(&optimized) {
        let cn = run_on_xt910(n).perf.cycles as f64;
        let co = run_on_xt910(o).perf.cycles as f64;
        let speedup = cn / co;
        ratios.push(speedup);
        rows.push(Row::new(n.name, speedup, None));
    }
    rows.push(Row::new("geomean speedup", geomean(&ratios), Some(1.2)));
    Figure::new(
        "Fig. 20: extensions + optimized compiler vs native",
        "speedup on XT-910",
        rows,
    )
}

/// Fig. 21: STREAM under the five prefetch scenarios at ~200-cycle
/// memory latency. Paper: a)1.0 b)3.8x c)4.9x d)5.4x e)≈5.27x; (a) is
/// the baseline, 1.0 by construction, so it quotes no paper value.
pub fn fig21() -> Figure {
    let kernel = stream::stream(stream::STREAM_ELEMS);
    let scenarios: [(&str, PrefetchConfig, Option<f64>); 5] = [
        ("a) all prefetch off", PrefetchConfig::off(), None),
        (
            "b) L1 on, small dist",
            PrefetchConfig::l1_small(),
            Some(3.8),
        ),
        (
            "c) L1+L2+TLB, small",
            PrefetchConfig::all_small(),
            Some(4.9),
        ),
        (
            "d) L1+L2+TLB, large",
            PrefetchConfig::all_large(),
            Some(5.4),
        ),
        (
            "e) L1+L2 large, no TLB",
            PrefetchConfig::no_tlb_large(),
            Some(5.27),
        ),
    ];
    let mut cycles = Vec::new();
    for (_, pf, _) in &scenarios {
        // the HAPS-80 condition: ~200-cycle memory, and arrays that do
        // not fit in the cache hierarchy (256 KiB L2; STREAM uses 768 KiB)
        let mem = MemConfig {
            dram_latency: 200,
            l2_kib: 256,
            l2_ways: 8,
            prefetch: *pf,
            ..MemConfig::default()
        };
        cycles.push(run_on_xt910_mem(&kernel, mem).perf.cycles as f64);
    }
    let base = cycles[0];
    Figure::new(
        "Fig. 21: STREAM prefetch ablation @200-cycle memory",
        "speedup over scenario a",
        scenarios
            .iter()
            .zip(&cycles)
            .map(|((label, _, paper), c)| Row::new(*label, base / c, *paper))
            .collect(),
    )
}

/// §X SPECInt-class system metric: XT-910 vs A73-class reference on the
/// L2-miss-heavy macro mix (paper: 6.11 vs 6.75 SPECInt/GHz, i.e.,
/// XT-910 ≈ 0.91x; the reference is 1.0 by construction).
pub fn specint() -> Figure {
    let k = spec_like::spec_like();
    let xt = run_on_xt910(&k).perf.cycles as f64;
    let a73 = run_on_a73like(&k).perf.cycles as f64;
    Figure::new(
        "SPECInt-class system metric",
        "normalized perf (A73-class = 1.0)",
        vec![
            Row::new("XT-910", a73 / xt, Some(6.11 / 6.75)),
            Row::new("A73-like reference", 1.0, None),
        ],
    )
}

/// §X vector MACs: int16 dot product as scalar / custom-MAC / RVV
/// widening-MAC, plus f16. Paper: 16x 16-bit MACs per cycle vs NEON's 8.
pub fn vector_mac() -> Figure {
    let macs_per_cycle = |k: &Kernel| k.work as f64 / run_on_xt910(k).perf.cycles as f64;
    Figure::new(
        "Vector 16-bit MAC throughput",
        "MACs/cycle",
        vec![
            Row::new(
                "scalar RV64 (mul+add)",
                macs_per_cycle(&ai::dot_scalar(false)),
                None,
            ),
            Row::new(
                "scalar x.mulah",
                macs_per_cycle(&ai::dot_scalar(true)),
                None,
            ),
            Row::new(
                "RVV vwmacc (VLEN=128)",
                macs_per_cycle(&ai::dot_vector()),
                None,
            ),
            Row::new("RVV f16 vfmacc", macs_per_cycle(&ai::dot_f16()), None),
            Row::new(
                "peak vwmacc capability",
                xt_vector::result_bits_per_cycle(&xt_vector::VectorConfig::default()) as f64 / 16.0,
                Some(16.0),
            ),
        ],
    )
}

/// §I blockchain: the hash-verification kernel with and without the
/// custom extensions (the deployment's per-core advantage; paper quotes
/// ≥1.2x vs the Xeon per-core baseline).
pub fn blockchain_fig() -> Figure {
    let base = blockchain::hash_verify(false);
    let ext = blockchain::hash_verify(true);
    let cb = run_on_xt910(&base).perf.cycles as f64;
    let ce = run_on_xt910(&ext).perf.cycles as f64;
    Figure::new(
        "Blockchain hash-verify kernel",
        "speedup from custom extensions",
        vec![
            Row::new("base RV64", 1.0, None),
            Row::new("with x.srri/x.extu", cb / ce, Some(1.2)),
        ],
    )
}

/// §V-E: context-switch TLB flushes, 16-bit ASID vs a narrow (12-bit)
/// allocator that overflows (paper: ~10x fewer flushes).
pub fn asid_flush() -> Figure {
    // model: an OS round-robins over `procs` address spaces performing
    // `switches` context switches; the ASID allocator flushes everything
    // once per generation wrap.
    let switches = 200_000u64;
    let procs = 6_000u64;
    let count_flushes = |asid_bits: u32| -> u64 {
        let space = 1u64 << asid_bits;
        let mut mem = MemSystem::new(MemConfig::default());
        let mut live = std::collections::HashMap::<u64, u16>::new();
        let mut next = 1u64;
        let mut flushes = 0u64;
        for s in 0..switches {
            let pid = s % procs;
            let asid = match live.get(&pid) {
                Some(&a) => a,
                None => {
                    if next >= space {
                        // generation wrap: flush and restart allocation
                        live.clear();
                        next = 1;
                        flushes += 1;
                        mem.context_switch(0, 0, true);
                    }
                    let a = next as u16;
                    next += 1;
                    live.insert(pid, a);
                    a
                }
            };
            mem.context_switch(0, asid, false);
        }
        flushes
    };
    let wide = count_flushes(16).max(1);
    let narrow = count_flushes(12).max(1);
    Figure::new(
        "ASID width vs TLB flushes (200k switches, 6k processes)",
        "full TLB flushes",
        vec![
            Row::new("16-bit ASID (XT-910)", wide as f64, None),
            Row::new("12-bit ASID (narrow)", narrow as f64, None),
            Row::new("flush reduction", narrow as f64 / wide as f64, Some(10.0)),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::tests::committed;

    /// Table I: 1/2/4 cores per cluster, 32/64 KiB L1s and 256 KiB to
    /// 8 MiB of L2 are all configurations the simulator accepts.
    #[test]
    fn table1_validates() {
        for cores in [1usize, 2, 4] {
            for l1 in [32u32, 64] {
                for l2 in [256u32, 1024, 8192] {
                    let cfg = MemConfig {
                        cores,
                        l1i_kib: l1,
                        l1d_kib: l1,
                        l2_kib: l2,
                        ..MemConfig::default()
                    };
                    cfg.validate().expect("Table I config must validate");
                    assert_eq!(MemSystem::new(cfg).config().l2_kib, l2);
                }
            }
        }
    }

    #[test]
    fn fig17_shape_holds() {
        let f = committed("fig17");
        let ratio = f.rows.last().unwrap().value;
        assert!(
            ratio > 1.15,
            "XT-910 must beat the in-order baseline clearly: {ratio:.2}"
        );
    }

    #[test]
    fn fig21_shape_holds() {
        let f = committed("fig21");
        let v: Vec<f64> = f.rows.iter().map(|r| r.value).collect();
        assert!((v[0] - 1.0).abs() < 1e-9);
        assert!(v[1] > 1.8, "L1 prefetch speedup: {:.2}", v[1]);
        assert!(
            v[2] >= v[1] * 0.95,
            "L2+TLB at least comparable: {:.2} vs {:.2}",
            v[2],
            v[1]
        );
        assert!(
            v[3] >= v[2],
            "large distance best: {:.2} vs {:.2}",
            v[3],
            v[2]
        );
        assert!(v[4] <= v[3] + 1e-9, "no TLB prefetch slightly worse");
    }
}
