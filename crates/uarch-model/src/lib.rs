//! # xt-uarch-model — analytical PPA model for Table II
//!
//! The paper's Table II reports post-layout silicon results in TSMC
//! 12nm FinFET: 2.0-2.5 GHz, 0.6 mm² (scalar) / 0.8 mm² (with the
//! vector unit) per core excluding L2, and ~100 µW/MHz dynamic power.
//! Silicon cannot be simulated here, so this crate provides a
//! documented, structure-driven *analytical* model: per-block area and
//! power densities calibrated so the XT-910 configuration lands on the
//! published numbers, with the structure scaling (SRAM bits, physical
//! registers, issue width) driving everything else. `xt-bench` builds
//! the Table II figure of the `xt-figures` artifact from this model and
//! labels it as modeled, not measured.

#![forbid(unsafe_code)]

/// Operating condition (Table II footnotes a/b).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Corner {
    /// LVT standard cells, ULVT SRAM, 0.8 V — 2.0 GHz.
    LvtNominal,
    /// 30% ULVT cells, ULVT SRAM, 1.0 V boost — 2.5 GHz.
    UlvtBoost,
    /// The 7 nm experiment quoted in §II — 2.8 GHz.
    N7,
}

/// Structural inputs to the model.
#[derive(Clone, Copy, Debug)]
pub struct UarchParams {
    /// L1 I-cache KiB.
    pub l1i_kib: u32,
    /// L1 D-cache KiB.
    pub l1d_kib: u32,
    /// Re-order buffer entries.
    pub rob_entries: u32,
    /// Physical integer + FP registers.
    pub phys_regs: u32,
    /// Decode width.
    pub decode_width: u32,
    /// Issue width.
    pub issue_width: u32,
    /// Vector unit present, with this VLEN (0 = none).
    pub vlen_bits: u32,
}

impl UarchParams {
    /// The shipping XT-910 configuration.
    pub fn xt910(vector: bool) -> Self {
        UarchParams {
            l1i_kib: 64,
            l1d_kib: 64,
            rob_entries: 192,
            phys_regs: 96 + 64,
            decode_width: 3,
            issue_width: 8,
            vlen_bits: if vector { 128 } else { 0 },
        }
    }
}

/// Modeled PPA outputs.
#[derive(Clone, Copy, Debug)]
pub struct Ppa {
    /// Maximum clock frequency in GHz.
    pub freq_ghz: f64,
    /// Core area in mm² (excluding L2).
    pub area_mm2: f64,
    /// Dynamic power in µW/MHz.
    pub uw_per_mhz: f64,
}

// Calibration constants (12 nm): chosen so that the XT-910 configuration
// reproduces Table II. Units are mm² and µW/MHz per structural unit.
const AREA_BASE: f64 = 0.076; // fetch/decode/control fabric
const AREA_PER_KIB_SRAM: f64 = 0.0016; // L1 arrays + tags
const AREA_PER_ROB_ENTRY: f64 = 0.0006;
const AREA_PER_PHYS_REG: f64 = 0.00055;
const AREA_PER_ISSUE_SLOT: f64 = 0.0145;
const AREA_VEC_PER_SLICE: f64 = 0.1; // 64-bit slice: regfile + 2 pipes
const POWER_BASE: f64 = 24.0;
const POWER_PER_KIB_SRAM: f64 = 0.22;
const POWER_PER_ISSUE_SLOT: f64 = 5.6;
const POWER_PER_ROB_ENTRY: f64 = 0.016;

/// Evaluates the analytical model.
pub fn evaluate(p: &UarchParams, corner: Corner) -> Ppa {
    let sram_kib = (p.l1i_kib + p.l1d_kib) as f64;
    let slices = (p.vlen_bits / 64) as f64;
    let area = AREA_BASE
        + AREA_PER_KIB_SRAM * sram_kib
        + AREA_PER_ROB_ENTRY * p.rob_entries as f64
        + AREA_PER_PHYS_REG * p.phys_regs as f64
        + AREA_PER_ISSUE_SLOT * p.issue_width as f64
        + AREA_VEC_PER_SLICE * slices;
    let scale = match corner {
        Corner::LvtNominal => 1.0,
        Corner::UlvtBoost => 1.0,
        Corner::N7 => 0.55, // ~45% area shrink 12nm -> 7nm
    };
    let freq = match corner {
        Corner::LvtNominal => 2.0,
        Corner::UlvtBoost => 2.5,
        Corner::N7 => 2.8,
    };
    let power = POWER_BASE
        + POWER_PER_KIB_SRAM * sram_kib
        + POWER_PER_ISSUE_SLOT * p.issue_width as f64
        + POWER_PER_ROB_ENTRY * p.rob_entries as f64;
    Ppa {
        freq_ghz: freq,
        area_mm2: area * scale,
        uw_per_mhz: power,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_hits_table2() {
        let vec = evaluate(&UarchParams::xt910(true), Corner::LvtNominal);
        let novec = evaluate(&UarchParams::xt910(false), Corner::LvtNominal);
        assert!(
            (vec.area_mm2 - 0.8).abs() < 0.05,
            "with-vector area ~0.8 mm2, got {:.3}",
            vec.area_mm2
        );
        assert!(
            (novec.area_mm2 - 0.6).abs() < 0.05,
            "scalar area ~0.6 mm2, got {:.3}",
            novec.area_mm2
        );
        assert!(
            (vec.uw_per_mhz - 100.0).abs() < 15.0,
            "~100 uW/MHz, got {:.1}",
            vec.uw_per_mhz
        );
        assert_eq!(vec.freq_ghz, 2.0);
        assert_eq!(
            evaluate(&UarchParams::xt910(true), Corner::UlvtBoost).freq_ghz,
            2.5
        );
        assert_eq!(evaluate(&UarchParams::xt910(true), Corner::N7).freq_ghz, 2.8);
    }

    #[test]
    fn structures_scale_monotonically() {
        let base = UarchParams::xt910(true);
        let mut big = base;
        big.rob_entries *= 2;
        big.l1d_kib *= 2;
        let a = evaluate(&base, Corner::LvtNominal);
        let b = evaluate(&big, Corner::LvtNominal);
        assert!(b.area_mm2 > a.area_mm2);
        assert!(b.uw_per_mhz > a.uw_per_mhz);
    }
}
