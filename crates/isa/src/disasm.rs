//! Textual disassembly of decoded instructions.

use crate::format::Imm;
use crate::inst::Inst;
use crate::op::{ExecClass, RegFile};
use crate::reg::{FPR_ABI_NAMES, GPR_ABI_NAMES};
use std::fmt;

fn reg_name(rf: RegFile, idx: u8) -> String {
    match rf {
        RegFile::Int => GPR_ABI_NAMES[idx as usize].to_string(),
        RegFile::Fp => FPR_ABI_NAMES[idx as usize].to_string(),
        RegFile::Vec => format!("v{idx}"),
        RegFile::None => String::new(),
    }
}

/// Formats `inst` in a conventional `mnemonic rd, rs1, rs2/imm` style,
/// the operands laid out by the op's row: its class, register files and
/// format.
pub fn fmt_inst(inst: &Inst, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let t = inst.op.traits_of();
    let m = inst.op.mnemonic();
    let class = inst.op.exec_class();
    let (rd, rs1, rs2) = (
        reg_name(t.rd, inst.rd),
        reg_name(t.rs1, inst.rs1),
        reg_name(t.rs2, inst.rs2),
    );
    match class {
        ExecClass::Load if !inst.op.is_custom() => write!(f, "{m} {rd}, {}({rs1})", inst.imm),
        ExecClass::VecLoad | ExecClass::VecStore => {
            // the data register, the base, then a stride (rs2) or an index
            // vector (vs2: rs2 of a store, rs3 of a load) if the op has one
            let data = if class == ExecClass::VecStore {
                reg_name(t.rs3, inst.rs3)
            } else {
                rd
            };
            write!(f, "{m} {data}, ({rs1})")?;
            if t.rs2 != RegFile::None {
                write!(f, ", {rs2}")
            } else if class == ExecClass::VecLoad && t.rs3 != RegFile::None {
                write!(f, ", {}", reg_name(t.rs3, inst.rs3))
            } else {
                Ok(())
            }
        }
        ExecClass::Store if !inst.op.is_custom() => write!(f, "{m} {rs2}, {}({rs1})", inst.imm),
        ExecClass::Branch => write!(f, "{m} {rs1}, {rs2}, {}", inst.imm),
        ExecClass::Jump => write!(f, "{m} {rd}, {}", inst.imm),
        ExecClass::JumpInd => write!(f, "{m} {rd}, {}({rs1})", inst.imm),
        ExecClass::Csr => {
            let csr = crate::csr::name(inst.imm as u16)
                .map(str::to_owned)
                .unwrap_or_else(|| format!("{:#x}", inst.imm));
            if t.rs1 == RegFile::None {
                // the immediate forms: a 5-bit uimm in the rs1 field
                write!(f, "{m} {rd}, {csr}, {}", inst.rs1)
            } else {
                write!(f, "{m} {rd}, {csr}, {rs1}")
            }
        }
        _ => {
            // Generic: mnemonic then any present operands.
            write!(f, "{m}")?;
            let mut sep = " ";
            for (rf, name) in [(t.rd, rd), (t.rs1, rs1), (t.rs2, rs2)] {
                if rf != RegFile::None {
                    write!(f, "{sep}{name}")?;
                    sep = ", ";
                }
            }
            if inst.op.format().imm != Imm::None {
                write!(f, "{sep}{}", inst.imm)?;
            }
            Ok(())
        }
    }
}

/// Disassembles one instruction to a `String`.
pub fn disasm(inst: &Inst) -> String {
    inst.to_string()
}

#[cfg(test)]
mod tests {
    use crate::inst::Inst;
    use crate::op::Op;

    #[test]
    fn formats_common_shapes() {
        assert_eq!(
            Inst::new(Op::Addi).rd(10).rs1(10).imm(1).to_string(),
            "addi a0, a0, 1"
        );
        assert_eq!(
            Inst::new(Op::Ld).rd(10).rs1(2).imm(8).to_string(),
            "ld a0, 8(sp)"
        );
        assert_eq!(
            Inst::new(Op::Sd).rs1(2).rs2(10).imm(-16).to_string(),
            "sd a0, -16(sp)"
        );
        assert_eq!(
            Inst::new(Op::Beq).rs1(5).rs2(6).imm(-8).to_string(),
            "beq t0, t1, -8"
        );
        assert_eq!(
            Inst::new(Op::VaddVV).rd(1).rs1(2).rs2(3).to_string(),
            "vadd.vv v1, v2, v3"
        );
    }

    /// The operands the layouts once dropped: the uimm of the CSR
    /// immediate forms, a strided store's stride register and the index
    /// vector of the indexed load and store.
    #[test]
    fn formats_every_operand() {
        let text = |w: u32| crate::decode(w).unwrap().to_string();
        assert_eq!(text(0x3001_5573), "csrrwi a0, mstatus, 2");
        assert_eq!(text(0x3001_6573), "csrrsi a0, mstatus, 2");
        assert_eq!(text(0x300f_f073), "csrrci zero, mstatus, 31");
        assert_eq!(text(0x0a20_f027), "vsse.v v0, (ra), sp");
        assert_eq!(text(0x0e30_f107), "vlxe.v v2, (ra), v3");
        assert_eq!(text(0x0e30_f127), "vsxe.v v2, (ra), v3");
    }

    #[test]
    fn nonempty_for_all_ops() {
        // Debug-representation-never-empty spirit: every op formats.
        let i = Inst::new(Op::XMula).rd(1).rs1(2).rs2(3).rs3(1);
        assert!(!i.to_string().is_empty());
    }
}
