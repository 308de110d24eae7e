//! Functional execution of the RVV 0.7.1 vector subset.
//!
//! Vector state lives in [`crate::cpu::Cpu`]: 32 registers of
//! `vlen_bits/8` bytes in one flat array, plus `vl` and `vtype`.
//! Elements are stored little-endian. Register groups (`LMUL > 1`) and
//! widening destinations index elements across consecutive registers,
//! as the spec requires ([`crate::cpu::Cpu::read_elem`]).

use crate::exec::{Emulator, Raised, Trap};
use crate::trace::MemAccess;
use xt_isa::vector::{Sew, VType};
use xt_isa::{Inst, Op};

const ILLEGAL: Trap = Trap { cause: 2, tval: 0 };

fn sext_to_64(v: u64, sew: Sew) -> i64 {
    let sh = 64 - sew.bits();
    ((v as i64) << sh) >> sh
}

fn trunc(v: u64, sew: Sew) -> u64 {
    if sew.bits() >= 64 {
        v
    } else {
        v & ((1u64 << sew.bits()) - 1)
    }
}

fn double_sew(sew: Sew) -> Result<Sew, Trap> {
    Ok(match sew {
        Sew::E8 => Sew::E16,
        Sew::E16 => Sew::E32,
        Sew::E32 => Sew::E64,
        Sew::E64 => return Err(ILLEGAL),
    })
}

/// Executes one vector instruction. A vector load or store writes its
/// memory access record to `mem`, which [`Emulator`]'s execute has set
/// to `None` and points at the caller's record; other ops leave it.
///
/// # Errors
///
/// [`Raised`] for an illegal-instruction or page-fault trap, which waits
/// in the emulator's trap scratch field, as [`Emulator`]'s own execute
/// leaves it: the result fits in a register.
pub fn exec_vector(
    emu: &mut Emulator,
    inst: Inst,
    mem: &mut Option<MemAccess>,
) -> Result<(), Raised> {
    exec_op(emu, inst, mem).map_err(|t| emu.raise(t))
}

fn exec_op(emu: &mut Emulator, inst: Inst, mem: &mut Option<MemAccess>) -> Result<(), Trap> {
    use Op::*;
    match inst.op {
        Vsetvli | Vsetvl => {
            let bits = if inst.op == Vsetvli {
                inst.imm as u64
            } else {
                emu.cpu.rx(inst.rs2)
            };
            let vtype = VType::from_bits(bits);
            if vtype.vill {
                return Err(ILLEGAL);
            }
            let vlmax = vtype.vlmax(emu.cpu.vlen_bits);
            // 0.7.1 rule: rs1 == x0 requests VLMAX.
            let avl = if inst.rs1 == 0 {
                vlmax
            } else {
                emu.cpu.rx(inst.rs1)
            };
            let vl = avl.min(vlmax);
            emu.cpu.vtype = vtype;
            emu.cpu.vl = vl;
            emu.cpu.wx(inst.rd, vl);
            Ok(())
        }
        _ => {
            if emu.cpu.vtype.vill {
                return Err(ILLEGAL);
            }
            exec_data_op(emu, inst, mem)
        }
    }
}

fn exec_data_op(emu: &mut Emulator, inst: Inst, mem: &mut Option<MemAccess>) -> Result<(), Trap> {
    use Op::*;
    let sew = emu.cpu.vtype.sew;
    let vl = emu.cpu.vl;
    let ebytes = sew.bytes() as u64;

    match inst.op {
        // ---- memory ----
        Vle | Vlse | Vlxe => {
            let base = emu.cpu.rx(inst.rs1);
            let mut first_pa = 0;
            for i in 0..vl {
                let addr = match inst.op {
                    Vle => base.wrapping_add(i * ebytes),
                    Vlse => base.wrapping_add(emu.cpu.rx(inst.rs2).wrapping_mul(i)),
                    _ => base.wrapping_add(emu.cpu.read_elem(inst.rs3, i, sew)),
                };
                let (raw, pa) = emu.load_mem_pub(addr, ebytes as usize)?;
                if i == 0 {
                    first_pa = pa;
                }
                emu.cpu.write_elem(inst.rd, i, sew, raw);
            }
            *mem = Some(MemAccess::load(
                base,
                first_pa,
                (vl * ebytes).min(u16::MAX as u64) as u16,
            ));
            Ok(())
        }
        Vse | Vsse | Vsxe => {
            let base = emu.cpu.rx(inst.rs1);
            let mut first_pa = 0;
            for i in 0..vl {
                let addr = match inst.op {
                    Vse => base.wrapping_add(i * ebytes),
                    Vsse => base.wrapping_add(emu.cpu.rx(inst.rs2).wrapping_mul(i)),
                    _ => base.wrapping_add(emu.cpu.read_elem(inst.rs2, i, sew)),
                };
                let val = emu.cpu.read_elem(inst.rs3, i, sew);
                let pa = emu.store_mem_pub(addr, val, ebytes as usize)?;
                if i == 0 {
                    first_pa = pa;
                }
            }
            *mem = Some(MemAccess::store(
                base,
                first_pa,
                (vl * ebytes).min(u16::MAX as u64) as u16,
            ));
            Ok(())
        }
        // ---- integer elementwise ----
        VaddVV | VsubVV | VandVV | VorVV | VxorVV | VsllVV | VsrlVV | VsraVV | VminVV | VminuVV
        | VmaxVV | VmaxuVV | VmulVV | VmulhVV | VdivVV | VdivuVV | VremVV => {
            for i in 0..vl {
                let a = emu.cpu.read_elem(inst.rs1, i, sew); // vs2
                let b = emu.cpu.read_elem(inst.rs2, i, sew); // vs1
                let v = int_binop(inst.op, a, b, sew);
                emu.cpu.write_elem(inst.rd, i, sew, trunc(v, sew));
            }
            Ok(())
        }
        VaddVX | VsubVX | VrsubVX | VandVX | VorVX | VxorVX | VsllVX | VsrlVX | VsraVX => {
            let s = emu.cpu.rx(inst.rs2);
            for i in 0..vl {
                let a = emu.cpu.read_elem(inst.rs1, i, sew);
                let v = match inst.op {
                    VaddVX => a.wrapping_add(s),
                    VsubVX => a.wrapping_sub(s),
                    VrsubVX => s.wrapping_sub(a),
                    VandVX => a & s,
                    VorVX => a | s,
                    VxorVX => a ^ s,
                    VsllVX => a << (s & (sew.bits() as u64 - 1)),
                    VsrlVX => trunc(a, sew) >> (s & (sew.bits() as u64 - 1)),
                    _ => (sext_to_64(a, sew) >> (s & (sew.bits() as u64 - 1))) as u64,
                };
                emu.cpu.write_elem(inst.rd, i, sew, trunc(v, sew));
            }
            Ok(())
        }
        VaddVI => {
            for i in 0..vl {
                let a = emu.cpu.read_elem(inst.rs1, i, sew);
                emu.cpu
                    .write_elem(inst.rd, i, sew, trunc(a.wrapping_add(inst.imm as u64), sew));
            }
            Ok(())
        }
        VmulVX => {
            let s = emu.cpu.rx(inst.rs2);
            for i in 0..vl {
                let a = emu.cpu.read_elem(inst.rs1, i, sew);
                emu.cpu
                    .write_elem(inst.rd, i, sew, trunc(a.wrapping_mul(s), sew));
            }
            Ok(())
        }
        VmaccVV | VnmsacVV => {
            for i in 0..vl {
                let a = sext_to_64(emu.cpu.read_elem(inst.rs1, i, sew), sew);
                let b = sext_to_64(emu.cpu.read_elem(inst.rs2, i, sew), sew);
                let acc = sext_to_64(emu.cpu.read_elem(inst.rd, i, sew), sew);
                let v = if inst.op == VmaccVV {
                    acc.wrapping_add(a.wrapping_mul(b))
                } else {
                    acc.wrapping_sub(a.wrapping_mul(b))
                };
                emu.cpu.write_elem(inst.rd, i, sew, trunc(v as u64, sew));
            }
            Ok(())
        }
        VmaccVX => {
            let s = emu.cpu.rx(inst.rs2) as i64;
            for i in 0..vl {
                let a = sext_to_64(emu.cpu.read_elem(inst.rs1, i, sew), sew);
                let acc = sext_to_64(emu.cpu.read_elem(inst.rd, i, sew), sew);
                emu.cpu.write_elem(
                    inst.rd,
                    i,
                    sew,
                    trunc(acc.wrapping_add(a.wrapping_mul(s)) as u64, sew),
                );
            }
            Ok(())
        }
        // ---- widening ----
        VwmulVV | VwmuluVV | VwmaccVV | VwmaccuVV => {
            let wsew = double_sew(sew)?;
            for i in 0..vl {
                let (a, b) = if matches!(inst.op, VwmuluVV | VwmaccuVV) {
                    (
                        emu.cpu.read_elem(inst.rs1, i, sew) as i64,
                        emu.cpu.read_elem(inst.rs2, i, sew) as i64,
                    )
                } else {
                    (
                        sext_to_64(emu.cpu.read_elem(inst.rs1, i, sew), sew),
                        sext_to_64(emu.cpu.read_elem(inst.rs2, i, sew), sew),
                    )
                };
                let prod = a.wrapping_mul(b);
                let v = match inst.op {
                    VwmulVV | VwmuluVV => prod,
                    _ => {
                        let acc = sext_to_64(emu.cpu.read_elem(inst.rd, i, wsew), wsew);
                        acc.wrapping_add(prod)
                    }
                };
                emu.cpu.write_elem(inst.rd, i, wsew, trunc(v as u64, wsew));
            }
            Ok(())
        }
        // ---- reductions / moves / permutation ----
        VredsumVS | VredmaxVS => {
            let mut acc = sext_to_64(emu.cpu.read_elem(inst.rs2, 0, sew), sew);
            for i in 0..vl {
                let e = sext_to_64(emu.cpu.read_elem(inst.rs1, i, sew), sew);
                acc = match inst.op {
                    VredsumVS => acc.wrapping_add(e),
                    _ => acc.max(e),
                };
            }
            emu.cpu.write_elem(inst.rd, 0, sew, trunc(acc as u64, sew));
            Ok(())
        }
        VmvVV => {
            for i in 0..vl {
                let v = emu.cpu.read_elem(inst.rs1, i, sew);
                emu.cpu.write_elem(inst.rd, i, sew, v);
            }
            Ok(())
        }
        VmvVX => {
            let s = emu.cpu.rx(inst.rs1);
            for i in 0..vl {
                emu.cpu.write_elem(inst.rd, i, sew, trunc(s, sew));
            }
            Ok(())
        }
        VmvVI => {
            for i in 0..vl {
                emu.cpu
                    .write_elem(inst.rd, i, sew, trunc(inst.imm as u64, sew));
            }
            Ok(())
        }
        VmvXS => {
            let v = sext_to_64(emu.cpu.read_elem(inst.rs1, 0, sew), sew);
            emu.cpu.wx(inst.rd, v as u64);
            Ok(())
        }
        VmvSX => {
            let s = emu.cpu.rx(inst.rs1);
            emu.cpu.write_elem(inst.rd, 0, sew, trunc(s, sew));
            Ok(())
        }
        Vslidedown | Vslideup => {
            let off = emu.cpu.rx(inst.rs2);
            let src: Vec<u64> = (0..vl)
                .map(|i| emu.cpu.read_elem(inst.rs1, i, sew))
                .collect();
            for i in 0..vl {
                let v = if inst.op == Vslidedown {
                    // a source index past `vl` (or past 2^64) reads 0
                    match i.checked_add(off) {
                        Some(j) if j < vl => src[j as usize],
                        _ => 0,
                    }
                } else if i >= off {
                    src[(i - off) as usize]
                } else {
                    emu.cpu.read_elem(inst.rd, i, sew)
                };
                emu.cpu.write_elem(inst.rd, i, sew, v);
            }
            Ok(())
        }
        // ---- floating point ----
        VfaddVV | VfsubVV | VfmulVV | VfdivVV | VfminVV | VfmaxVV => {
            for i in 0..vl {
                let a = emu.cpu.read_elem(inst.rs1, i, sew);
                let b = emu.cpu.read_elem(inst.rs2, i, sew);
                let v = fp_binop(inst.op, a, b, sew)?;
                emu.cpu.write_elem(inst.rd, i, sew, v);
            }
            Ok(())
        }
        VfaddVF | VfmulVF => {
            let s = emu.cpu.rf(inst.rs2);
            for i in 0..vl {
                let a = emu.cpu.read_elem(inst.rs1, i, sew);
                let op = if inst.op == VfaddVF { VfaddVV } else { VfmulVV };
                let v = fp_binop(op, a, scalar_to_sew(s, sew), sew)?;
                emu.cpu.write_elem(inst.rd, i, sew, v);
            }
            Ok(())
        }
        VfmaccVV | VfnmsacVV => {
            for i in 0..vl {
                let a = emu.cpu.read_elem(inst.rs1, i, sew);
                let b = emu.cpu.read_elem(inst.rs2, i, sew);
                let acc = emu.cpu.read_elem(inst.rd, i, sew);
                let v = fp_fma(a, b, acc, sew, inst.op == VfnmsacVV)?;
                emu.cpu.write_elem(inst.rd, i, sew, v);
            }
            Ok(())
        }
        VfmaccVF => {
            let s = scalar_to_sew(emu.cpu.rf(inst.rs2), sew);
            for i in 0..vl {
                let a = emu.cpu.read_elem(inst.rs1, i, sew);
                let acc = emu.cpu.read_elem(inst.rd, i, sew);
                let v = fp_fma(a, s, acc, sew, false)?;
                emu.cpu.write_elem(inst.rd, i, sew, v);
            }
            Ok(())
        }
        VfredsumVS => {
            let mut acc = emu.cpu.read_elem(inst.rs2, 0, sew);
            for i in 0..vl {
                let e = emu.cpu.read_elem(inst.rs1, i, sew);
                acc = fp_binop(VfaddVV, acc, e, sew)?;
            }
            emu.cpu.write_elem(inst.rd, 0, sew, acc);
            Ok(())
        }
        VfsqrtV => {
            for i in 0..vl {
                let a = emu.cpu.read_elem(inst.rs1, i, sew);
                let v = match sew {
                    Sew::E32 => (f32::from_bits(a as u32).sqrt()).to_bits() as u64,
                    Sew::E64 => f64::from_bits(a).sqrt().to_bits(),
                    Sew::E16 => {
                        crate::f16::f32_to_f16(crate::f16::f16_to_f32(a as u16).sqrt()) as u64
                    }
                    Sew::E8 => return Err(ILLEGAL),
                };
                emu.cpu.write_elem(inst.rd, i, sew, v);
            }
            Ok(())
        }
        _ => Err(ILLEGAL),
    }
}

fn int_binop(op: Op, a: u64, b: u64, sew: Sew) -> u64 {
    use Op::*;
    let (sa, sb) = (sext_to_64(a, sew), sext_to_64(b, sew));
    let shmask = sew.bits() as u64 - 1;
    match op {
        VaddVV => a.wrapping_add(b),
        VsubVV => a.wrapping_sub(b),
        VandVV => a & b,
        VorVV => a | b,
        VxorVV => a ^ b,
        VsllVV => a << (b & shmask),
        VsrlVV => trunc(a, sew) >> (b & shmask),
        VsraVV => (sa >> (b & shmask)) as u64,
        VminVV => sa.min(sb) as u64,
        VminuVV => trunc(a, sew).min(trunc(b, sew)),
        VmaxVV => sa.max(sb) as u64,
        VmaxuVV => trunc(a, sew).max(trunc(b, sew)),
        VmulVV => a.wrapping_mul(b),
        VmulhVV => (((sa as i128) * (sb as i128)) >> sew.bits()) as u64,
        VdivVV => {
            if sb == 0 {
                u64::MAX
            } else {
                sa.wrapping_div(sb) as u64
            }
        }
        VdivuVV => {
            let (ua, ub) = (trunc(a, sew), trunc(b, sew));
            ua.checked_div(ub).unwrap_or(u64::MAX)
        }
        VremVV => {
            if sb == 0 {
                sa as u64
            } else {
                sa.wrapping_rem(sb) as u64
            }
        }
        _ => unreachable!("not an int binop"),
    }
}

fn scalar_to_sew(bits: u64, sew: Sew) -> u64 {
    match sew {
        Sew::E64 => bits,
        Sew::E32 => bits & 0xffff_ffff,
        Sew::E16 => {
            // scalar FP register holds an f32 (NaN-boxed); convert down
            crate::f16::f32_to_f16(f32::from_bits(bits as u32)) as u64
        }
        Sew::E8 => bits & 0xff,
    }
}

fn fp_binop(op: Op, a: u64, b: u64, sew: Sew) -> Result<u64, Trap> {
    use Op::*;
    macro_rules! doit {
        ($fa:expr, $fb:expr, $back:expr) => {{
            let (x, y) = ($fa, $fb);
            let r = match op {
                VfaddVV => x + y,
                VfsubVV => x - y,
                VfmulVV => x * y,
                VfdivVV => x / y,
                VfminVV => x.min(y),
                VfmaxVV => x.max(y),
                _ => unreachable!(),
            };
            Ok($back(r))
        }};
    }
    match sew {
        Sew::E64 => doit!(f64::from_bits(a), f64::from_bits(b), |r: f64| r.to_bits()),
        Sew::E32 => doit!(
            f32::from_bits(a as u32),
            f32::from_bits(b as u32),
            |r: f32| r.to_bits() as u64
        ),
        Sew::E16 => doit!(
            crate::f16::f16_to_f32(a as u16),
            crate::f16::f16_to_f32(b as u16),
            |r: f32| crate::f16::f32_to_f16(r) as u64
        ),
        Sew::E8 => Err(ILLEGAL),
    }
}

fn fp_fma(a: u64, b: u64, acc: u64, sew: Sew, negate: bool) -> Result<u64, Trap> {
    let sign = if negate { -1.0 } else { 1.0 };
    Ok(match sew {
        Sew::E64 => {
            let v = (sign * f64::from_bits(a)).mul_add(f64::from_bits(b), f64::from_bits(acc));
            v.to_bits()
        }
        Sew::E32 => {
            let v = (sign as f32 * f32::from_bits(a as u32))
                .mul_add(f32::from_bits(b as u32), f32::from_bits(acc as u32));
            v.to_bits() as u64
        }
        Sew::E16 => {
            let v = (sign as f32 * crate::f16::f16_to_f32(a as u16)).mul_add(
                crate::f16::f16_to_f32(b as u16),
                crate::f16::f16_to_f32(acc as u16),
            );
            crate::f16::f32_to_f16(v) as u64
        }
        Sew::E8 => return Err(ILLEGAL),
    })
}
