//! RVV 0.7.1 vector-configuration state (`vtype`, SEW, LMUL).
//!
//! The XT-910 implements the 0.7.1 *stable release* of the vector
//! specification (paper §VII). In 0.7.1 the `vtype` CSR holds
//! `vsew[2:0]` (bits 4:2) and `vlmul[1:0]` (bits 1:0); `VLEN = SLEN = 128`
//! on the recommended two-slice configuration.

/// Standard element width.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Sew {
    /// 8-bit elements.
    E8,
    /// 16-bit elements.
    E16,
    /// 32-bit elements.
    E32,
    /// 64-bit elements.
    E64,
}

impl Sew {
    /// Element width in bits.
    pub fn bits(self) -> u32 {
        match self {
            Sew::E8 => 8,
            Sew::E16 => 16,
            Sew::E32 => 32,
            Sew::E64 => 64,
        }
    }

    /// Element width in bytes.
    pub fn bytes(self) -> u32 {
        self.bits() / 8
    }

    /// Encodes into the 0.7.1 `vsew` field (log2(bits) - 3).
    pub fn encode(self) -> u32 {
        match self {
            Sew::E8 => 0,
            Sew::E16 => 1,
            Sew::E32 => 2,
            Sew::E64 => 3,
        }
    }

    /// Decodes from the `vsew` field.
    pub fn decode(v: u32) -> Option<Sew> {
        Some(match v & 0x7 {
            0 => Sew::E8,
            1 => Sew::E16,
            2 => Sew::E32,
            3 => Sew::E64,
            _ => return None,
        })
    }
}

/// Decoded `vtype` register.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VType {
    /// Selected element width.
    pub sew: Sew,
    /// Register-group multiplier (1, 2, 4 or 8).
    pub lmul: u8,
    /// Set when an unsupported `vtype` was requested (`vill`).
    pub vill: bool,
}

impl Default for VType {
    fn default() -> Self {
        VType {
            sew: Sew::E8,
            lmul: 1,
            vill: false,
        }
    }
}

impl VType {
    /// Decodes the 0.7.1 `vtype` bit layout (`vlmul` bits 1:0, `vsew`
    /// 4:2, `vill` bit XLEN-1). A set `vill` bit, like an unsupported
    /// `vsew`, decodes to the one illegal value [`VType::to_bits`]
    /// writes back.
    pub fn from_bits(bits: u64) -> VType {
        let lmul = 1u8 << (bits & 0x3);
        let sew = Sew::decode(((bits >> 2) & 0x7) as u32);
        match sew {
            Some(sew) if bits >> 63 == 0 => VType {
                sew,
                lmul,
                vill: false,
            },
            _ => VType {
                sew: Sew::E8,
                lmul: 1,
                vill: true,
            },
        }
    }

    /// Encodes back into `vtype` bits (`vill` sets the sign bit).
    pub fn to_bits(self) -> u64 {
        let lmul_enc = self.lmul.trailing_zeros() as u64;
        let v = (self.sew.encode() as u64) << 2 | lmul_enc;
        if self.vill {
            v | (1 << 63)
        } else {
            v
        }
    }

    /// `VLMAX` for a given `VLEN` in bits: `VLEN / SEW * LMUL`.
    pub fn vlmax(self, vlen_bits: u32) -> u64 {
        (vlen_bits / self.sew.bits()) as u64 * self.lmul as u64
    }

    /// Applies the 0.7.1 `vsetvl{i}` rule: `vl = min(avl, VLMAX)`.
    pub fn compute_vl(self, avl: u64, vlen_bits: u32) -> u64 {
        avl.min(self.vlmax(vlen_bits))
    }
}

/// Builds a `vtypei` immediate for `vsetvli` from SEW and LMUL.
///
/// # Panics
///
/// Panics if `lmul` is not 1, 2, 4 or 8.
pub fn vtypei(sew: Sew, lmul: u8) -> i64 {
    assert!(matches!(lmul, 1 | 2 | 4 | 8), "invalid LMUL");
    ((sew.encode() << 2) | lmul.trailing_zeros()) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vtype_roundtrip() {
        for sew in [Sew::E8, Sew::E16, Sew::E32, Sew::E64] {
            for lmul in [1u8, 2, 4, 8] {
                let v = VType {
                    sew,
                    lmul,
                    vill: false,
                };
                assert_eq!(VType::from_bits(v.to_bits()), v);
            }
        }
        let illegal = VType {
            vill: true,
            ..VType::default()
        };
        assert_eq!(VType::from_bits(illegal.to_bits()), illegal);
        assert_eq!(VType::from_bits(1 << 63 | vtypei(Sew::E32, 2) as u64), illegal);
    }

    #[test]
    fn vlmax_128() {
        let v = VType {
            sew: Sew::E16,
            lmul: 1,
            vill: false,
        };
        // VLEN=128, SEW=16 -> 8 elements per register.
        assert_eq!(v.vlmax(128), 8);
        assert_eq!(v.compute_vl(5, 128), 5);
        assert_eq!(v.compute_vl(100, 128), 8);
    }

    #[test]
    fn vtypei_builder_matches_decoder() {
        let imm = vtypei(Sew::E32, 2);
        let v = VType::from_bits(imm as u64);
        assert_eq!(v.sew, Sew::E32);
        assert_eq!(v.lmul, 2);
        assert!(!v.vill);
    }
}
