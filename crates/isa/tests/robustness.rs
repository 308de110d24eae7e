//! Robustness properties: the decoders are total functions (they never
//! panic on arbitrary bits) and every decodable instruction has a
//! non-empty disassembly.
//!
//! Ported from proptest to the in-tree `xt-harness` engine. Default
//! seed for this suite: `0x15A0_0002` (fixed); override or replay with
//! `XT_HARNESS_SEED=<seed> cargo test`. Runs 2000 cases per property,
//! matching the original `ProptestConfig::with_cases(2000)`. A
//! deterministic sweep over every (funct7, funct3, opcode) combination
//! pins what the decoder accepts and reads.

use xt_harness::gen;
use xt_harness::prop::{check_with, Config};
use xt_isa::{decode, decode_compressed};

const SEED: u64 = 0x15A0_0002;

fn cfg() -> Config {
    Config::seeded_cases(SEED, 2000)
}

#[test]
fn decode_never_panics() {
    check_with(&cfg(), "decode_never_panics", &gen::any::<u32>(), |&w| {
        // decoding arbitrary bits must cleanly return Ok or Err
        let _ = decode(w);
    });
}

#[test]
fn compressed_decode_never_panics() {
    check_with(
        &cfg(),
        "compressed_decode_never_panics",
        &gen::any::<u16>(),
        |&h| {
            let _ = decode_compressed(h);
        },
    );
}

#[test]
fn every_decoded_instruction_disassembles() {
    check_with(
        &cfg(),
        "every_decoded_instruction_disassembles",
        &gen::any::<u32>(),
        |&w| {
            if let Ok(inst) = decode(w) {
                let text = inst.to_string();
                assert!(!text.is_empty());
                assert!(text.starts_with(inst.op.mnemonic().chars().next().unwrap()));
            }
        },
    );
}

#[test]
fn decoded_operands_in_range() {
    check_with(
        &cfg(),
        "decoded_operands_in_range",
        &gen::any::<u32>(),
        |&w| {
            if let Ok(inst) = decode(w) {
                assert!(inst.rd < 32);
                assert!(inst.rs1 < 32);
                assert!(inst.rs2 < 32);
                assert!(inst.rs3 < 32);
                assert!(inst.len == 2 || inst.len == 4);
            }
        },
    );
}

#[test]
fn reencoding_decoded_words_is_stable() {
    check_with(
        &cfg(),
        "reencoding_decoded_words_is_stable",
        &gen::any::<u32>(),
        |&w| {
            // decode -> encode -> decode must be a fixed point (the encoder
            // may canonicalize, but the second decode must agree with the
            // first)
            if let Ok(i1) = decode(w) {
                if let Ok(w2) = xt_isa::encode::encode(&i1) {
                    let i2 = decode(w2).expect("re-encoded word decodes");
                    assert_eq!(i1, i2);
                }
            }
        },
    );
}

/// FNV-1a digest of what `decode` makes of every (funct7, funct3, opcode)
/// combination under a few register-field and rs2-selector patterns: for
/// each word, whether it decodes and, if it does, the op, every operand
/// and the disassembly. A change to the accepted set, a decoded field or
/// the text fails it.
const DECODE_SWEEP_DIGEST: u64 = 0x28d8_1a85_0294_0d2d;

#[test]
fn decode_sweep_is_pinned_and_every_accepted_word_reencodes() {
    const FNV_PRIME: u64 = 0x100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    };
    let (mut words, mut accepted) = (0u32, 0u32);
    for f7 in 0..128u32 {
        for f3 in 0..8u32 {
            for opcode in 0..128u32 {
                for (rd, rs1) in [(0u32, 0u32), (1, 31), (8, 17)] {
                    for rs2 in [0u32, 1, 2, 3, 5, 26] {
                        let w = f7 << 25 | rs2 << 20 | rs1 << 15 | f3 << 12 | rd << 7 | opcode;
                        words += 1;
                        eat(&w.to_le_bytes());
                        let Ok(i) = decode(w) else {
                            eat(&[0xff]);
                            continue;
                        };
                        accepted += 1;
                        let text = i.to_string();
                        assert!(!text.is_empty(), "{w:#010x}");
                        let again =
                            xt_isa::encode::encode(&i).unwrap_or_else(|e| panic!("{w:#010x}: {e}"));
                        assert_eq!(
                            decode(again),
                            Ok(i),
                            "{w:#010x} re-encoded as {again:#010x}"
                        );
                        eat(&(i.op as u16).to_le_bytes());
                        eat(&[i.rd, i.rs1, i.rs2, i.rs3, i.len]);
                        eat(&i.imm.to_le_bytes());
                        eat(text.as_bytes());
                    }
                }
            }
        }
    }
    assert_eq!(words, 128 * 8 * 128 * 18);
    assert!(accepted > 0);
    assert_eq!(
        h, DECODE_SWEEP_DIGEST,
        "decode sweep digest {h:#018x} ({accepted} of {words} words accepted)"
    );
}
