//! # xt-workloads — benchmark kernels for the XT-910 evaluation (§X)
//!
//! From-scratch implementations of the algorithmic content of every
//! benchmark suite the paper evaluates:
//!
//! * [`coremark`] — the four CoreMark kernels: linked-list processing,
//!   matrix manipulation, state machine, CRC (Fig. 17),
//! * [`eembc`] — EEMBC-class embedded kernels: autocorrelation,
//!   convolutional encoder, Viterbi decoder, RGB conversion, FIR filter
//!   (Fig. 18),
//! * [`nbench`] — NBench-class kernels: numeric sort, string sort,
//!   bitfield, Fourier series, LU decomposition, IDEA-class cipher,
//!   neural-net dot products (Fig. 19),
//! * [`stream`] — STREAM copy/scale/add/triad for the prefetch study
//!   (Fig. 21),
//! * [`blockchain`] — a hash-verification kernel standing in for the
//!   Alibaba Cloud blockchain-transaction acceleration (§I),
//! * [`ai`] — int16/f16 multiply-accumulate kernels for the vector-MAC
//!   comparison (§X),
//! * [`spec_like`] — a large-footprint, L2-miss-heavy macro mix for the
//!   SPECInt-per-GHz-style system metric,
//! * [`vecbench`] — memcpy/saxpy/dot/matmul written as canonical
//!   counted loops so one IR source sweeps the `rv64gc|rv64gcv ×
//!   base|tuned` grid of the Figs. 18–20 artifact (`xt-figures`),
//! * [`sched`] — a supervisor workload: timer-interrupt round-robin
//!   scheduler on hart 0 plus MSIP IPI receivers on harts 1..n,
//!   exercising the asynchronous-interrupt path end to end
//!   (docs/INTERRUPTS.md).
//!
//! Every kernel is self-checking: [`Kernel::expected`] holds the value
//! the guest must produce, and the crate's tests run each kernel through
//! the functional emulator. Kernels built from the IR compile under both
//! toolchain modes ([`xt_compiler::CompileOpts`]), which is what the
//! Fig. 20 experiment sweeps.

#![forbid(unsafe_code)]

pub mod ai;
pub mod blockchain;
pub mod coremark;
pub mod eembc;
pub mod nbench;
pub mod sched;
pub mod spec_like;
pub mod stream;
pub mod vecbench;

use xt_asm::Program;

/// A runnable, self-checking benchmark kernel.
#[derive(Clone, Debug)]
pub struct Kernel {
    /// Kernel name (used in reports and figures).
    pub name: &'static str,
    /// The guest program.
    pub program: Program,
    /// Expected exit code (self-check).
    pub expected: Option<u64>,
    /// Abstract work units completed (for /MHz-style score scaling).
    pub work: u64,
}

impl Kernel {
    /// Runs the kernel functionally and verifies the self-check.
    ///
    /// # Panics
    ///
    /// Panics if the guest fails, exceeds `fuel`, or produces the wrong
    /// answer — used by tests and the bench harness preflight.
    pub fn verify(&self, fuel: u64) -> u64 {
        let mut emu = xt_emu::Emulator::new();
        emu.load(&self.program);
        let got = emu
            .run(fuel)
            .unwrap_or_else(|e| panic!("{}: {e}", self.name));
        if let Some(want) = self.expected {
            assert_eq!(got, want, "{}: wrong result", self.name);
        }
        got
    }
}

/// The workspace-wide deterministic PRNG; workload data generation is
/// bit-for-bit reproducible across runs and platforms because every
/// kernel seeds one of these with a fixed constant.
pub use xt_harness::Rng;

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-word FNV-1a fold of a kernel's data image + expected value —
    /// a cheap fingerprint of everything the PRNG influenced.
    fn kernel_checksum(k: &Kernel) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |byte: u8| {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        for b in k.program.data.iter().chain(&k.program.text) {
            mix(*b);
        }
        for b in k.expected.unwrap_or(u64::MAX).to_le_bytes() {
            mix(b);
        }
        for b in k.work.to_le_bytes() {
            mix(b);
        }
        h
    }

    /// Satellite guarantee: two same-seed generations of every kernel
    /// family produce identical data images (the harness PRNG is the
    /// only randomness source, and it is deterministic).
    #[test]
    fn same_seed_generation_is_bit_identical() {
        use xt_compiler::CompileOpts;
        let build = || {
            vec![
                crate::coremark::list(&CompileOpts::optimized()),
                crate::coremark::crc(&CompileOpts::optimized()),
                crate::eembc::fir(&CompileOpts::optimized()),
                crate::nbench::numsort(&CompileOpts::optimized()),
                crate::ai::dot_vector(),
                crate::blockchain::hash_verify(true),
                crate::spec_like::spec_like(),
                crate::stream::stream(1024),
            ]
        };
        let (a, b) = (build(), build());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                kernel_checksum(x),
                kernel_checksum(y),
                "{}: same-seed generation must be bit-identical",
                x.name
            );
        }
    }
}
