//! AI inference kernels on the vector unit (paper §VII/§X): the same
//! int16 dot product as scalar code, with the custom 16-bit MAC, and on
//! the RVV 0.7.1 vector unit — plus the half-precision variant the
//! Cortex-A73's NEON cannot run.
//!
//! ```sh
//! cargo run --release --example vector_ai
//! ```

use xt_core::{CoreConfig, OooSession};
use xt_workloads::ai;

fn main() {
    let variants = [
        ("scalar RV64 (lh/mul/add)", ai::dot_scalar(false)),
        ("scalar + x.mulah custom MAC", ai::dot_scalar(true)),
        ("RVV 0.7.1 vwmacc.vv", ai::dot_vector()),
        ("RVV 0.7.1 f16 vfmacc.vv", ai::dot_f16()),
    ];
    println!("int16/f16 dot products on the XT-910 model\n");
    println!(
        "{:<30} {:>10} {:>8} {:>12}",
        "variant", "cycles", "IPC", "MACs/cycle"
    );
    let mut scalar_cycles = 0;
    for (name, k) in variants {
        // verify functionally first (self-checking kernels)
        k.verify(100_000_000);
        let r = OooSession::new(&k.program, &CoreConfig::xt910(), 100_000_000).run_to_end();
        if scalar_cycles == 0 {
            scalar_cycles = r.perf.cycles;
        }
        println!(
            "{:<30} {:>10} {:>8.2} {:>12.3}",
            name,
            r.perf.cycles,
            r.perf.ipc(),
            k.work as f64 / r.perf.cycles as f64,
        );
    }
    println!(
        "\npeak capability: {} bits of results/cycle = 16x 16-bit MACs (paper SX)",
        xt_vector::result_bits_per_cycle(&xt_vector::VectorConfig::default())
    );
}
