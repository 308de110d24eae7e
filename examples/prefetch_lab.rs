//! Prefetch laboratory: sweep the multi-mode multi-stream prefetcher
//! (paper §V-C / Fig. 21) across configurations and memory latencies on
//! the STREAM workload.
//!
//! ```sh
//! cargo run --release --example prefetch_lab
//! ```

use xt_core::{CoreConfig, OooSession};
use xt_mem::{MemConfig, PrefetchConfig};
use xt_workloads::stream;

fn main() {
    let kernel = stream::stream(16 * 1024); // 128 KiB per array
    println!("STREAM, 3x128 KiB arrays, 256 KiB L2, XT-910 model\n");
    println!(
        "{:<26} {:>10} {:>10} {:>10}",
        "prefetch config", "100cy mem", "200cy mem", "400cy mem"
    );
    let configs: [(&str, PrefetchConfig); 5] = [
        ("off", PrefetchConfig::off()),
        ("L1 only, small", PrefetchConfig::l1_small()),
        ("L1+L2+TLB, small", PrefetchConfig::all_small()),
        ("L1+L2+TLB, large", PrefetchConfig::all_large()),
        ("L1+L2 large, no TLB", PrefetchConfig::no_tlb_large()),
    ];
    let mut baselines = [0u64; 3];
    for (name, pf) in configs {
        let mut row = format!("{name:<26}");
        for (k, lat) in [100u64, 200, 400].into_iter().enumerate() {
            let mem = MemConfig {
                dram_latency: lat,
                l2_kib: 256,
                l2_ways: 8,
                prefetch: pf,
                ..MemConfig::default()
            };
            let r = OooSession::with_mem(&kernel.program, &CoreConfig::xt910(), mem, 100_000_000).run_to_end();
            if baselines[k] == 0 {
                baselines[k] = r.perf.cycles;
            }
            row.push_str(&format!(
                "{:>9.2}x",
                baselines[k] as f64 / r.perf.cycles as f64
            ));
            row.push(' ');
        }
        println!("{row}");
    }
    println!("\n(speedup over the no-prefetch row at each memory latency)");
}
