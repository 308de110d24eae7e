//! Memory-hierarchy configuration (paper Tables I/II and §V).

/// Prefetch distance preset (Fig. 21 contrasts "small" vs "large").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PrefetchDistance {
    /// Conservative: stay ~4 lines ahead of the demand stream.
    Small,
    /// Aggressive: run ~24 lines ahead (bounded by the mode's max depth).
    Large,
}

impl PrefetchDistance {
    /// Number of lines to run ahead of the demand stream.
    pub fn lines(self) -> u64 {
        match self {
            PrefetchDistance::Small => 4,
            PrefetchDistance::Large => 28,
        }
    }
}

/// Data-prefetch configuration (§V-C; the five Fig. 21 scenarios are
/// combinations of these switches).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PrefetchConfig {
    /// Prefetch fills into the L1 data cache.
    pub l1: bool,
    /// Prefetch fills into the shared L2.
    pub l2: bool,
    /// Cross-page prefetch pre-translates the next virtual page (§V-C:
    /// "when data is prefetched at the page boundary, a conversion for the
    /// next virtual page is automatically requested").
    pub tlb: bool,
    /// Prefetch distance preset.
    pub distance: PrefetchDistance,
    /// Maximum simultaneously-tracked streams (8 in multi-stream mode).
    pub max_streams: usize,
    /// Maximum prefetch depth in lines: 64 for the single global stream,
    /// 32 per stream in multi-stream mode.
    pub max_depth: u64,
}

impl PrefetchConfig {
    /// Everything off — Fig. 21 scenario (a).
    pub fn off() -> Self {
        PrefetchConfig {
            l1: false,
            l2: false,
            tlb: false,
            distance: PrefetchDistance::Small,
            max_streams: 8,
            max_depth: 64,
        }
    }

    /// L1-only, small distance — Fig. 21 scenario (b).
    pub fn l1_small() -> Self {
        PrefetchConfig {
            l1: true,
            ..Self::off()
        }
    }

    /// L1+L2+TLB, small distance — Fig. 21 scenario (c).
    pub fn all_small() -> Self {
        PrefetchConfig {
            l1: true,
            l2: true,
            tlb: true,
            ..Self::off()
        }
    }

    /// L1+L2+TLB, large distance — Fig. 21 scenario (d).
    pub fn all_large() -> Self {
        PrefetchConfig {
            l1: true,
            l2: true,
            tlb: true,
            distance: PrefetchDistance::Large,
            ..Self::off()
        }
    }

    /// L1+L2 large distance, TLB prefetch off — Fig. 21 scenario (e).
    pub fn no_tlb_large() -> Self {
        PrefetchConfig {
            l1: true,
            l2: true,
            tlb: false,
            distance: PrefetchDistance::Large,
            ..Self::off()
        }
    }

    /// Whether any prefetching is enabled.
    pub fn enabled(&self) -> bool {
        self.l1 || self.l2
    }
}

/// Full memory-system configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemConfig {
    /// Number of cores sharing the cluster's L2 (1, 2 or 4 — Table I).
    pub cores: usize,
    /// L1 instruction cache size in KiB (32 or 64).
    pub l1i_kib: u32,
    /// L1 data cache size in KiB (32 or 64).
    pub l1d_kib: u32,
    /// L1 associativity.
    pub l1_ways: u32,
    /// Shared L2 size in KiB (256 – 8192).
    pub l2_kib: u32,
    /// L2 associativity (8 or 16 — §II).
    pub l2_ways: u32,
    /// Cache line size in bytes.
    pub line_bytes: u32,
    /// L1 hit latency, load-to-use, in cycles.
    pub l1_hit: u64,
    /// L2 hit latency in cycles.
    pub l2_hit: u64,
    /// DRAM latency in cycles (Fig. 21 sets ~200).
    pub dram_latency: u64,
    /// DRAM line-transfer occupancy in cycles (bandwidth limit).
    pub dram_transfer: u64,
    /// Cache-to-cache transfer penalty on a coherence hit.
    pub c2c_penalty: u64,
    /// µTLB entries (fully associative).
    pub utlb_entries: usize,
    /// jTLB sets (4-way; §V-D).
    pub jtlb_sets: usize,
    /// µTLB hit cost folded into the pipeline (0 = free at AG stage).
    pub utlb_hit: u64,
    /// jTLB probe cost in cycles.
    pub jtlb_hit: u64,
    /// Prefetch configuration.
    pub prefetch: PrefetchConfig,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            cores: 1,
            l1i_kib: 64,
            l1d_kib: 64,
            l1_ways: 4,
            l2_kib: 2048,
            l2_ways: 16,
            line_bytes: 64,
            l1_hit: 3,
            l2_hit: 14,
            dram_latency: 200,
            dram_transfer: 4,
            c2c_penalty: 20,
            utlb_entries: 32,
            jtlb_sets: 256,
            utlb_hit: 0,
            jtlb_hit: 2,
            prefetch: PrefetchConfig::all_small(),
        }
    }
}

impl MemConfig {
    /// Validates the configuration against the paper's supported space
    /// (Table I).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !matches!(self.cores, 1 | 2 | 4) {
            return Err(format!("cores must be 1, 2 or 4 (got {})", self.cores));
        }
        if !matches!(self.l1i_kib, 32 | 64) {
            return Err(format!("L1I must be 32 or 64 KiB (got {})", self.l1i_kib));
        }
        if !matches!(self.l1d_kib, 32 | 64) {
            return Err(format!("L1D must be 32 or 64 KiB (got {})", self.l1d_kib));
        }
        if !(256..=8192).contains(&self.l2_kib) || !self.l2_kib.is_power_of_two() {
            return Err(format!(
                "L2 must be a power of two in 256 KiB..=8 MiB (got {})",
                self.l2_kib
            ));
        }
        if !matches!(self.l2_ways, 8 | 16) {
            return Err(format!("L2 ways must be 8 or 16 (got {})", self.l2_ways));
        }
        if !self.line_bytes.is_power_of_two() {
            return Err("line size must be a power of two".into());
        }
        // a recorded access names its stream slot in 16 bits
        if self.prefetch.max_streams >= u16::MAX as usize {
            return Err(format!(
                "prefetch streams must be below {} (got {})",
                u16::MAX,
                self.prefetch.max_streams
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        MemConfig::default().validate().unwrap();
    }

    #[test]
    fn table1_space_enforced() {
        let mut c = MemConfig {
            cores: 3,
            ..MemConfig::default()
        };
        assert!(c.validate().is_err());
        c.cores = 4;
        c.l1d_kib = 16;
        assert!(c.validate().is_err());
        c.l1d_kib = 32;
        c.l2_kib = 10_000;
        assert!(c.validate().is_err());
        c.l2_kib = 8192;
        assert!(c.validate().is_ok());
        c.prefetch.max_streams = u16::MAX as usize;
        assert!(c.validate().is_err());
    }

    #[test]
    fn fig21_scenarios_distinct() {
        let scenarios = [
            PrefetchConfig::off(),
            PrefetchConfig::l1_small(),
            PrefetchConfig::all_small(),
            PrefetchConfig::all_large(),
            PrefetchConfig::no_tlb_large(),
        ];
        for (i, a) in scenarios.iter().enumerate() {
            for (j, b) in scenarios.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "scenario {i} == {j}");
                }
            }
        }
        assert!(!PrefetchConfig::off().enabled());
        assert!(PrefetchConfig::l1_small().enabled());
    }
}
