//! Fixed-latency, bandwidth-limited DRAM channel model.
//!
//! The Fig. 21 experiments on the HAPS-80 FPGA set "the memory access
//! delay … to about 200 CPU clock cycles (by specifying the bus delay and
//! DDR delay)"; this model reproduces that setup: every line fill takes
//! `latency` cycles end-to-end, and the channel can start a new transfer
//! every `transfer` cycles (the bandwidth limit). Outstanding requests
//! overlap — which is exactly what lets a prefetcher running far enough
//! ahead hide the 200-cycle latency.

/// One DRAM channel.
#[derive(Clone, Debug)]
pub struct Dram {
    latency: u64,
    transfer: u64,
    busy_until: u64,
}

impl Dram {
    /// Creates a channel with `latency` cycles end-to-end and `transfer`
    /// cycles of channel occupancy per line.
    pub fn new(latency: u64, transfer: u64) -> Self {
        Dram {
            latency,
            transfer,
            busy_until: 0,
        }
    }

    /// Issues a line request at `cycle`; returns the completion cycle
    /// and whether the request had to wait for the channel
    /// (bandwidth-bound).
    pub fn access(&mut self, cycle: u64) -> (u64, bool) {
        let start = cycle.max(self.busy_until);
        self.busy_until = start + self.transfer;
        (start + self.latency, start > cycle)
    }

    /// Configured end-to-end latency.
    pub fn latency(&self) -> u64 {
        self.latency
    }
}

impl xt_snapshot::SnapshotState for Dram {
    fn transfer<S: xt_snapshot::Stream>(&mut self, s: &mut S) -> xt_snapshot::Result<()> {
        s.expect("dram timing", self.latency)?;
        s.expect("dram timing", self.transfer)?;
        s.u64(&mut self.busy_until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_access_pays_full_latency() {
        let mut d = Dram::new(200, 4);
        assert_eq!(d.access(1000), (1200, false));
    }

    #[test]
    fn overlapping_accesses_pipeline() {
        let mut d = Dram::new(200, 4);
        assert_eq!(d.access(0), (200, false));
        assert_eq!(d.access(0), (204, true), "starts after one transfer slot");
        assert_eq!(d.access(0), (208, true));
    }

    #[test]
    fn idle_channel_resets() {
        let mut d = Dram::new(100, 10);
        d.access(0);
        // Much later the channel is free again.
        assert_eq!(d.access(1000), (1100, false));
    }
}
