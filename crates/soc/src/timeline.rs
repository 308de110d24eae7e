//! Cluster epoch timeline: per-epoch, per-core progress attribution.
//!
//! The epoch-barriered engine ([`crate::cluster::ClusterSim`]) advances
//! every core by a fixed simulated-cycle slice, then runs a serial
//! barrier. This module records, for every epoch, how many guest cycles
//! and instructions each core actually advanced (a parked or finished
//! core advances less than the slice), plus the measured host
//! nanoseconds of the parallel slice phase and the serial barrier.
//!
//! The guest-progress columns are deterministic and participate in
//! snapshots; the host columns are wall-clock measurements — like
//! [`crate::cluster::EngineStats`] they are *excluded* from the
//! determinism contract, zeroed on save, and left out of the pinned
//! chrome fixture ([`EpochTimeline::to_chrome_json`] with
//! `include_host = false`).

use xt_trace::lanes::LaneTrace;

/// One epoch's attribution row.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpochSample {
    /// Guest cycles each core advanced during this epoch (slice plus
    /// any barrier-released gated instruction).
    pub cycles: Vec<u64>,
    /// Instructions each core consumed during this epoch.
    pub steps: Vec<u64>,
    /// Host nanoseconds of the parallel slice phase (measured,
    /// non-deterministic; zero after a snapshot restore).
    pub parallel_ns: u64,
    /// Host nanoseconds of the serial barrier (measured,
    /// non-deterministic; zero after a snapshot restore).
    pub serial_ns: u64,
}

/// The full per-epoch timeline of a cluster run (opt in with
/// [`crate::cluster::ClusterSim::with_timeline`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochTimeline {
    /// Core count (row width).
    pub cores: usize,
    /// Epoch length in simulated cycles (lane geometry).
    pub epoch_cycles: u64,
    /// One row per executed epoch, in order.
    pub epochs: Vec<EpochSample>,
}

impl EpochTimeline {
    /// An empty timeline for `cores` cores stepping `epoch_cycles`-cycle
    /// epochs.
    pub fn new(cores: usize, epoch_cycles: u64) -> Self {
        EpochTimeline {
            cores,
            epoch_cycles,
            epochs: Vec::new(),
        }
    }

    /// Appends one epoch row.
    pub fn record(&mut self, sample: EpochSample) {
        debug_assert_eq!(sample.cycles.len(), self.cores);
        debug_assert_eq!(sample.steps.len(), self.cores);
        self.epochs.push(sample);
    }

    /// Total guest cycles core `c` advanced across all epochs.
    pub fn core_cycles(&self, c: usize) -> u64 {
        self.epochs.iter().map(|e| e.cycles[c]).sum()
    }

    /// Total instructions core `c` consumed across all epochs.
    pub fn core_steps(&self, c: usize) -> u64 {
        self.epochs.iter().map(|e| e.steps[c]).sum()
    }

    /// Renders the timeline as Chrome `trace_event` JSON.
    ///
    /// Guest lanes (one per core) live on the simulated-cycle axis: each
    /// epoch draws a slice starting at the epoch boundary whose duration
    /// is the cycles the core actually advanced, so a stalled or
    /// finished core visibly empties its lane. With `include_host`, two
    /// extra lanes on a host-nanosecond axis alternate `parallel` /
    /// `serial` slices per epoch — the Amdahl picture of the engine.
    /// Host lanes are non-deterministic; pinned fixtures must render
    /// with `include_host = false` (byte-stable for identical runs).
    pub fn to_chrome_json(&self, include_host: bool) -> String {
        let mut t = LaneTrace::new("xt-910 cluster epochs");
        for c in 0..self.cores {
            t.lane(c as u64, &format!("core {c}"));
        }
        if include_host {
            t.lane(self.cores as u64, "host parallel");
            t.lane(self.cores as u64 + 1, "host serial");
        }
        for (e, row) in self.epochs.iter().enumerate() {
            let start = e as u64 * self.epoch_cycles;
            for c in 0..self.cores {
                t.slice(
                    c as u64,
                    start,
                    row.cycles[c],
                    &format!("epoch {e}"),
                    &[
                        ("cycles", row.cycles[c].to_string()),
                        ("steps", row.steps[c].to_string()),
                    ],
                );
            }
        }
        if include_host {
            let mut at = 0u64;
            for (e, row) in self.epochs.iter().enumerate() {
                t.slice(
                    self.cores as u64,
                    at,
                    row.parallel_ns,
                    &format!("parallel {e}"),
                    &[],
                );
                at += row.parallel_ns;
                t.slice(
                    self.cores as u64 + 1,
                    at,
                    row.serial_ns,
                    &format!("serial {e}"),
                    &[],
                );
                at += row.serial_ns;
            }
        }
        t.finish()
    }
}

impl xt_snapshot::SnapshotState for EpochTimeline {
    /// Saves the deterministic columns only: host nanoseconds are
    /// measurements, not state, so they are never written and read zero
    /// after a restore — equal simulated runs produce equal bytes.
    fn transfer<S: xt_snapshot::Stream>(&mut self, s: &mut S) -> xt_snapshot::Result<()> {
        s.expect("timeline core count", self.cores)?;
        s.u64(&mut self.epoch_cycles)?;
        let (cores, width) = (
            self.cores,
            xt_snapshot::SnapshotError::Mismatch {
                what: "timeline row width",
            },
        );
        s.vec(&mut self.epochs, 16 * (cores + 1), |s, row| {
            if S::DECODING {
                (row.cycles, row.steps) = (vec![0; cores], vec![0; cores]);
            }
            s.fixed(&mut row.cycles, width, S::u64)?;
            s.fixed(&mut row.steps, width, S::u64)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_snapshot::SnapshotState;

    fn sample_timeline() -> EpochTimeline {
        let mut tl = EpochTimeline::new(2, 100);
        tl.record(EpochSample {
            cycles: vec![100, 90],
            steps: vec![40, 37],
            parallel_ns: 1234,
            serial_ns: 99,
        });
        tl.record(EpochSample {
            cycles: vec![100, 0],
            steps: vec![41, 0],
            parallel_ns: 1200,
            serial_ns: 80,
        });
        tl
    }

    #[test]
    fn totals_sum_rows() {
        let tl = sample_timeline();
        assert_eq!(tl.core_cycles(0), 200);
        assert_eq!(tl.core_cycles(1), 90);
        assert_eq!(tl.core_steps(0), 81);
        assert_eq!(tl.core_steps(1), 37);
    }

    #[test]
    fn chrome_render_is_deterministic_and_gates_host_lanes() {
        let tl = sample_timeline();
        let guest = tl.to_chrome_json(false);
        assert_eq!(guest, tl.to_chrome_json(false), "byte-stable");
        assert!(guest.contains("\"core 0\"") && guest.contains("\"core 1\""));
        assert!(guest.contains("\"epoch 0\"") && guest.contains("\"epoch 1\""));
        assert!(!guest.contains("host"), "no host lanes unless asked");
        assert_eq!(guest.matches('{').count(), guest.matches('}').count());
        let host = tl.to_chrome_json(true);
        assert!(host.contains("\"host parallel\"") && host.contains("\"host serial\""));
        assert!(host.contains("\"parallel 0\"") && host.contains("\"serial 1\""));
    }

    #[test]
    fn idle_core_draws_no_slice() {
        let tl = sample_timeline();
        let j = tl.to_chrome_json(false);
        // epoch 1 on core 1 advanced 0 cycles: exactly three epoch
        // slices total (2 cores x 2 epochs minus the empty one)
        assert_eq!(j.matches("\"ph\":\"X\"").count(), 3);
    }

    #[test]
    fn snapshot_roundtrip_drops_host_time_only() {
        let mut tl = sample_timeline();
        let mut e = xt_snapshot::Enc::new();
        tl.save(&mut e);
        assert_eq!(tl, sample_timeline(), "encoding leaves host time alone");
        let bytes = e.into_bytes();
        let mut r = EpochTimeline::new(2, 1);
        let mut d = xt_snapshot::Dec::new(&bytes);
        r.restore(&mut d).expect("restore");
        d.finish().expect("consumed");
        assert_eq!(r.epoch_cycles, 100);
        assert_eq!(r.epochs.len(), 2);
        for (a, b) in tl.epochs.iter().zip(&r.epochs) {
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.steps, b.steps);
            assert_eq!(b.parallel_ns, 0, "host time is not state");
            assert_eq!(b.serial_ns, 0);
        }
        // re-save is byte-exact (host ns never serialized)
        let mut e2 = xt_snapshot::Enc::new();
        r.save(&mut e2);
        assert_eq!(bytes, e2.into_bytes());
    }

    #[test]
    fn wrong_width_row_is_mismatch() {
        let mut tl = sample_timeline();
        let mut e = xt_snapshot::Enc::new();
        tl.save(&mut e);
        let bytes = e.into_bytes();
        let mut r = EpochTimeline::new(3, 1);
        let mut d = xt_snapshot::Dec::new(&bytes);
        assert!(r.restore(&mut d).is_err(), "core-count mismatch detected");
    }
}
