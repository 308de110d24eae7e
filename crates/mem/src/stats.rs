//! Aggregated memory-system statistics, reported by the bench harness
//! and sampled as interval deltas by `xt-perf`.
//!
//! [`MemStats`] is the counter table of a [`crate::MemSystem`] and
//! [`MemStats::record`] the one definition of what each
//! [`MemEventKind`] does to it: a counter is the fold of the events, in
//! the live hierarchy and in [`crate::MemTracer::reconcile`] alike.

use crate::missclass::MissClass;
use crate::trace::{Level, MemEventKind};
use xt_snapshot::{Result as SnapResult, SnapshotState, Stream};

/// Per-stream prefetch scorecard entry: how one stream-table slot's
/// prefetches fared (see `MemStats::pf_scorecard`).
///
/// Terminology (aggregates over the slot's lifetime):
///
/// * **issued** — requests the stream emitted;
/// * **useful** — prefetched L1D lines that saw a demand touch;
/// * **late** — useful, but the demand touch arrived while the fill was
///   still in flight (latency only partially hidden); `late <= useful`;
/// * **useless** — prefetched L1D lines removed (evicted, invalidated,
///   flushed) before any demand touch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamScore {
    /// Prefetch requests issued by this stream.
    pub issued: u64,
    /// Prefetched lines that saw a demand hit.
    pub useful: u64,
    /// Useful prefetches whose fill was still in flight at the demand.
    pub late: u64,
    /// Prefetched lines removed before any demand touch.
    pub useless: u64,
}

impl StreamScore {
    /// Fraction of issued prefetches that proved useful.
    pub fn accuracy(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.useful as f64 / self.issued as f64
        }
    }

    /// Fraction of useful prefetches that fully hid the miss latency
    /// (arrived before the demand touch).
    pub fn timeliness(&self) -> f64 {
        if self.useful == 0 {
            0.0
        } else {
            (self.useful - self.late) as f64 / self.useful as f64
        }
    }
}

/// A snapshot of every counter in the memory system.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MemStats {
    /// Per-core L1I (hits, misses).
    pub l1i: Vec<(u64, u64)>,
    /// Per-core L1D (hits, misses).
    pub l1d: Vec<(u64, u64)>,
    /// Per-core L1D misses attributed *compulsory* (first touch). The
    /// four `miss_*` vectors keep the `miss_classes` law
    /// (docs/OBSERVABILITY.md, "Conservation laws"; `crate::missclass`).
    pub miss_compulsory: Vec<u64>,
    /// Per-core L1D misses attributed *capacity*.
    pub miss_capacity: Vec<u64>,
    /// Per-core L1D misses attributed *conflict*.
    pub miss_conflict: Vec<u64>,
    /// Per-core L1D misses attributed *coherence*.
    pub miss_coherence: Vec<u64>,
    /// Per-core contributions to shared-L2 demand traffic
    /// (hits, misses), attributed to the requesting core. Includes the
    /// core's instruction-side refills and its page-walk PTE reads;
    /// prefetcher-initiated fills are not demand accesses and are not
    /// counted here. The aggregate tuple is derived by [`Self::l2`].
    pub l2_demand: Vec<(u64, u64)>,
    /// Per-core µTLB hits.
    pub tlb_micro_hits: Vec<u64>,
    /// Per-core jTLB hits.
    pub tlb_joint_hits: Vec<u64>,
    /// Per-core page walks.
    pub tlb_walks: Vec<u64>,
    /// Per-core TLB full flushes.
    pub tlb_flushes: Vec<u64>,
    /// Per-core prefetch requests issued.
    pub prefetches_issued: Vec<u64>,
    /// Per-core useful prefetches (L1 demand hits on prefetched lines).
    pub prefetches_useful: Vec<u64>,
    /// Per-core *late* prefetches: the demand access hit a prefetched
    /// line whose fill was still in flight, so it covered the miss but
    /// not the whole latency.
    pub prefetches_late: Vec<u64>,
    /// Per-core prefetch streams the engine confirmed (stride locked).
    pub prefetch_streams: Vec<u64>,
    /// Per-core, per-stream-slot prefetch scorecard (inner length =
    /// the configured stream-table size). Slot `useful`/`late`/`useless`
    /// cover data-side (L1D) prefetches; the instruction-side sequential
    /// prefetcher has no stream table and reports only in the aggregate
    /// counters.
    pub pf_scorecard: Vec<Vec<StreamScore>>,
    /// DRAM line requests.
    pub dram_requests: u64,
    /// DRAM requests that queued behind the channel.
    pub dram_queued: u64,
    /// Coherence: whole lookups answered by the snoop filter (mask empty,
    /// no probe sent at all).
    pub snoops_filtered: u64,
    /// Coherence: snoop probes actually sent to other cores.
    pub snoops_sent: u64,
    /// Coherence: individual cores named by a non-empty snoop-filter mask
    /// (each is either probed or suppressed).
    pub probe_candidates: u64,
    /// Coherence: candidate probes suppressed because the named core had
    /// already silently dropped the line (the `snoop_books` law).
    pub snoops_suppressed: u64,
    /// Snoop-traffic matrix, requester-major (`cores * cores` entries):
    /// entry `r * cores + h` counts probes core `r` sent to core `h`
    /// (the `snoop_matrix` law).
    pub snoop_matrix: Vec<u64>,
    /// Cache-to-cache transfers.
    pub c2c_transfers: u64,
    /// Coherence transitions: a remote copy was invalidated by a store
    /// or upgrade (`* -> I` on another core).
    pub coh_invalidations: u64,
    /// Coherence transitions: a remote copy was demoted to a still-valid
    /// state by a read (`M -> O` or `E -> S`).
    pub coh_downgrades: u64,
    /// Coherence transitions: a local store upgraded a read-only copy to
    /// `M` (the `UpgradeNeeded` path).
    pub coh_upgrades: u64,
    /// Total cycles spent in page walks.
    pub walk_cycles: u64,
}

/// The hit or the miss half of a `(hits, misses)` pair.
fn side(pair: &mut (u64, u64), hit: bool) -> &mut u64 {
    if hit {
        &mut pair.0
    } else {
        &mut pair.1
    }
}

impl MemStats {
    /// A zeroed table for `cores` cores with `slots` stream-table slots
    /// each.
    pub fn zeroed(cores: usize, slots: usize) -> MemStats {
        let per_core = || vec![0; cores];
        MemStats {
            l1i: vec![(0, 0); cores],
            l1d: vec![(0, 0); cores],
            miss_compulsory: per_core(),
            miss_capacity: per_core(),
            miss_conflict: per_core(),
            miss_coherence: per_core(),
            l2_demand: vec![(0, 0); cores],
            tlb_micro_hits: per_core(),
            tlb_joint_hits: per_core(),
            tlb_walks: per_core(),
            tlb_flushes: per_core(),
            prefetches_issued: per_core(),
            prefetches_useful: per_core(),
            prefetches_late: per_core(),
            prefetch_streams: per_core(),
            pf_scorecard: vec![vec![StreamScore::default(); slots]; cores],
            snoop_matrix: vec![0; cores * cores],
            ..MemStats::default()
        }
    }

    /// Counts one event of `core`: the single definition of which
    /// counters each [`MemEventKind`] moves (docs/OBSERVABILITY.md
    /// tabulates it). Exhaustive on purpose — a new kind does not
    /// compile until its counters are decided here.
    ///
    /// # Panics
    ///
    /// Panics if the event names a core or stream slot outside the
    /// table.
    #[inline]
    pub fn record(&mut self, core: usize, kind: MemEventKind) {
        self.fold(core, kind, true);
    }

    /// [`Self::record`] for an instance that may keep no observers
    /// (`observed == false`: [`crate::MemSystem::replica`]): the miss
    /// class and the issuing slot are theirs to count, so those two
    /// columns stay at zero there.
    ///
    /// Always inlined: every caller in the hierarchy passes a `kind` whose
    /// variant is known at compile time, which leaves one or two
    /// increments of this `match`; left to the inliner, some of the forty
    /// sites called it out of line and paid for the whole dispatch.
    #[inline(always)]
    pub(crate) fn fold(&mut self, c: usize, kind: MemEventKind, observed: bool) {
        match kind {
            MemEventKind::L1IAccess { hit } => *side(&mut self.l1i[c], hit) += 1,
            MemEventKind::L1DHit { .. } => self.l1d[c].0 += 1,
            MemEventKind::L1DMiss { class, .. } => {
                self.l1d[c].1 += 1;
                if observed {
                    let column = match class {
                        MissClass::Compulsory => &mut self.miss_compulsory,
                        MissClass::Capacity => &mut self.miss_capacity,
                        MissClass::Conflict => &mut self.miss_conflict,
                        MissClass::Coherence => &mut self.miss_coherence,
                    };
                    column[c] += 1;
                }
            }
            MemEventKind::L2Access { hit } => *side(&mut self.l2_demand[c], hit) += 1,
            // line movement is state, not a statistic
            MemEventKind::Fill { .. }
            | MemEventKind::Eviction { .. }
            | MemEventKind::Writeback { .. }
            | MemEventKind::BackInvalidate { .. }
            | MemEventKind::CacheFlush { .. }
            | MemEventKind::PrefetchFill { .. } => {}
            MemEventKind::DramRequest { queued } => {
                self.dram_requests += 1;
                self.dram_queued += queued as u64;
            }
            MemEventKind::SnoopFiltered => self.snoops_filtered += 1,
            MemEventKind::SnoopProbe { holder, sent } => {
                self.probe_candidates += 1;
                if sent {
                    self.snoops_sent += 1;
                    let cores = self.l1d.len();
                    self.snoop_matrix[c * cores + holder] += 1;
                } else {
                    self.snoops_suppressed += 1;
                }
            }
            MemEventKind::C2CTransfer { .. } => self.c2c_transfers += 1,
            MemEventKind::CohInvalidate { .. } => self.coh_invalidations += 1,
            MemEventKind::CohDowngrade { .. } => self.coh_downgrades += 1,
            MemEventKind::CohUpgrade => self.coh_upgrades += 1,
            MemEventKind::TlbMicroHit => self.tlb_micro_hits[c] += 1,
            MemEventKind::TlbJointHit { .. } => self.tlb_joint_hits[c] += 1,
            MemEventKind::TlbWalk { cycles } => {
                self.tlb_walks[c] += 1;
                self.walk_cycles += cycles;
            }
            MemEventKind::TlbFlush => self.tlb_flushes[c] += 1,
            MemEventKind::PrefetchIssue { stream } => {
                self.prefetches_issued[c] += 1;
                if observed {
                    self.pf_scorecard[c][stream].issued += 1;
                }
            }
            MemEventKind::PrefetchUseful { level, stream } => {
                // the instruction side reports only in the event stream
                if level == Level::L1D {
                    self.prefetches_useful[c] += 1;
                }
                if let Some(s) = stream {
                    self.pf_scorecard[c][s].useful += 1;
                }
            }
            MemEventKind::PrefetchLate { stream, .. } => {
                self.prefetches_late[c] += 1;
                if let Some(s) = stream {
                    self.pf_scorecard[c][s].late += 1;
                }
            }
            MemEventKind::PrefetchUseless { stream } => self.pf_scorecard[c][stream].useless += 1,
            MemEventKind::StreamConfirmed { .. } => self.prefetch_streams[c] += 1,
        }
    }

    /// Every counter by name with its words, in declaration order: the
    /// one walk of the table that the snapshot codec and the
    /// reconciliation diagnostic share. The destructuring is
    /// exhaustive, so a new field cannot be left out.
    pub(crate) fn columns(&mut self) -> Vec<(&'static str, Vec<&mut u64>)> {
        fn pairs(v: &mut [(u64, u64)]) -> Vec<&mut u64> {
            v.iter_mut().flat_map(|(a, b)| [a, b]).collect()
        }
        fn words(v: &mut [u64]) -> Vec<&mut u64> {
            v.iter_mut().collect()
        }
        let MemStats {
            l1i,
            l1d,
            miss_compulsory,
            miss_capacity,
            miss_conflict,
            miss_coherence,
            l2_demand,
            tlb_micro_hits,
            tlb_joint_hits,
            tlb_walks,
            tlb_flushes,
            prefetches_issued,
            prefetches_useful,
            prefetches_late,
            prefetch_streams,
            pf_scorecard,
            dram_requests,
            dram_queued,
            snoops_filtered,
            snoops_sent,
            probe_candidates,
            snoops_suppressed,
            snoop_matrix,
            c2c_transfers,
            coh_invalidations,
            coh_downgrades,
            coh_upgrades,
            walk_cycles,
        } = self;
        vec![
            ("l1i", pairs(l1i)),
            ("l1d", pairs(l1d)),
            ("miss_compulsory", words(miss_compulsory)),
            ("miss_capacity", words(miss_capacity)),
            ("miss_conflict", words(miss_conflict)),
            ("miss_coherence", words(miss_coherence)),
            ("l2_demand", pairs(l2_demand)),
            ("tlb_micro_hits", words(tlb_micro_hits)),
            ("tlb_joint_hits", words(tlb_joint_hits)),
            ("tlb_walks", words(tlb_walks)),
            ("tlb_flushes", words(tlb_flushes)),
            ("prefetches_issued", words(prefetches_issued)),
            ("prefetches_useful", words(prefetches_useful)),
            ("prefetches_late", words(prefetches_late)),
            ("prefetch_streams", words(prefetch_streams)),
            (
                "pf_scorecard",
                pf_scorecard
                    .iter_mut()
                    .flatten()
                    .flat_map(|s| [&mut s.issued, &mut s.useful, &mut s.late, &mut s.useless])
                    .collect(),
            ),
            ("dram_requests", vec![dram_requests]),
            ("dram_queued", vec![dram_queued]),
            ("snoops_filtered", vec![snoops_filtered]),
            ("snoops_sent", vec![snoops_sent]),
            ("probe_candidates", vec![probe_candidates]),
            ("snoops_suppressed", vec![snoops_suppressed]),
            ("snoop_matrix", words(snoop_matrix)),
            ("c2c_transfers", vec![c2c_transfers]),
            ("coh_invalidations", vec![coh_invalidations]),
            ("coh_downgrades", vec![coh_downgrades]),
            ("coh_upgrades", vec![coh_upgrades]),
            ("walk_cycles", vec![walk_cycles]),
        ]
    }

    /// Cores and stream-table slots per core the table was built for.
    pub(crate) fn shape(&self) -> (usize, usize) {
        (
            self.l1d.len(),
            self.pf_scorecard.first().map_or(0, Vec::len),
        )
    }

    /// Shared-L2 demand (hits, misses), derived as the sum of the
    /// per-core contributions in [`Self::l2_demand`]. This is the tuple
    /// that used to be stored directly; kept as an accessor so existing
    /// consumers and reports keep working.
    pub fn l2(&self) -> (u64, u64) {
        self.l2_demand
            .iter()
            .fold((0, 0), |(h, m), &(ch, cm)| (h + ch, m + cm))
    }

    /// L1D hit rate of core `c`.
    pub fn l1d_hit_rate(&self, c: usize) -> f64 {
        let (h, m) = self.l1d[c];
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Prefetch *accuracy* of core `c`: the fraction of issued
    /// prefetches that saw a demand hit before eviction.
    pub fn pf_accuracy(&self, c: usize) -> f64 {
        let issued = self.prefetches_issued.get(c).copied().unwrap_or(0);
        if issued == 0 {
            0.0
        } else {
            self.prefetches_useful[c] as f64 / issued as f64
        }
    }

    /// Prefetch *coverage* of core `c`: the fraction of would-be demand
    /// misses the prefetcher absorbed (useful prefetches over useful
    /// prefetches plus residual demand misses).
    pub fn pf_coverage(&self, c: usize) -> f64 {
        let useful = self.prefetches_useful.get(c).copied().unwrap_or(0);
        let (_, misses) = self.l1d.get(c).copied().unwrap_or((0, 0));
        if useful + misses == 0 {
            0.0
        } else {
            useful as f64 / (useful + misses) as f64
        }
    }

    /// Total page walks across cores.
    pub fn total_walks(&self) -> u64 {
        self.tlb_walks.iter().sum()
    }

    /// Total coherence transitions of any kind (invalidations,
    /// downgrades, upgrades).
    pub fn coh_transitions(&self) -> u64 {
        self.coh_invalidations + self.coh_downgrades + self.coh_upgrades
    }

    /// Sum of the four attributed miss classes for core `c` — by the
    /// conservation law, exactly core `c`'s L1D miss count.
    pub fn miss_class_sum(&self, c: usize) -> u64 {
        self.miss_compulsory[c] + self.miss_capacity[c] + self.miss_conflict[c]
            + self.miss_coherence[c]
    }

    /// Probes requester `r` sent to holder `h` (snoop-matrix cell).
    pub fn snoop_pair(&self, r: usize, h: usize) -> u64 {
        let cores = self.l1d.len();
        self.snoop_matrix.get(r * cores + h).copied().unwrap_or(0)
    }
}

impl SnapshotState for MemStats {
    /// The table's shape (cores, slots per core), then every counter
    /// word in declaration order. A table of another shape is refused
    /// before a word of it is read: the instance indexes its table by its
    /// own cores and slots.
    fn transfer<S: Stream>(&mut self, s: &mut S) -> SnapResult<()> {
        let (cores, slots) = self.shape();
        s.expect("counter table core count", cores)?;
        s.expect("counter table stream count", slots)?;
        for (_, words) in self.columns() {
            words.into_iter().try_for_each(|w| s.u64(w))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_aggregate_sums_per_core_contributions() {
        let s = MemStats {
            l2_demand: vec![(10, 2), (5, 1), (0, 7)],
            ..MemStats::default()
        };
        assert_eq!(s.l2(), (15, 10));
        assert_eq!(MemStats::default().l2(), (0, 0));
    }

    #[test]
    fn prefetch_rates_handle_zero() {
        let s = MemStats {
            prefetches_issued: vec![0],
            prefetches_useful: vec![0],
            l1d: vec![(0, 0)],
            ..MemStats::default()
        };
        assert_eq!(s.pf_accuracy(0), 0.0);
        assert_eq!(s.pf_coverage(0), 0.0);
        let s = MemStats {
            prefetches_issued: vec![8],
            prefetches_useful: vec![6],
            l1d: vec![(100, 2)],
            ..MemStats::default()
        };
        assert!((s.pf_accuracy(0) - 0.75).abs() < 1e-12);
        assert!((s.pf_coverage(0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn stream_score_rates() {
        let z = StreamScore::default();
        assert_eq!(z.accuracy(), 0.0);
        assert_eq!(z.timeliness(), 0.0);
        let s = StreamScore {
            issued: 10,
            useful: 8,
            late: 2,
            useless: 1,
        };
        assert!((s.accuracy() - 0.8).abs() < 1e-12);
        assert!((s.timeliness() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn miss_class_sum_and_snoop_pair() {
        let s = MemStats {
            l1d: vec![(0, 10), (0, 4)],
            miss_compulsory: vec![3, 1],
            miss_capacity: vec![4, 0],
            miss_conflict: vec![2, 2],
            miss_coherence: vec![1, 1],
            snoop_matrix: vec![0, 5, 7, 0],
            ..MemStats::default()
        };
        assert_eq!(s.miss_class_sum(0), 10);
        assert_eq!(s.miss_class_sum(1), 4);
        assert_eq!(s.snoop_pair(0, 1), 5);
        assert_eq!(s.snoop_pair(1, 0), 7);
        assert_eq!(s.snoop_pair(1, 1), 0);
    }
}
