//! The assembled cluster memory system: per-core L1s/TLBs/prefetchers, a
//! shared inclusive MOSEI L2 with snoop filter, and one DRAM channel.
//!
//! ## Observability
//!
//! Every modeled action is written once, as a function that changes
//! state and hands one [`MemEventKind`] to `MemSystem::record`. That
//! is the only place a counter moves ([`MemStats::record`] decides
//! which) and the only place an event is forwarded, so the counters are
//! a fold of the events by construction. On top of it:
//!
//! * the **miss classifier** ([`crate::missclass`]) and the per-stream
//!   **prefetch scorecard** are on in every instance built by
//!   [`MemSystem::new`] — they are modeled state, captured by snapshots
//!   and reproduced by [`MemSystem::apply_op`] replay, so their columns
//!   are identical whether or not tracing is attached. They feed
//!   counters and event payloads, never a latency, so an instance nobody
//!   reads statistics from ([`MemSystem::replica`]) leaves them at reset;
//! * the optional **[`MemTracer`]** ([`MemSystem::start_tracing`])
//!   collects the events. The off path is a single `Option` test and
//!   tracing never changes a returned latency or a counter
//!   (`tracing_does_not_change_timing` below).

use crate::cache::{Cache, LineState, ProbeResult};
use crate::config::{MemConfig, PrefetchConfig};
use crate::dram::Dram;
use crate::linemap::LineMap;
use crate::missclass::{MissClass, MissClassifier};
use crate::prefetch::{PrefetchReq, Prefetcher};
use crate::stats::MemStats;
use crate::tlb::{Mapping, PageSize, Tlb, TlbResult};
use crate::trace::{Level, MemEvent, MemEventKind, MemTracer};
use xt_snapshot::Stream;

/// Synthetic physical region where page-table entries live, so that walk
/// accesses go through the cache hierarchy and exhibit locality (one
/// 64-byte line covers 8 adjacent PTEs).
const PTE_REGION: u64 = 0x40_0000_0000;

/// Stream-slot value of a [`Front`] that names no slot.
const NO_SLOT: u16 = u16::MAX;

/// What a core's private front end — µTLB/jTLB and stream table —
/// decided about one data access. Both evolve as a pure function of
/// that core's own `(va, pa)` stream, so the outcome is the same in
/// every instance that sees the stream: the instance the core runs on
/// computes it once ([`MemSystem::dload`]/[`MemSystem::dstore`]), the
/// [`MemOp`] carries it, and [`MemSystem::apply_op`] replays only what
/// lies behind it.
///
/// The prefetch requests of one [`Prefetcher::on_access`] call are an
/// arithmetic run issued by a single stream slot, at most `max_depth`
/// long, so the burst is four numbers rather than a list
/// (`front_reproduces_the_request_list` pins that).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Front {
    /// Virtual address of the burst's first prefetch request.
    pf_va: u64,
    /// Byte distance from one request to the next (wrapping; a
    /// descending stream's step is the two's complement).
    pf_step: u64,
    /// Requests in the burst.
    pf_count: u16,
    /// Stream-table slot that issued the burst.
    pf_slot: u16,
    /// Slot that crossed the confirmation threshold on this access, or
    /// [`NO_SLOT`].
    confirmed: u16,
    /// 0 = µTLB hit, 1–3 = jTLB hit after that many probes,
    /// [`Front::WALK`] = miss everywhere.
    tlb: u8,
}

impl Front {
    /// TLB outcome of an access that needs a page walk.
    const WALK: u8 = 4;

    /// Packs a TLB outcome, the confirmed slot and the request list of
    /// one [`Prefetcher::on_access`] call.
    fn new(tlb: u8, confirmed: Option<usize>, reqs: &[PrefetchReq]) -> Front {
        let (pf_va, pf_slot) = reqs.first().map_or((0, 0), |r| (r.va, r.stream));
        let pf_step = reqs.get(1).map_or(0, |r| r.va.wrapping_sub(pf_va));
        debug_assert!(reqs.iter().enumerate().all(|(k, r)| r.stream == pf_slot
            && r.va == pf_va.wrapping_add(pf_step.wrapping_mul(k as u64))));
        Front {
            pf_va,
            pf_step,
            pf_count: reqs.len() as u16,
            pf_slot: pf_slot as u16,
            confirmed: confirmed.map_or(NO_SLOT, |s| s as u16),
            tlb,
        }
    }

    /// The prefetch requests of the access, in issue order.
    fn requests(&self) -> impl Iterator<Item = PrefetchReq> {
        let (step, stream) = (self.pf_step, self.pf_slot as usize);
        let mut va = self.pf_va;
        (0..self.pf_count).map(move |_| {
            let req = PrefetchReq { va, stream };
            va = va.wrapping_add(step);
            req
        })
    }

    /// The record, for an instance configured with `pf`: a frame is
    /// outside input, and the slots index that instance's scorecard.
    fn transfer<S: Stream>(&mut self, s: &mut S, pf: &PrefetchConfig) -> xt_snapshot::Result<()> {
        s.u64(&mut self.pf_va)?;
        s.u64(&mut self.pf_step)?;
        s.u16(&mut self.pf_count)?;
        s.u16(&mut self.pf_slot)?;
        s.u16(&mut self.confirmed)?;
        s.u8(&mut self.tlb)?;
        let slot_ok = |s: u16| (s as usize) < pf.max_streams;
        let ok = self.tlb <= Front::WALK
            && self.pf_count as u64 <= pf.max_depth
            && (self.pf_count == 0 || slot_ok(self.pf_slot))
            && (self.confirmed == NO_SLOT || slot_ok(self.confirmed));
        s.check(ok, "mem op front")
    }
}

/// One access through a [`MemSystem`] entry point, recorded for epoch
/// replay by the parallel cluster engine (see `xt-soc`).
///
/// A recording system logs every call to [`MemSystem::icache_fetch`],
/// [`MemSystem::dload`], [`MemSystem::dstore`] and
/// [`MemSystem::dcache_flush_all`]. Replaying the log with
/// [`MemSystem::apply_op`] against another instance, in a chosen order,
/// reproduces every state transition behind the issuing core's front
/// end — L1s, L2, directory, in-flight fills, DRAM channel, classifier,
/// scorecard, every counter and traced event, so the mirror's
/// [`MemSystem::stats`] are the recorder's and a core that runs live on
/// the mirror is returned the latencies it would have been returned on
/// the recorder. What it does *not* reproduce
/// is the replayed core's TLB entries and stream table: a data access
/// carries their verdict ([`Front`]), which replay counts and charges
/// for without touching the entries, so the mirror's `save()` bytes
/// equal the recorder's everywhere except the `tlbs` and `pfs` sections
/// of the replayed cores. A core must therefore run live
/// on one instance for its whole life (the cluster engine's replicas
/// do); an instance that only mirrors a core can never take it over.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub enum MemOp {
    /// An [`MemSystem::icache_fetch`] call.
    IFetch {
        /// Cycle of the original access.
        cycle: u64,
        /// Physical fetch address.
        pa: u64,
    },
    /// A [`MemSystem::dload`] call.
    Load {
        /// Cycle of the original access.
        cycle: u64,
        /// Virtual address.
        va: u64,
        /// Physical address.
        pa: u64,
        /// What the issuing core's TLB and stream table decided.
        front: Front,
    },
    /// A [`MemSystem::dstore`] call.
    Store {
        /// Cycle of the original access.
        cycle: u64,
        /// Virtual address.
        va: u64,
        /// Physical address.
        pa: u64,
        /// What the issuing core's TLB and stream table decided.
        front: Front,
    },
    /// A [`MemSystem::dcache_flush_all`] call.
    #[default]
    FlushAll,
}

impl MemOp {
    /// One record of a recorded log — its tag, then its fields — for an
    /// instance whose prefetcher is configured as `pf`: a [`Front`] no
    /// such instance could have recorded is `Corrupt`.
    pub fn transfer<S: Stream>(
        &mut self,
        s: &mut S,
        pf: &PrefetchConfig,
    ) -> xt_snapshot::Result<()> {
        const BLANK: Front = Front {
            pf_va: 0,
            pf_step: 0,
            pf_count: 0,
            pf_slot: 0,
            confirmed: NO_SLOT,
            tlb: 0,
        };
        const OPS: [MemOp; 4] = [
            MemOp::IFetch { cycle: 0, pa: 0 },
            MemOp::Load {
                cycle: 0,
                va: 0,
                pa: 0,
                front: BLANK,
            },
            MemOp::Store {
                cycle: 0,
                va: 0,
                pa: 0,
                front: BLANK,
            },
            MemOp::FlushAll,
        ];
        s.variant(self, &OPS, "mem op tag")?;
        match self {
            MemOp::IFetch { cycle, pa } => {
                s.u64(cycle)?;
                s.u64(pa)
            }
            MemOp::Load {
                cycle,
                va,
                pa,
                front,
            }
            | MemOp::Store {
                cycle,
                va,
                pa,
                front,
            } => {
                s.u64(cycle)?;
                s.u64(va)?;
                s.u64(pa)?;
                front.transfer(s, pf)
            }
            MemOp::FlushAll => Ok(()),
        }
    }
}

/// The cores named by a holder bit mask, in ascending order.
fn cores_of(mut mask: u16) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let c = mask.trailing_zeros() as usize;
            mask &= mask - 1; // clear the lowest set bit
            c
        })
    })
}

/// The cluster memory hierarchy (paper Fig. 2: up to 4 cores sharing an
/// inclusive L2).
///
/// All methods take the current `cycle` and return the cycle at which the
/// access completes; internal state (cache contents, stream tables, TLB
/// entries, channel occupancy) advances as a side effect.
#[derive(Debug)]
pub struct MemSystem {
    cfg: MemConfig,
    l1i: Vec<Cache>,
    l1d: Vec<Cache>,
    tlbs: Vec<Tlb>,
    pfs: Vec<Prefetcher>,
    l2: Cache,
    /// Snoop filter: L2 line address -> presence bitmask over cores' L1D.
    dir: LineMap<u16>,
    dram: Dram,
    /// Prefetches still in flight: PA line address -> ready cycle.
    inflight: LineMap<u64>,
    /// The counter table: every statistic of the hierarchy, moved only
    /// by [`Self::record`].
    stats: MemStats,
    /// Whether the statistics-only observers are fed: the miss
    /// classifiers and the scorecard's ownership map below, and with
    /// them the table's miss-class and scorecard columns. They feed
    /// counters and event payloads, never a latency, so an instance
    /// nobody reads statistics from ([`Self::replica`]) leaves them at
    /// reset; which it is gets decided once per access ([`Self::back`]).
    observe: bool,
    /// Per-core 3C+coherence miss classifiers.
    cls: Vec<MissClassifier>,
    /// Per-core ownership of not-yet-demanded prefetched L1D lines:
    /// line address -> stream-table slot that prefetched it.
    pf_owner: Vec<LineMap<usize>>,
    line_bytes: u64,
    /// When `Some`, every public access is appended here (epoch replay).
    recorder: Option<Vec<MemOp>>,
    /// When `Some`, every recorded event is also collected. Unlike the
    /// recorder, the tracer is NOT suspended during [`Self::apply_op`]:
    /// replayed operations advance this instance's counters, so their
    /// events belong in this instance's stream (the cluster master's
    /// stream is the canonical one).
    tracer: Option<MemTracer>,
}

impl MemSystem {
    /// Builds the hierarchy from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`MemConfig::validate`]).
    pub fn new(cfg: MemConfig) -> Self {
        Self::build(cfg, true)
    }

    /// Builds a hierarchy whose statistics nobody reads — a cluster
    /// core's private replica, whose job is to return the right latency.
    /// Every latency and every state transition outside the miss
    /// classifier and the prefetch scorecard is that of [`Self::new`];
    /// those two stay at reset, so [`Self::stats`] is not a report
    /// (miss classes and scorecard read zero) and the instance cannot
    /// trace (its events would lack the payloads the two supply).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`MemConfig::validate`]).
    pub fn replica(cfg: MemConfig) -> Self {
        Self::build(cfg, false)
    }

    fn build(cfg: MemConfig, observe: bool) -> Self {
        cfg.validate().expect("invalid memory configuration");
        let cores = cfg.cores;
        let l1d_lines = cfg.l1d_kib as usize * 1024 / cfg.line_bytes as usize;
        MemSystem {
            l1i: (0..cores)
                .map(|_| Cache::new("L1I", cfg.l1i_kib, cfg.l1_ways, cfg.line_bytes))
                .collect(),
            l1d: (0..cores)
                .map(|_| Cache::new("L1D", cfg.l1d_kib, cfg.l1_ways, cfg.line_bytes))
                .collect(),
            tlbs: (0..cores)
                .map(|_| Tlb::new(cfg.utlb_entries, cfg.jtlb_sets))
                .collect(),
            pfs: (0..cores)
                .map(|_| Prefetcher::new(cfg.prefetch, cfg.line_bytes))
                .collect(),
            l2: Cache::new("L2", cfg.l2_kib, cfg.l2_ways, cfg.line_bytes),
            dir: LineMap::default(),
            dram: Dram::new(cfg.dram_latency, cfg.dram_transfer),
            inflight: LineMap::default(),
            stats: MemStats::zeroed(cores, cfg.prefetch.max_streams),
            observe,
            cls: (0..cores).map(|_| MissClassifier::new(l1d_lines)).collect(),
            pf_owner: vec![LineMap::default(); cores],
            line_bytes: cfg.line_bytes as u64,
            recorder: None,
            tracer: None,
            cfg,
        }
    }

    /// Starts logging every public access for later [`Self::apply_op`]
    /// replay. The log is drained with [`Self::take_log`].
    pub fn start_recording(&mut self) {
        self.recorder = Some(Vec::new());
    }

    /// Drains the recorded access log (empty if not recording).
    pub fn take_log(&mut self) -> Vec<MemOp> {
        match self.recorder.as_mut() {
            // the next epoch's log is about as long as this one's
            Some(log) => {
                let next = Vec::with_capacity(log.len());
                std::mem::replace(log, next)
            }
            None => Vec::new(),
        }
    }

    /// Attaches a fresh [`MemTracer`]: from now on every recorded event
    /// is also appended to it. Purely observational — no latency or
    /// counter changes.
    ///
    /// # Panics
    ///
    /// Panics on an instance built by [`Self::replica`].
    pub fn start_tracing(&mut self) {
        assert!(self.observe, "an observer-less replica cannot trace");
        self.tracer = Some(MemTracer::new());
    }

    /// Detaches and returns the tracer (with all collected events), if
    /// one was attached.
    pub fn stop_tracing(&mut self) -> Option<MemTracer> {
        self.tracer.take()
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&MemTracer> {
        self.tracer.as_ref()
    }

    /// One modeled action happened: counts it — the only place a
    /// statistic moves — and forwards it to the tracer, if one listens.
    #[inline(always)]
    fn record(&mut self, cycle: u64, core: usize, addr: u64, kind: MemEventKind) {
        self.stats.fold(core, kind, self.observe);
        if let Some(t) = self.tracer.as_mut() {
            t.events.push(MemEvent {
                cycle,
                core,
                addr,
                kind,
            });
        }
    }

    /// Replays one recorded access on behalf of `core`, reproducing its
    /// state side effects behind the core's front end (the returned
    /// latency is discarded; see [`MemOp`] for what "behind" leaves
    /// out). Replayed traffic never enters this instance's own log; the
    /// tracer does see it — replayed operations advance this instance's
    /// counters, so their events belong in this instance's stream.
    pub fn apply_op(&mut self, core: usize, op: &MemOp) {
        match *op {
            MemOp::IFetch { cycle, pa } => {
                let _ = self.fetch_line(core, cycle, pa);
            }
            MemOp::Load {
                cycle,
                va,
                pa,
                front,
            } => {
                let _ = self.back(core, cycle, va, pa, front, false);
            }
            MemOp::Store {
                cycle,
                va,
                pa,
                front,
            } => {
                let _ = self.back(core, cycle, va, pa, front, true);
            }
            MemOp::FlushAll => self.flush_l1d(core),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    fn line_of(&self, pa: u64) -> u64 {
        pa & !(self.line_bytes - 1)
    }

    /// Issues a DRAM line request at cycle `at` (for `line`, on behalf
    /// of `core`), including whether it queued behind the channel.
    fn dram_access(&mut self, core: usize, at: u64, line: u64) -> u64 {
        let (done, queued) = self.dram.access(at);
        self.record(at, core, line, MemEventKind::DramRequest { queued });
        done
    }

    /// Other cores currently holding the line in L1D (via the snoop
    /// filter, then verified against the actual caches), as a bit mask
    /// over cores; [`cores_of`] iterates it.
    fn sharers(&mut self, core: usize, cycle: u64, line: u64) -> u16 {
        let mask = self.dir.get(&line).copied().unwrap_or(0) & !(1u16 << core);
        if mask == 0 {
            self.record(cycle, core, line, MemEventKind::SnoopFiltered);
            return 0;
        }
        let mut out = 0;
        for holder in cores_of(mask) {
            // directory said "maybe"; if the cache says "gone" the probe
            // is suppressed rather than sent
            let sent = self.l1d[holder].contains(line);
            self.record(cycle, core, line, MemEventKind::SnoopProbe { holder, sent });
            out |= (sent as u16) << holder;
        }
        out
    }

    /// A prefetched L1D line left core `core`'s cache (eviction,
    /// invalidation, flush) before any demand touch: charge the issuing
    /// stream's `useless` column.
    fn pf_useless(&mut self, cycle: u64, core: usize, line: u64) {
        if let Some(stream) = self.pf_owner[core].remove(&line) {
            self.record(cycle, core, line, MemEventKind::PrefetchUseless { stream });
        }
    }

    /// First demand touch of a prefetched L1D line: a useful prefetch,
    /// credited to the stream that fetched it (to none, unobserved).
    /// Returns that stream.
    fn pf_first_touch<const OBSERVE: bool>(
        &mut self,
        cycle: u64,
        core: usize,
        line: u64,
    ) -> Option<usize> {
        let stream = if OBSERVE {
            self.pf_owner[core].remove(&line)
        } else {
            None
        };
        let level = Level::L1D;
        self.record(
            cycle,
            core,
            line,
            MemEventKind::PrefetchUseful { level, stream },
        );
        stream
    }

    /// Another core's copy of `line` dies for `core`'s store. Returns
    /// whether the holder had the line dirty and supplied it
    /// cache-to-cache.
    fn invalidate_remote<const OBSERVE: bool>(
        &mut self,
        cycle: u64,
        core: usize,
        holder: usize,
        line: u64,
    ) -> bool {
        let dirty = self.l1d[holder].state_of(line).is_dirty();
        if dirty {
            self.record(
                cycle,
                core,
                line,
                MemEventKind::C2CTransfer { from: holder },
            );
        }
        self.l1d[holder].set_state(line, LineState::Invalid);
        self.note_l1d_evict(holder, line);
        self.record(
            cycle,
            core,
            line,
            MemEventKind::CohInvalidate { victim: holder },
        );
        if OBSERVE {
            self.cls[holder].on_coherence_invalidate(line);
            self.pf_useless(cycle, holder, line);
        }
        dirty
    }

    /// Fetches the line of `pa` from DRAM into the L2 and returns the
    /// ready cycle; the inclusion victim, if any, leaves every L1. A
    /// `demand` fill (L1 refill, page walk) reaches DRAM one L2 lookup
    /// after `cycle`; a prefetch engine's fill goes straight out and
    /// marks the line prefetched.
    ///
    /// `demand` also decides what becomes of a *dirty* victim, an
    /// asymmetry the model has always had and this function keeps
    /// because closing it moves cycles and every baseline (ROADMAP item
    /// 5): a demand fill writes the victim back and occupies the DRAM
    /// channel for it; a prefetch fill reports the eviction as dirty
    /// and then neither writes it back nor charges the channel.
    fn l2_fetch(&mut self, cycle: u64, core: usize, pa: u64, demand: bool) -> u64 {
        let line = self.line_of(pa);
        let at = if demand {
            cycle + self.cfg.l2_hit
        } else {
            cycle
        };
        let done = self.dram_access(core, at, line);
        let (level, state, prefetched) = (Level::L2, LineState::Exclusive, !demand);
        if let Some(victim) = self.l2.fill(pa, state, prefetched) {
            let dirty = victim.state.is_dirty();
            self.record(
                cycle,
                core,
                victim.addr,
                MemEventKind::Eviction {
                    level,
                    dirty,
                    wasted_prefetch: victim.wasted_prefetch,
                },
            );
            self.back_invalidate(cycle, core, victim.addr);
            if demand && dirty {
                self.record(cycle, core, victim.addr, MemEventKind::Writeback { level });
                let _ = self.dram_access(core, cycle, victim.addr);
            }
        }
        let fill = MemEventKind::Fill {
            level,
            state,
            prefetched,
        };
        self.record(cycle, core, line, fill);
        done
    }

    /// A demand access to the L2 on behalf of `core` (see
    /// [`MemStats::l2_demand`]): brings the line in if absent, returning
    /// the ready cycle.
    fn l2_fill_path(&mut self, core: usize, cycle: u64, pa: u64) -> u64 {
        let line = self.line_of(pa);
        let hit = matches!(self.l2.access(pa, false), ProbeResult::Hit { .. });
        self.record(cycle, core, line, MemEventKind::L2Access { hit });
        if hit {
            return cycle + self.cfg.l2_hit;
        }
        // merge with an in-flight prefetch if present
        if let Some(&ready) = self.inflight.get(&line) {
            if ready > cycle {
                return ready;
            }
            self.inflight.remove(&line);
        }
        self.l2_fetch(cycle, core, pa, true)
    }

    /// Inclusive property: an L2 eviction removes the line from all L1s.
    /// `requester` is the core whose fill triggered the eviction (events
    /// are attributed to it).
    fn back_invalidate(&mut self, cycle: u64, requester: usize, line_addr: u64) {
        let line = self.line_of(line_addr);
        if let Some(mask) = self.dir.remove(&line) {
            for victim in cores_of(mask) {
                // inclusion victim: the classifier drops the line
                // without a coherence mark (documented limit — the
                // next miss classifies as capacity)
                self.cls[victim].on_back_invalidate(line);
                if self.l1d[victim]
                    .set_state(line, LineState::Invalid)
                    .is_some()
                {
                    let level = Level::L1D;
                    self.record(
                        cycle,
                        requester,
                        line,
                        MemEventKind::BackInvalidate { victim, level },
                    );
                }
                self.pf_useless(cycle, victim, line);
            }
        }
        for victim in 0..self.cfg.cores {
            if self.l1i[victim]
                .set_state(line, LineState::Invalid)
                .is_some()
            {
                let level = Level::L1I;
                self.record(
                    cycle,
                    requester,
                    line,
                    MemEventKind::BackInvalidate { victim, level },
                );
            }
        }
    }

    /// Installs the line of `pa` in `core`'s L1I; the victim, if any, is
    /// clean and simply dropped.
    fn l1i_fill(&mut self, cycle: u64, core: usize, pa: u64, prefetched: bool) {
        let (level, state) = (Level::L1I, LineState::Shared);
        if let Some(v) = self.l1i[core].fill(pa, state, prefetched) {
            self.record(
                cycle,
                core,
                v.addr,
                MemEventKind::Eviction {
                    level,
                    dirty: false,
                    wasted_prefetch: v.wasted_prefetch,
                },
            );
        }
        let fill = MemEventKind::Fill {
            level,
            state,
            prefetched,
        };
        self.record(cycle, core, self.line_of(pa), fill);
    }

    /// Installs the line of `pa` in `core`'s L1D in `state` and tells
    /// the snoop filter; a dirty victim merges into the L2.
    fn l1d_fill<const OBSERVE: bool>(
        &mut self,
        cycle: u64,
        core: usize,
        pa: u64,
        state: LineState,
        prefetched: bool,
    ) {
        let level = Level::L1D;
        if let Some(v) = self.l1d[core].fill(pa, state, prefetched) {
            self.note_l1d_evict(core, v.addr);
            if OBSERVE {
                self.pf_useless(cycle, core, v.addr);
            }
            let dirty = v.state.is_dirty();
            self.record(
                cycle,
                core,
                v.addr,
                MemEventKind::Eviction {
                    level,
                    dirty,
                    wasted_prefetch: v.wasted_prefetch,
                },
            );
            if dirty {
                self.l2.set_state(v.addr, LineState::Modified);
                self.record(cycle, core, v.addr, MemEventKind::Writeback { level });
            }
        }
        let line = self.line_of(pa);
        *self.dir.entry(line).or_insert(0) |= 1 << core;
        let fill = MemEventKind::Fill {
            level,
            state,
            prefetched,
        };
        self.record(cycle, core, line, fill);
    }

    fn note_l1d_evict(&mut self, core: usize, line_addr: u64) {
        let line = self.line_of(line_addr);
        if let Some(mask) = self.dir.get_mut(&line) {
            *mask &= !(1u16 << core);
            if *mask == 0 {
                self.dir.remove(&line);
            }
        }
    }

    // ---- public access paths ----

    /// Instruction fetch of the line containing `pa`. Returns the ready
    /// cycle (L1I hit = `cycle`, so sequential fetch is free). The IFU
    /// prefetches the next lines sequentially (IBUF fetch-ahead, §III),
    /// so straight-line code does not pay DRAM latency per line.
    pub fn icache_fetch(&mut self, core: usize, cycle: u64, pa: u64) -> u64 {
        if let Some(log) = self.recorder.as_mut() {
            log.push(MemOp::IFetch { cycle, pa });
        }
        self.fetch_line(core, cycle, pa)
    }

    fn fetch_line(&mut self, core: usize, cycle: u64, pa: u64) -> u64 {
        let line = self.line_of(pa);
        // instruction-side prefetches have no stream table
        let (level, stream) = (Level::L1I, None);
        let done = match self.l1i[core].access(pa, false) {
            ProbeResult::Hit { was_prefetched } => {
                self.record(cycle, core, line, MemEventKind::L1IAccess { hit: true });
                if was_prefetched {
                    self.record(
                        cycle,
                        core,
                        line,
                        MemEventKind::PrefetchUseful { level, stream },
                    );
                }
                match self.inflight.get(&line) {
                    Some(&ready) if ready > cycle => {
                        if was_prefetched {
                            self.record(
                                cycle,
                                core,
                                line,
                                MemEventKind::PrefetchLate { level, stream },
                            );
                        }
                        ready
                    }
                    _ => {
                        self.inflight.remove(&line);
                        cycle
                    }
                }
            }
            _ => {
                self.record(cycle, core, line, MemEventKind::L1IAccess { hit: false });
                let done = self.l2_fill_path(core, cycle, pa);
                self.l1i_fill(cycle, core, pa, false);
                done
            }
        };
        // sequential instruction-line prefetch into L1I
        for k in 1..=2u64 {
            let npa = pa.wrapping_add(k * self.line_bytes);
            let nline = self.line_of(npa);
            if self.l1i[core].contains(npa) || self.inflight.contains_key(&nline) {
                continue;
            }
            let ready = if self.l2.contains(npa) {
                cycle + self.cfg.l2_hit
            } else {
                self.l2_fetch(cycle, core, npa, false)
            };
            self.l1i_fill(cycle, core, npa, true);
            self.record(
                cycle,
                core,
                nline,
                MemEventKind::PrefetchFill { level, stream },
            );
            self.inflight.insert(nline, ready);
        }
        done
    }

    /// The half of a data access that is private to `core`, in the order
    /// the hardware does it: µTLB/jTLB lookup (a miss installs the
    /// mapping the walk will return — `pa` is the known physical target
    /// from the functional trace), the stream table's verdict, and §V-C's
    /// cross-page request for the next page's translation. Costs no
    /// cycle and touches nothing shared: [`Self::back_access`] charges
    /// for what the returned record says happened.
    fn front_access(&mut self, core: usize, va: u64, pa: u64) -> Front {
        let tlb = &mut self.tlbs[core];
        let mapping = |va, pa, asid| Mapping {
            va,
            pa,
            size: PageSize::P4K,
            asid,
            global: false,
        };
        let outcome = match tlb.lookup(va) {
            TlbResult::MicroHit { .. } => 0,
            TlbResult::JointHit { probes, .. } => probes as u8,
            TlbResult::Miss => {
                tlb.install(mapping(va, pa, tlb.asid));
                Front::WALK
            }
        };
        let pf = &mut self.pfs[core];
        let pf_cfg = *pf.config();
        if !pf_cfg.enabled() {
            return Front::new(outcome, None, &[]);
        }
        let confirmed = pf.on_access(va);
        if pf_cfg.tlb {
            for req in pf.requests() {
                // §V-C: a request on another page asks for that page's
                // translation automatically. Without TLB prefetch the
                // physical prefetch stream continues all the same
                // (sequential pages are physically contiguous here), but
                // the demand access at the new page pays its own jTLB
                // probes / walk — the small Fig. 21 (d) vs (e) delta.
                if (req.va >> 12) != (va >> 12) && !tlb.peek(req.va) {
                    let req_pa = pa.wrapping_add(req.va.wrapping_sub(va));
                    tlb.install_prefetch(mapping(req.va, req_pa, tlb.asid));
                }
            }
        }
        Front::new(outcome, confirmed, pf.requests())
    }

    /// Hardware page walk: three dependent PTE reads. The walker fetches
    /// from the L2 (PTE lines are not installed in the L1D, as in most
    /// real walkers), so later walks to nearby pages hit there.
    fn walk(&mut self, core: usize, cycle: u64, va: u64) -> u64 {
        let mut t = cycle;
        for level in 0..3u64 {
            let pte_pa = self.pte_addr(va, level);
            t = self.l2_fill_path(core, t, pte_pa);
        }
        t
    }

    /// Synthetic PTE address: adjacent virtual pages share leaf PTE lines
    /// (8 PTEs per 64-byte line), like a real radix table.
    fn pte_addr(&self, va: u64, level: u64) -> u64 {
        let vpn = va >> 12;
        match level {
            0 => PTE_REGION + 0x4000_0000 + (vpn >> 18) * 8,
            1 => PTE_REGION + 0x2000_0000 + (vpn >> 9) * 8,
            _ => PTE_REGION + vpn * 8,
        }
    }

    /// Data load at (`va`, `pa`). Returns the completion cycle.
    pub fn dload(&mut self, core: usize, cycle: u64, va: u64, pa: u64) -> u64 {
        let front = self.front_access(core, va, pa);
        if let Some(log) = self.recorder.as_mut() {
            log.push(MemOp::Load {
                cycle,
                va,
                pa,
                front,
            });
        }
        self.back(core, cycle, va, pa, front, false)
    }

    /// Data store at (`va`, `pa`). Returns the completion cycle (store
    /// commit into the cache).
    pub fn dstore(&mut self, core: usize, cycle: u64, va: u64, pa: u64) -> u64 {
        let front = self.front_access(core, va, pa);
        if let Some(log) = self.recorder.as_mut() {
            log.push(MemOp::Store {
                cycle,
                va,
                pa,
                front,
            });
        }
        self.back(core, cycle, va, pa, front, true)
    }

    /// [`Self::back_access`], with or without the observers: the one
    /// place an access asks which kind of instance it is on.
    #[inline]
    fn back(
        &mut self,
        core: usize,
        cycle: u64,
        va: u64,
        pa: u64,
        front: Front,
        is_store: bool,
    ) -> u64 {
        if self.observe {
            self.back_access::<true>(core, cycle, va, pa, front, is_store)
        } else {
            self.back_access::<false>(core, cycle, va, pa, front, is_store)
        }
    }

    fn data_path<const OBSERVE: bool>(
        &mut self,
        core: usize,
        cycle: u64,
        pa: u64,
        is_store: bool,
    ) -> u64 {
        let line = self.line_of(pa);
        match self.l1d[core].access(pa, is_store) {
            ProbeResult::Hit { was_prefetched } => {
                if OBSERVE {
                    self.cls[core].on_hit(line);
                }
                self.record(cycle, core, line, MemEventKind::L1DHit { store: is_store });
                let mut stream = None;
                if was_prefetched {
                    stream = self.pf_first_touch::<OBSERVE>(cycle, core, line);
                }
                // if the line is an in-flight prefetch, wait for it
                if let Some(&ready) = self.inflight.get(&line) {
                    if ready > cycle {
                        if was_prefetched {
                            let level = Level::L1D;
                            self.record(
                                cycle,
                                core,
                                line,
                                MemEventKind::PrefetchLate { level, stream },
                            );
                        }
                        return ready.max(cycle + self.cfg.l1_hit);
                    }
                    self.inflight.remove(&line);
                }
                cycle + self.cfg.l1_hit
            }
            ProbeResult::UpgradeNeeded { was_prefetched } => {
                // a hit for the classifier and the scorecard, even though
                // the store still needs a coherence upgrade
                if OBSERVE {
                    self.cls[core].on_hit(line);
                }
                if was_prefetched {
                    self.pf_first_touch::<OBSERVE>(cycle, core, line);
                }
                // invalidate other sharers through the snoop filter
                self.record(cycle, core, line, MemEventKind::CohUpgrade);
                let sharers = self.sharers(core, cycle, line);
                let mut extra = self.cfg.l2_hit; // upgrade round-trip
                for c in cores_of(sharers) {
                    if self.invalidate_remote::<OBSERVE>(cycle, core, c, line) {
                        extra += self.cfg.c2c_penalty;
                    }
                }
                self.l1d[core].set_state(line, LineState::Modified);
                cycle + self.cfg.l1_hit + extra
            }
            ProbeResult::Miss => {
                let class = if OBSERVE {
                    self.cls[core].on_miss(line)
                } else {
                    // a placeholder nobody reads: without observers the
                    // class is neither counted (`MemStats::fold`) nor
                    // traced (a replica refuses a tracer)
                    MissClass::Compulsory
                };
                let store = is_store;
                self.record(cycle, core, line, MemEventKind::L1DMiss { store, class });
                let sharers = self.sharers(core, cycle, line);
                let mut c2c = 0;
                let mut fill_state = if is_store {
                    LineState::Modified
                } else if sharers == 0 {
                    LineState::Exclusive
                } else {
                    LineState::Shared
                };
                for c in cores_of(sharers) {
                    let st = self.l1d[c].state_of(line);
                    if is_store {
                        if self.invalidate_remote::<OBSERVE>(cycle, core, c, line) {
                            c2c = self.cfg.c2c_penalty;
                        }
                    } else if st == LineState::Modified || st == LineState::Exclusive {
                        // dirty sharing: the supplier keeps an Owned copy;
                        // a clean exclusive one just becomes Shared
                        let to = if st == LineState::Modified {
                            c2c = self.cfg.c2c_penalty;
                            self.record(cycle, core, line, MemEventKind::C2CTransfer { from: c });
                            LineState::Owned
                        } else {
                            LineState::Shared
                        };
                        self.l1d[c].set_state(line, to);
                        fill_state = LineState::Shared;
                        self.record(
                            cycle,
                            core,
                            line,
                            MemEventKind::CohDowngrade { victim: c, to },
                        );
                    }
                }
                let done = self.l2_fill_path(core, cycle + self.cfg.l1_hit, pa);
                self.l1d_fill::<OBSERVE>(cycle, core, pa, fill_state, false);
                // MSHR merge: later accesses to this line wait for the fill
                let done = done + c2c;
                if done > cycle + self.cfg.l1_hit {
                    self.inflight.insert(line, done);
                }
                done
            }
        }
    }

    /// The half of a data access that costs cycles or touches shared
    /// state, given what the issuing core's front end decided
    /// (`front`): the walk through L2 on a TLB miss, the prefetch
    /// engine's fills, then the demand access itself. Live accesses and
    /// replayed ones both end here, so what the front end decided is
    /// counted here. `OBSERVE` says whether the miss classifier and the
    /// scorecard are fed (see [`Self::replica`]).
    fn back_access<const OBSERVE: bool>(
        &mut self,
        core: usize,
        cycle: u64,
        va: u64,
        pa: u64,
        front: Front,
        is_store: bool,
    ) -> u64 {
        let cycle = match front.tlb {
            0 => {
                self.record(cycle, core, va, MemEventKind::TlbMicroHit);
                cycle + self.cfg.utlb_hit
            }
            Front::WALK => {
                let done = self.walk(core, cycle + self.cfg.jtlb_hit * 3, va);
                let cycles = done - cycle;
                self.record(cycle, core, va, MemEventKind::TlbWalk { cycles });
                done
            }
            probes => {
                let probes = probes as u32;
                self.record(cycle, core, va, MemEventKind::TlbJointHit { probes });
                cycle + self.cfg.jtlb_hit * probes as u64
            }
        };
        if front.confirmed != NO_SLOT {
            let stream = front.confirmed as usize;
            self.record(
                cycle,
                core,
                self.line_of(pa),
                MemEventKind::StreamConfirmed { stream },
            );
        }
        // L1 prefetch reaches `distance` lines; with the L2 prefetcher on,
        // a second engine runs the same stream further ahead into L2 only.
        let pf_cfg = self.cfg.prefetch;
        let l1_reach = pf_cfg.distance.lines() * self.line_bytes;
        for req in front.requests() {
            let delta = req.va.wrapping_sub(va);
            let req_pa = pa.wrapping_add(delta);
            let line = self.line_of(req_pa);
            let stream = req.stream;
            // issued counts every request, including ones the fill path
            // below elides
            self.record(cycle, core, line, MemEventKind::PrefetchIssue { stream });
            // skip only if a fill for this line is genuinely in flight;
            // drop entries that completed long ago (earlier phases)
            match self.inflight.get(&line) {
                Some(&r) if r > cycle => continue,
                Some(_) => {
                    self.inflight.remove(&line);
                }
                None => {}
            }
            let into_l1 = pf_cfg.l1 && delta <= l1_reach;
            if into_l1 && self.l1d[core].contains(req_pa) {
                continue;
            }
            if !into_l1 && self.l2.contains(req_pa) {
                continue;
            }
            // issue: DRAM fill unless L2 already has it
            let ready = if self.l2.contains(req_pa) {
                cycle + self.cfg.l2_hit
            } else {
                self.l2_fetch(cycle, core, req_pa, false)
            };
            let level = if into_l1 {
                self.l1d_fill::<OBSERVE>(cycle, core, req_pa, LineState::Exclusive, true);
                if OBSERVE {
                    self.pf_owner[core].insert(line, stream);
                }
                Level::L1D
            } else {
                Level::L2
            };
            let stream = Some(stream);
            self.record(
                cycle,
                core,
                line,
                MemEventKind::PrefetchFill { level, stream },
            );
            self.inflight.insert(line, ready);
        }
        self.data_path::<OBSERVE>(core, cycle, pa, is_store)
    }

    // ---- maintenance operations (custom extensions / OS events) ----

    /// `x.dcache.call`: clean+invalidate the whole L1D of `core`.
    /// Maintenance operations are untimed; their events carry cycle 0.
    pub fn dcache_flush_all(&mut self, core: usize) {
        if let Some(log) = self.recorder.as_mut() {
            log.push(MemOp::FlushAll);
        }
        self.flush_l1d(core);
    }

    fn flush_l1d(&mut self, core: usize) {
        let dirty_lines = self.l1d[core].invalidate_all();
        self.record(0, core, 0, MemEventKind::CacheFlush { dirty_lines });
        // every not-yet-demanded prefetched line is gone: charge the
        // issuing streams (drained in sorted order for determinism)
        let mut owned: Vec<u64> = self.pf_owner[core].keys().copied().collect();
        owned.sort_unstable();
        for line in owned {
            self.pf_useless(0, core, line);
        }
        self.cls[core].on_flush();
        // rebuild the snoop filter without this core
        for mask in self.dir.values_mut() {
            *mask &= !(1u16 << core);
        }
        self.dir.retain(|_, m| *m != 0);
    }

    /// Context switch on `core` to `asid`. A 16-bit-ASID design just
    /// retags; a narrow design that overflowed must flush (§V-E).
    pub fn context_switch(&mut self, core: usize, asid: u16, must_flush: bool) {
        if must_flush {
            self.tlbs[core].flush_all();
            self.record(0, core, 0, MemEventKind::TlbFlush);
        }
        self.tlbs[core].asid = asid;
    }

    /// Hardware TLB-maintenance broadcast (§V-E): every core drops the
    /// mappings for (`va`, `asid`) without IPIs.
    pub fn tlb_broadcast_invalidate(&mut self, va: u64, asid: u16) {
        for t in &mut self.tlbs {
            t.flush_va(va, asid);
        }
    }

    /// Direct access to a core's L1D (tests).
    pub fn l1d(&self, core: usize) -> &Cache {
        &self.l1d[core]
    }

    /// Shared L2 (tests).
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// A copy of the counter table.
    pub fn stats(&self) -> MemStats {
        self.stats.clone()
    }
}

impl xt_snapshot::SnapshotState for MemSystem {
    /// Captures the whole hierarchy: per-core L1s/TLBs/prefetchers, the
    /// shared L2, snoop-filter directory, in-flight fills, DRAM channel
    /// occupancy, the counter table, the epoch-replay recorder, the
    /// scorecard's line-ownership map, the per-core miss classifiers,
    /// and the optional tracer (with its event buffer), so traced runs resume
    /// byte-exact. Hash maps are written in sorted key order so the
    /// encoding is canonical.
    fn transfer<S: Stream>(&mut self, s: &mut S) -> xt_snapshot::Result<()> {
        use xt_snapshot::SnapshotError;
        s.expect("core count", self.cfg.cores)?;
        for c in self.l1i.iter_mut().chain(&mut self.l1d) {
            c.transfer(s)?;
        }
        for t in &mut self.tlbs {
            t.transfer(s)?;
        }
        for p in &mut self.pfs {
            p.transfer(s)?;
        }
        self.l2.transfer(s)?;
        s.map(&mut self.dir, 10, S::u16)?;
        self.dram.transfer(s)?;
        s.map(&mut self.inflight, 16, S::u64)?;
        self.stats.transfer(s)?;
        let pf = self.cfg.prefetch;
        s.opt(&mut self.recorder, |s, log| {
            s.vec(log, 1, |s, op| op.transfer(s, &pf))
        })?;
        let cores = SnapshotError::Mismatch {
            what: "prefetch owner core count",
        };
        s.fixed(&mut self.pf_owner, cores, |s, owner| {
            s.map(owner, 9, S::usize)
        })?;
        for c in &mut self.cls {
            c.transfer(s)?;
        }
        let observe = self.observe;
        s.opt(&mut self.tracer, |s, t| {
            if S::DECODING && !observe {
                return Err(SnapshotError::Mismatch {
                    what: "tracer on an observer-less replica",
                });
            }
            t.transfer(s)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrefetchConfig;
    use xt_snapshot::SnapshotState;

    fn sys(cores: usize, pf: PrefetchConfig) -> MemSystem {
        let cfg = MemConfig {
            cores,
            prefetch: pf,
            ..MemConfig::default()
        };
        MemSystem::new(cfg)
    }

    #[test]
    fn load_miss_hits_after_fill() {
        let mut m = sys(1, PrefetchConfig::off());
        let t1 = m.dload(0, 0, 0x9000_0000, 0x9000_0000);
        assert!(t1 >= 200, "cold miss pays DRAM: {t1}");
        let t2 = m.dload(0, t1, 0x9000_0008, 0x9000_0008);
        assert_eq!(t2, t1 + m.config().l1_hit, "same line hits in L1");
    }

    #[test]
    fn icache_sequential_fetch_free_after_fill() {
        let mut m = sys(1, PrefetchConfig::off());
        let t1 = m.icache_fetch(0, 0, 0x8000_0000);
        assert!(t1 > 0);
        let t2 = m.icache_fetch(0, t1, 0x8000_0010);
        assert_eq!(t2, t1, "same line: no extra cost");
    }

    #[test]
    fn prefetch_hides_latency_on_stream() {
        // Walk a long unit-stride stream and compare total time.
        let run = |pf: PrefetchConfig| -> u64 {
            let mut m = sys(1, pf);
            let mut t = 0;
            for k in 0..4096u64 {
                let addr = 0x9000_0000 + k * 8;
                t = m.dload(0, t, addr, addr);
            }
            t
        };
        let off = run(PrefetchConfig::off());
        let small = run(PrefetchConfig::l1_small());
        let large = run(PrefetchConfig::all_large());
        assert!(
            small * 2 < off,
            "L1 prefetch at least 2x on stream: off={off} small={small}"
        );
        assert!(large < small, "large distance faster: {large} vs {small}");
    }

    #[test]
    fn tlb_walks_disappear_with_tlb_prefetch() {
        let run = |pf: PrefetchConfig| -> u64 {
            let mut m = sys(1, pf);
            let mut t = 0;
            for k in 0..(16 * 512u64) {
                // 16 pages of sequential doubles
                let addr = 0x9000_0000 + k * 8;
                t = m.dload(0, t, addr, addr);
            }
            m.stats().total_walks()
        };
        let without = run(PrefetchConfig::no_tlb_large());
        let with = run(PrefetchConfig::all_large());
        assert!(
            with < without,
            "TLB prefetch removes boundary walks: {with} vs {without}"
        );
    }

    #[test]
    fn tlb_prefetch_covers_exactly_the_page_boundary() {
        // stream exactly two pages; the only demand walk with TLB
        // prefetch on is page 0's, because the cross-page prefetch
        // installed page 1's mapping before demand got there
        let run = |pf: PrefetchConfig| -> u64 {
            let mut m = sys(1, pf);
            let mut t = 0;
            for k in 0..(2 * 512u64) {
                let a = 0x9000_0000 + k * 8;
                t = m.dload(0, t, a, a);
            }
            m.stats().total_walks()
        };
        assert_eq!(run(PrefetchConfig::all_large()), 1);
        assert_eq!(run(PrefetchConfig::no_tlb_large()), 2);
    }

    #[test]
    fn tlb_prefetch_is_requested_even_when_the_fill_is_elided() {
        // second sweep over two pages whose lines are all still cached:
        // every prefetch request is dropped before it fills anything,
        // but the request that crosses into page 1 still asks for that
        // page's translation (the front end decides that, not the fill)
        let mut m = sys(1, PrefetchConfig::all_large());
        let mut t = 0;
        for sweep in 1..=2u64 {
            for k in 0..(2 * 512u64) {
                let a = 0x9000_0000 + k * 8;
                t = m.dload(0, t, a, a);
            }
            assert_eq!(m.stats().total_walks(), sweep, "page 0 walks, page 1 never");
            m.context_switch(0, 0, true); // drop the translations, keep the lines
        }
    }

    #[test]
    fn coherence_read_sharing_and_write_invalidate() {
        let mut m = sys(2, PrefetchConfig::off());
        let a = 0x9000_0000;
        // core 0 writes the line -> Modified
        let t = m.dstore(0, 0, a, a);
        assert_eq!(m.l1d(0).state_of(a), LineState::Modified);
        // core 1 reads -> dirty sharing: 0 becomes Owned, 1 Shared
        let t2 = m.dload(1, t, a, a);
        assert_eq!(m.l1d(0).state_of(a), LineState::Owned);
        assert_eq!(m.l1d(1).state_of(a), LineState::Shared);
        assert!(t2 > t);
        // core 1 writes -> core 0 invalidated
        let _ = m.dstore(1, t2, a, a);
        assert_eq!(m.l1d(0).state_of(a), LineState::Invalid);
        assert_eq!(m.l1d(1).state_of(a), LineState::Modified);
        let s = m.stats();
        assert!(s.c2c_transfers >= 1);
        assert!(s.snoops_sent >= 1);
    }

    #[test]
    fn snoop_filter_blocks_private_traffic() {
        let mut m = sys(4, PrefetchConfig::off());
        let mut t = 0;
        // each core works on a private region
        for c in 0..4usize {
            for k in 0..64u64 {
                let a = 0x9000_0000 + (c as u64) * 0x10_0000 + k * 64;
                t = m.dload(c, t, a, a);
            }
        }
        let s = m.stats();
        assert_eq!(s.snoops_sent, 0, "no sharing -> no snoops");
        assert!(s.snoops_filtered > 0);
        assert!(s.snoop_matrix.iter().all(|&v| v == 0), "matrix empty too");
    }

    #[test]
    fn asid_switch_without_flush_keeps_entries() {
        let mut m = sys(1, PrefetchConfig::off());
        let a = 0x9000_0000;
        let _ = m.dload(0, 0, a, a);
        assert_eq!(m.stats().total_walks(), 1);
        // 16-bit ASID: switch and come back without flushing
        m.context_switch(0, 1, false);
        m.context_switch(0, 0, false);
        let _ = m.dload(0, 1000, a, a);
        assert_eq!(m.stats().total_walks(), 1, "entry survived the switch");
        // narrow-ASID overflow forces a flush
        m.context_switch(0, 1, true);
        m.context_switch(0, 0, true);
        let _ = m.dload(0, 2000, a, a);
        assert_eq!(m.stats().total_walks(), 2, "flush forced a re-walk");
    }

    #[test]
    fn inclusive_l2_eviction_back_invalidates() {
        // Tiny L2 so we can force evictions.
        let cfg = MemConfig {
            cores: 1,
            l2_kib: 256,
            l2_ways: 8,
            prefetch: PrefetchConfig::off(),
            ..MemConfig::default()
        };
        let mut m = MemSystem::new(cfg);
        let first = 0x9000_0000u64;
        let mut t = m.dload(0, 0, first, first);
        assert!(m.l1d(0).contains(first));
        // storm the same L2 set: set stride = 256KiB/8 = 32KiB
        for k in 1..=8u64 {
            let a = first + k * 32 * 1024;
            t = m.dload(0, t, a, a);
        }
        assert!(
            !m.l1d(0).contains(first),
            "L2 eviction back-invalidated the L1 copy"
        );
    }

    #[test]
    fn walk_cost_drops_when_pte_lines_cache() {
        let mut m = sys(1, PrefetchConfig::off());
        // touch 8 adjacent pages: their leaf PTEs share one line
        let mut t = 0;
        for p in 0..8u64 {
            let a = 0x9000_0000 + p * 4096;
            t = m.dload(0, t, a, a);
        }
        let s = m.stats();
        assert_eq!(s.total_walks(), 8);
        // the first walk pulls the PTE line; later walks hit it in L1D
        assert!(
            s.walk_cycles < 8 * (3 * m.config().dram_latency),
            "walks amortize via cached PTEs: {}",
            s.walk_cycles
        );
    }

    #[test]
    fn recorded_log_replays_to_identical_state() {
        // a recording system and a mirror fed via apply_op must agree
        let mut rec = sys(2, PrefetchConfig::all_large());
        let mut mirror = sys(2, PrefetchConfig::all_large());
        rec.start_recording();
        let mut t = 0;
        for k in 0..256u64 {
            let a = 0x9000_0000 + k * 8;
            t = rec.dload(0, t, a, a);
            if k % 7 == 0 {
                t = rec.dstore(0, t, a, a);
            }
        }
        let _ = rec.icache_fetch(0, t, 0x8000_0000);
        rec.dcache_flush_all(0);
        let log = rec.take_log();
        assert!(!log.is_empty());
        for op in &log {
            mirror.apply_op(0, op);
        }
        // the mirror never recorded, so its own log is empty
        assert!(mirror.take_log().is_empty());
        // replay runs the same calls at the same cycles, so every counter
        // (including the always-on miss classifier and the scorecard)
        // matches exactly
        assert_eq!(rec.stats(), mirror.stats());
    }

    #[test]
    fn snoop_conservation_holds_under_sharing() {
        let mut m = sys(4, PrefetchConfig::off());
        let a = 0x9000_0000u64;
        let mut t = 0;
        // bounce a handful of lines among all four cores
        for round in 0..32u64 {
            for c in 0..4usize {
                let addr = a + (round % 4) * 64;
                t = if (round + c as u64).is_multiple_of(2) {
                    m.dstore(c, t, addr, addr)
                } else {
                    m.dload(c, t, addr, addr)
                };
            }
        }
        let s = m.stats();
        assert!(s.probe_candidates > 0);
        assert_eq!(
            s.snoops_sent + s.snoops_suppressed,
            s.probe_candidates,
            "every candidate probe is either sent or suppressed"
        );
        assert_eq!(
            s.snoop_matrix.iter().sum::<u64>(),
            s.snoops_sent,
            "the matrix decomposes snoops_sent by (requester, holder)"
        );
    }

    #[test]
    fn tlb_broadcast_invalidates_all_cores() {
        let mut m = sys(4, PrefetchConfig::off());
        let a = 0x9000_0000;
        for c in 0..4 {
            let _ = m.dload(c, 0, a, a);
        }
        assert_eq!(m.stats().total_walks(), 4);
        m.tlb_broadcast_invalidate(a, 0);
        for c in 0..4 {
            let _ = m.dload(c, 10_000, a, a);
        }
        assert_eq!(m.stats().total_walks(), 8, "all cores re-walked");
    }

    // ---- observability ----

    /// Drives a mixed workload (stream + sharing + flush) on `m`.
    fn churn(m: &mut MemSystem, cores: usize) {
        let mut t = 0;
        for k in 0..512u64 {
            let a = 0x9000_0000 + k * 8;
            t = m.dload(0, t, a, a);
            if k % 5 == 0 {
                t = m.dstore(0, t, a, a);
            }
            if cores > 1 && k % 3 == 0 {
                let c = 1 + (k as usize % (cores - 1));
                let shared = 0x9000_0000 + (k % 8) * 64;
                t = if k % 6 == 0 {
                    m.dstore(c, t, shared, shared)
                } else {
                    m.dload(c, t, shared, shared)
                };
            }
            if k % 97 == 0 {
                t = m.icache_fetch(0, t, 0x8000_0000 + k * 4);
            }
        }
        m.dcache_flush_all(0);
        for k in 0..64u64 {
            let a = 0x9000_0000 + k * 64;
            t = m.dload(0, t, a, a);
        }
        let _ = t;
    }

    #[test]
    fn miss_class_conservation_on_mixed_workload() {
        for cores in [1usize, 2, 4] {
            let mut m = sys(cores, PrefetchConfig::all_large());
            churn(&mut m, cores);
            let s = m.stats();
            for c in 0..cores {
                assert_eq!(
                    s.miss_class_sum(c),
                    s.l1d[c].1,
                    "core {c} of {cores}: miss classes must sum to misses"
                );
            }
            if cores > 1 {
                assert!(
                    s.miss_coherence.iter().sum::<u64>() > 0,
                    "sharing workload produces coherence misses"
                );
            }
        }
    }

    #[test]
    fn tracing_does_not_change_timing() {
        // identical workloads with and without a tracer attached must
        // produce identical completion cycles and identical stats
        let run = |traced: bool| -> (Vec<u64>, MemStats) {
            let mut m = sys(2, PrefetchConfig::all_large());
            if traced {
                m.start_tracing();
            }
            let mut cycles = Vec::new();
            let mut t = 0;
            for k in 0..384u64 {
                let a = 0x9000_0000 + k * 16;
                t = m.dload(0, t, a, a);
                cycles.push(t);
                if k % 4 == 0 {
                    t = m.dstore(1, t, a, a);
                    cycles.push(t);
                }
            }
            m.dcache_flush_all(1);
            (cycles, m.stats())
        };
        let (plain_cycles, plain_stats) = run(false);
        let (traced_cycles, traced_stats) = run(true);
        assert_eq!(
            plain_cycles, traced_cycles,
            "tracing must not change timing"
        );
        assert_eq!(
            plain_stats, traced_stats,
            "tracing must not change counters"
        );
    }

    #[test]
    fn traced_events_reconcile_with_stats() {
        for cores in [1usize, 2, 4] {
            let mut m = sys(cores, PrefetchConfig::all_large());
            m.start_tracing();
            churn(&mut m, cores);
            let stats = m.stats();
            let tracer = m.stop_tracing().expect("tracer attached");
            assert!(!tracer.is_empty());
            tracer
                .reconcile(&stats)
                .unwrap_or_else(|e| panic!("{cores} cores: {e}"));
        }
    }

    #[test]
    fn demand_hit_on_inflight_prefetch_is_one_late_not_a_miss() {
        // Pin the late-prefetch accounting: a demand access that hits a
        // prefetched line whose fill is still in flight counts as
        // exactly ONE late prefetch, one L1D *hit*, and zero extra
        // demand misses.
        // A short-distance prefetcher on a unit-stride stream cannot get
        // far enough ahead of DRAM latency, so late prefetches happen
        // repeatedly; check the accounting at every single one.
        let mut m = sys(1, PrefetchConfig::l1_small());
        m.start_tracing();
        let mut t = 0;
        let mut lates = 0u64;
        let mut prev = m.stats();
        for k in 0..64u64 {
            let a = 0x9000_0000 + k * 64;
            t = m.dload(0, t, a, a);
            let now = m.stats();
            let d_late = now.prefetches_late[0] - prev.prefetches_late[0];
            assert!(d_late <= 1, "one access yields at most one late prefetch");
            if d_late == 1 {
                lates += 1;
                assert_eq!(
                    now.l1d[0].1, prev.l1d[0].1,
                    "a late-prefetch touch is NOT a demand miss"
                );
                assert_eq!(now.l1d[0].0, prev.l1d[0].0 + 1, "it is a demand hit");
                assert_eq!(
                    now.prefetches_useful[0],
                    prev.prefetches_useful[0] + 1,
                    "and it counts as useful exactly once"
                );
                // the scorecard tells the same story per slot
                let slot_late: u64 = now.pf_scorecard[0].iter().map(|s| s.late).sum();
                let slot_prev: u64 = prev.pf_scorecard[0].iter().map(|s| s.late).sum();
                assert_eq!(slot_late, slot_prev + 1);
            }
            prev = now;
        }
        assert!(lates > 0, "the stream must exercise the late path");
        let final_stats = m.stats();
        let scored_late: u64 = final_stats.pf_scorecard[0].iter().map(|s| s.late).sum();
        assert_eq!(scored_late, final_stats.prefetches_late[0]);
        assert!(
            final_stats.prefetches_late[0] <= final_stats.prefetches_useful[0],
            "late is a subset of useful"
        );
        // and the event stream agrees with every counter
        let tracer = m.stop_tracing().unwrap();
        tracer.reconcile(&final_stats).expect("events reconcile");
    }

    #[test]
    fn scorecard_tracks_useless_prefetches_on_flush() {
        let mut m = sys(1, PrefetchConfig::l1_small());
        let mut t = 0;
        for k in 0..8u64 {
            let a = 0x9000_0000 + k * 64;
            t = m.dload(0, t, a, a);
        }
        let _ = t;
        // lines were prefetched ahead but never touched; flushing the
        // cache makes them useless
        m.dcache_flush_all(0);
        let s = m.stats();
        let useless: u64 = s.pf_scorecard[0].iter().map(|sc| sc.useless).sum();
        assert!(useless > 0, "flushed prefetches are charged useless");
        let issued: u64 = s.pf_scorecard[0].iter().map(|sc| sc.issued).sum();
        assert_eq!(issued, s.prefetches_issued[0], "slot issued sums to total");
    }

    #[test]
    fn traced_system_snapshot_roundtrips_byte_exact() {
        let mut m = sys(2, PrefetchConfig::all_large());
        m.start_tracing();
        churn(&mut m, 2);
        let mut e = xt_snapshot::Enc::new();
        m.save(&mut e);
        let bytes = e.into_bytes();
        let mut r = sys(2, PrefetchConfig::all_large());
        let mut d = xt_snapshot::Dec::new(&bytes);
        r.restore(&mut d).expect("restore");
        d.finish().expect("fully consumed");
        // byte-exact re-save
        let mut e2 = xt_snapshot::Enc::new();
        r.save(&mut e2);
        assert_eq!(bytes, e2.into_bytes(), "resaved snapshot is byte-exact");
        // the restored tracer continues collecting consistently
        assert_eq!(
            m.tracer().unwrap().len(),
            r.tracer().unwrap().len(),
            "event buffer survived"
        );
        let a = 0x9100_0000u64;
        let t1 = m.dload(0, 1_000_000, a, a);
        let t2 = r.dload(0, 1_000_000, a, a);
        assert_eq!(t1, t2);
        assert_eq!(m.stats(), r.stats());
        assert_eq!(
            m.stop_tracing().unwrap().events,
            r.stop_tracing().unwrap().events
        );
    }

    // ---- front/back split, replay and observer-less replicas ----

    use xt_harness::gen::{choose, ints, vec_of, Gen};
    use xt_harness::prop::{check_with, Config};

    /// Byte strides of the generated streams: within a line, whole
    /// lines, several lines, a page and a line (so every access is on a
    /// new page and the stream never trains), and the same descending.
    const STRIDES: [i64; 10] = [8, 64, 192, 1024, 4032, 4160, -8, -64, -320, -4160];
    const SCENARIOS: [(usize, u8, u32); 11] = [
        // cores, prefetch (0 off, 1 all_small, 2 all_large), L2 KiB
        (1, 0, 256),
        (1, 1, 256),
        (1, 2, 2048),
        (2, 0, 256),
        (2, 1, 256),
        (2, 2, 2048),
        (4, 0, 2048),
        (4, 1, 256),
        (4, 1, 2048),
        (4, 2, 256),
        (4, 2, 2048),
    ];
    const STREAMS_PER_CORE: usize = 4;

    /// One generated case: the hierarchy's shape, a stride per (core,
    /// stream), and the accesses as `(core pick, kind, pick)`.
    type Case = ((usize, u8, u32), Vec<i64>, Vec<(u32, u32, u64)>);

    fn case_gen() -> impl Gen<Value = Case> {
        (
            choose(&SCENARIOS),
            vec_of(
                choose(&STRIDES),
                4 * STREAMS_PER_CORE..4 * STREAMS_PER_CORE + 1,
            ),
            vec_of((ints(0u32..4), ints(0u32..16), ints(0u64..1 << 16)), 1..500),
        )
    }

    fn case_cfg(case: &Case) -> MemConfig {
        let (cores, pf, l2_kib) = case.0;
        MemConfig {
            cores,
            l2_kib,
            l2_ways: 8,
            prefetch: match pf {
                0 => PrefetchConfig::off(),
                1 => PrefetchConfig::all_small(),
                _ => PrefetchConfig::all_large(),
            },
            ..MemConfig::default()
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum Access {
        Load { va: u64, pa: u64 },
        Store { va: u64, pa: u64 },
        Fetch { pa: u64 },
        Flush,
    }

    /// Performs `a` live on `m`; the completion cycle, if it has one.
    fn perform(m: &mut MemSystem, core: usize, cycle: u64, a: Access) -> Option<u64> {
        match a {
            Access::Load { va, pa } => Some(m.dload(core, cycle, va, pa)),
            Access::Store { va, pa } => Some(m.dstore(core, cycle, va, pa)),
            Access::Fetch { pa } => Some(m.icache_fetch(core, cycle, pa)),
            Access::Flush => {
                m.dcache_flush_all(core);
                None
            }
        }
    }

    /// Walks the case's accesses: every core advances four strided
    /// streams through its own region (virtual pages map 1 GiB up),
    /// touches a few lines all cores share, fetches, and now and then
    /// flushes. `each` performs the access wherever the test wants it
    /// and returns the completion cycle the core's clock moves to.
    fn drive(case: &Case, mut each: impl FnMut(usize, u64, Access) -> Option<u64>) {
        const VA_TO_PA: u64 = 0x4000_0000;
        let ((cores, _, _), strides, ops) = case;
        let mut cursor: Vec<u64> = (0..4 * STREAMS_PER_CORE as u64)
            .map(|k| 0x9000_0000 + k * 0x0008_0000 + 0x0004_0000)
            .collect();
        let mut clock = vec![0u64; *cores];
        for &(core_pick, kind, pick) in ops {
            let core = core_pick as usize % cores;
            let stream = core * STREAMS_PER_CORE + pick as usize % STREAMS_PER_CORE;
            let shared = 0xA000_0000 + (pick % 16) * 64;
            let access = match kind {
                0..=11 => {
                    let va = cursor[stream];
                    cursor[stream] = va.wrapping_add(strides[stream] as u64);
                    if kind <= 8 {
                        Access::Load {
                            va,
                            pa: va + VA_TO_PA,
                        }
                    } else {
                        Access::Store {
                            va,
                            pa: va + VA_TO_PA,
                        }
                    }
                }
                12 => Access::Load {
                    va: shared,
                    pa: shared + VA_TO_PA,
                },
                13 => Access::Store {
                    va: shared,
                    pa: shared + VA_TO_PA,
                },
                14 => Access::Fetch {
                    pa: 0x8000_0000 + (pick % 1024) * 64,
                },
                _ if pick % 4 == 0 => Access::Flush,
                _ => Access::Load {
                    va: shared,
                    pa: shared + VA_TO_PA,
                },
            };
            if let Some(done) = each(core, clock[core], access) {
                clock[core] = done;
            }
        }
    }

    fn frame_of(m: &mut impl SnapshotState) -> Vec<u8> {
        let mut e = xt_snapshot::Enc::new();
        m.save(&mut e);
        e.into_bytes()
    }

    /// `table` with the columns only an observing instance counts — the
    /// four miss classes and the scorecard — taken from `observers`.
    fn with_observer_columns(mut table: MemStats, observers: &MemStats) -> MemStats {
        table.miss_compulsory.clone_from(&observers.miss_compulsory);
        table.miss_capacity.clone_from(&observers.miss_capacity);
        table.miss_conflict.clone_from(&observers.miss_conflict);
        table.miss_coherence.clone_from(&observers.miss_coherence);
        table.pf_scorecard.clone_from(&observers.pf_scorecard);
        table
    }

    /// Gives `dst` what the contract says it does not keep — the TLB
    /// entries and stream tables of the cores it only `mirrored`, the
    /// observers if it has none, a log — so that the rest can be
    /// compared as whole frames.
    fn graft(dst: &mut MemSystem, src: &MemSystem, mirrored: impl Fn(usize) -> bool) {
        for c in (0..dst.cfg.cores).filter(|&c| mirrored(c)) {
            dst.tlbs[c] = src.tlbs[c].clone();
            dst.pfs[c] = src.pfs[c].clone();
        }
        if !dst.observe {
            dst.cls.clone_from(&src.cls);
            dst.stats = with_observer_columns(dst.stats(), &src.stats);
            dst.pf_owner.clone_from(&src.pf_owner);
        }
        dst.recorder = None;
    }

    /// `m` rebuilt from its own frame, as a mid-run restore does.
    fn resumed(m: &mut MemSystem) -> MemSystem {
        let mut fresh = if m.observe {
            MemSystem::new(m.cfg)
        } else {
            MemSystem::replica(m.cfg)
        };
        let bytes = frame_of(m);
        let mut d = xt_snapshot::Dec::new(&bytes);
        fresh.restore(&mut d).expect("own frame restores");
        d.finish().expect("frame fully consumed");
        fresh
    }

    /// The public fold: a collected stream counted from a zeroed table.
    fn folded(stream: &MemTracer, cfg: &MemConfig) -> MemStats {
        let mut table = MemStats::zeroed(cfg.cores, cfg.prefetch.max_streams);
        for ev in &stream.events {
            table.record(ev.core, ev.kind);
        }
        table
    }

    /// The cluster engine in miniature, one access per epoch: core `c`
    /// runs live on observer-less replica `c`, which records; the op
    /// goes through the snapshot codec and is replayed into the other
    /// replicas and into a traced master. Beside them, one traced
    /// instance runs every core live. Every latency a replica is asked
    /// for, the master's statistics and event stream, and every saved
    /// byte outside the mirrored cores' `tlbs`/`pfs` sections (and a
    /// replica's observers) must be those of the all-live instance.
    /// Half way, every instance is rebuilt from its own frame; at the
    /// end the counters of the live and of the replayed instance are
    /// the public fold of their streams.
    #[test]
    fn replayed_mirrors_agree_with_the_recorder() {
        check_with(
            &Config::seeded_cases(0x0910_0020_000A, 48),
            "replayed_mirrors_agree_with_the_recorder",
            &case_gen(),
            |case| {
                let cfg = case_cfg(case);
                let mut live = MemSystem::new(cfg);
                let mut master = MemSystem::new(cfg);
                live.start_tracing();
                master.start_tracing();
                let mut replicas: Vec<MemSystem> = (0..cfg.cores)
                    .map(|_| {
                        let mut r = MemSystem::replica(cfg);
                        r.start_recording();
                        r
                    })
                    .collect();
                let (mut n, cut) = (0, case.2.len() / 2);
                drive(case, |core, cycle, access| {
                    if n == cut {
                        live = resumed(&mut live);
                        master = resumed(&mut master);
                        replicas = replicas.iter_mut().map(resumed).collect();
                    }
                    n += 1;
                    let want = perform(&mut live, core, cycle, access);
                    let got = perform(&mut replicas[core], core, cycle, access);
                    assert_eq!(got, want, "core {core} at {cycle}: {access:?}");
                    let log = replicas[core].take_log();
                    assert_eq!(log.len(), 1, "one op per public access");
                    let mut e = xt_snapshot::Enc::new();
                    log[0].clone().transfer(&mut e, &cfg.prefetch).unwrap();
                    let bytes = e.into_bytes();
                    let mut d = xt_snapshot::Dec::new(&bytes);
                    let mut op = MemOp::default();
                    op.transfer(&mut d, &cfg.prefetch).expect("own op decodes");
                    d.finish().expect("op fully consumed");
                    assert_eq!(op, log[0]);
                    for (j, r) in replicas.iter_mut().enumerate() {
                        if j != core {
                            r.apply_op(core, &op);
                        }
                    }
                    master.apply_op(core, &op);
                    want
                });
                assert_eq!(master.stats(), live.stats());
                let events = master.stop_tracing().expect("traced");
                events.reconcile(&master.stats()).expect("events reconcile");
                assert_eq!(folded(&events, &cfg), master.stats(), "replayed");
                let live_events = live.stop_tracing().expect("traced");
                assert_eq!(folded(&live_events, &cfg), live.stats(), "live");
                assert_eq!(events.events, live_events.events);
                graft(&mut master, &live, |_| true);
                assert_eq!(frame_of(&mut master), frame_of(&mut live), "master");
                for (i, r) in replicas.iter_mut().enumerate() {
                    assert!(r.take_log().is_empty(), "replay is not recorded");
                    graft(r, &live, |c| c != i);
                    assert_eq!(frame_of(r), frame_of(&mut live), "replica {i}");
                }
            },
        );
    }

    /// The same accesses live on an instance with observers and on one
    /// without: equal latencies op for op, equal frames outside the
    /// classifier, the scorecard and its ownership map — which the
    /// observer-less instance leaves at reset. Its `stats()` is the
    /// observing instance's with the four miss classes and the scorecard
    /// at zero: every miss counted, none classed (not even compulsory).
    #[test]
    fn observers_never_change_a_latency_or_the_rest_of_the_frame() {
        check_with(
            &Config::seeded_cases(0x0910_0020_000B, 48),
            "observers_never_change_a_latency_or_the_rest_of_the_frame",
            &case_gen(),
            |case| {
                let cfg = case_cfg(case);
                let mut full = MemSystem::new(cfg);
                let mut lean = MemSystem::replica(cfg);
                drive(case, |core, cycle, access| {
                    let want = perform(&mut full, core, cycle, access);
                    assert_eq!(perform(&mut lean, core, cycle, access), want, "{access:?}");
                    want
                });
                let unobserved = MemStats::zeroed(cfg.cores, cfg.prefetch.max_streams);
                assert_eq!(
                    lean.stats(),
                    with_observer_columns(full.stats(), &unobserved)
                );
                assert_eq!(
                    frame_of(&mut lean.cls[0]),
                    frame_of(&mut MemSystem::replica(cfg).cls[0])
                );
                assert!(lean.pf_owner.iter().all(|o| o.is_empty()));
                graft(&mut lean, &full, |_| false);
                assert_eq!(frame_of(&mut lean), frame_of(&mut full));
            },
        );
    }

    /// `Front` carries a request list as `first, step, count, slot`:
    /// over descending, page-crossing and near-zero streams, at both
    /// depth limits, the list rebuilt from those four numbers is the
    /// list, no longer than `max_depth`.
    #[test]
    fn front_reproduces_the_request_list() {
        assert_eq!(std::mem::size_of::<Front>(), 24);
        assert_eq!(std::mem::size_of::<MemOp>(), 56);
        let gen = (
            choose(&[(8usize, 32u64), (1, 64), (8, 64), (2, 3)]),
            choose(&[false, true]),
            vec_of((ints(0usize..3), ints(0u32..8)), 1..400),
            vec_of(choose(&STRIDES), 3..4),
        );
        check_with(
            &Config::seeded(0x0910_0020_000C),
            "front_reproduces_the_request_list",
            &gen,
            |((max_streams, max_depth), large, ops, strides)| {
                let cfg = PrefetchConfig {
                    max_streams: *max_streams,
                    max_depth: *max_depth,
                    ..if *large {
                        PrefetchConfig::all_large()
                    } else {
                        PrefetchConfig::all_small()
                    }
                };
                let mut p = Prefetcher::new(cfg, 64);
                // the second stream starts a few lines above address zero
                let mut cursor = [0x9000_0000u64, 0x300, 1 << 40];
                for &(stream, jump) in ops {
                    let va = cursor[stream];
                    let stride = if jump == 0 {
                        0x10_0000
                    } else {
                        strides[stream]
                    };
                    cursor[stream] = va.wrapping_add(stride as u64);
                    let confirmed = p.on_access(va);
                    let front = Front::new(3, confirmed, p.requests());
                    let rebuilt: Vec<PrefetchReq> = front.requests().collect();
                    assert_eq!(rebuilt, p.requests(), "access at {va:#x}");
                    assert!(rebuilt.len() as u64 <= cfg.max_depth);
                    assert_eq!(front.confirmed != NO_SLOT, confirmed.is_some());
                    assert_eq!(front.tlb, 3);
                    // what a frame would carry decodes to the same record
                    let mut e = xt_snapshot::Enc::new();
                    front.clone().transfer(&mut e, &cfg).unwrap();
                    let bytes = e.into_bytes();
                    let mut decoded = Front::new(0, None, &[]);
                    let d = &mut xt_snapshot::Dec::new(&bytes);
                    decoded.transfer(d, &cfg).expect("own record decodes");
                    assert_eq!(decoded, front);
                }
            },
        );
    }

    /// Replay counts a jTLB hit as a jTLB hit whichever probe found it:
    /// a 2 MiB and a 1 GiB mapping answer on the second and third probe
    /// once a sweep over 4 KiB pages has pushed them out of the µTLB.
    #[test]
    fn replay_credits_each_tlb_outcome_to_its_own_counter() {
        let mut rec = sys(1, PrefetchConfig::off());
        let mut mirror = sys(1, PrefetchConfig::off());
        rec.start_recording();
        let huge = |va, size| Mapping {
            va,
            pa: va,
            size,
            asid: 0,
            global: false,
        };
        // huge pages: mappings no access path installs
        rec.tlbs[0].install(huge(0x4000_0000, PageSize::P1G));
        rec.tlbs[0].install(huge(0x2000_0000, PageSize::P2M));
        let mut t = 0;
        for round in 0..3u64 {
            for page in 0..40u64 {
                let a = 0x9000_0000 + page * 4096 + round * 64;
                t = rec.dload(0, t, a, a);
                t = rec.dload(0, t, a + 8, a + 8); // same page: a µTLB hit
            }
            t = rec.dload(0, t, 0x4123_4560 + round * 8, 0x4123_4560 + round * 8);
            t = rec.dstore(0, t, 0x2001_2340 + round * 8, 0x2001_2340 + round * 8);
        }
        let log = rec.take_log();
        let outcomes = |want: u8| {
            log.iter()
                .filter(|op| matches!(op, MemOp::Load { front, .. } | MemOp::Store { front, .. } if front.tlb == want))
                .count()
        };
        for outcome in 0..=Front::WALK {
            assert!(
                outcomes(outcome) > 0,
                "the log exercises TLB outcome {outcome}"
            );
        }
        for op in &log {
            mirror.apply_op(0, op);
        }
        let (got, want) = (mirror.stats(), rec.stats());
        assert_eq!(got.tlb_micro_hits, want.tlb_micro_hits);
        assert_eq!(got.tlb_joint_hits, want.tlb_joint_hits);
        assert_eq!(got.tlb_walks, want.tlb_walks);
        assert_eq!(got, want);
    }

    #[test]
    fn take_log_leaves_room_for_the_next_epoch() {
        let mut m = sys(1, PrefetchConfig::off());
        assert!(m.take_log().is_empty(), "not recording: nothing to take");
        m.start_recording();
        for k in 0..100u64 {
            let _ = m.dload(0, k, 0x9000_0000 + k * 8, 0x9000_0000 + k * 8);
        }
        assert_eq!(m.take_log().len(), 100);
        assert!(m
            .recorder
            .as_ref()
            .is_some_and(|log| log.is_empty() && log.capacity() >= 100));
    }

    #[test]
    #[should_panic(expected = "cannot trace")]
    fn a_replica_refuses_a_tracer() {
        MemSystem::replica(MemConfig::default()).start_tracing();
    }

    #[test]
    fn a_replica_refuses_a_traced_frame() {
        let mut traced = sys(1, PrefetchConfig::off());
        traced.start_tracing();
        let bytes = frame_of(&mut traced);
        let mut lean = MemSystem::replica(*traced.config());
        match lean.restore(&mut xt_snapshot::Dec::new(&bytes)) {
            Err(xt_snapshot::SnapshotError::Mismatch { .. }) => {}
            other => panic!("expected Mismatch, got {other:?}"),
        }
    }
}
