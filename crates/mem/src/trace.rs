//! Line-level memory-hierarchy event tracing (`MemTracer`).
//!
//! When a tracer is attached to a [`crate::MemSystem`]
//! (`start_tracing`), every modeled action in the hierarchy — cache
//! accesses, fills, evictions, writebacks, MOSEI transitions, snoop
//! probes, TLB activity, prefetch lifecycle — is appended as one
//! cycle-stamped [`MemEvent`]. Tracing is strictly observational: the
//! off path is a single `Option` check, attaching a tracer changes **no**
//! returned latency and **no** counter (the `tracing_does_not_change_timing`
//! guarantee, proven by an identity test in `crate::system`).
//!
//! The event stream is the *ground truth* and the [`crate::MemStats`]
//! counters are its fold: the hierarchy passes every event through
//! [`MemStats::record`] whether or not a tracer listens, so the two
//! cannot drift. [`MemTracer::reconcile`] runs the same fold over a
//! collected stream and demands the counters — a check that the stream
//! arrived whole (`docs/OBSERVABILITY.md`).
//!
//! [`MemTracer::to_chrome_json`] renders the stream as one
//! `chrome://tracing` lane per core (instant events at simulated-cycle
//! timestamps) via the shared `xt_trace::lanes` builder.

use crate::cache::LineState;
use crate::missclass::MissClass;
use crate::stats::MemStats;
use xt_snapshot::{Dec, Enc, Result as SnapResult, SnapshotError, SnapshotState};
use xt_trace::lanes::LaneTrace;

/// Which cache level an event refers to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Level {
    /// A per-core L1 instruction cache.
    L1I,
    /// A per-core L1 data cache.
    L1D,
    /// The shared inclusive L2.
    L2,
}

impl Level {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Level::L1I => "l1i",
            Level::L1D => "l1d",
            Level::L2 => "l2",
        }
    }

    fn tag(self) -> u8 {
        match self {
            Level::L1I => 0,
            Level::L1D => 1,
            Level::L2 => 2,
        }
    }

    fn from_tag(t: u8) -> Option<Self> {
        Some(match t {
            0 => Level::L1I,
            1 => Level::L1D,
            2 => Level::L2,
            _ => return None,
        })
    }
}

impl MissClass {
    fn tag(self) -> u8 {
        match self {
            MissClass::Compulsory => 0,
            MissClass::Capacity => 1,
            MissClass::Conflict => 2,
            MissClass::Coherence => 3,
        }
    }

    fn from_tag(t: u8) -> Option<Self> {
        Some(match t {
            0 => MissClass::Compulsory,
            1 => MissClass::Capacity,
            2 => MissClass::Conflict,
            3 => MissClass::Coherence,
            _ => return None,
        })
    }
}

/// What happened (the memory-event taxonomy; [`MemStats::record`] says
/// which counters each variant moves and `docs/OBSERVABILITY.md`
/// tabulates it).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemEventKind {
    /// An L1I demand fetch probed the cache.
    L1IAccess {
        /// Whether the probe hit.
        hit: bool,
    },
    /// An L1D demand access hit (stores that complete without an
    /// upgrade included).
    L1DHit {
        /// Whether the access was a store.
        store: bool,
    },
    /// An L1D demand access missed; the attached classification is the
    /// attributed 3C+coherence cause.
    L1DMiss {
        /// Whether the access was a store.
        store: bool,
        /// The attributed miss class.
        class: MissClass,
    },
    /// A demand (or page-walk) access probed the shared L2, attributed
    /// to the event's core.
    L2Access {
        /// Whether the probe hit.
        hit: bool,
    },
    /// A line was installed at `level`.
    Fill {
        /// Destination cache level.
        level: Level,
        /// MOSEI state installed.
        state: LineState,
        /// Whether the fill was prefetcher-initiated.
        prefetched: bool,
    },
    /// A line was evicted from `level` to make room.
    Eviction {
        /// Source cache level.
        level: Level,
        /// Whether the victim was dirty (needs a writeback).
        dirty: bool,
        /// Whether the victim was a never-used prefetch.
        wasted_prefetch: bool,
    },
    /// A dirty victim's data moved down the hierarchy (L1D victims merge
    /// into the L2; L2 victims occupy the DRAM channel).
    Writeback {
        /// The level the dirty victim left.
        level: Level,
    },
    /// Inclusive-L2 eviction removed the line from a core's L1 (`victim`
    /// is the core whose copy was dropped).
    BackInvalidate {
        /// Core whose L1 copy was removed.
        victim: usize,
        /// Which of the victim core's L1s held the copy.
        level: Level,
    },
    /// A whole-L1D clean+invalidate (`x.dcache.call`); maintenance
    /// events carry cycle 0 (the operation is not timed).
    CacheFlush {
        /// Dirty lines the flush would have written back.
        dirty_lines: u64,
    },
    /// A DRAM line request was issued.
    DramRequest {
        /// Whether the request queued behind the channel.
        queued: bool,
    },
    /// The snoop filter answered a whole lookup with an empty mask — no
    /// probe was sent at all.
    SnoopFiltered,
    /// The snoop filter named `holder` a candidate; the probe was either
    /// sent or suppressed (the holder had silently dropped the line).
    SnoopProbe {
        /// The core named by the filter mask.
        holder: usize,
        /// Whether the probe was actually sent.
        sent: bool,
    },
    /// A cache-to-cache transfer supplied the line from `from`.
    C2CTransfer {
        /// The core that supplied the data.
        from: usize,
    },
    /// A remote copy on `victim` was invalidated by this core's store
    /// or upgrade (`* -> I`).
    CohInvalidate {
        /// The core whose copy was invalidated.
        victim: usize,
    },
    /// A remote copy on `victim` was demoted by this core's read
    /// (`M -> O` or `E -> S`).
    CohDowngrade {
        /// The core whose copy was demoted.
        victim: usize,
        /// The state it was demoted to.
        to: LineState,
    },
    /// This core's store upgraded a read-only copy to `M`.
    CohUpgrade,
    /// Translation hit the µTLB.
    TlbMicroHit,
    /// Translation hit the jTLB after `probes` sequential probes.
    TlbJointHit {
        /// Number of probes before the hit (1-based).
        probes: u32,
    },
    /// Translation missed both TLBs and paid a `cycles`-cycle page walk.
    TlbWalk {
        /// Total walk latency charged (matches `walk_cycles`).
        cycles: u64,
    },
    /// The core's TLB was fully flushed (context-switch overflow);
    /// maintenance events carry cycle 0.
    TlbFlush,
    /// The data prefetcher issued a request from stream-table slot
    /// `stream` (counted whether or not the fill was elided).
    PrefetchIssue {
        /// Stream-table slot.
        stream: usize,
    },
    /// A prefetch actually installed a line at `level`.
    PrefetchFill {
        /// Destination level (`L1D` within reach, else `L2`; `L1I` for
        /// the instruction-side sequential prefetcher).
        level: Level,
        /// Stream slot for data prefetches; `None` for the
        /// instruction-side sequential prefetcher.
        stream: Option<usize>,
    },
    /// A demand access touched a prefetched line for the first time.
    PrefetchUseful {
        /// Level at which the prefetched line was touched.
        level: Level,
        /// Stream slot, when the data-side owner is known.
        stream: Option<usize>,
    },
    /// The demand touch arrived while the prefetch fill was still in
    /// flight: useful, but only partially timely.
    PrefetchLate {
        /// Level of the touched line.
        level: Level,
        /// Stream slot, when the data-side owner is known.
        stream: Option<usize>,
    },
    /// A prefetched L1D line was removed before any demand touch.
    PrefetchUseless {
        /// Stream slot that issued the wasted prefetch.
        stream: usize,
    },
    /// A prefetch stream crossed the confirmation threshold.
    StreamConfirmed {
        /// Stream-table slot confirmed.
        stream: usize,
    },
}

impl MemEventKind {
    /// The other core and the stream slot the payload names, if any —
    /// what a stream from outside must have in range before
    /// [`MemStats::record`] indexes by them.
    fn names(&self) -> (Option<usize>, Option<usize>) {
        match *self {
            MemEventKind::SnoopProbe { holder: c, .. }
            | MemEventKind::C2CTransfer { from: c }
            | MemEventKind::CohInvalidate { victim: c }
            | MemEventKind::CohDowngrade { victim: c, .. }
            | MemEventKind::BackInvalidate { victim: c, .. } => (Some(c), None),
            MemEventKind::PrefetchIssue { stream }
            | MemEventKind::PrefetchUseless { stream }
            | MemEventKind::StreamConfirmed { stream } => (None, Some(stream)),
            MemEventKind::PrefetchFill { stream, .. }
            | MemEventKind::PrefetchUseful { stream, .. }
            | MemEventKind::PrefetchLate { stream, .. } => (None, stream),
            MemEventKind::L1IAccess { .. }
            | MemEventKind::L1DHit { .. }
            | MemEventKind::L1DMiss { .. }
            | MemEventKind::L2Access { .. }
            | MemEventKind::Fill { .. }
            | MemEventKind::Eviction { .. }
            | MemEventKind::Writeback { .. }
            | MemEventKind::CacheFlush { .. }
            | MemEventKind::DramRequest { .. }
            | MemEventKind::SnoopFiltered
            | MemEventKind::CohUpgrade
            | MemEventKind::TlbMicroHit
            | MemEventKind::TlbJointHit { .. }
            | MemEventKind::TlbWalk { .. }
            | MemEventKind::TlbFlush => (None, None),
        }
    }
}

/// One cycle-stamped structured memory event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemEvent {
    /// Simulated cycle of the access that produced the event
    /// (maintenance events — flushes — carry 0).
    pub cycle: u64,
    /// The core on whose behalf the hierarchy acted (the requester for
    /// coherence events; `victim`/`holder` fields name the other side).
    pub core: usize,
    /// Byte address the event refers to (line-aligned for cache events,
    /// the faulting VA for TLB events, 0 when not address-specific).
    pub addr: u64,
    /// What happened.
    pub kind: MemEventKind,
}

/// In-memory sink for [`MemEvent`]s plus the renderers and the
/// reconciliation check. Attach with
/// `MemSystem::start_tracing`; the buffer is unbounded (tracing is
/// opt-in, and reconciliation requires the complete stream).
#[derive(Clone, Debug, Default)]
pub struct MemTracer {
    /// The collected events, in emission order.
    pub events: Vec<MemEvent>,
}

impl MemTracer {
    /// Creates an empty tracer.
    pub fn new() -> Self {
        MemTracer::default()
    }

    /// Number of events collected.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were collected.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Folds the stream into a fresh table with [`MemStats::record`] —
    /// the definition the hierarchy itself counts by — and demands
    /// `stats`. A live hierarchy's counters *are* that fold, so what
    /// this checks is the stream's transport: the snapshot codec, the
    /// cluster's barrier merge, a mid-run restore. Returns every
    /// divergent counter by name, or the first event that names a core
    /// or stream slot `stats` has no column for.
    pub fn reconcile(&self, stats: &MemStats) -> Result<(), String> {
        let (cores, slots) = stats.shape();
        let mut folded = MemStats::zeroed(cores, slots);
        for (i, ev) in self.events.iter().enumerate() {
            let (peer, slot) = ev.kind.names();
            for c in [Some(ev.core), peer].into_iter().flatten() {
                if c >= cores {
                    return Err(format!("event {i} names core {c} of {cores}"));
                }
            }
            if let Some(s) = slot.filter(|&s| s >= slots) {
                return Err(format!("event {i} names stream slot {s} of {slots}"));
            }
            folded.record(ev.core, ev.kind);
        }
        let diffs: Vec<String> = folded
            .columns()
            .into_iter()
            .zip(stats.clone().columns())
            .filter(|((_, got), (_, want))| got != want)
            .map(|((what, got), (_, want))| format!("  {what}: events {got:?} != stats {want:?}"))
            .collect();
        if diffs.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "event stream does not reconcile with MemStats:\n{}",
                diffs.join("\n")
            ))
        }
    }

    /// Renders the stream as Chrome `trace_event` JSON: one lane per
    /// core, one instant event per [`MemEvent`], timestamps in simulated
    /// cycles. Deterministic (fixture-pinnable byte-exact).
    pub fn to_chrome_json(&self, cores: usize) -> String {
        let mut t = LaneTrace::new("xt-910 memory hierarchy");
        for c in 0..cores {
            t.lane(c as u64, &format!("core {c}"));
        }
        let hex = |v: u64| format!("\"{v:#x}\"");
        for ev in &self.events {
            let mut args: Vec<(&str, String)> = Vec::new();
            if ev.addr != 0 {
                args.push(("addr", hex(ev.addr)));
            }
            let name: String = match ev.kind {
                MemEventKind::L1IAccess { hit } => {
                    (if hit { "l1i-hit" } else { "l1i-miss" }).to_string()
                }
                MemEventKind::L1DHit { store } => {
                    args.push(("store", store.to_string()));
                    "l1d-hit".to_string()
                }
                MemEventKind::L1DMiss { store, class } => {
                    args.push(("store", store.to_string()));
                    format!("l1d-miss:{}", class.name())
                }
                MemEventKind::L2Access { hit } => {
                    (if hit { "l2-hit" } else { "l2-miss" }).to_string()
                }
                MemEventKind::Fill {
                    level,
                    state,
                    prefetched,
                } => {
                    args.push(("state", format!("\"{}\"", state.name())));
                    args.push(("prefetched", prefetched.to_string()));
                    format!("fill:{}", level.name())
                }
                MemEventKind::Eviction {
                    level,
                    dirty,
                    wasted_prefetch,
                } => {
                    args.push(("dirty", dirty.to_string()));
                    args.push(("wasted_prefetch", wasted_prefetch.to_string()));
                    format!("evict:{}", level.name())
                }
                MemEventKind::Writeback { level } => format!("writeback:{}", level.name()),
                MemEventKind::BackInvalidate { victim, level } => {
                    args.push(("victim", victim.to_string()));
                    format!("back-invalidate:{}", level.name())
                }
                MemEventKind::CacheFlush { dirty_lines } => {
                    args.push(("dirty_lines", dirty_lines.to_string()));
                    "dcache-flush".to_string()
                }
                MemEventKind::DramRequest { queued } => {
                    args.push(("queued", queued.to_string()));
                    "dram".to_string()
                }
                MemEventKind::SnoopFiltered => "snoop-filtered".to_string(),
                MemEventKind::SnoopProbe { holder, sent } => {
                    args.push(("holder", holder.to_string()));
                    (if sent { "snoop-probe" } else { "snoop-suppressed" }).to_string()
                }
                MemEventKind::C2CTransfer { from } => {
                    args.push(("from", from.to_string()));
                    "c2c".to_string()
                }
                MemEventKind::CohInvalidate { victim } => {
                    args.push(("victim", victim.to_string()));
                    "coh-invalidate".to_string()
                }
                MemEventKind::CohDowngrade { victim, to } => {
                    args.push(("victim", victim.to_string()));
                    args.push(("to", format!("\"{}\"", to.name())));
                    "coh-downgrade".to_string()
                }
                MemEventKind::CohUpgrade => "coh-upgrade".to_string(),
                MemEventKind::TlbMicroHit => "utlb-hit".to_string(),
                MemEventKind::TlbJointHit { probes } => {
                    args.push(("probes", probes.to_string()));
                    "jtlb-hit".to_string()
                }
                MemEventKind::TlbWalk { cycles } => {
                    args.push(("cycles", cycles.to_string()));
                    "tlb-walk".to_string()
                }
                MemEventKind::TlbFlush => "tlb-flush".to_string(),
                MemEventKind::PrefetchIssue { stream } => {
                    args.push(("stream", stream.to_string()));
                    "pf-issue".to_string()
                }
                MemEventKind::PrefetchFill { level, stream } => {
                    if let Some(s) = stream {
                        args.push(("stream", s.to_string()));
                    }
                    format!("pf-fill:{}", level.name())
                }
                MemEventKind::PrefetchUseful { level, stream } => {
                    if let Some(s) = stream {
                        args.push(("stream", s.to_string()));
                    }
                    format!("pf-useful:{}", level.name())
                }
                MemEventKind::PrefetchLate { level, stream } => {
                    if let Some(s) = stream {
                        args.push(("stream", s.to_string()));
                    }
                    format!("pf-late:{}", level.name())
                }
                MemEventKind::PrefetchUseless { stream } => {
                    args.push(("stream", stream.to_string()));
                    "pf-useless".to_string()
                }
                MemEventKind::StreamConfirmed { stream } => {
                    args.push(("stream", stream.to_string()));
                    "pf-stream-confirmed".to_string()
                }
            };
            t.instant(ev.core as u64, ev.cycle, &name, &args);
        }
        t.finish()
    }
}

fn save_level(e: &mut Enc, l: Level) {
    e.u8(l.tag());
}

fn restore_level(d: &mut Dec) -> SnapResult<Level> {
    Level::from_tag(d.u8()?).ok_or(SnapshotError::Corrupt {
        what: "cache level",
    })
}

fn save_opt_usize(e: &mut Enc, v: Option<usize>) {
    match v {
        Some(x) => {
            e.bool(true);
            e.usize(x);
        }
        None => e.bool(false),
    }
}

fn restore_opt_usize(d: &mut Dec) -> SnapResult<Option<usize>> {
    Ok(if d.bool()? { Some(d.usize()?) } else { None })
}

fn save_event(e: &mut Enc, ev: &MemEvent) {
    e.u64(ev.cycle);
    e.usize(ev.core);
    e.u64(ev.addr);
    match ev.kind {
        MemEventKind::L1IAccess { hit } => {
            e.u8(0);
            e.bool(hit);
        }
        MemEventKind::L1DHit { store } => {
            e.u8(1);
            e.bool(store);
        }
        MemEventKind::L1DMiss { store, class } => {
            e.u8(2);
            e.bool(store);
            e.u8(class.tag());
        }
        MemEventKind::L2Access { hit } => {
            e.u8(3);
            e.bool(hit);
        }
        MemEventKind::Fill {
            level,
            state,
            prefetched,
        } => {
            e.u8(4);
            save_level(e, level);
            e.u8(state.snapshot_tag());
            e.bool(prefetched);
        }
        MemEventKind::Eviction {
            level,
            dirty,
            wasted_prefetch,
        } => {
            e.u8(5);
            save_level(e, level);
            e.bool(dirty);
            e.bool(wasted_prefetch);
        }
        MemEventKind::Writeback { level } => {
            e.u8(6);
            save_level(e, level);
        }
        MemEventKind::BackInvalidate { victim, level } => {
            e.u8(7);
            e.usize(victim);
            save_level(e, level);
        }
        MemEventKind::CacheFlush { dirty_lines } => {
            e.u8(8);
            e.u64(dirty_lines);
        }
        MemEventKind::DramRequest { queued } => {
            e.u8(9);
            e.bool(queued);
        }
        MemEventKind::SnoopFiltered => e.u8(10),
        MemEventKind::SnoopProbe { holder, sent } => {
            e.u8(11);
            e.usize(holder);
            e.bool(sent);
        }
        MemEventKind::C2CTransfer { from } => {
            e.u8(12);
            e.usize(from);
        }
        MemEventKind::CohInvalidate { victim } => {
            e.u8(13);
            e.usize(victim);
        }
        MemEventKind::CohDowngrade { victim, to } => {
            e.u8(14);
            e.usize(victim);
            e.u8(to.snapshot_tag());
        }
        MemEventKind::CohUpgrade => e.u8(15),
        MemEventKind::TlbMicroHit => e.u8(16),
        MemEventKind::TlbJointHit { probes } => {
            e.u8(17);
            e.u32(probes);
        }
        MemEventKind::TlbWalk { cycles } => {
            e.u8(18);
            e.u64(cycles);
        }
        MemEventKind::TlbFlush => e.u8(19),
        MemEventKind::PrefetchIssue { stream } => {
            e.u8(20);
            e.usize(stream);
        }
        MemEventKind::PrefetchFill { level, stream } => {
            e.u8(21);
            save_level(e, level);
            save_opt_usize(e, stream);
        }
        MemEventKind::PrefetchUseful { level, stream } => {
            e.u8(22);
            save_level(e, level);
            save_opt_usize(e, stream);
        }
        MemEventKind::PrefetchLate { level, stream } => {
            e.u8(23);
            save_level(e, level);
            save_opt_usize(e, stream);
        }
        MemEventKind::PrefetchUseless { stream } => {
            e.u8(24);
            e.usize(stream);
        }
        MemEventKind::StreamConfirmed { stream } => {
            e.u8(25);
            e.usize(stream);
        }
    }
}

fn restore_state(d: &mut Dec) -> SnapResult<LineState> {
    LineState::from_snapshot_tag(d.u8()?).ok_or(SnapshotError::Corrupt { what: "line state" })
}

fn restore_event(d: &mut Dec) -> SnapResult<MemEvent> {
    let cycle = d.u64()?;
    let core = d.usize()?;
    let addr = d.u64()?;
    let kind = match d.u8()? {
        0 => MemEventKind::L1IAccess { hit: d.bool()? },
        1 => MemEventKind::L1DHit { store: d.bool()? },
        2 => MemEventKind::L1DMiss {
            store: d.bool()?,
            class: MissClass::from_tag(d.u8()?)
                .ok_or(SnapshotError::Corrupt { what: "miss class" })?,
        },
        3 => MemEventKind::L2Access { hit: d.bool()? },
        4 => MemEventKind::Fill {
            level: restore_level(d)?,
            state: restore_state(d)?,
            prefetched: d.bool()?,
        },
        5 => MemEventKind::Eviction {
            level: restore_level(d)?,
            dirty: d.bool()?,
            wasted_prefetch: d.bool()?,
        },
        6 => MemEventKind::Writeback {
            level: restore_level(d)?,
        },
        7 => MemEventKind::BackInvalidate {
            victim: d.usize()?,
            level: restore_level(d)?,
        },
        8 => MemEventKind::CacheFlush {
            dirty_lines: d.u64()?,
        },
        9 => MemEventKind::DramRequest { queued: d.bool()? },
        10 => MemEventKind::SnoopFiltered,
        11 => MemEventKind::SnoopProbe {
            holder: d.usize()?,
            sent: d.bool()?,
        },
        12 => MemEventKind::C2CTransfer { from: d.usize()? },
        13 => MemEventKind::CohInvalidate { victim: d.usize()? },
        14 => MemEventKind::CohDowngrade {
            victim: d.usize()?,
            to: restore_state(d)?,
        },
        15 => MemEventKind::CohUpgrade,
        16 => MemEventKind::TlbMicroHit,
        17 => MemEventKind::TlbJointHit { probes: d.u32()? },
        18 => MemEventKind::TlbWalk { cycles: d.u64()? },
        19 => MemEventKind::TlbFlush,
        20 => MemEventKind::PrefetchIssue { stream: d.usize()? },
        21 => MemEventKind::PrefetchFill {
            level: restore_level(d)?,
            stream: restore_opt_usize(d)?,
        },
        22 => MemEventKind::PrefetchUseful {
            level: restore_level(d)?,
            stream: restore_opt_usize(d)?,
        },
        23 => MemEventKind::PrefetchLate {
            level: restore_level(d)?,
            stream: restore_opt_usize(d)?,
        },
        24 => MemEventKind::PrefetchUseless { stream: d.usize()? },
        25 => MemEventKind::StreamConfirmed { stream: d.usize()? },
        _ => {
            return Err(SnapshotError::Corrupt {
                what: "mem event tag",
            })
        }
    };
    Ok(MemEvent {
        cycle,
        core,
        addr,
        kind,
    })
}

impl SnapshotState for MemTracer {
    fn save(&self, e: &mut Enc) {
        e.seq(self.events.len());
        for ev in &self.events {
            save_event(e, ev);
        }
    }

    fn restore(&mut self, d: &mut Dec) -> SnapResult<()> {
        let n = d.len(18)?;
        self.events.clear();
        for _ in 0..n {
            self.events.push(restore_event(d)?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<MemEvent> {
        vec![
            MemEvent {
                cycle: 1,
                core: 0,
                addr: 0x40,
                kind: MemEventKind::L1DMiss {
                    store: false,
                    class: MissClass::Compulsory,
                },
            },
            MemEvent {
                cycle: 2,
                core: 0,
                addr: 0x40,
                kind: MemEventKind::L2Access { hit: false },
            },
            MemEvent {
                cycle: 2,
                core: 0,
                addr: 0x40,
                kind: MemEventKind::DramRequest { queued: false },
            },
            MemEvent {
                cycle: 2,
                core: 0,
                addr: 0x40,
                kind: MemEventKind::Fill {
                    level: Level::L1D,
                    state: LineState::Exclusive,
                    prefetched: false,
                },
            },
            MemEvent {
                cycle: 9,
                core: 1,
                addr: 0x40,
                kind: MemEventKind::SnoopProbe {
                    holder: 0,
                    sent: true,
                },
            },
            MemEvent {
                cycle: 9,
                core: 1,
                addr: 0x40,
                kind: MemEventKind::CohDowngrade {
                    victim: 0,
                    to: LineState::Shared,
                },
            },
            MemEvent {
                cycle: 0,
                core: 0,
                addr: 0,
                kind: MemEventKind::TlbFlush,
            },
            MemEvent {
                cycle: 12,
                core: 1,
                addr: 0x1000,
                kind: MemEventKind::PrefetchIssue { stream: 3 },
            },
        ]
    }

    fn matching_stats() -> MemStats {
        MemStats {
            l1i: vec![(0, 0), (0, 0)],
            l1d: vec![(0, 1), (0, 0)],
            miss_compulsory: vec![1, 0],
            miss_capacity: vec![0, 0],
            miss_conflict: vec![0, 0],
            miss_coherence: vec![0, 0],
            l2_demand: vec![(0, 1), (0, 0)],
            tlb_micro_hits: vec![0, 0],
            tlb_joint_hits: vec![0, 0],
            tlb_walks: vec![0, 0],
            tlb_flushes: vec![1, 0],
            prefetches_issued: vec![0, 1],
            prefetches_useful: vec![0, 0],
            prefetches_late: vec![0, 0],
            prefetch_streams: vec![0, 0],
            pf_scorecard: {
                let mut sc = vec![vec![crate::stats::StreamScore::default(); 8]; 2];
                sc[1][3].issued = 1;
                sc
            },
            dram_requests: 1,
            dram_queued: 0,
            snoops_filtered: 0,
            snoops_sent: 1,
            probe_candidates: 1,
            snoops_suppressed: 0,
            snoop_matrix: vec![0, 0, 1, 0],
            c2c_transfers: 0,
            coh_invalidations: 0,
            coh_downgrades: 1,
            coh_upgrades: 0,
            walk_cycles: 0,
        }
    }

    #[test]
    fn reconcile_accepts_matching_stream() {
        let t = MemTracer {
            events: sample_events(),
        };
        t.reconcile(&matching_stats()).expect("reconciles");
    }

    #[test]
    fn reconcile_flags_every_divergent_counter() {
        let t = MemTracer {
            events: sample_events(),
        };
        let mut s = matching_stats();
        s.dram_requests += 1;
        s.miss_compulsory[0] = 0;
        s.miss_capacity[0] = 1;
        let err = t.reconcile(&s).expect_err("must diverge");
        assert!(err.contains("dram_requests"), "{err}");
        assert!(err.contains("miss_compulsory"), "{err}");
        assert!(err.contains("miss_capacity"), "{err}");
        assert!(!err.contains("snoops_sent"), "{err}");

        // a stream that lost, repeated or re-attributed any one event in
        // transit names exactly the counters that event moves
        let whole = every_variant_events();
        let mut table = MemStats::zeroed(2, 8);
        for ev in &whole {
            table.record(ev.core, ev.kind);
        }
        let named = |events: Vec<MemEvent>| -> Vec<String> {
            match through_codec(&MemTracer { events }).reconcile(&table) {
                Ok(()) => Vec::new(),
                Err(e) => e
                    .lines()
                    .skip(1)
                    .map(|l| l.trim().split(':').next().unwrap().to_string())
                    .collect(),
            }
        };
        assert_eq!(named(whole.clone()), Vec::<String>::new());
        for (i, ev) in whole.iter().enumerate() {
            let moved = moves(ev.kind);
            let mut dropped = whole.clone();
            dropped.remove(i);
            assert_eq!(named(dropped), moved, "event {i} dropped: {ev:?}");
            let mut doubled = whole.clone();
            doubled.insert(i, *ev);
            assert_eq!(named(doubled), moved, "event {i} duplicated: {ev:?}");
            let mut recored = whole.clone();
            recored[i].core ^= 1;
            let per_core: Vec<&str> = moved
                .iter()
                .copied()
                .filter(|name| !GLOBAL.contains(name))
                .collect();
            assert_eq!(named(recored), per_core, "event {i} re-cored: {ev:?}");
        }
    }

    /// Counters kept once for the cluster, not per core.
    const GLOBAL: [&str; 11] = [
        "dram_requests",
        "dram_queued",
        "snoops_filtered",
        "snoops_sent",
        "probe_candidates",
        "snoops_suppressed",
        "c2c_transfers",
        "coh_invalidations",
        "coh_downgrades",
        "coh_upgrades",
        "walk_cycles",
    ];

    /// The counters an event moves, by name and in table order: the
    /// event → counter table of docs/OBSERVABILITY.md written out by
    /// hand, as the oracle of the fold.
    fn moves(kind: MemEventKind) -> Vec<&'static str> {
        let slot = |s: Option<usize>| s.map(|_| "pf_scorecard");
        match kind {
            MemEventKind::L1IAccess { .. } => vec!["l1i"],
            MemEventKind::L1DHit { .. } => vec!["l1d"],
            MemEventKind::L1DMiss { class, .. } => vec![
                "l1d",
                match class {
                    MissClass::Compulsory => "miss_compulsory",
                    MissClass::Capacity => "miss_capacity",
                    MissClass::Conflict => "miss_conflict",
                    MissClass::Coherence => "miss_coherence",
                },
            ],
            MemEventKind::L2Access { .. } => vec!["l2_demand"],
            MemEventKind::Fill { .. }
            | MemEventKind::Eviction { .. }
            | MemEventKind::Writeback { .. }
            | MemEventKind::BackInvalidate { .. }
            | MemEventKind::CacheFlush { .. }
            | MemEventKind::PrefetchFill { .. } => vec![],
            MemEventKind::DramRequest { queued: false } => vec!["dram_requests"],
            MemEventKind::DramRequest { queued: true } => vec!["dram_requests", "dram_queued"],
            MemEventKind::SnoopFiltered => vec!["snoops_filtered"],
            MemEventKind::SnoopProbe { sent: true, .. } => {
                vec!["snoops_sent", "probe_candidates", "snoop_matrix"]
            }
            MemEventKind::SnoopProbe { sent: false, .. } => {
                vec!["probe_candidates", "snoops_suppressed"]
            }
            MemEventKind::C2CTransfer { .. } => vec!["c2c_transfers"],
            MemEventKind::CohInvalidate { .. } => vec!["coh_invalidations"],
            MemEventKind::CohDowngrade { .. } => vec!["coh_downgrades"],
            MemEventKind::CohUpgrade => vec!["coh_upgrades"],
            MemEventKind::TlbMicroHit => vec!["tlb_micro_hits"],
            MemEventKind::TlbJointHit { .. } => vec!["tlb_joint_hits"],
            MemEventKind::TlbWalk { .. } => vec!["tlb_walks", "walk_cycles"],
            MemEventKind::TlbFlush => vec!["tlb_flushes"],
            MemEventKind::PrefetchIssue { .. } => vec!["prefetches_issued", "pf_scorecard"],
            MemEventKind::PrefetchUseful { level, stream } => (level == Level::L1D)
                .then_some("prefetches_useful")
                .into_iter()
                .chain(slot(stream))
                .collect(),
            MemEventKind::PrefetchLate { stream, .. } => std::iter::once("prefetches_late")
                .chain(slot(stream))
                .collect(),
            MemEventKind::PrefetchUseless { .. } => vec!["pf_scorecard"],
            MemEventKind::StreamConfirmed { .. } => vec!["prefetch_streams"],
        }
    }

    #[test]
    fn reconcile_rejects_out_of_range_core() {
        let t = MemTracer {
            events: vec![MemEvent {
                cycle: 0,
                core: 7,
                addr: 0,
                kind: MemEventKind::CohUpgrade,
            }],
        };
        let err = t.reconcile(&matching_stats()).expect_err("bad core");
        assert!(err.contains("core 7"), "{err}");

        // the codec carries a core, a peer or a slot of any size: each
        // event of a stream that decodes, forged to name one the table
        // has no column for, is refused by name instead of indexed
        let whole = every_variant_events();
        let table = matching_stats();
        for i in 0..whole.len() {
            let refused = |forge: &dyn Fn(&mut MemEvent)| {
                let mut events = whole.clone();
                forge(&mut events[i]);
                let forged = through_codec(&MemTracer { events });
                forged.reconcile(&table).expect_err("out of range")
            };
            let err = refused(&|ev| ev.core = 7);
            assert!(
                err.contains(&format!("event {i} names core 7 of 2")),
                "{err}"
            );
            let (peer, slot) = whole[i].kind.names();
            if peer.is_some() {
                let err = refused(&|ev| match &mut ev.kind {
                    MemEventKind::SnoopProbe { holder: c, .. }
                    | MemEventKind::C2CTransfer { from: c }
                    | MemEventKind::CohInvalidate { victim: c }
                    | MemEventKind::CohDowngrade { victim: c, .. }
                    | MemEventKind::BackInvalidate { victim: c, .. } => *c = 2,
                    other => panic!("{other:?} names no peer"),
                });
                assert!(
                    err.contains(&format!("event {i} names core 2 of 2")),
                    "{err}"
                );
            }
            if slot.is_some() {
                let err = refused(&|ev| match &mut ev.kind {
                    MemEventKind::PrefetchIssue { stream }
                    | MemEventKind::PrefetchUseless { stream }
                    | MemEventKind::StreamConfirmed { stream } => *stream = 8,
                    MemEventKind::PrefetchFill { stream, .. }
                    | MemEventKind::PrefetchUseful { stream, .. }
                    | MemEventKind::PrefetchLate { stream, .. } => *stream = Some(8),
                    other => panic!("{other:?} names no slot"),
                });
                assert!(
                    err.contains(&format!("event {i} names stream slot 8 of 8")),
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn chrome_render_is_balanced_and_deterministic() {
        let t = MemTracer {
            events: sample_events(),
        };
        let j = t.to_chrome_json(2);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"l1d-miss:compulsory\""));
        assert!(j.contains("\"coh-downgrade\""));
        assert!(j.contains("\"core 1\""));
        assert_eq!(j, t.to_chrome_json(2));
    }

    /// One event of every tagged variant shape (and both values of the
    /// payloads that decide which counters move), over two cores.
    fn every_variant_events() -> Vec<MemEvent> {
        let mut evs = sample_events();
        evs.extend([
            MemEvent {
                cycle: 3,
                core: 1,
                addr: 0x80,
                kind: MemEventKind::L1IAccess { hit: true },
            },
            MemEvent {
                cycle: 3,
                core: 1,
                addr: 0x80,
                kind: MemEventKind::L1DHit { store: true },
            },
            MemEvent {
                cycle: 4,
                core: 0,
                addr: 0xc0,
                kind: MemEventKind::Eviction {
                    level: Level::L2,
                    dirty: true,
                    wasted_prefetch: false,
                },
            },
            MemEvent {
                cycle: 4,
                core: 0,
                addr: 0xc0,
                kind: MemEventKind::Writeback { level: Level::L1D },
            },
            MemEvent {
                cycle: 4,
                core: 0,
                addr: 0xc0,
                kind: MemEventKind::BackInvalidate {
                    victim: 1,
                    level: Level::L1I,
                },
            },
            MemEvent {
                cycle: 0,
                core: 0,
                addr: 0,
                kind: MemEventKind::CacheFlush { dirty_lines: 5 },
            },
            MemEvent {
                cycle: 5,
                core: 0,
                addr: 0x100,
                kind: MemEventKind::SnoopFiltered,
            },
            MemEvent {
                cycle: 5,
                core: 0,
                addr: 0x100,
                kind: MemEventKind::C2CTransfer { from: 1 },
            },
            MemEvent {
                cycle: 5,
                core: 0,
                addr: 0x100,
                kind: MemEventKind::CohInvalidate { victim: 1 },
            },
            MemEvent {
                cycle: 5,
                core: 0,
                addr: 0x100,
                kind: MemEventKind::CohUpgrade,
            },
            MemEvent {
                cycle: 6,
                core: 1,
                addr: 0x2000,
                kind: MemEventKind::TlbMicroHit,
            },
            MemEvent {
                cycle: 6,
                core: 1,
                addr: 0x2000,
                kind: MemEventKind::TlbJointHit { probes: 2 },
            },
            MemEvent {
                cycle: 6,
                core: 1,
                addr: 0x2000,
                kind: MemEventKind::TlbWalk { cycles: 321 },
            },
            MemEvent {
                cycle: 7,
                core: 1,
                addr: 0x3000,
                kind: MemEventKind::PrefetchFill {
                    level: Level::L1D,
                    stream: Some(2),
                },
            },
            MemEvent {
                cycle: 7,
                core: 1,
                addr: 0x3000,
                kind: MemEventKind::PrefetchUseful {
                    level: Level::L1I,
                    stream: None,
                },
            },
            MemEvent {
                cycle: 7,
                core: 1,
                addr: 0x3000,
                kind: MemEventKind::PrefetchLate {
                    level: Level::L1D,
                    stream: Some(0),
                },
            },
            MemEvent {
                cycle: 7,
                core: 1,
                addr: 0x3000,
                kind: MemEventKind::PrefetchUseless { stream: 4 },
            },
            MemEvent {
                cycle: 7,
                core: 1,
                addr: 0x3000,
                kind: MemEventKind::StreamConfirmed { stream: 4 },
            },
            MemEvent {
                cycle: 8,
                core: 0,
                addr: 0x140,
                kind: MemEventKind::DramRequest { queued: true },
            },
            MemEvent {
                cycle: 8,
                core: 0,
                addr: 0x140,
                kind: MemEventKind::SnoopProbe {
                    holder: 1,
                    sent: false,
                },
            },
            MemEvent {
                cycle: 8,
                core: 0,
                addr: 0x140,
                kind: MemEventKind::PrefetchUseful {
                    level: Level::L1D,
                    stream: Some(1),
                },
            },
        ]);
        evs
    }

    /// `stream` as it comes back out of the snapshot codec.
    fn through_codec(stream: &MemTracer) -> MemTracer {
        let mut e = Enc::new();
        stream.save(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let mut back = MemTracer::new();
        back.restore(&mut d).expect("restore");
        d.finish().expect("fully consumed");
        back
    }

    #[test]
    fn events_snapshot_roundtrip_every_variant() {
        let t = MemTracer {
            events: every_variant_events(),
        };
        assert_eq!(t.events, through_codec(&t).events);
    }

    #[test]
    fn corrupt_event_tag_is_typed_error() {
        let mut e = Enc::new();
        e.seq(1);
        e.u64(0); // cycle
        e.usize(0); // core
        e.u64(0); // addr
        e.u8(250); // bogus tag
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let mut r = MemTracer::new();
        assert!(r.restore(&mut d).is_err());
    }
}
