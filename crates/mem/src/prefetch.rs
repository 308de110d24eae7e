//! Multi-mode multi-stream data prefetcher (paper §V-C, Fig. 11).
//!
//! The prefetcher pattern-matches the demand-access stream in three steps
//! (exactly the paper's decomposition):
//!
//! 1. **Stride calculation** — each tracked stream remembers its last
//!    address and candidate stride.
//! 2. **Prefetch control** — a per-stream confidence counter gates
//!    issue; the policy sets the prefetch depth/distance and dynamically
//!    starts/stops so that prefetch is neither "overly aggressive
//!    (contaminating the cache) nor overly slow".
//! 3. **Execution** — confirmed streams emit prefetch requests up to
//!    `distance` lines ahead, bounded by the mode's maximum depth (64
//!    lines for the single global stream, 32 per stream in multi-stream
//!    mode), with virtual-address cross-page continuation.

use crate::config::PrefetchConfig;

/// A prefetch request emitted by the engine, in *virtual* line addresses
/// (the system layer translates and fills).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PrefetchReq {
    /// Virtual byte address of the line to prefetch.
    pub va: u64,
    /// Index of the stream-table entry that issued the request (the
    /// per-stream scorecard key; see `MemStats::pf_scorecard`).
    pub stream: usize,
}

#[derive(Clone, Copy, Debug)]
struct Stream {
    /// Last demand line address observed (in lines).
    last: u64,
    /// Current stride in lines (may be negative).
    stride: i64,
    /// Confidence: consecutive confirmations of `stride`.
    confidence: u32,
    /// Next line (in lines) the stream will prefetch.
    next: i64,
    /// Recency for stream-table replacement.
    lru: u64,
    valid: bool,
}

/// Confidence needed before a stream issues prefetches.
const CONFIRM: u32 = 2;

/// The prefetch engine for one core.
#[derive(Clone, Debug)]
pub struct Prefetcher {
    cfg: PrefetchConfig,
    line_bits: u32,
    streams: Vec<Stream>,
    stamp: u64,
    /// Requests of the latest [`Self::on_access`] call (scratch, not
    /// state: cleared per call, absent from snapshots).
    reqs: Vec<PrefetchReq>,
}

impl Prefetcher {
    /// Creates a prefetcher with the given configuration and line size.
    pub fn new(cfg: PrefetchConfig, line_bytes: u32) -> Self {
        Prefetcher {
            cfg,
            line_bits: line_bytes.trailing_zeros(),
            streams: vec![
                Stream {
                    last: 0,
                    stride: 0,
                    confidence: 0,
                    next: 0,
                    lru: 0,
                    valid: false,
                };
                cfg.max_streams
            ],
            stamp: 0,
            reqs: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &PrefetchConfig {
        &self.cfg
    }

    /// The prefetch requests to issue now: those the latest
    /// [`Self::on_access`] call produced, in issue order.
    pub fn requests(&self) -> &[PrefetchReq] {
        &self.reqs
    }

    /// Observes a demand access at virtual address `va`, replacing
    /// [`Self::requests`]; returns the stream-table slot that crossed the
    /// confirmation threshold on this access (if any).
    pub fn on_access(&mut self, va: u64) -> Option<usize> {
        self.reqs.clear();
        if !self.cfg.enabled() {
            return None;
        }
        self.stamp += 1;
        let line = va >> self.line_bits;

        // 1. stride calculation: find the stream this access extends.
        let mut best: Option<usize> = None;
        for (i, s) in self.streams.iter().enumerate() {
            if !s.valid {
                continue;
            }
            let delta = line as i64 - s.last as i64;
            // A stream matches if the access continues at the learned
            // stride, re-touches the last line, or (while still learning)
            // lands nearby.
            let matches = if s.confidence > 0 {
                delta == s.stride || delta == 0
            } else {
                delta.unsigned_abs() <= 16 && delta != 0
            };
            if matches {
                best = Some(i);
                break;
            }
        }

        let mut confirmed = None;
        match best {
            Some(i) => {
                let s = &mut self.streams[i];
                let delta = line as i64 - s.last as i64;
                s.lru = self.stamp;
                if delta == 0 {
                    return None; // same line, nothing to learn
                }
                if s.confidence == 0 {
                    // candidate stride established
                    s.stride = delta;
                    s.confidence = 1;
                    s.last = line;
                    s.next = line as i64 + s.stride;
                    return None;
                }
                // stride confirmed again
                s.confidence = (s.confidence + 1).min(8);
                s.last = line;
                if s.confidence == CONFIRM {
                    confirmed = Some(i);
                }
                if s.confidence >= CONFIRM {
                    // 2./3. prefetch control + execution: run up to
                    // `distance` lines ahead of the demand pointer, capped
                    // by max_depth. With the L2 prefetcher enabled a
                    // second engine runs the same stream twice as far,
                    // filling L2 only (the system layer splits by depth).
                    let reach = self.cfg.distance.lines() * if self.cfg.l2 { 2 } else { 1 };
                    let distance = reach.min(self.cfg.max_depth) as i64;
                    let target = line as i64 + s.stride * distance;
                    let step = s.stride;
                    // continue from where the stream left off, but never
                    // behind the demand pointer (in stride direction)
                    let mut next = if step > 0 {
                        s.next.max(line as i64 + step)
                    } else {
                        s.next.min(line as i64 + step)
                    };
                    let depth_limit =
                        line as i64 + step * self.cfg.max_depth as i64;
                    let bound = if step > 0 {
                        target.min(depth_limit)
                    } else {
                        target.max(depth_limit)
                    };
                    while (step > 0 && next <= bound) || (step < 0 && next >= bound) {
                        if next >= 0 {
                            self.reqs.push(PrefetchReq {
                                va: (next as u64) << self.line_bits,
                                stream: i,
                            });
                        }
                        next += step;
                    }
                    s.next = next;
                }
            }
            None => {
                // allocate a stream (LRU victim)
                let victim = self
                    .streams
                    .iter_mut()
                    .min_by_key(|s| if s.valid { s.lru } else { 0 })
                    .expect("stream table non-empty");
                *victim = Stream {
                    last: line,
                    stride: 0,
                    confidence: 0,
                    next: 0,
                    lru: self.stamp,
                    valid: true,
                };
            }
        }
        confirmed
    }
}

impl xt_snapshot::SnapshotState for Prefetcher {
    fn save(&self, e: &mut xt_snapshot::Enc) {
        e.usize(self.streams.len());
        e.u32(self.line_bits);
        for s in &self.streams {
            e.u64(s.last);
            e.i64(s.stride);
            e.u32(s.confidence);
            e.i64(s.next);
            e.u64(s.lru);
            e.bool(s.valid);
        }
        e.u64(self.stamp);
    }

    fn restore(&mut self, d: &mut xt_snapshot::Dec) -> xt_snapshot::Result<()> {
        if d.usize()? != self.streams.len() || d.u32()? != self.line_bits {
            return Err(xt_snapshot::SnapshotError::Mismatch {
                what: "prefetcher geometry",
            });
        }
        for s in &mut self.streams {
            s.last = d.u64()?;
            s.stride = d.i64()?;
            s.confidence = d.u32()?;
            s.next = d.i64()?;
            s.lru = d.u64()?;
            s.valid = d.bool()?;
        }
        self.stamp = d.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PrefetchConfig, PrefetchDistance};

    fn engine(distance: PrefetchDistance) -> Prefetcher {
        let cfg = PrefetchConfig {
            l1: true,
            l2: true,
            tlb: true,
            distance,
            max_streams: 8,
            max_depth: 32,
        };
        Prefetcher::new(cfg, 64)
    }

    /// One access: the requests it produced and the confirmed slot.
    fn access(p: &mut Prefetcher, va: u64) -> (Vec<PrefetchReq>, Option<usize>) {
        let confirmed = p.on_access(va);
        (p.requests().to_vec(), confirmed)
    }

    #[test]
    fn unit_stride_confirms_and_issues() {
        let mut p = engine(PrefetchDistance::Small);
        assert!(access(&mut p, 0).0.is_empty(), "first touch allocates");
        assert!(access(&mut p, 64).0.is_empty(), "second touch sets stride");
        let (reqs, confirmed) = access(&mut p, 128); // third touch confirms
        assert!(!reqs.is_empty(), "confirmed stream prefetches");
        assert_eq!(reqs[0].va, 192, "starts one line ahead");
        let slot = confirmed.expect("confirmation slot reported");
        assert!(reqs.iter().all(|r| r.stream == slot), "requests carry the slot");
        // later accesses on the same stream don't re-confirm
        assert_eq!(access(&mut p, 192).1, None);
    }

    #[test]
    fn requests_are_those_of_the_latest_access_only() {
        let mut p = engine(PrefetchDistance::Small);
        for k in 0..3u64 {
            p.on_access(k * 64);
        }
        assert!(!p.requests().is_empty(), "confirmed: requests out");
        // the same line again returns early: nothing to learn or issue,
        // and the buffer must not still offer the previous requests
        assert_eq!(p.on_access(2 * 64), None);
        assert!(p.requests().is_empty());
    }

    #[test]
    fn steady_state_issues_one_per_access() {
        let mut p = engine(PrefetchDistance::Small);
        for k in 0..8u64 {
            access(&mut p, k * 64);
        }
        // In steady state each new demand line extends the run by ~stride.
        let reqs = access(&mut p, 8 * 64).0;
        assert_eq!(reqs.len(), 1);
        // small distance is 4 lines; the L2 engine doubles the reach
        assert_eq!(reqs[0].va, (8 + 8) * 64, "reach 8 lines ahead");
    }

    #[test]
    fn large_distance_runs_further_ahead() {
        let mut small = engine(PrefetchDistance::Small);
        let mut large = engine(PrefetchDistance::Large);
        let mut tail_small = 0;
        let mut tail_large = 0;
        for k in 0..16u64 {
            if let Some(r) = access(&mut small, k * 64).0.last() {
                tail_small = r.va;
            }
            if let Some(r) = access(&mut large, k * 64).0.last() {
                tail_large = r.va;
            }
        }
        assert!(tail_large > tail_small, "{tail_large} vs {tail_small}");
    }

    #[test]
    fn non_unit_stride_detected() {
        let mut p = engine(PrefetchDistance::Small);
        // stride of 3 lines
        access(&mut p, 0);
        access(&mut p, 3 * 64);
        let reqs = access(&mut p, 6 * 64).0;
        assert!(!reqs.is_empty());
        assert_eq!(reqs[0].va, 9 * 64);
    }

    #[test]
    fn negative_stride_supported() {
        let mut p = engine(PrefetchDistance::Small);
        access(&mut p, 100 * 64);
        access(&mut p, 99 * 64);
        let reqs = access(&mut p, 98 * 64).0;
        assert!(!reqs.is_empty());
        assert_eq!(reqs[0].va, 97 * 64);
    }

    #[test]
    fn multiple_streams_tracked_independently() {
        let mut p = engine(PrefetchDistance::Small);
        // interleave two far-apart unit-stride streams
        let base_a = 0u64;
        let base_b = 1 << 30;
        let mut got_a = false;
        let mut got_b = false;
        for k in 0..8u64 {
            for r in access(&mut p, base_a + k * 64).0 {
                got_a |= r.va > base_a;
            }
            for r in access(&mut p, base_b + k * 64).0 {
                got_b |= r.va > base_b;
            }
        }
        assert!(got_a && got_b, "both streams prefetching");
    }

    #[test]
    fn unit_stride_continues_across_4k_page_boundary() {
        let mut p = engine(PrefetchDistance::Small);
        // walk the tail of page 0 (lines 56..63); the stream must run
        // ahead into page 1 without a gap at the boundary
        let mut vas = Vec::new();
        for k in 56..64u64 {
            vas.extend(access(&mut p, k * 64).0.into_iter().map(|r| r.va));
        }
        assert!(
            vas.iter().any(|&va| va >= 4096),
            "prefetch stream crosses into page 1: {vas:?}"
        );
        assert!(
            vas.contains(&(63 * 64)) && vas.contains(&(64 * 64)),
            "no hole at the 4 KiB boundary: {vas:?}"
        );
    }

    #[test]
    fn negative_stride_crosses_boundary_downward() {
        let mut p = engine(PrefetchDistance::Small);
        // descend through the bottom of page 1 into page 0
        let mut vas = Vec::new();
        for k in (64..=70u64).rev() {
            vas.extend(access(&mut p, k * 64).0.into_iter().map(|r| r.va));
        }
        assert!(
            vas.iter().any(|&va| va < 4096),
            "descending stream continues into page 0: {vas:?}"
        );
    }

    #[test]
    fn negative_stride_never_underflows_address_zero() {
        let mut p = engine(PrefetchDistance::Large);
        let mut vas = Vec::new();
        for k in (0..=4u64).rev() {
            vas.extend(access(&mut p, k * 64).0.into_iter().map(|r| r.va));
        }
        // the run-ahead target is far below line 0; requests clamp there
        // instead of wrapping to the top of the address space
        assert!(
            vas.iter().all(|&va| va <= 4 * 64),
            "no wrapped addresses: {vas:?}"
        );
    }

    #[test]
    fn random_accesses_never_confirm() {
        let mut p = engine(PrefetchDistance::Small);
        // addresses far apart with no consistent stride
        let addrs = [0u64, 1 << 20, 5 << 20, 2 << 20, 9 << 20, 3 << 20];
        let mut total = 0;
        for a in addrs {
            total += access(&mut p, a).0.len();
        }
        assert_eq!(total, 0, "no pattern, no prefetch");
    }

    #[test]
    fn disabled_config_is_silent() {
        let mut p = Prefetcher::new(PrefetchConfig::off(), 64);
        for k in 0..10u64 {
            assert!(access(&mut p, k * 64).0.is_empty());
        }
    }
}
