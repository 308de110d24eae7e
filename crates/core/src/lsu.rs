//! The dual-issue out-of-order load/store unit (§V-A/§V-B, Figs. 9/10).
//!
//! * dedicated load and store pipes, each AG → DC → DA → WB;
//! * stores decomposed into `st.addr` and `st.data` µops ("pseudo double
//!   store", Fig. 10) so address generation and disambiguation happen
//!   before the data operand is ready;
//! * a load queue / store queue pair: loads search older stores for
//!   forwarding; stores finding a younger completed load at the same
//!   address trigger a speculative-failure global flush;
//! * a memory-dependence predictor that tags loads which have violated
//!   before and blocks them until older store addresses resolve (§V-A).

use crate::config::CoreConfig;
use crate::resources::{PipeGroup, RetireWindow};
use std::collections::VecDeque;
use xt_mem::MemSystem;

/// Store-to-load forwarding latency (SQ read + align).
const FWD_LATENCY: u64 = 2;

#[derive(Clone, Copy, Debug)]
struct PendingStore {
    start: u64,
    end: u64,
    addr_ready: u64,
    data_ready: u64,
}

/// Result of scheduling a load.
#[derive(Clone, Copy, Debug)]
pub struct LoadResult {
    /// Cycle the loaded value is available to dependents.
    pub complete: u64,
    /// A memory-order violation occurred: the core must charge a global
    /// flush (§V-A: "the speculative execution fails and a global flush
    /// is generated").
    pub violation: bool,
    /// The load was satisfied by store-to-load forwarding.
    pub forwarded: bool,
    /// Wall-clock interval the load waited for a load-queue entry
    /// (`None` if a slot was free on arrival). For
    /// `StallCause::LsuQueueFull` attribution.
    pub queue_wait: Option<(u64, u64)>,
    /// Wall-clock interval the result took beyond the L1 load-to-use
    /// latency (`None` on an L1 hit or forwarded load). For
    /// `StallCause::DCacheMiss` attribution.
    pub miss_wait: Option<(u64, u64)>,
}

/// Result of scheduling a store's two µops.
#[derive(Clone, Copy, Debug)]
pub struct StoreResult {
    /// Cycle the store address is known (end of the st.addr pipe).
    pub addr_ready: u64,
    /// Cycle the store data is staged (end of the st.data pipe).
    pub data_ready: u64,
    /// Cycle the store is complete for retirement purposes.
    pub complete: u64,
    /// Wall-clock interval the store waited for a store-queue entry
    /// (`None` if a slot was free on arrival). For
    /// `StallCause::LsuQueueFull` attribution.
    pub queue_wait: Option<(u64, u64)>,
}

/// The LSU timing model.
#[derive(Debug)]
pub struct Lsu {
    load_pipe: PipeGroup,
    st_addr_pipe: PipeGroup,
    st_data_pipe: PipeGroup,
    /// Load queue (entries held to retirement).
    pub lq: RetireWindow,
    /// Store queue (entries held to drain).
    pub sq: RetireWindow,
    stores: VecDeque<PendingStore>,
    /// PCs of loads that have violated before, ascending (almost always
    /// empty: one binary search per load, no hashing).
    dep_pred: Vec<u64>,
    sq_track: usize,
    split_stores: bool,
    mem_dep_predict: bool,
    dual_issue: bool,
    agu: u64,
    /// Loads that received forwarded data.
    pub forwards: u64,
    /// Memory-order violations.
    pub violations: u64,
}

impl Lsu {
    /// Builds the LSU for `cfg`.
    pub fn new(cfg: &CoreConfig) -> Self {
        Lsu {
            load_pipe: PipeGroup::new(1),
            st_addr_pipe: PipeGroup::new(1),
            st_data_pipe: PipeGroup::new(1),
            lq: RetireWindow::new(cfg.lq_entries),
            sq: RetireWindow::new(cfg.sq_entries),
            stores: VecDeque::new(),
            dep_pred: Vec::new(),
            sq_track: cfg.sq_entries,
            split_stores: cfg.split_stores,
            mem_dep_predict: cfg.mem_dep_predict,
            dual_issue: cfg.dual_issue_lsu,
            agu: cfg.lat.agu,
            forwards: 0,
            violations: 0,
        }
    }

    fn overlap(s: &PendingStore, start: u64, end: u64) -> bool {
        s.start < end && start < s.end
    }

    /// Schedules a load at `ready` (operands available, dispatched).
    /// `pc` keys the memory-dependence predictor; (`va`, `pa`, `size`)
    /// describe the access.
    #[allow(clippy::too_many_arguments)] // mirrors the load port: pc/addr/size/timing inputs
    pub fn load(
        &mut self,
        core: usize,
        pc: u64,
        va: u64,
        pa: u64,
        size: u64,
        ready: u64,
        mem: &mut MemSystem,
    ) -> LoadResult {
        let slot = self.lq.alloc(ready);
        let queue_wait = (slot > ready).then_some((ready, slot));
        let issue = if self.dual_issue {
            self.load_pipe.issue(slot, 1)
        } else {
            // shared single AGU: loads contend with store-address µops
            self.st_addr_pipe.issue(slot, 1)
        };
        let mut addr_known = issue + self.agu;
        let (start, end) = (pa, pa + size.max(1));

        // §V-A: predicted-dependent loads block until older store
        // addresses resolve.
        if self.mem_dep_predict && self.dep_pred.binary_search(&pc).is_ok() {
            if let Some(max_addr) = self.stores.iter().map(|s| s.addr_ready).max() {
                addr_known = addr_known.max(max_addr);
            }
        }

        // search older stores (youngest first) for an overlap
        let mut conflict: Option<PendingStore> = None;
        for s in self.stores.iter().rev() {
            if Self::overlap(s, start, end) {
                conflict = Some(*s);
                break;
            }
        }

        match conflict {
            Some(s) if s.addr_ready <= addr_known => {
                // disambiguated in time: forward from the SQ
                self.forwards += 1;
                LoadResult {
                    complete: addr_known.max(s.data_ready) + FWD_LATENCY,
                    violation: false,
                    forwarded: true,
                    queue_wait,
                    miss_wait: None,
                }
            }
            Some(s) => {
                // store address resolves *after* the load would issue:
                // the load speculated ahead of a conflicting store
                self.violations += 1;
                if let Err(at) = self.dep_pred.binary_search(&pc) {
                    self.dep_pred.insert(at, pc);
                }
                LoadResult {
                    complete: s.addr_ready.max(s.data_ready) + FWD_LATENCY,
                    violation: true,
                    forwarded: false,
                    queue_wait,
                    miss_wait: None,
                }
            }
            None => {
                let hit_by = addr_known + mem.config().l1_hit;
                let complete = mem.dload(core, addr_known, va, pa);
                LoadResult {
                    complete,
                    violation: false,
                    forwarded: false,
                    queue_wait,
                    miss_wait: (complete > hit_by).then_some((hit_by, complete)),
                }
            }
        }
    }

    /// Schedules a store: `base_ready` gates the st.addr µop,
    /// `data_ready` the st.data µop; both must be past `dispatch`.
    pub fn store(
        &mut self,
        pa: u64,
        size: u64,
        dispatch: u64,
        base_ready: u64,
        data_ready: u64,
    ) -> StoreResult {
        let slot = self.sq.alloc(dispatch);
        let queue_wait = (slot > dispatch).then_some((dispatch, slot));
        let (addr_known, data_done) = if self.split_stores {
            // Fig. 10: independent address and data flows
            let a = self.st_addr_pipe.issue(slot.max(base_ready), 1) + self.agu;
            let d = self.st_data_pipe.issue(slot.max(data_ready), 1) + 1;
            (a, d)
        } else {
            // unified store µop: waits for *both* operands before AG
            let issue_ready = slot.max(base_ready).max(data_ready);
            let a = self.st_addr_pipe.issue(issue_ready, 1) + self.agu;
            (a, a)
        };
        self.stores.push_back(PendingStore {
            start: pa,
            end: pa + size.max(1),
            addr_ready: addr_known,
            data_ready: data_done,
        });
        while self.stores.len() > self.sq_track {
            self.stores.pop_front();
        }
        StoreResult {
            addr_ready: addr_known,
            data_ready: data_done,
            complete: addr_known.max(data_done),
            queue_wait,
        }
    }

    /// Retires stores up to `retire`: entries older than the SQ horizon
    /// are dropped (their data has drained to the cache).
    pub fn drain_before(&mut self, retire: u64) {
        while let Some(front) = self.stores.front() {
            if front.data_ready + 4 < retire && self.stores.len() > 4 {
                self.stores.pop_front();
            } else {
                break;
            }
        }
    }
}

impl xt_snapshot::SnapshotState for Lsu {
    fn save(&self, e: &mut xt_snapshot::Enc) {
        self.load_pipe.save(e);
        self.st_addr_pipe.save(e);
        self.st_data_pipe.save(e);
        self.lq.save(e);
        self.sq.save(e);
        e.seq(self.stores.len());
        for s in &self.stores {
            e.u64(s.start);
            e.u64(s.end);
            e.u64(s.addr_ready);
            e.u64(s.data_ready);
        }
        e.u64_seq(&self.dep_pred);
        e.u64(self.forwards);
        e.u64(self.violations);
    }

    fn restore(&mut self, d: &mut xt_snapshot::Dec) -> xt_snapshot::Result<()> {
        self.load_pipe.restore(d)?;
        self.st_addr_pipe.restore(d)?;
        self.st_data_pipe.restore(d)?;
        self.lq.restore(d)?;
        self.sq.restore(d)?;
        let n = d.len(32)?;
        self.stores.clear();
        for _ in 0..n {
            self.stores.push_back(PendingStore {
                start: d.u64()?,
                end: d.u64()?,
                addr_ready: d.u64()?,
                data_ready: d.u64()?,
            });
        }
        // a frame is outside input: re-establish the order, don't trust it
        self.dep_pred = d.u64_seq()?;
        self.dep_pred.sort_unstable();
        self.dep_pred.dedup();
        self.forwards = d.u64()?;
        self.violations = d.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_mem::{MemConfig, MemSystem, PrefetchConfig};

    fn mem() -> MemSystem {
        MemSystem::new(MemConfig {
            prefetch: PrefetchConfig::off(),
            ..MemConfig::default()
        })
    }

    fn lsu() -> Lsu {
        Lsu::new(&crate::CoreConfig::xt910())
    }

    #[test]
    fn plain_load_goes_to_cache() {
        let mut l = lsu();
        let mut m = mem();
        let r = l.load(0, 0x100, 0x9000, 0x9000, 8, 10, &mut m);
        assert!(!r.violation && !r.forwarded);
        assert!(r.complete >= 10 + m.config().dram_latency, "cold miss");
    }

    #[test]
    fn forwarding_from_older_store() {
        let mut l = lsu();
        let mut m = mem();
        let s = l.store(0x9000, 8, 5, 5, 5);
        let r = l.load(0, 0x100, 0x9000, 0x9000, 8, s.complete + 1, &mut m);
        assert!(r.forwarded, "same-address load forwards");
        assert!(r.complete < 100, "no DRAM access: {}", r.complete);
        assert_eq!(l.forwards, 1);
    }

    #[test]
    fn early_load_past_slow_store_violates_then_learns() {
        let mut l = lsu();
        let mut m = mem();
        // store whose address resolves late (base register at cycle 100)
        let _s = l.store(0x9000, 8, 0, 100, 100);
        // load at the same address tries to issue at cycle 1
        let r = l.load(0, 0xAB, 0x9000, 0x9000, 8, 1, &mut m);
        assert!(r.violation, "speculation failed");
        assert_eq!(l.violations, 1);
        // second encounter: the dependence predictor blocks the load
        let _s2 = l.store(0x9100, 8, 200, 300, 300);
        let r2 = l.load(0, 0xAB, 0x9100, 0x9100, 8, 201, &mut m);
        assert!(!r2.violation, "predictor prevented the re-violation");
        assert!(r2.forwarded);
    }

    #[test]
    fn disjoint_addresses_no_conflict() {
        let mut l = lsu();
        let mut m = mem();
        let _s = l.store(0x9000, 8, 0, 100, 100);
        let r = l.load(0, 0xCD, 0xA000, 0xA000, 8, 1, &mut m);
        assert!(!r.violation && !r.forwarded);
    }

    #[test]
    fn split_store_address_resolves_before_data() {
        let mut l = lsu();
        // base ready at 5, data not until 50
        let s = l.store(0x9000, 8, 0, 5, 50);
        assert!(s.addr_ready < s.data_ready);
        assert!(s.addr_ready <= 10, "address flow independent of data");
    }

    #[test]
    fn unified_store_waits_for_data() {
        let mut cfg = crate::CoreConfig::xt910();
        cfg.split_stores = false;
        let mut l = Lsu::new(&cfg);
        let s = l.store(0x9000, 8, 0, 5, 50);
        assert!(s.addr_ready >= 50, "no split: AG waits for the data");
    }

    #[test]
    fn byte_overlap_detected() {
        let mut l = lsu();
        let mut m = mem();
        let s = l.store(0x9007, 1, 0, 0, 0);
        // 8-byte load covering 0x9000..0x9008 overlaps the byte store
        let r = l.load(0, 0x1, 0x9000, 0x9000, 8, s.complete + 1, &mut m);
        assert!(r.forwarded);
    }
}
