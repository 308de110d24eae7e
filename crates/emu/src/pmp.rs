//! Physical memory protection (paper §II: "XT-910 includes a standard
//! 8-16 region PMP").
//!
//! Each region is a NAPOT/TOR-style address range with R/W/X permission
//! bits and a lock bit. M-mode accesses bypass unlocked regions (the
//! standard RISC-V rule); S/U accesses fault unless some matching
//! region grants the permission.

use crate::mmu::Access;

/// Permission bits of a PMP region.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct PmpPerms {
    /// Read allowed.
    pub r: bool,
    /// Write allowed.
    pub w: bool,
    /// Execute allowed.
    pub x: bool,
    /// Locked: applies to M-mode too.
    pub locked: bool,
}

impl PmpPerms {
    /// Full access, unlocked.
    pub fn rwx() -> Self {
        PmpPerms {
            r: true,
            w: true,
            x: true,
            locked: false,
        }
    }

    /// Read+execute only.
    pub fn rx() -> Self {
        PmpPerms {
            r: true,
            w: false,
            x: true,
            locked: false,
        }
    }

    fn allows(&self, access: Access) -> bool {
        match access {
            Access::Fetch => self.x,
            Access::Load => self.r,
            Access::Store => self.w,
        }
    }
}

/// One address-range region.
#[derive(Clone, Copy, Default, Debug)]
pub struct PmpRegion {
    /// Inclusive start address.
    pub start: u64,
    /// Exclusive end address.
    pub end: u64,
    /// Permissions.
    pub perms: PmpPerms,
}

/// The PMP unit: an ordered list of up to `capacity` regions; the first
/// matching region decides (standard priority rule).
#[derive(Clone, Debug)]
pub struct Pmp {
    regions: Vec<PmpRegion>,
    capacity: usize,
}

impl Pmp {
    /// Creates a PMP with `capacity` regions (8 or 16 on the XT-910).
    ///
    /// # Panics
    ///
    /// Panics if capacity is not 8 or 16 (paper §II).
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity == 8 || capacity == 16,
            "XT-910 PMP has 8 or 16 regions"
        );
        Pmp {
            regions: Vec::new(),
            capacity,
        }
    }

    /// Installs a region; returns its index.
    ///
    /// # Errors
    ///
    /// Fails when all regions are in use.
    pub fn add(&mut self, region: PmpRegion) -> Result<usize, &'static str> {
        if self.regions.len() >= self.capacity {
            return Err("all PMP regions in use");
        }
        self.regions.push(region);
        Ok(self.regions.len() - 1)
    }

    /// Number of configured regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether no regions are configured.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Checks an access at `addr`; `machine_mode` applies the M-mode
    /// bypass for unlocked regions. Returns `true` when allowed.
    pub fn check(&self, addr: u64, access: Access, machine_mode: bool) -> bool {
        for r in &self.regions {
            if addr >= r.start && addr < r.end {
                if machine_mode && !r.perms.locked {
                    return true;
                }
                return r.perms.allows(access);
            }
        }
        // no match: M-mode allowed, lower privileges denied (standard)
        machine_mode
    }
}

impl xt_snapshot::SnapshotState for Pmp {
    fn transfer<S: xt_snapshot::Stream>(&mut self, s: &mut S) -> xt_snapshot::Result<()> {
        s.expect("pmp capacity", self.capacity)?;
        s.vec(&mut self.regions, 20, |s, r| {
            s.u64(&mut r.start)?;
            s.u64(&mut r.end)?;
            for bit in [
                &mut r.perms.r,
                &mut r.perms.w,
                &mut r.perms.x,
                &mut r.perms.locked,
            ] {
                s.bool(bit)?;
            }
            Ok(())
        })?;
        s.check(self.regions.len() <= self.capacity, "pmp region count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_match_wins() {
        let mut p = Pmp::new(8);
        p.add(PmpRegion {
            start: 0x1000,
            end: 0x2000,
            perms: PmpPerms {
                r: true,
                w: false,
                x: false,
                locked: true,
            },
        })
        .unwrap();
        p.add(PmpRegion {
            start: 0x0,
            end: 0x1_0000,
            perms: PmpPerms::rwx(),
        })
        .unwrap();
        // inside first region: read-only even though the second grants all
        assert!(p.check(0x1800, Access::Load, false));
        assert!(!p.check(0x1800, Access::Store, false));
        // outside the first region, second applies
        assert!(p.check(0x3000, Access::Store, false));
    }

    #[test]
    fn machine_mode_bypasses_unlocked_only() {
        let mut p = Pmp::new(8);
        p.add(PmpRegion {
            start: 0x1000,
            end: 0x2000,
            perms: PmpPerms {
                r: false,
                w: false,
                x: false,
                locked: false,
            },
        })
        .unwrap();
        p.add(PmpRegion {
            start: 0x2000,
            end: 0x3000,
            perms: PmpPerms {
                r: false,
                w: false,
                x: false,
                locked: true,
            },
        })
        .unwrap();
        assert!(p.check(0x1800, Access::Store, true), "unlocked: M bypass");
        assert!(!p.check(0x2800, Access::Store, true), "locked binds M too");
        assert!(!p.check(0x1800, Access::Store, false), "U/S always checked");
    }

    #[test]
    fn unmatched_defaults() {
        let p = Pmp::new(16);
        assert!(p.check(0x5000, Access::Load, true), "M-mode default allow");
        assert!(!p.check(0x5000, Access::Load, false), "U-mode default deny");
    }

    #[test]
    fn capacity_enforced() {
        let mut p = Pmp::new(8);
        for k in 0..8 {
            p.add(PmpRegion {
                start: k * 0x1000,
                end: (k + 1) * 0x1000,
                perms: PmpPerms::rwx(),
            })
            .unwrap();
        }
        assert!(p
            .add(PmpRegion {
                start: 0,
                end: 1,
                perms: PmpPerms::rwx(),
            })
            .is_err());
    }

    #[test]
    #[should_panic]
    fn only_8_or_16_regions() {
        Pmp::new(4);
    }

    #[test]
    fn execute_permission_separate() {
        let mut p = Pmp::new(8);
        p.add(PmpRegion {
            start: 0x8000_0000,
            end: 0x8001_0000,
            perms: PmpPerms::rx(),
        })
        .unwrap();
        assert!(p.check(0x8000_1234, Access::Fetch, false));
        assert!(p.check(0x8000_1234, Access::Load, false));
        assert!(!p.check(0x8000_1234, Access::Store, false));
    }
}
