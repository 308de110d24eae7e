//! PLIC — the platform-level interrupt controller, with the XT-910's
//! permission-control extension hook (§II mentions an interrupt
//! controller extension "to support permission control").
//!
//! Besides the method API, the PLIC exposes the standard MMIO register
//! map (offsets in [`xt_emu::platform::plic_map`], context = hart):
//! source priorities, read-only pending words, per-context enable
//! words, thresholds, and the claim/complete register — plus the XT-910
//! extension's per-context permission words at `0x3000` (1 = granted).
//! All registers are 32-bit; any other width faults.

use crate::bus::MmioDevice;
use xt_emu::platform::plic_map;
use xt_emu::BusFault;

/// The PLIC model: `sources` interrupt lines fanned out to `contexts`
/// (hart x privilege) targets.
#[derive(Clone, Debug)]
pub struct Plic {
    priority: Vec<u32>,
    pending: Vec<bool>,
    /// How many of `pending` are set. [`Plic::pending_for`] is asked
    /// before every instruction of a bus-attached run and the answer is
    /// almost always "no line is raised".
    raised: usize,
    /// enables[context][source]
    enables: Vec<Vec<bool>>,
    threshold: Vec<u32>,
    claimed: Vec<Option<u32>>,
    /// XT-910 extension: per-context permission mask — a context may only
    /// claim sources it has been granted (secure-world partitioning).
    permission: Vec<Vec<bool>>,
}

impl Plic {
    /// Creates a PLIC with `sources` lines (1-indexed, 0 reserved) and
    /// `contexts` targets. All permissions granted by default.
    pub fn new(sources: usize, contexts: usize) -> Self {
        Plic {
            priority: vec![0; sources + 1],
            pending: vec![false; sources + 1],
            raised: 0,
            enables: vec![vec![false; sources + 1]; contexts],
            threshold: vec![0; contexts],
            claimed: vec![None; contexts],
            permission: vec![vec![true; sources + 1]; contexts],
        }
    }

    /// Sets the priority of `source` (0 disables it).
    pub fn set_priority(&mut self, source: u32, prio: u32) {
        self.priority[source as usize] = prio;
    }

    /// Enables `source` for `context`.
    pub fn enable(&mut self, context: usize, source: u32) {
        self.enables[context][source as usize] = true;
    }

    /// Sets the claim threshold of `context`.
    pub fn set_threshold(&mut self, context: usize, t: u32) {
        self.threshold[context] = t;
    }

    /// XT-910 extension: revokes `context`'s permission to see `source`.
    pub fn revoke_permission(&mut self, context: usize, source: u32) {
        self.permission[context][source as usize] = false;
    }

    /// Raises an interrupt line.
    pub fn raise(&mut self, source: u32) {
        let line = &mut self.pending[source as usize];
        self.raised += !*line as usize;
        *line = true;
    }

    fn best_for(&self, context: usize) -> Option<u32> {
        if self.raised == 0 {
            return None;
        }
        self.scan_for(context)
    }

    /// [`Plic::best_for`] by looking at every source.
    fn scan_for(&self, context: usize) -> Option<u32> {
        let mut best: Option<(u32, u32)> = None; // (prio, source)
        for s in 1..self.pending.len() {
            if !self.pending[s]
                || !self.enables[context][s]
                || !self.permission[context][s]
                || self.priority[s] == 0
                || self.priority[s] <= self.threshold[context]
            {
                continue;
            }
            let cand = (self.priority[s], s as u32);
            // higher priority wins; ties broken by lower source id
            best = match best {
                Some((bp, bs)) if bp > cand.0 || (bp == cand.0 && bs < cand.1) => Some((bp, bs)),
                _ => Some(cand),
            };
        }
        best.map(|(_, s)| s)
    }

    /// Whether an interrupt is asserted to `context`.
    pub fn pending_for(&self, context: usize) -> bool {
        self.best_for(context).is_some()
    }

    /// Claim: returns and acknowledges the highest-priority pending
    /// source for `context`, or 0.
    pub fn claim(&mut self, context: usize) -> u32 {
        match self.best_for(context) {
            Some(s) => {
                self.pending[s as usize] = false;
                self.raised -= 1;
                self.claimed[context] = Some(s);
                s
            }
            None => 0,
        }
    }

    /// Complete: signals end of handling for `source`.
    pub fn complete(&mut self, context: usize, source: u32) {
        if self.claimed[context] == Some(source) {
            self.claimed[context] = None;
        }
    }

    /// Number of sources (excluding the reserved source 0).
    pub fn sources(&self) -> usize {
        self.priority.len() - 1
    }

    /// Number of contexts.
    pub fn contexts(&self) -> usize {
        self.threshold.len()
    }

    /// Whether `source` is enabled for `context`.
    pub fn enabled(&self, context: usize, source: u32) -> bool {
        self.enables[context][source as usize]
    }

    /// The priority of `source`.
    pub fn priority(&self, source: u32) -> u32 {
        self.priority[source as usize]
    }

    /// The claim threshold of `context`.
    pub fn threshold(&self, context: usize) -> u32 {
        self.threshold[context]
    }

    /// Whether `source`'s line is raised (gateway pending bit).
    pub fn is_pending(&self, source: u32) -> bool {
        self.pending[source as usize]
    }

    /// Reads a 32-bit word of per-source bits (bit = source id).
    fn bit_word(bits: &[bool], word: u64) -> u64 {
        let mut v = 0u64;
        for b in 0..32 {
            let s = word as usize * 32 + b;
            if s < bits.len() && bits[s] {
                v |= 1 << b;
            }
        }
        v
    }

    /// Writes a 32-bit word of per-source bits (source 0 stays fixed:
    /// it is reserved).
    fn set_bit_word(bits: &mut [bool], word: u64, value: u64) {
        for b in 0..32 {
            let s = word as usize * 32 + b;
            if s >= 1 && s < bits.len() {
                bits[s] = value & (1 << b) != 0;
            }
        }
    }

    /// MMIO read at `offset` (see [`plic_map`]). The claim register
    /// read *claims*: it acknowledges and returns the best source.
    ///
    /// # Errors
    ///
    /// [`BusFault`] on a bad width/alignment or unmapped offset.
    pub fn mmio_read(&mut self, offset: u64, size: usize) -> Result<u64, BusFault> {
        if size != 4 || !offset.is_multiple_of(4) {
            return Err(BusFault);
        }
        let nwords = self.priority.len().div_ceil(32) as u64;
        match offset {
            o if o < plic_map::PENDING_BASE => {
                let s = (o / 4) as usize;
                match self.priority.get(s) {
                    Some(&p) => Ok(p as u64),
                    None => Err(BusFault),
                }
            }
            o if (plic_map::PENDING_BASE..plic_map::ENABLE_BASE).contains(&o) => {
                let w = (o - plic_map::PENDING_BASE) / 4;
                if w >= nwords {
                    return Err(BusFault);
                }
                Ok(Self::bit_word(&self.pending, w))
            }
            o if (plic_map::ENABLE_BASE..plic_map::PERMISSION_BASE).contains(&o) => {
                let ctx = ((o - plic_map::ENABLE_BASE) / plic_map::ENABLE_STRIDE) as usize;
                let w = (o - plic_map::ENABLE_BASE) % plic_map::ENABLE_STRIDE / 4;
                match self.enables.get(ctx) {
                    Some(e) if w < nwords => Ok(Self::bit_word(e, w)),
                    _ => Err(BusFault),
                }
            }
            o if (plic_map::PERMISSION_BASE..plic_map::PERMISSION_BASE + 0x1000)
                .contains(&o) =>
            {
                let ctx = ((o - plic_map::PERMISSION_BASE) / plic_map::PERMISSION_STRIDE) as usize;
                let w = (o - plic_map::PERMISSION_BASE) % plic_map::PERMISSION_STRIDE / 4;
                match self.permission.get(ctx) {
                    Some(p) if w < nwords => Ok(Self::bit_word(p, w)),
                    _ => Err(BusFault),
                }
            }
            o if o >= plic_map::CONTEXT_BASE => {
                let ctx = ((o - plic_map::CONTEXT_BASE) / plic_map::CONTEXT_STRIDE) as usize;
                if ctx >= self.contexts() {
                    return Err(BusFault);
                }
                match (o - plic_map::CONTEXT_BASE) % plic_map::CONTEXT_STRIDE {
                    0 => Ok(self.threshold[ctx] as u64),
                    plic_map::CLAIM_OFFSET => Ok(self.claim(ctx) as u64),
                    _ => Err(BusFault),
                }
            }
            _ => Err(BusFault),
        }
    }

    /// MMIO write at `offset`. Writing the claim register *completes*
    /// handling of the written source id; pending words are read-only.
    ///
    /// # Errors
    ///
    /// [`BusFault`] on a bad width/alignment, a read-only register, or
    /// an unmapped offset.
    pub fn mmio_write(&mut self, offset: u64, value: u64, size: usize) -> Result<(), BusFault> {
        if size != 4 || !offset.is_multiple_of(4) {
            return Err(BusFault);
        }
        let nwords = self.priority.len().div_ceil(32) as u64;
        match offset {
            o if o < plic_map::PENDING_BASE => {
                let s = (o / 4) as usize;
                match self.priority.get_mut(s) {
                    // source 0 is reserved: accept and ignore
                    Some(p) => {
                        if s != 0 {
                            *p = value as u32;
                        }
                        Ok(())
                    }
                    None => Err(BusFault),
                }
            }
            o if (plic_map::ENABLE_BASE..plic_map::PERMISSION_BASE).contains(&o) => {
                let ctx = ((o - plic_map::ENABLE_BASE) / plic_map::ENABLE_STRIDE) as usize;
                let w = (o - plic_map::ENABLE_BASE) % plic_map::ENABLE_STRIDE / 4;
                match self.enables.get_mut(ctx) {
                    Some(e) if w < nwords => {
                        Self::set_bit_word(e, w, value);
                        Ok(())
                    }
                    _ => Err(BusFault),
                }
            }
            o if (plic_map::PERMISSION_BASE..plic_map::PERMISSION_BASE + 0x1000)
                .contains(&o) =>
            {
                let ctx = ((o - plic_map::PERMISSION_BASE) / plic_map::PERMISSION_STRIDE) as usize;
                let w = (o - plic_map::PERMISSION_BASE) % plic_map::PERMISSION_STRIDE / 4;
                match self.permission.get_mut(ctx) {
                    Some(p) if w < nwords => {
                        Self::set_bit_word(p, w, value);
                        Ok(())
                    }
                    _ => Err(BusFault),
                }
            }
            o if o >= plic_map::CONTEXT_BASE => {
                let ctx = ((o - plic_map::CONTEXT_BASE) / plic_map::CONTEXT_STRIDE) as usize;
                if ctx >= self.contexts() {
                    return Err(BusFault);
                }
                match (o - plic_map::CONTEXT_BASE) % plic_map::CONTEXT_STRIDE {
                    0 => {
                        self.threshold[ctx] = value as u32;
                        Ok(())
                    }
                    plic_map::CLAIM_OFFSET => {
                        self.complete(ctx, value as u32);
                        Ok(())
                    }
                    _ => Err(BusFault),
                }
            }
            _ => Err(BusFault),
        }
    }
}

impl xt_snapshot::SnapshotState for Plic {
    fn save(&self, e: &mut xt_snapshot::Enc) {
        e.seq(self.priority.len());
        for &p in &self.priority {
            e.u32(p);
        }
        e.bool_seq(&self.pending);
        e.seq(self.enables.len());
        for en in &self.enables {
            e.bool_seq(en);
        }
        e.seq(self.threshold.len());
        for &t in &self.threshold {
            e.u32(t);
        }
        e.seq(self.claimed.len());
        for &c in &self.claimed {
            e.opt_u64(c.map(u64::from));
        }
        e.seq(self.permission.len());
        for p in &self.permission {
            e.bool_seq(p);
        }
    }

    fn restore(&mut self, d: &mut xt_snapshot::Dec) -> xt_snapshot::Result<()> {
        let mismatch = |what| xt_snapshot::SnapshotError::Mismatch { what };
        let corrupt = |what| xt_snapshot::SnapshotError::Corrupt { what };
        let n_prio = d.len(4)?;
        if n_prio != self.priority.len() {
            return Err(mismatch("plic source count"));
        }
        for p in &mut self.priority {
            *p = d.u32()?;
        }
        let pending = d.bool_seq()?;
        if pending.len() != self.pending.len() {
            return Err(mismatch("plic source count"));
        }
        self.raised = pending.iter().filter(|&&p| p).count();
        self.pending = pending;
        let n_en = d.len(8)?;
        if n_en != self.enables.len() {
            return Err(mismatch("plic context count"));
        }
        for en in &mut self.enables {
            let v = d.bool_seq()?;
            if v.len() != en.len() {
                return Err(mismatch("plic source count"));
            }
            *en = v;
        }
        let n_thr = d.len(4)?;
        if n_thr != self.threshold.len() {
            return Err(mismatch("plic context count"));
        }
        for t in &mut self.threshold {
            *t = d.u32()?;
        }
        let n_cl = d.len(1)?;
        if n_cl != self.claimed.len() {
            return Err(mismatch("plic context count"));
        }
        for c in &mut self.claimed {
            *c = match d.opt_u64()? {
                Some(v) => {
                    Some(u32::try_from(v).map_err(|_| corrupt("plic claimed source"))?)
                }
                None => None,
            };
        }
        let n_perm = d.len(8)?;
        if n_perm != self.permission.len() {
            return Err(mismatch("plic context count"));
        }
        for p in &mut self.permission {
            let v = d.bool_seq()?;
            if v.len() != p.len() {
                return Err(mismatch("plic source count"));
            }
            *p = v;
        }
        Ok(())
    }
}

impl MmioDevice for Plic {
    fn read(&mut self, offset: u64, size: usize) -> Result<u64, BusFault> {
        self.mmio_read(offset, size)
    }

    fn write(&mut self, offset: u64, value: u64, size: usize) -> Result<(), BusFault> {
        self.mmio_write(offset, value, size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plic() -> Plic {
        let mut p = Plic::new(8, 2);
        for s in 1..=8 {
            p.set_priority(s, s); // priority = id
            p.enable(0, s);
            p.enable(1, s);
        }
        p
    }

    #[test]
    fn highest_priority_claimed_first() {
        let mut p = plic();
        p.raise(3);
        p.raise(7);
        p.raise(5);
        assert_eq!(p.claim(0), 7);
        assert_eq!(p.claim(0), 5);
        assert_eq!(p.claim(0), 3);
        assert_eq!(p.claim(0), 0, "nothing left");
    }

    #[test]
    fn threshold_masks_low_priority() {
        let mut p = plic();
        p.set_threshold(0, 5);
        p.raise(3);
        assert!(!p.pending_for(0));
        p.raise(6);
        assert_eq!(p.claim(0), 6);
    }

    #[test]
    fn disabled_context_sees_nothing() {
        let mut p = Plic::new(4, 2);
        p.set_priority(1, 1);
        p.enable(0, 1);
        p.raise(1);
        assert!(p.pending_for(0));
        assert!(!p.pending_for(1), "context 1 never enabled source 1");
    }

    #[test]
    fn permission_control_extension() {
        let mut p = plic();
        p.revoke_permission(1, 7);
        p.raise(7);
        assert!(p.pending_for(0), "context 0 still allowed");
        assert!(!p.pending_for(1), "context 1 revoked");
        assert_eq!(p.claim(1), 0);
        assert_eq!(p.claim(0), 7);
    }

    /// The raised-line count against a recount, and the gated
    /// `pending_for` against the scan, after every step of a random
    /// raise / claim / complete / restore sequence.
    #[test]
    fn raised_count_tracks_pending_through_random_sequences() {
        use xt_harness::gen::{ints, vec_of};
        use xt_harness::prop::{check_with, Config};
        use xt_snapshot::SnapshotState;
        let gen = vec_of((ints(0u32..8), ints(0u32..9), ints(0usize..2)), 1..200);
        check_with(
            &Config::seeded(0x0910_0020_0001),
            "raised_count_tracks_pending_through_random_sequences",
            &gen,
            |ops| {
                let mut p = plic();
                p.set_threshold(1, 4);
                p.revoke_permission(0, 6);
                let mut last_claim = [0u32; 2];
                for (k, &(kind, source, ctx)) in ops.iter().enumerate() {
                    match kind {
                        // source 0 is reserved but its line can be raised
                        0..=3 => p.raise(source),
                        4 | 5 => last_claim[ctx] = p.claim(ctx),
                        6 => p.complete(ctx, last_claim[ctx]),
                        _ => {
                            let mut e = xt_snapshot::Enc::new();
                            p.save(&mut e);
                            let bytes = e.into_bytes();
                            let mut fresh = plic();
                            fresh.raise(1 + source % 8); // a count to overwrite
                            let mut d = xt_snapshot::Dec::new(&bytes);
                            fresh.restore(&mut d).expect("own frame restores");
                            p = fresh;
                        }
                    }
                    let recount = p.pending.iter().filter(|&&b| b).count();
                    assert_eq!(p.raised, recount, "after #{k} ({kind})");
                    for c in 0..2 {
                        assert_eq!(
                            p.pending_for(c),
                            p.scan_for(c).is_some(),
                            "context {c} after #{k} ({kind})"
                        );
                    }
                }
            },
        );
    }

    #[test]
    fn claim_complete_cycle() {
        let mut p = plic();
        p.raise(2);
        let s = p.claim(0);
        assert_eq!(s, 2);
        p.complete(0, s);
        assert!(!p.pending_for(0));
    }
}
