//! The 16-entry loop buffer (§III-C, Fig. 7).
//!
//! Small loop bodies are captured whole; while the buffer is streaming,
//! instruction fetch does not access the L1 I-cache and the loop-back
//! edge costs no bubble ("the last instruction of the current loop can be
//! issued together with the first instruction of the next loop").
//! Forward branches *inside* the body are allowed, so if-else bodies
//! still stream. A context switch flushes the buffer.

/// Loop-buffer state machine.
#[derive(Clone, Debug)]
pub struct LoopBuffer {
    capacity_insts: u64,
    enabled: bool,
    /// Candidate backward branch: (branch_pc, target).
    candidate: Option<(u64, u64)>,
    /// Active loop body: target..=branch_pc.
    active: Option<(u64, u64)>,
    /// Instructions served from the buffer.
    pub served: u64,
    /// Times a loop was captured.
    pub captures: u64,
}

impl LoopBuffer {
    /// Creates a loop buffer holding `capacity_insts` instructions.
    pub fn new(capacity_insts: u64, enabled: bool) -> Self {
        LoopBuffer {
            capacity_insts,
            enabled,
            candidate: None,
            active: None,
            served: 0,
            captures: 0,
        }
    }

    /// Whether `pc` is currently streamed from the buffer.
    pub fn serving(&self, pc: u64) -> bool {
        matches!(self.active, Some((lo, hi)) if pc >= lo && pc <= hi)
    }

    /// Observes a retiring instruction; `taken_to` is the branch target
    /// when this is a taken control transfer. Returns `true` when the
    /// instruction was served from the loop buffer.
    pub fn observe(&mut self, pc: u64, taken_to: Option<u64>) -> bool {
        if !self.enabled {
            return false;
        }
        let from_buf = self.serving(pc);
        if from_buf {
            self.served += 1;
        }
        match taken_to {
            Some(target) if target <= pc => {
                // backward branch: loop-back edge candidate. The body must
                // fit in the buffer (16 insts ~ 64 bytes of RVC/RVI mix;
                // we bound by bytes / 4 as a conservative estimate).
                let body_bytes = pc - target;
                if body_bytes / 2 <= self.capacity_insts * 2 {
                    match (self.candidate, self.active) {
                        (_, Some((lo, hi))) if lo == target && hi == pc => {
                            // still looping
                        }
                        (Some((cpc, ct)), _) if cpc == pc && ct == target => {
                            // second consecutive iteration: capture
                            self.active = Some((target, pc));
                            self.captures += 1;
                        }
                        _ => {
                            self.candidate = Some((pc, target));
                            if self
                                .active
                                .is_some_and(|(lo, hi)| !(target >= lo && pc <= hi))
                            {
                                self.active = None;
                            }
                        }
                    }
                } else {
                    self.candidate = None;
                    self.active = None;
                }
            }
            Some(_) => {
                // forward/other transfer: leaving the body deactivates
                if let Some((lo, hi)) = self.active {
                    if !(pc >= lo && pc <= hi) {
                        self.active = None;
                    }
                }
            }
            None => {
                // sequential instruction past the loop end deactivates
                if let Some((_, hi)) = self.active {
                    if pc > hi {
                        self.active = None;
                        self.candidate = None;
                    }
                }
            }
        }
        from_buf
    }

    /// Flush on context switch (§III-C).
    pub fn flush(&mut self) {
        self.candidate = None;
        self.active = None;
    }
}

impl xt_snapshot::SnapshotState for LoopBuffer {
    fn transfer<S: xt_snapshot::Stream>(&mut self, s: &mut S) -> xt_snapshot::Result<()> {
        s.expect("loop buffer config", self.capacity_insts)?;
        s.expect("loop buffer config", self.enabled)?;
        for pair in [&mut self.candidate, &mut self.active] {
            s.opt(pair, |s, (a, b)| {
                s.u64(a)?;
                s.u64(b)
            })?;
        }
        s.u64(&mut self.served)?;
        s.u64(&mut self.captures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulate a loop of `body` instructions at 4-byte spacing iterating
    /// `iters` times; returns instructions served from the buffer.
    fn run_loop(lb: &mut LoopBuffer, base: u64, body: u64, iters: u64) -> u64 {
        let before = lb.served;
        for _ in 0..iters {
            for k in 0..body {
                let pc = base + k * 4;
                let last = k == body - 1;
                lb.observe(pc, last.then_some(base));
            }
        }
        lb.served - before
    }

    #[test]
    fn captures_after_two_iterations() {
        let mut lb = LoopBuffer::new(16, true);
        let served = run_loop(&mut lb, 0x1000, 4, 10);
        assert_eq!(lb.captures, 1);
        // first two iterations warm up; the rest stream from the buffer
        assert!(served >= 4 * 7, "served {served}");
    }

    #[test]
    fn big_loops_rejected() {
        let mut lb = LoopBuffer::new(16, true);
        let served = run_loop(&mut lb, 0x1000, 64, 10);
        assert_eq!(lb.captures, 0);
        assert_eq!(served, 0);
    }

    #[test]
    fn leaving_the_loop_deactivates() {
        let mut lb = LoopBuffer::new(16, true);
        run_loop(&mut lb, 0x1000, 4, 5);
        assert!(lb.serving(0x1004));
        // sequential code after the loop
        lb.observe(0x1010, None);
        lb.observe(0x1014, None);
        assert!(!lb.serving(0x1004));
    }

    #[test]
    fn disabled_never_serves() {
        let mut lb = LoopBuffer::new(16, false);
        assert_eq!(run_loop(&mut lb, 0x1000, 4, 10), 0);
    }

    #[test]
    fn flush_resets() {
        let mut lb = LoopBuffer::new(16, true);
        run_loop(&mut lb, 0x1000, 4, 5);
        lb.flush();
        assert!(!lb.serving(0x1000));
    }

    #[test]
    fn if_else_body_with_forward_branch_stays_active() {
        let mut lb = LoopBuffer::new(16, true);
        // body: 0x1000..0x1010 with loop-back at 0x1010; a forward branch
        // 0x1004 -> 0x100c stays inside the body
        for _ in 0..6 {
            lb.observe(0x1000, None);
            lb.observe(0x1004, Some(0x100c)); // forward skip inside body
            lb.observe(0x100c, None);
            lb.observe(0x1010, Some(0x1000));
        }
        assert_eq!(lb.captures, 1);
        assert!(lb.served > 0, "if-else loop still streams");
    }
}
