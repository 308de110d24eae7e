//! Hybrid (tournament) branch-direction predictor with the two-level
//! prediction-buffer mechanism of Fig. 6.
//!
//! The XT-910 stores prediction counters in banked SRAMs whose read
//! latency would normally prevent two dependent predictions in adjacent
//! cycles; the BUF1/BUF2 prefetch buffers solve this, letting
//! back-to-back (even same-cycle) branches consume up-to-date history.
//! With the mechanism *disabled* (`delayed_history = true`) this model
//! updates the global history one branch late — exactly the stale-history
//! hazard the buffers exist to remove.

const BIMODAL_BITS: u32 = 12;
const GSHARE_BITS: u32 = 14;
const CHOOSER_BITS: u32 = 12;
const HISTORY_BITS: u32 = 12;

/// Saturating 2-bit counter helpers.
fn bump(c: &mut u8, up: bool) {
    if up {
        *c = (*c + 1).min(3);
    } else {
        *c = c.saturating_sub(1);
    }
}

fn taken(c: u8) -> bool {
    c >= 2
}

/// Tournament direction predictor (bimodal + gshare + chooser).
#[derive(Clone, Debug)]
pub struct DirectionPredictor {
    bimodal: Vec<u8>,
    gshare: Vec<u8>,
    chooser: Vec<u8>,
    history: u64,
    /// Outcome not yet folded into history (stale-history mode).
    pending: Option<bool>,
    delayed_history: bool,
}

impl DirectionPredictor {
    /// Creates a predictor; `two_level_buf` enables the Fig. 6 buffers
    /// (i.e., up-to-date history).
    pub fn new(two_level_buf: bool) -> Self {
        DirectionPredictor {
            bimodal: vec![1; 1 << BIMODAL_BITS],
            gshare: vec![1; 1 << GSHARE_BITS],
            chooser: vec![2; 1 << CHOOSER_BITS], // slight gshare bias
            history: 0,
            pending: None,
            delayed_history: !two_level_buf,
        }
    }

    fn gshare_index(&self, pc: u64) -> usize {
        (((pc >> 1) ^ self.history) & ((1 << GSHARE_BITS) - 1)) as usize
    }

    /// Predicts the direction of the conditional branch at `pc`.
    pub fn predict(&self, pc: u64) -> bool {
        let bi = taken(self.bimodal[((pc >> 1) & ((1 << BIMODAL_BITS) - 1)) as usize]);
        let gs = taken(self.gshare[self.gshare_index(pc)]);
        let choose_gshare = taken(self.chooser[((pc >> 1) & ((1 << CHOOSER_BITS) - 1)) as usize]);
        if choose_gshare {
            gs
        } else {
            bi
        }
    }

    /// Trains on the actual outcome. Returns whether the prediction made
    /// *before* this update was correct.
    pub fn update(&mut self, pc: u64, outcome: bool) -> bool {
        let prediction = self.predict(pc);
        let bi_idx = ((pc >> 1) & ((1 << BIMODAL_BITS) - 1)) as usize;
        let gs_idx = self.gshare_index(pc);
        let ch_idx = ((pc >> 1) & ((1 << CHOOSER_BITS) - 1)) as usize;
        let bi_correct = taken(self.bimodal[bi_idx]) == outcome;
        let gs_correct = taken(self.gshare[gs_idx]) == outcome;
        if bi_correct != gs_correct {
            bump(&mut self.chooser[ch_idx], gs_correct);
        }
        bump(&mut self.bimodal[bi_idx], outcome);
        bump(&mut self.gshare[gs_idx], outcome);
        // history update: immediate with the 2-level buffers, one branch
        // late without them
        if self.delayed_history {
            if let Some(prev) = self.pending.take() {
                self.push_history(prev);
            }
            self.pending = Some(outcome);
        } else {
            self.push_history(outcome);
        }
        prediction == outcome
    }

    fn push_history(&mut self, outcome: bool) {
        self.history = ((self.history << 1) | outcome as u64) & ((1 << HISTORY_BITS) - 1);
    }
}

impl xt_snapshot::SnapshotState for DirectionPredictor {
    fn transfer<S: xt_snapshot::Stream>(&mut self, s: &mut S) -> xt_snapshot::Result<()> {
        s.expect("direction predictor mode", self.delayed_history)?;
        let size = xt_snapshot::SnapshotError::Corrupt {
            what: "predictor table size",
        };
        for table in [&mut self.bimodal, &mut self.gshare, &mut self.chooser] {
            s.fixed_bytes(table, size)?;
        }
        s.u64(&mut self.history)?;
        s.opt(&mut self.pending, S::bool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_always_taken() {
        let mut p = DirectionPredictor::new(true);
        let pc = 0x8000_0040;
        for _ in 0..8 {
            p.update(pc, true);
        }
        assert!(p.predict(pc));
    }

    #[test]
    fn learns_alternating_pattern_with_history() {
        let mut p = DirectionPredictor::new(true);
        let pc = 0x8000_0100;
        let mut correct = 0;
        let mut outcome = false;
        for i in 0..200 {
            outcome = !outcome;
            if p.update(pc, outcome) && i >= 100 {
                correct += 1;
            }
        }
        assert!(correct >= 95, "gshare should nail T/N/T/N: {correct}/100");
    }

    #[test]
    fn stale_history_hurts_correlated_branches() {
        // Branch B's outcome equals branch A's previous outcome — only
        // learnable through up-to-date history.
        let run = |two_level: bool| -> u32 {
            let mut p = DirectionPredictor::new(two_level);
            let (pa, pb) = (0x1000, 0x2000);
            let mut correct = 0;
            for i in 0..2000u32 {
                let a_outcome = (i / 3) % 2 == 0; // some pattern
                p.update(pa, a_outcome);
                // B follows A immediately: correlated outcome
                if p.update(pb, a_outcome) && i >= 1000 {
                    correct += 1;
                }
            }
            correct
        };
        let with = run(true);
        let without = run(false);
        assert!(
            with >= without,
            "2-level buffers never hurt: {with} vs {without}"
        );
        assert!(with >= 950, "correlation learnable with fresh history: {with}");
    }

    #[test]
    fn prediction_is_deterministic() {
        let mut p = DirectionPredictor::new(true);
        p.update(0x4000, true);
        assert_eq!(p.predict(0x8000), p.predict(0x8000));
        assert_eq!(p.predict(0x4000), p.predict(0x4000));
    }
}
