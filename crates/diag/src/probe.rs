//! Active coupling-fault resolution.
//!
//! Coupling faults cannot be classified from a march signature alone —
//! the signature names the victim, but the aggressor can be any other
//! cell in the array. This module drives the memory directly (the BIST
//! engine's diagnostic-access mode) to *find* the aggressor and recover
//! the full fault parameters:
//!
//! 1. **Group probe, binary search.** Writing `0 → 1 → 0` to every word
//!    of an address range fires any aggressor it contains, whatever the
//!    coupling subtype; reading the victim before and after tells
//!    whether the range holds the aggressor. Halving the range
//!    localizes the aggressor *word* in `O(log W)` group probes.
//! 2. **Bit scan.** Within the word, per-bit stimuli identify the
//!    aggressor cell.
//! 3. **Subtype stimuli.** Against both victim sentinel values, the
//!    aggressor is driven through a rising transition, a same-state `1`
//!    write, a falling transition and a same-state `0` write. Which
//!    stimuli fire — and what value the victim takes — separates
//!    `CFin` (both sentinels flip on one transition direction), `CFid`
//!    (one sentinel forced on one direction) and `CFst` (same-state
//!    writes fire), including their direction/state/forced parameters.
//!
//! The probe assumes the single-fault-per-victim discipline of classical
//! diagnosis; it is destructive (array contents are overwritten), which
//! is fine anywhere a repair march would run anyway.

use bisram_mem::{CellIndex, FaultKind, SramModel, Word};

/// The result of probing one victim cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeOutcome {
    /// The recovered coupling fault, when one was found and classified.
    pub kind: Option<FaultKind>,
    /// Writes spent probing.
    pub writes: u64,
    /// Reads spent probing.
    pub reads: u64,
}

struct Prober<'a> {
    ram: &'a mut SramModel,
    vrow: usize,
    vcol: usize,
    vbit: usize,
    writes: u64,
    reads: u64,
}

impl Prober<'_> {
    fn bpw(&self) -> usize {
        self.ram.org().bpw()
    }

    fn bpc(&self) -> usize {
        self.ram.org().bpc()
    }

    /// Physical words = total rows × column selects; ordinal = row*bpc+col.
    fn word_count(&self) -> usize {
        self.ram.org().total_rows() * self.bpc()
    }

    fn victim_ordinal(&self) -> usize {
        self.vrow * self.bpc() + self.vcol
    }

    fn write(&mut self, ordinal: usize, w: Word) {
        self.writes += 1;
        self.ram
            .write_word_at(ordinal / self.bpc(), ordinal % self.bpc(), w);
    }

    fn read_victim(&mut self) -> bool {
        self.reads += 1;
        self.ram.read_word_at(self.vrow, self.vcol).get(self.vbit)
    }

    fn set_victim(&mut self, v: bool) {
        let mut w = Word::zeros(self.bpw());
        w.set(self.vbit, v);
        self.writes += 1;
        let (r, c) = (self.vrow, self.vcol);
        self.ram.write_word_at(r, c, w);
    }

    /// Does driving every word of `lo..hi` (victim's word excluded)
    /// through `0 → 1 → 0` change the victim? Normalizes the range to
    /// zeros *before* the baseline read so every subsequent transition
    /// fires a known, odd number of times.
    fn range_fires(&mut self, lo: usize, hi: usize) -> bool {
        let vord = self.victim_ordinal();
        let zeros = Word::zeros(self.bpw());
        let ones = Word::ones_word(self.bpw());
        for v in [false, true] {
            for ord in lo..hi {
                if ord != vord {
                    self.write(ord, zeros.clone());
                }
            }
            self.set_victim(v);
            let baseline = self.read_victim();
            for ord in lo..hi {
                if ord != vord {
                    self.write(ord, ones.clone());
                }
            }
            if self.read_victim() != baseline {
                return true;
            }
            for ord in lo..hi {
                if ord != vord {
                    self.write(ord, zeros.clone());
                }
            }
            if self.read_victim() != baseline {
                return true;
            }
        }
        false
    }

    /// Binary search for the aggressor's word ordinal among the words
    /// other than the victim's own.
    fn find_aggressor_word(&mut self) -> Option<usize> {
        let n = self.word_count();
        if !self.range_fires(0, n) {
            return None;
        }
        let (mut lo, mut hi) = (0, n);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.range_fires(lo, mid) {
                hi = mid;
            } else if self.range_fires(mid, hi) {
                lo = mid;
            } else {
                // Not reproducible at this granularity: stop rather than
                // report a wrong aggressor.
                return None;
            }
        }
        (lo != self.victim_ordinal()).then_some(lo)
    }

    /// Writes the aggressor's word with the aggressor bit set to `a`.
    /// When the aggressor shares the victim's word, the victim bit is
    /// rewritten to `v` in the same cycle (write phase 1 stores all
    /// bits before couplings fire, so the victim is guaranteed `= v`
    /// immediately before any coupling acts).
    fn drive(&mut self, agg_ord: usize, agg_bit: usize, a: bool, v: bool) {
        let mut w = Word::zeros(self.bpw());
        w.set(agg_bit, a);
        if agg_ord == self.victim_ordinal() {
            w.set(self.vbit, v);
            self.write(agg_ord, w);
        } else {
            // Sentinel first: the aggressor write is the stimulus, and
            // the victim must already hold `v` when it fires.
            self.set_victim(v);
            self.write(agg_ord, w);
        }
    }

    /// Runs the four subtype stimuli against both victim sentinels and
    /// classifies the coupling. `None` when nothing fires consistently.
    fn classify(&mut self, agg_ord: usize, agg_bit: usize) -> Option<FaultKind> {
        let aggressor = self
            .ram
            .org()
            .cell_at(agg_ord / self.bpc(), agg_ord % self.bpc(), agg_bit);
        // observed[v][stimulus]: Some(value) when the victim deviated
        // from its sentinel v after the stimulus. Stimuli in order:
        // rising, same-state 1, falling, same-state 0.
        let mut observed = [[None::<bool>; 4]; 2];
        for (vi, v) in [false, true].into_iter().enumerate() {
            // Establish aggressor at 0 (and victim at v) before stimuli.
            self.drive(agg_ord, agg_bit, false, v);
            for (si, a) in [true, true, false, false].into_iter().enumerate() {
                self.drive(agg_ord, agg_bit, a, v);
                let got = self.read_victim();
                if got != v {
                    observed[vi][si] = Some(got);
                }
            }
        }
        let fired_either = |si: usize| observed[0][si].or(observed[1][si]);
        // Consistency guard: a victim that cannot hold data at all
        // (stuck-at, stuck-open, transition-pinned) deviates on *every*
        // stimulus for one sentinel — in particular on both same-state
        // writes, which no single CFst can do (it has one state). Such a
        // victim is not a coupling and must not be classified as one.
        if fired_either(1).is_some() && fired_either(3).is_some() {
            return None;
        }
        // Same-state writes firing ⇒ CFst; its state is the driven value.
        if let Some(forced) = fired_either(1) {
            return Some(FaultKind::StateCoupling {
                aggressor,
                state: true,
                forced,
            });
        }
        if let Some(forced) = fired_either(3) {
            return Some(FaultKind::StateCoupling {
                aggressor,
                state: false,
                forced,
            });
        }
        // Both transition directions firing without a same-state fire has
        // no single-coupling explanation either.
        if fired_either(0).is_some() && fired_either(2).is_some() {
            return None;
        }
        // Transitions only: CFin flips *both* sentinels, CFid exactly one.
        for (si, rising) in [(0, true), (2, false)] {
            match (observed[0][si], observed[1][si]) {
                (Some(true), Some(false)) => {
                    return Some(FaultKind::CouplingInv { aggressor, rising });
                }
                (Some(forced), None) | (None, Some(forced)) => {
                    return Some(FaultKind::CouplingIdem {
                        aggressor,
                        rising,
                        forced,
                    });
                }
                _ => {}
            }
        }
        None
    }
}

/// Probes for a coupling fault victimizing `victim`: locates the
/// aggressor cell anywhere in the physical array (spare rows included)
/// and recovers the full [`FaultKind`] parameters.
///
/// # Panics
///
/// Panics when `victim` is out of range for the model's organization.
pub fn probe_coupling(ram: &mut SramModel, victim: CellIndex) -> ProbeOutcome {
    let (vrow, vcol, vbit) = ram.org().cell_coords(victim);
    let mut p = Prober {
        ram,
        vrow,
        vcol,
        vbit,
        writes: 0,
        reads: 0,
    };
    // Intra-word first: layout locality makes same-word aggressors the
    // common case, and the scan is O(bpw).
    let vord = p.victim_ordinal();
    let mut kind = None;
    for bit in (0..p.bpw()).filter(|&b| b != vbit) {
        if let Some(k) = p.classify(vord, bit) {
            kind = Some(k);
            break;
        }
    }
    // Otherwise search the rest of the array.
    if kind.is_none() {
        if let Some(ord) = p.find_aggressor_word() {
            for bit in 0..p.bpw() {
                if let Some(k) = p.classify(ord, bit) {
                    kind = Some(k);
                    break;
                }
            }
        }
    }
    ProbeOutcome {
        kind,
        writes: p.writes,
        reads: p.reads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisram_mem::{ArrayOrg, Fault};

    fn org() -> ArrayOrg {
        ArrayOrg::new(256, 8, 4, 4).unwrap()
    }

    fn probe_one(kind: FaultKind, victim: CellIndex) -> ProbeOutcome {
        let mut m = SramModel::new(org());
        m.inject(Fault::new(victim, kind));
        probe_coupling(&mut m, victim)
    }

    #[test]
    fn recovers_every_coupling_subtype_and_aggressor() {
        let o = org();
        let victim = o.cell_at(5, 2, 3);
        let same_word = o.cell_at(5, 2, 6);
        let same_row = o.cell_at(5, 0, 1);
        let far = o.cell_at(40, 3, 7);
        let spare = o.cell_at(o.rows() + 1, 1, 0);
        for aggressor in [same_word, same_row, far, spare] {
            for rising in [false, true] {
                let k = FaultKind::CouplingInv { aggressor, rising };
                assert_eq!(probe_one(k, victim).kind, Some(k), "{k}");
                for forced in [false, true] {
                    let k = FaultKind::CouplingIdem {
                        aggressor,
                        rising,
                        forced,
                    };
                    assert_eq!(probe_one(k, victim).kind, Some(k), "{k}");
                    let k = FaultKind::StateCoupling {
                        aggressor,
                        state: rising,
                        forced,
                    };
                    assert_eq!(probe_one(k, victim).kind, Some(k), "{k}");
                }
            }
        }
    }

    #[test]
    fn healthy_and_noncoupling_victims_probe_clean() {
        let o = org();
        let victim = o.cell_at(9, 1, 4);
        // No fault at all.
        let mut m = SramModel::new(o);
        assert_eq!(probe_coupling(&mut m, victim).kind, None);
        // Non-coupling faults must not be mistaken for couplings.
        for kind in [
            FaultKind::StuckAt(false),
            FaultKind::StuckAt(true),
            FaultKind::TransitionUp,
            FaultKind::TransitionDown,
            FaultKind::Retention { leaks_to: true },
        ] {
            let out = probe_one(kind, victim);
            assert_eq!(out.kind, None, "{kind} misread as coupling");
        }
    }

    #[test]
    fn probe_cost_is_logarithmic_in_words_for_far_aggressors() {
        let o = org();
        let victim = o.cell_at(0, 0, 0);
        let k = FaultKind::CouplingInv {
            aggressor: o.cell_at(60, 3, 5),
            rising: true,
        };
        let out = probe_one(k, victim);
        assert_eq!(out.kind, Some(k));
        // Binary search over W = total_rows*bpc words costs ~6W for the
        // full-range check plus ~6W per halving level in the worst case;
        // bound it loosely rather than pin an implementation constant.
        let w = (o.total_rows() * o.bpc()) as u64;
        assert!(
            out.writes < 20 * w,
            "probe spent {} writes over {} words",
            out.writes,
            w
        );
    }

    #[test]
    fn deterministic() {
        let o = org();
        let victim = o.cell_at(3, 1, 2);
        let k = FaultKind::StateCoupling {
            aggressor: o.cell_at(17, 2, 4),
            state: true,
            forced: false,
        };
        let run = || {
            let mut m = SramModel::new(o);
            m.inject(Fault::new(victim, k));
            probe_coupling(&mut m, victim)
        };
        assert_eq!(run(), run());
    }
}
