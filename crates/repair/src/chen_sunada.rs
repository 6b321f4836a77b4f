//! The Chen–Sunada (1993) baseline: hierarchical self-repair with two
//! fault-capture blocks per subblock and a top-level fault assembler.
//!
//! Paper §III: "the entire system is composed of a number of subblocks
//! ... This circuit, which contains two fault capture blocks, is capable
//! of storing and repairing at most two faults at different address
//! locations [per subblock] ... Failure to repair a subblock results in
//! exclusion of the subblock from the system using fault-tolerant logic
//! (called fault assembler), implemented at the top level, to divert
//! accesses from dead blocks to functional blocks."
//!
//! The comparison points the paper makes (and which the repair-capacity
//! bench reproduces):
//!
//! 1. the sequential (not parallel) compare of the two fault-capture
//!    entries adds an access-time penalty,
//! 2. only two faulty addresses are repairable per subblock, against
//!    `bpc·s` word addresses for BISRAMGEN's row repair,
//! 3. the data generator applies a single background, weakening coverage
//!    of intra-word coupling (measured in `bisram_bist::coverage`).

use bisram_bist::engine::{run_march, MarchConfig};
use bisram_bist::march::MarchTest;
use bisram_mem::SramModel;

/// Configuration of the hierarchical scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChenSunadaConfig {
    /// Words per lowest-level subblock.
    pub words_per_subblock: usize,
    /// Fault-capture blocks (repairable addresses) per subblock — two in
    /// the published design.
    pub captures_per_subblock: usize,
    /// Spare subblocks available to the top-level fault assembler.
    pub spare_subblocks: usize,
}

impl ChenSunadaConfig {
    /// The published configuration for a memory of `words` words split
    /// into `subblocks` subblocks with `spare_subblocks` spares.
    ///
    /// # Panics
    ///
    /// Panics unless `words` divides evenly into `subblocks`.
    pub fn new(words: usize, subblocks: usize, spare_subblocks: usize) -> Self {
        assert!(
            subblocks > 0 && words.is_multiple_of(subblocks),
            "words must split evenly into subblocks"
        );
        ChenSunadaConfig {
            words_per_subblock: words / subblocks,
            captures_per_subblock: 2,
            spare_subblocks,
        }
    }

    /// Sequential compares on the normal-mode access path (one per fault
    /// capture block) — the delay-penalty point of the paper's critique.
    /// BISRAMGEN's TLB does one parallel compare instead.
    pub fn sequential_compares(&self) -> usize {
        self.captures_per_subblock
    }
}

/// Result of applying the hierarchical scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChenSunadaResult {
    /// Distinct faulty word addresses observed.
    pub faulty_addresses: usize,
    /// Subblocks whose fault count exceeded the capture capacity.
    pub dead_subblocks: Vec<usize>,
    /// Whether the memory is repaired: every overflowing subblock could
    /// be diverted to a (fault-free) spare subblock.
    pub repaired: bool,
}

/// Runs `test` and applies the subblock repair rule.
pub fn evaluate(
    ram: &mut SramModel,
    test: &MarchTest,
    march: &MarchConfig,
    cfg: &ChenSunadaConfig,
) -> ChenSunadaResult {
    let outcome = run_march(test, ram, march, None);
    let mut addrs: Vec<usize> = outcome.fails().iter().map(|f| f.addr).collect();
    addrs.sort_unstable();
    addrs.dedup();

    let mut per_block: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    for &a in &addrs {
        *per_block.entry(a / cfg.words_per_subblock).or_default() += 1;
    }
    let mut dead: Vec<usize> = per_block
        .iter()
        .filter(|(_, &n)| n > cfg.captures_per_subblock)
        .map(|(&b, _)| b)
        .collect();
    dead.sort_unstable();
    let repaired = dead.len() <= cfg.spare_subblocks;
    ChenSunadaResult {
        faulty_addresses: addrs.len(),
        dead_subblocks: dead,
        repaired,
    }
}

/// Maximum faulty word addresses each scheme tolerates in one subblock of
/// `bpc`-way column-multiplexed rows: BISRAMGEN repairs whole rows, so
/// with `spares` spare rows it absorbs up to `bpc · spares` faulty words
/// (when they fall on few rows), against the fixed capture capacity here.
/// This is comparison point 3 of paper §III.
pub fn repair_capacity_comparison(bpc: usize, spares: usize) -> (usize, usize) {
    (bpc * spares, 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisram_bist::march;
    use bisram_mem::{ArrayOrg, Fault, FaultKind};

    fn ram() -> SramModel {
        SramModel::new(ArrayOrg::new(256, 8, 4, 0).unwrap())
    }

    fn cfg() -> ChenSunadaConfig {
        ChenSunadaConfig::new(256, 8, 1) // 32 words per subblock, 1 spare block
    }

    #[test]
    fn two_faults_in_one_subblock_are_repairable() {
        let mut m = ram();
        // Addresses 0 and 5 are in subblock 0.
        m.inject(Fault::new(
            m.org().cell_at(0, 0, 0),
            FaultKind::StuckAt(true),
        ));
        m.inject(Fault::new(
            m.org().cell_at(1, 1, 2),
            FaultKind::StuckAt(true),
        ));
        let r = evaluate(&mut m, &march::ifa9(), &MarchConfig::default(), &cfg());
        assert_eq!(r.faulty_addresses, 2);
        assert!(r.dead_subblocks.is_empty());
        assert!(r.repaired);
    }

    #[test]
    fn three_faults_kill_a_subblock_but_assembler_saves_it() {
        let mut m = ram();
        for (row, col) in [(0, 0), (1, 1), (2, 2)] {
            m.inject(Fault::new(
                m.org().cell_at(row, col, 0),
                FaultKind::StuckAt(true),
            ));
        }
        let r = evaluate(&mut m, &march::ifa9(), &MarchConfig::default(), &cfg());
        assert_eq!(r.dead_subblocks, vec![0]);
        assert!(r.repaired, "one dead block, one spare block");
    }

    #[test]
    fn two_dead_subblocks_exceed_one_spare_block() {
        let mut m = ram();
        // Three faults in subblock 0 (rows 0..8) and three in subblock 4
        // (rows 32..40).
        for row in [0, 1, 2, 32, 33, 34] {
            m.inject(Fault::new(
                m.org().cell_at(row, 0, 0),
                FaultKind::StuckAt(true),
            ));
        }
        let r = evaluate(&mut m, &march::ifa9(), &MarchConfig::default(), &cfg());
        assert_eq!(r.dead_subblocks.len(), 2);
        assert!(!r.repaired);
    }

    #[test]
    fn capacity_comparison_favours_row_repair() {
        let (bisramgen, chen) = repair_capacity_comparison(8, 4);
        assert_eq!(bisramgen, 32);
        assert_eq!(chen, 2);
        assert!(bisramgen > chen);
    }

    #[test]
    fn sequential_compare_count() {
        assert_eq!(cfg().sequential_compares(), 2);
    }

    #[test]
    #[should_panic(expected = "evenly")]
    fn ragged_subblocks_rejected() {
        ChenSunadaConfig::new(100, 3, 1);
    }
}
