//! Lane-packed march and MISR evaluation: one array walk, 64 devices.
//!
//! The scalar engines in [`crate::engine`] and [`crate::transparent`]
//! drive one [`bisram_mem::SramModel`]; this module drives a
//! [`LaneSram`] — 64 independent device instances packed one lane per
//! bit — through the *same* op sequences, producing per-lane results as
//! bitmasks. It exists for the fleet lifetime simulator: the in-field
//! fault population is per-cell stuck-at only, which is exactly the
//! regime where a packed walk is bit-exact against the scalar engines
//! (see the `bisram_mem::lane` module docs for the argument).
//!
//! Three pieces:
//!
//! * [`MisrBank`] — 64 copies of the scalar [`crate::Misr`] advanced in
//!   bit-sliced form: a ring buffer of lane masks where logical
//!   signature bit `j` lives at `ring[(head + j) % 64]`, so one clock is
//!   a head decrement plus four tap XORs — for all 64 lanes at once.
//! * [`LaneRowMap`] — the per-lane generalization of [`crate::RowMap`]:
//!   each lane may divert a logical row to a different physical row
//!   (its own repair TLB), so a packed access to a mapped row becomes a
//!   gather/scatter over the handful of distinct physical targets.
//! * [`run_transparent_lanes`] / [`march_row_lanes`] — the packed
//!   counterparts of the transparent session and of marching a single
//!   (spare) physical row destructively.
//!
//! [`run_transparent_lanes`] folds the scalar field controller's whole
//! screen → retry → diagnose ladder into ONE walk: because a
//! transparent run leaves a stuck-at-only memory unchanged, re-running
//! it cannot change any lane's outcome, so the packed run computes the
//! signatures *and* the word-exact per-row mismatch masks in the same
//! pass and lets the caller classify per lane.

use crate::march::{MarchElement, MarchTest};
use crate::transparent::transparent_elements;
use bisram_mem::{LaneSram, ALL_LANES};
use std::collections::HashMap;

/// 64 MISR instances in bit-sliced form.
///
/// Logical signature bit `j` of every lane is stored at
/// `ring[(head + j) % 64]`; bit `l` of that word belongs to lane `l`.
/// Clocking the LFSR is then a rotation of `head` instead of 64 per-lane
/// shifts, and the Galois feedback is four XORs of the carry mask into
/// the tap positions of `x⁶⁴ + x⁴ + x³ + x + 1` — the same polynomial as
/// the scalar [`crate::Misr`], verified bit-exact in this module's
/// tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MisrBank {
    ring: [u64; 64],
    head: usize,
    clocks: u64,
}

impl MisrBank {
    /// Tap bit positions of the feedback polynomial (`POLY = 0x1B`).
    const TAPS: [usize; 4] = [0, 1, 3, 4];

    /// 64 cleared signature registers.
    pub fn new() -> Self {
        MisrBank {
            ring: [0; 64],
            head: 0,
            clocks: 0,
        }
    }

    /// Clocks every lane's MISR once; bit `l` of `input` is the data bit
    /// entering lane `l`'s register.
    #[inline]
    pub fn absorb_bit(&mut self, input: u64) {
        // One logical left shift = move head back one slot; the slot we
        // land on held logical bit 63 (the carry) and becomes logical
        // bit 0 (the shifted-in data, folded with the x⁰ tap below).
        let next = (self.head + 63) % 64;
        let carry = self.ring[next];
        self.head = next;
        self.ring[next] = input;
        for t in Self::TAPS {
            self.ring[(next + t) % 64] ^= carry;
        }
        self.clocks += 1;
    }

    /// XORs `lanes` into logical signature bit `bit` — the packed form of
    /// a transient upset flipping one signature bit in selected lanes.
    ///
    /// # Panics
    ///
    /// Panics when `bit >= 64`.
    #[inline]
    pub fn flip_signature_bit(&mut self, bit: usize, lanes: u64) {
        assert!(bit < 64, "signature bit out of range");
        self.ring[(self.head + bit) % 64] ^= lanes;
    }

    /// Lanes whose signatures differ between the two banks — the packed
    /// `predicted != observed` detection test.
    ///
    /// Only meaningful between banks clocked the same number of times
    /// (the heads then coincide, so slots compare directly); asserted.
    pub fn diff_lanes(&self, other: &MisrBank) -> u64 {
        assert_eq!(
            self.clocks, other.clocks,
            "comparing banks with different clock counts"
        );
        let mut diff = 0u64;
        for i in 0..64 {
            diff |= self.ring[i] ^ other.ring[i];
        }
        diff
    }

    /// Extracts lane `l`'s 64-bit signature, for cross-checks against
    /// the scalar [`crate::Misr`].
    ///
    /// # Panics
    ///
    /// Panics when `lane >= 64`.
    pub fn signature_of_lane(&self, lane: usize) -> u64 {
        assert!(lane < 64, "lane out of range");
        let mut sig = 0u64;
        for j in 0..64 {
            sig |= (self.ring[(self.head + j) % 64] >> lane & 1) << j;
        }
        sig
    }

    /// Clocks absorbed so far (same for every lane).
    pub fn clocks(&self) -> u64 {
        self.clocks
    }
}

impl Default for MisrBank {
    fn default() -> Self {
        MisrBank::new()
    }
}

/// Physical targets of one logical row, split by lane.
struct RowGroups {
    /// Union of the lanes diverted away from the identity mapping.
    union: u64,
    /// Distinct physical rows and the lanes mapped onto each.
    groups: Vec<(usize, u64)>,
}

/// A per-lane row mapping: each lane carries its own repair TLB, so one
/// logical row may resolve to different physical rows in different
/// lanes. Rows with no recorded override resolve to themselves in every
/// lane (identity), so the map stays O(mapped rows) regardless of array
/// size.
pub struct LaneRowMap {
    overrides: HashMap<usize, RowGroups>,
}

impl LaneRowMap {
    /// The identity mapping for every lane.
    pub fn identity() -> Self {
        LaneRowMap {
            overrides: HashMap::new(),
        }
    }

    /// Records that the selected lanes resolve logical `row` to physical
    /// row `phys`. Lanes never recorded for a row keep the identity
    /// mapping.
    pub fn map_lane(&mut self, row: usize, phys: usize, lanes: u64) {
        let entry = self.overrides.entry(row).or_insert(RowGroups {
            union: 0,
            groups: Vec::new(),
        });
        entry.union |= lanes;
        if let Some(g) = entry.groups.iter_mut().find(|g| g.0 == phys) {
            g.1 |= lanes;
        } else {
            entry.groups.push((phys, lanes));
        }
    }

    /// Packed mapped read of one cell: each lane reads through its own
    /// row mapping. Lanes without an override read the identity row.
    #[inline]
    pub fn read_cell(&self, sram: &LaneSram, row: usize, col: usize, bit: usize) -> u64 {
        let base = sram.org().cell_at(row, col, bit);
        match self.overrides.get(&row) {
            None => sram.read_bit(base),
            Some(g) => {
                let mut v = sram.read_bit(base) & !g.union;
                for &(phys, m) in &g.groups {
                    v |= sram.read_bit(sram.org().cell_at(phys, col, bit)) & m;
                }
                v
            }
        }
    }

    /// Packed mapped write of one cell in the selected lanes, each lane
    /// writing through its own row mapping.
    #[inline]
    pub fn write_cell(
        &self,
        sram: &mut LaneSram,
        row: usize,
        col: usize,
        bit: usize,
        values: u64,
        lanes: u64,
    ) {
        let org = *sram.org();
        match self.overrides.get(&row) {
            None => sram.write_bit(org.cell_at(row, col, bit), values, lanes),
            Some(g) => {
                sram.write_bit(org.cell_at(row, col, bit), values, lanes & !g.union);
                for &(phys, m) in &g.groups {
                    sram.write_bit(org.cell_at(phys, col, bit), values, lanes & m);
                }
            }
        }
    }
}

/// Outcome of one packed transparent session.
///
/// Everything the field controller's screen/retry/diagnose ladder can
/// ask is derivable from this single pass (see module docs): signature
/// detection per lane from the two banks, word-exact faulty rows per
/// lane from `row_faults`.
pub struct LaneTransparent {
    /// Per-lane signature bank predicted from the initial contents.
    pub predicted: MisrBank,
    /// Per-lane signature bank observed during the test phase.
    pub observed: MisrBank,
    /// Per *logical* row: lanes with at least one word-exact mismatching
    /// read of that row, restricted to the active lanes.
    pub row_faults: Vec<u64>,
    /// Read operations (words) compressed into each lane's signatures.
    pub reads: u64,
}

impl LaneTransparent {
    /// Lanes whose observed signature differs from the prediction,
    /// restricted to `active` — garbage accumulates in inactive lanes
    /// (their writes were masked out), so callers must mask.
    pub fn detected_lanes(&self, active: u64) -> u64 {
        self.predicted.diff_lanes(&self.observed) & active
    }
}

/// Runs the transparent version of `test` over all lanes at once,
/// through per-lane row mappings, mutating only the `active` lanes.
///
/// Executes exactly the scalar element list
/// (`transparent_elements`): content-relative writes against the
/// per-lane initial snapshot, predicted and observed read streams
/// compressed into per-lane MISR banks, and — in the same pass — the
/// word-exact mismatch bookkeeping of a diagnosing run. `Delay`
/// elements are no-ops: the packed fault model has no retention decay.
///
/// Inactive lanes' cells are never written; their slots in the returned
/// banks and masks are meaningless and must be masked off by the
/// caller.
pub fn run_transparent_lanes(
    test: &MarchTest,
    sram: &mut LaneSram,
    map: &LaneRowMap,
    active: u64,
) -> LaneTransparent {
    let org = *sram.org();
    let words = org.words();
    let bpw = org.bpw();

    // Phase 0: snapshot the initial contents through each lane's map.
    let mut initial: Vec<u64> = Vec::with_capacity(words * bpw);
    for addr in 0..words {
        let (row, col) = org.split(addr);
        for bit in 0..bpw {
            initial.push(map.read_cell(sram, row, col, bit));
        }
    }

    let elements = transparent_elements(test);
    let mut predicted = MisrBank::new();
    let mut observed = MisrBank::new();
    let mut row_faults = vec![0u64; org.rows()];
    let mut reads = 0u64;
    // Per-address phase tracker: false = holds c, true = holds ~c. The
    // prediction and the test walk in lockstep, so one tracker serves
    // both (this is what lets prediction and execution share the pass).
    let mut virt = vec![false; words];

    for element in &elements {
        let MarchElement::Sweep { order, ops } = element else {
            continue; // Delay: no retention decay in the packed model
        };
        let sweep: Box<dyn Iterator<Item = usize>> = if order.effective_up() {
            Box::new(0..words)
        } else {
            Box::new((0..words).rev())
        };
        for addr in sweep {
            let (row, col) = org.split(addr);
            for op in ops {
                if op.is_read() {
                    let inv = virt[addr];
                    let mut diff = 0u64;
                    for bit in 0..bpw {
                        let mut exp = initial[addr * bpw + bit];
                        if inv {
                            exp = !exp;
                        }
                        let got = map.read_cell(sram, row, col, bit);
                        predicted.absorb_bit(exp);
                        observed.absorb_bit(got);
                        diff |= (exp ^ got) & active;
                    }
                    row_faults[row] |= diff;
                    reads += 1;
                } else {
                    let inv = op.is_inverse();
                    for bit in 0..bpw {
                        let mut v = initial[addr * bpw + bit];
                        if inv {
                            v = !v;
                        }
                        map.write_cell(sram, row, col, bit, v, active);
                    }
                    virt[addr] = inv;
                }
            }
        }
    }

    LaneTransparent {
        predicted,
        observed,
        row_faults,
        reads,
    }
}

/// Destructively marches one physical row in the selected lanes with a
/// solid-zero background (the `MarchConfig::quick()` schedule the field
/// controller uses to screen unused spare rows), returning the lanes in
/// which any read mismatched.
///
/// Per-lane equivalence with `test_physical_rows` over that row holds
/// because, under per-cell stuck-at faults, each cell's pass/fail and
/// final contents depend only on the op sequence applied to that cell —
/// which is identical whether rows are marched together or one at a
/// time. `Delay` elements are no-ops (no retention faults in the packed
/// model).
pub fn march_row_lanes(test: &MarchTest, sram: &mut LaneSram, row: usize, active: u64) -> u64 {
    let org = *sram.org();
    let mut failed = 0u64;
    for element in test.elements() {
        let MarchElement::Sweep { order, ops } = element else {
            continue;
        };
        let cols: Box<dyn Iterator<Item = usize>> = if order.effective_up() {
            Box::new(0..org.bpc())
        } else {
            Box::new((0..org.bpc()).rev())
        };
        for col in cols {
            for op in ops {
                let target = if op.is_inverse() { ALL_LANES } else { 0 };
                if op.is_read() {
                    for bit in 0..org.bpw() {
                        let got = sram.read_bit(org.cell_at(row, col, bit));
                        failed |= (got ^ target) & active;
                    }
                } else {
                    for bit in 0..org.bpw() {
                        sram.write_bit(org.cell_at(row, col, bit), target, active);
                    }
                }
            }
        }
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{test_physical_rows, MarchConfig};
    use crate::transparent::{run_transparent, run_transparent_diagnose, Misr};
    use crate::{march, RowMap};
    use bisram_mem::{ArrayOrg, Fault, FaultKind, SramModel, Word, LANE_WIDTH};
    use bisram_rng::rngs::StdRng;
    use bisram_rng::{Rng, SeedableRng};

    #[test]
    fn misr_bank_matches_scalar_misr_bit_for_bit() {
        // Feed 64 scalar MISRs independent random streams and the bank
        // the packed transpose of the same streams: every lane signature
        // must match after every clock batch.
        let mut rng = StdRng::seed_from_u64(0x4D49_5352);
        let mut scalars: Vec<Misr> = (0..LANE_WIDTH).map(|_| Misr::new()).collect();
        let mut bank = MisrBank::new();
        for round in 0..200 {
            let input: u64 = rng.gen();
            bank.absorb_bit(input);
            for (l, m) in scalars.iter_mut().enumerate() {
                m.absorb(&Word::from_u64(input >> l & 1, 1));
            }
            if round % 37 == 0 {
                for l in [0, 13, 63] {
                    assert_eq!(
                        bank.signature_of_lane(l),
                        scalars[l].signature(),
                        "lane {l} diverged at round {round}"
                    );
                }
            }
        }
        for (l, m) in scalars.iter().enumerate() {
            assert_eq!(bank.signature_of_lane(l), m.signature(), "lane {l}");
        }
        assert_eq!(bank.clocks(), 200);
    }

    #[test]
    fn diff_lanes_flags_exactly_the_differing_lanes() {
        let mut a = MisrBank::new();
        let mut b = MisrBank::new();
        let mut rng = StdRng::seed_from_u64(7);
        let corrupt = 0x8000_0000_0000_0401u64; // lanes 0, 10, 63
        for _ in 0..100 {
            let input: u64 = rng.gen();
            a.absorb_bit(input);
            b.absorb_bit(input ^ (rng.gen::<u64>() & corrupt));
        }
        // Every corrupted lane must differ (single-bit errors never alias
        // in a primitive-polynomial MISR); clean lanes must agree.
        assert_eq!(a.diff_lanes(&b) & !corrupt, 0, "clean lanes diverged");
        assert_ne!(a.diff_lanes(&b) & corrupt, 0, "no corruption landed");
    }

    #[test]
    fn flip_signature_bit_is_a_per_lane_signature_xor() {
        let mut bank = MisrBank::new();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            bank.absorb_bit(rng.gen());
        }
        let before: Vec<u64> = (0..64).map(|l| bank.signature_of_lane(l)).collect();
        bank.flip_signature_bit(17, (1 << 3) | (1 << 40));
        for (l, &b) in before.iter().enumerate() {
            let want = if l == 3 || l == 40 { b ^ (1 << 17) } else { b };
            assert_eq!(bank.signature_of_lane(l), want, "lane {l}");
        }
    }

    #[test]
    #[should_panic(expected = "different clock counts")]
    fn diff_of_unequal_clock_counts_is_rejected() {
        let mut a = MisrBank::new();
        a.absorb_bit(1);
        let _ = a.diff_lanes(&MisrBank::new());
    }

    fn org() -> ArrayOrg {
        ArrayOrg::new(64, 8, 4, 2).unwrap()
    }

    /// A lane-uniform data load plus per-lane stuck-at faults: the packed
    /// model and one scalar model per listed lane, in the same state.
    fn paired_setup(faults: &[(usize, Vec<(usize, bool)>)]) -> (LaneSram, Vec<SramModel>) {
        let o = org();
        let mut packed = LaneSram::new(o);
        let mut scalars: Vec<SramModel> = (0..LANE_WIDTH).map(|_| SramModel::new(o)).collect();
        for addr in 0..o.words() {
            let (r, c) = o.split(addr);
            let data = (addr as u64).wrapping_mul(37) & 0xFF;
            packed.write_word_uniform(r, c, data);
            for s in scalars.iter_mut() {
                s.write_word_at(r, c, Word::from_u64(data, o.bpw()));
            }
        }
        for &(lane, ref cells) in faults {
            for &(cell, v) in cells {
                packed.inject_stuck(cell, if v { ALL_LANES } else { 0 }, 1 << lane);
                scalars[lane].inject(Fault::new(cell, FaultKind::StuckAt(v)));
            }
        }
        (packed, scalars)
    }

    #[test]
    fn packed_transparent_matches_scalar_signatures_and_rows() {
        let o = org();
        let faults = vec![
            (0, vec![(o.cell_at(3, 1, 2), true)]),
            (
                9,
                vec![(o.cell_at(10, 0, 0), false), (o.cell_at(12, 3, 7), true)],
            ),
            (63, vec![(o.cell_at(3, 1, 2), false)]),
        ];
        let (packed, scalars) = paired_setup(&faults);
        for test in [march::mats_plus(), march::ifa9()] {
            let mut p = packed.clone();
            let res = run_transparent_lanes(&test, &mut p, &LaneRowMap::identity(), ALL_LANES);
            for (lane, scalar) in scalars.iter().enumerate() {
                let mut screen_ram = scalar.clone();
                let screen = run_transparent(&test, &mut screen_ram, None);
                assert_eq!(
                    res.predicted.signature_of_lane(lane),
                    screen.predicted,
                    "{}: lane {lane} predicted signature",
                    test.name()
                );
                assert_eq!(
                    res.observed.signature_of_lane(lane),
                    screen.observed,
                    "{}: lane {lane} observed signature",
                    test.name()
                );
                assert_eq!(res.reads, screen.reads, "{}: read count", test.name());
                let mut diag_ram = scalar.clone();
                let diag = run_transparent_diagnose(&test, &mut diag_ram, None);
                let rows: Vec<usize> = (0..o.rows())
                    .filter(|&r| res.row_faults[r] >> lane & 1 == 1)
                    .collect();
                assert_eq!(rows, diag.faulty_rows, "{}: lane {lane} rows", test.name());
                // And the packed run preserves contents exactly like the
                // scalar transparent run does.
                for addr in 0..o.words() {
                    let (r, c) = o.split(addr);
                    assert_eq!(
                        p.word_of_lane(r, c, lane),
                        diag_ram.read_word_at(r, c).to_u64(),
                        "{}: lane {lane} contents at {addr}",
                        test.name()
                    );
                }
            }
        }
    }

    #[test]
    fn inactive_lanes_are_never_written() {
        let (mut packed, _) = paired_setup(&[]);
        let before = packed.clone();
        let active = (1 << 5) | (1 << 6);
        let _ = run_transparent_lanes(&march::ifa9(), &mut packed, &LaneRowMap::identity(), active);
        for addr in 0..before.org().words() {
            let (r, c) = before.org().split(addr);
            for lane in [0, 4, 7, 63] {
                assert_eq!(
                    packed.word_of_lane(r, c, lane),
                    before.word_of_lane(r, c, lane),
                    "inactive lane {lane} mutated at addr {addr}"
                );
            }
        }
    }

    #[test]
    fn lane_row_map_gathers_and_scatters_per_lane() {
        struct Divert(usize, usize);
        impl RowMap for Divert {
            fn map_row(&self, row: usize) -> usize {
                if row == self.0 {
                    self.1
                } else {
                    row
                }
            }
        }
        let o = org();
        let spare = o.rows(); // first spare row
                              // Lanes 2 and 40 divert row 1 to the spare; a fault sits in the
                              // spare, so exactly those lanes must report logical row 1.
        let faults = vec![
            (2, vec![(o.cell_at(spare, 0, 0), true)]),
            (40, vec![(o.cell_at(spare, 0, 0), true)]),
            (5, vec![(o.cell_at(spare, 0, 0), true)]), // not diverted: invisible
        ];
        let (mut packed, scalars) = paired_setup(&faults);
        let mut map = LaneRowMap::identity();
        map.map_lane(1, spare, (1 << 2) | (1 << 40));
        let res = run_transparent_lanes(&march::ifa9(), &mut packed, &map, ALL_LANES);
        for (lane, diverted) in [(2usize, true), (40, true), (5, false), (0, false)] {
            let mut ram = scalars[lane].clone();
            let diag = if diverted {
                run_transparent_diagnose(&march::ifa9(), &mut ram, Some(&Divert(1, spare)))
            } else {
                run_transparent_diagnose(&march::ifa9(), &mut ram, None)
            };
            let rows: Vec<usize> = (0..o.rows())
                .filter(|&r| res.row_faults[r] >> lane & 1 == 1)
                .collect();
            assert_eq!(rows, diag.faulty_rows, "lane {lane}");
            if diverted {
                assert_eq!(rows, vec![1], "diverted lane sees the spare fault");
            } else {
                assert!(rows.is_empty(), "undiverted lane must not see row 1");
            }
        }
    }

    #[test]
    fn march_row_lanes_matches_scalar_spare_screen() {
        let o = org();
        let spare = o.rows() + 1;
        let faults = vec![
            (7, vec![(o.cell_at(spare, 2, 3), true)]),
            (31, vec![(o.cell_at(spare, 0, 0), false)]),
            (8, vec![(o.cell_at(o.rows(), 1, 1), true)]), // other spare: invisible
        ];
        let (mut packed, scalars) = paired_setup(&faults);
        let test = march::ifa9();
        let failed = march_row_lanes(&test, &mut packed, spare, ALL_LANES);
        for (lane, scalar) in scalars.iter().enumerate() {
            let mut ram = scalar.clone();
            let scalar_failed =
                test_physical_rows(&test, &mut ram, &MarchConfig::quick(), &[spare]);
            assert_eq!(
                failed >> lane & 1 == 1,
                !scalar_failed.is_empty(),
                "lane {lane} verdict"
            );
            // Final contents of the marched row agree cell for cell.
            for col in 0..o.bpc() {
                assert_eq!(
                    packed.word_of_lane(spare, col, lane),
                    ram.read_word_at(spare, col).to_u64(),
                    "lane {lane} col {col} contents"
                );
            }
        }
        assert_eq!(failed, (1 << 7) | (1 << 31));
    }

    #[test]
    fn march_row_lanes_respects_the_active_mask() {
        let o = org();
        let spare = o.rows();
        let (mut packed, _) = paired_setup(&[(4, vec![(o.cell_at(spare, 0, 0), true)])]);
        let before = packed.clone();
        let failed = march_row_lanes(&march::mats_plus(), &mut packed, spare, 1 << 9);
        assert_eq!(failed, 0, "lane 4's fault is outside the active set");
        // Lane 4's cells in the marched row are untouched.
        for col in 0..o.bpc() {
            assert_eq!(
                packed.word_of_lane(spare, col, 4),
                before.word_of_lane(spare, col, 4)
            );
        }
    }
}
