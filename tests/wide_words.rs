//! Integration: the wide-word regime (bpw > 64 — multi-limb words, the
//! Fig. 7 configuration family). Narrow-word tests dominate the suite
//! because they are fast; this file makes sure the 128/256-bit paths —
//! word algebra, background schedules, march execution, coupling faults
//! across limb boundaries, repair, transparent BIST — behave identically.

use bisram_bist::engine::{run_march, MarchConfig};
use bisram_bist::march;
use bisram_bist::transparent::run_transparent;
use bisram_bist::{datagen, RowMap};
use bisram_mem::{ArrayOrg, Fault, FaultKind, SramModel, Word};
use bisram_repair::flow::{self, RepairSetup};

fn wide_org() -> ArrayOrg {
    // 64 words of 128 bits, bpc 4 — a miniature Fig. 6-class geometry.
    ArrayOrg::new(64, 128, 4, 4).expect("valid wide geometry")
}

fn wide_word(seed: u64) -> Word {
    Word::from_bits((0..128).map(|i| (seed.wrapping_mul(i as u64 + 3) >> (i % 7)) & 1 == 1))
}

#[test]
fn wide_words_read_back_exactly() {
    let mut ram = SramModel::new(wide_org());
    let words: Vec<Word> = (0..64).map(|a| wide_word(a as u64 + 17)).collect();
    for (addr, w) in words.iter().enumerate() {
        ram.write_word(addr, w.clone());
    }
    for (addr, w) in words.iter().enumerate() {
        assert_eq!(&ram.read_word(addr), w, "addr {addr}");
    }
}

#[test]
fn background_schedule_has_wide_width_and_distinguishes_cross_limb_pairs() {
    let bgs = datagen::backgrounds(128);
    assert_eq!(bgs.len(), 128 / 2 + 2);
    for b in &bgs {
        assert_eq!(b.len(), 128);
    }
    // Pairs straddling the 64-bit limb boundary must be separated too.
    for (i, j) in [(63usize, 64usize), (0, 127), (62, 65), (64, 127)] {
        assert!(
            bgs.iter().any(|b| b.get(i) != b.get(j)),
            "pair ({i},{j}) never differs"
        );
    }
}

#[test]
fn ifa9_detects_faults_in_high_limbs() {
    // One fault per limb of the word: bits 1, 65, and 127.
    for bit in [1usize, 65, 127] {
        let org = wide_org();
        let mut ram = SramModel::new(org);
        ram.inject(Fault::new(org.cell_at(5, 2, bit), FaultKind::StuckAt(true)));
        let out = run_march(&march::ifa9(), &mut ram, &MarchConfig::quick(), None);
        assert!(out.detected(), "bit {bit} missed");
    }
}

#[test]
fn cross_limb_state_coupling_needs_johnson_backgrounds() {
    // Aggressor in limb 0, victim in limb 1 of the same word, with the
    // forced value equal to the sensitizing state (the single-background
    // blind spot), exactly as in the narrow-word test — but across the
    // 64-bit storage boundary.
    let build = || {
        let org = wide_org();
        let mut ram = SramModel::new(org);
        let aggressor = org.cell_at(9, 1, 10);
        let victim = org.cell_at(9, 1, 100);
        ram.inject(Fault::new(
            victim,
            FaultKind::StateCoupling {
                aggressor,
                state: true,
                forced: true,
            },
        ));
        ram
    };
    let single = run_march(
        &march::ifa9(),
        &mut build(),
        &MarchConfig {
            schedule: bisram_bist::engine::BackgroundSchedule::Single,
            stop_at_first: false,
        },
        None,
    );
    let johnson = run_march(&march::ifa9(), &mut build(), &MarchConfig::default(), None);
    assert!(!single.detected(), "single background must be blind");
    assert!(johnson.detected(), "johnson schedule must expose it");
}

#[test]
fn wide_word_repair_flow_round_trips() {
    let org = wide_org();
    let mut ram = SramModel::new(org);
    ram.inject(Fault::new(org.cell_at(3, 0, 90), FaultKind::StuckAt(false)));
    ram.inject(Fault::new(org.cell_at(12, 3, 127), FaultKind::TransitionUp));
    let report = flow::self_test_and_repair(&mut ram, &RepairSetup::default());
    assert!(report.outcome.is_repaired(), "{:?}", report.outcome);

    // The repaired memory holds arbitrary 128-bit data through the TLB.
    for addr in 0..org.words() {
        let (row, col) = org.split(addr);
        let phys = report.tlb.map_row(row);
        let w = wide_word(addr as u64 * 31 + 7);
        ram.write_word_at(phys, col, w.clone());
        assert_eq!(ram.read_word_at(phys, col), w, "addr {addr}");
    }
}

#[test]
fn transparent_bist_preserves_wide_contents() {
    let org = wide_org();
    let mut ram = SramModel::new(org);
    let contents: Vec<Word> = (0..org.words())
        .map(|a| {
            let w = wide_word(a as u64 + 1000);
            ram.write_word(a, w.clone());
            w
        })
        .collect();
    let outcome = run_transparent(&march::march_c_minus(), &mut ram, None);
    assert!(!outcome.detected());
    for (addr, w) in contents.iter().enumerate() {
        assert_eq!(&ram.read_word(addr), w, "addr {addr} clobbered");
    }
}
