//! Differential oracle for the cold-word fast path of [`SramModel`].
//!
//! Every case drives two models with the same generated inputs: a plain
//! model, whose fault-free words take the whole-word copy, and one built
//! with [`SramModel::all_hot`], whose every access takes the per-bit
//! fault path. Every read word, every cell's stored value, the access
//! counters and the faulty-row list must agree.
//!
//! The inputs cover organizations with `bpw` 1, 4, 8, 63, 64, 65 and
//! 256, `bpc` 1-8 and 0-4 spare rows; every [`FaultKind`], with coupling
//! aggressors in the victim's word, in other words and in spare rows;
//! `NoAccess` and `AliasedWith` row faults; staged faults activated
//! partway; and random writes, reads and retention pauses over every
//! physical row. The library marches are replayed too, in the engine's
//! access order: a march signature is a function of the words read, so
//! equal reads give equal `run_march_diagnose` signatures.

use crate::{ArrayOrg, Fault, FaultKind, RowFault, SramModel, Word};
use bisram_bist::datagen;
use bisram_bist::march::{self, MarchElement};
use bisram_rng::rngs::StdRng;
use bisram_rng::{Rng, SeedableRng};

const WIDTHS: [usize; 7] = [1, 4, 8, 63, 64, 65, 256];

/// One access applied to both models.
#[derive(Debug)]
enum Op {
    Write(usize, usize, Word),
    Read(usize, usize),
    Pause,
    Activate,
}

/// The faults of one case, applied identically to both models.
#[derive(Debug, Default)]
struct Setup {
    injected: Vec<Fault>,
    staged: Vec<Fault>,
    rows: Vec<(usize, RowFault)>,
}

impl Setup {
    fn build(&self, mut ram: SramModel) -> SramModel {
        ram.inject_all(self.injected.iter().copied());
        for f in &self.staged {
            ram.stage_fault(*f);
        }
        for &(row, fault) in &self.rows {
            ram.inject_row_fault(row, fault);
        }
        ram
    }
}

fn random_org(rng: &mut StdRng) -> ArrayOrg {
    let bpw = WIDTHS[rng.gen_range(0..WIDTHS.len())];
    let bpc = 1 << rng.gen_range(0..4u32);
    let rows = 1 << rng.gen_range(0..4u32);
    let spares = rng.gen_range(0..=4);
    ArrayOrg::new(rows * bpc, bpw, bpc, spares).expect("valid organization")
}

fn random_word(rng: &mut StdRng, bpw: usize) -> Word {
    match rng.gen_range(0..4) {
        0 => Word::zeros(bpw),
        1 => Word::ones_word(bpw),
        _ => Word::from_bits((0..bpw).map(|_| rng.gen::<bool>())),
    }
}

/// A fault on a random cell; a coupling's aggressor sits in the
/// victim's word, in a spare row or anywhere else, in equal shares.
fn random_fault(rng: &mut StdRng, org: &ArrayOrg) -> Fault {
    let cell = rng.gen_range(0..org.total_cells());
    let (row, col, bit) = org.cell_coords(cell);
    let aggressor = match rng.gen_range(0..3) {
        0 if org.bpw() > 1 => {
            org.cell_at(row, col, (bit + rng.gen_range(1..org.bpw())) % org.bpw())
        }
        1 if org.spare_rows() > 0 => org.cell_at(
            org.rows() + rng.gen_range(0..org.spare_rows()),
            rng.gen_range(0..org.bpc()),
            rng.gen_range(0..org.bpw()),
        ),
        _ => rng.gen_range(0..org.total_cells()),
    };
    let kind = match rng.gen_range(0..8) {
        0 => FaultKind::StuckAt(rng.gen()),
        1 => FaultKind::TransitionUp,
        2 => FaultKind::TransitionDown,
        3 => FaultKind::StuckOpen,
        4 => FaultKind::CouplingInv {
            aggressor,
            rising: rng.gen(),
        },
        5 => FaultKind::CouplingIdem {
            aggressor,
            rising: rng.gen(),
            forced: rng.gen(),
        },
        6 => FaultKind::StateCoupling {
            aggressor,
            state: rng.gen(),
            forced: rng.gen(),
        },
        _ => FaultKind::Retention {
            leaks_to: rng.gen(),
        },
    };
    Fault::new(cell, kind)
}

fn random_setup(rng: &mut StdRng, org: &ArrayOrg) -> Setup {
    let mut setup = Setup::default();
    for _ in 0..rng.gen_range(0..=6) {
        setup.injected.push(random_fault(rng, org));
    }
    for _ in 0..rng.gen_range(0..=3) {
        setup.staged.push(random_fault(rng, org));
    }
    let total_rows = org.total_rows();
    if total_rows > 1 && rng.gen_bool(0.3) {
        let row = rng.gen_range(0..total_rows);
        let fault = if rng.gen() {
            RowFault::NoAccess
        } else {
            let other = (row + rng.gen_range(1..total_rows)) % total_rows;
            RowFault::AliasedWith { other }
        };
        setup.rows.push((row, fault));
    }
    setup
}

/// Random accesses over every physical row, with the staged faults
/// activated once, partway through.
fn random_ops(rng: &mut StdRng, org: &ArrayOrg, len: usize) -> Vec<Op> {
    let activate_at = rng.gen_range(0..len);
    let mut ops = Vec::with_capacity(len + 1);
    for i in 0..len {
        if i == activate_at {
            ops.push(Op::Activate);
        }
        let row = rng.gen_range(0..org.total_rows());
        let col = rng.gen_range(0..org.bpc());
        ops.push(match rng.gen_range(0..20) {
            0 => Op::Pause,
            1..=9 => Op::Write(row, col, random_word(rng, org.bpw())),
            _ => Op::Read(row, col),
        });
    }
    ops
}

/// One generated case: an organization, its faults and its accesses.
fn random_case(rng: &mut StdRng) -> (ArrayOrg, Setup, Vec<Op>) {
    let org = random_org(rng);
    let setup = random_setup(rng, &org);
    let len = 4 * org.total_rows() * org.bpc() + 16;
    let ops = random_ops(rng, &org, len);
    (org, setup, ops)
}

/// The accesses of `test` over the regular array in the order
/// `run_march_diagnose` makes them, for the first `max_backgrounds`
/// data backgrounds of the Johnson schedule.
fn march_ops(test: &march::MarchTest, org: &ArrayOrg, max_backgrounds: usize) -> Vec<Op> {
    let mut ops = Vec::new();
    for bg in datagen::backgrounds(org.bpw()).iter().take(max_backgrounds) {
        let bg = Word::from_bits(bg.iter());
        let inv = !bg.clone();
        for element in test.elements() {
            match element {
                MarchElement::Delay => ops.push(Op::Pause),
                MarchElement::Sweep { order, ops: march } => {
                    let addrs: Vec<usize> = if order.effective_up() {
                        (0..org.words()).collect()
                    } else {
                        (0..org.words()).rev().collect()
                    };
                    for addr in addrs {
                        let (row, col) = org.split(addr);
                        for op in march {
                            let data = if op.is_inverse() { &inv } else { &bg };
                            ops.push(if op.is_read() {
                                Op::Read(row, col)
                            } else {
                                Op::Write(row, col, data.clone())
                            });
                        }
                    }
                }
            }
        }
    }
    ops
}

fn assert_same_state(fast: &SramModel, slow: &SramModel, case: &str) {
    for cell in 0..fast.org().total_cells() {
        assert_eq!(fast.peek(cell), slow.peek(cell), "{case}: cell {cell}");
    }
    assert_eq!(fast.stats(), slow.stats(), "{case}: stats");
    assert_eq!(
        fast.faulty_rows(),
        slow.faulty_rows(),
        "{case}: faulty rows"
    );
}

/// Drives the fast and the all-hot model through `ops` and asserts they
/// never diverge.
fn replay(org: ArrayOrg, setup: &Setup, ops: &[Op], case: &str) {
    let mut fast = setup.build(SramModel::new(org));
    let mut slow = setup.build(SramModel::all_hot(org));
    assert_same_state(&fast, &slow, case);
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Write(row, col, data) => {
                fast.write_word_at(*row, *col, data.clone());
                slow.write_word_at(*row, *col, data.clone());
            }
            Op::Read(row, col) => {
                let want = slow.read_word_at(*row, *col);
                assert_eq!(fast.read_word_at(*row, *col), want, "{case}: op {i} {op:?}");
            }
            Op::Pause => {
                fast.retention_pause();
                slow.retention_pause();
            }
            Op::Activate => {
                assert_eq!(fast.activate_staged(), slow.activate_staged(), "{case}");
                assert_same_state(&fast, &slow, case);
            }
        }
    }
    assert_same_state(&fast, &slow, case);
}

fn random_cases(seed: u64, cases: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..cases {
        let (org, setup, ops) = random_case(&mut rng);
        replay(org, &setup, &ops, &format!("case {case} {org:?} {setup:?}"));
    }
}

fn march_cases(seed: u64, orgs_per_march: usize, max_backgrounds: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    for test in march::library() {
        for case in 0..orgs_per_march {
            let org = random_org(&mut rng);
            let setup = random_setup(&mut rng, &org);
            let mut ops = march_ops(&test, &org, max_backgrounds);
            // Activate the staged faults partway through the march.
            ops.insert(rng.gen_range(0..=ops.len()), Op::Activate);
            let label = format!("{} case {case} {org:?} {setup:?}", test.name());
            replay(org, &setup, &ops, &label);
        }
    }
}

const TIER1_SEED: u64 = 0x5EED_0B17;
const TIER1_CASES: usize = 120;

#[test]
fn fast_path_matches_per_bit_path_on_random_accesses() {
    random_cases(TIER1_SEED, TIER1_CASES);
}

#[test]
fn fast_path_matches_per_bit_path_on_library_marches() {
    march_cases(0x5EED_3A2C, 3, 2);
}

/// The tier-1 random cases reach every width, fault class, aggressor
/// placement and row-fault kind, injected and staged.
#[test]
fn tier1_cases_cover_the_generated_space() {
    let mut rng = StdRng::seed_from_u64(TIER1_SEED);
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..TIER1_CASES {
        let (org, setup, _) = random_case(&mut rng);
        seen.insert(format!("bpw {}", org.bpw()));
        for (how, faults) in [("injected", &setup.injected), ("staged", &setup.staged)] {
            for f in faults {
                seen.insert(format!("{how} {}", f.kind.class()));
                if let Some(a) = f.kind.aggressor() {
                    let (vrow, vcol, _) = org.cell_coords(f.cell);
                    let (arow, acol, _) = org.cell_coords(a);
                    if (arow, acol) == (vrow, vcol) {
                        seen.insert("aggressor in word".to_owned());
                    } else if arow >= org.rows() {
                        seen.insert("aggressor in spare row".to_owned());
                    } else {
                        seen.insert("aggressor in other word".to_owned());
                    }
                }
            }
        }
        for (_, fault) in &setup.rows {
            seen.insert(match fault {
                RowFault::NoAccess => "no-access row".to_owned(),
                RowFault::AliasedWith { .. } => "aliased row".to_owned(),
            });
        }
    }
    let want = WIDTHS.len() + 2 * crate::FaultClass::ALL.len() + 3 + 2;
    assert_eq!(seen.len(), want, "{seen:?}");
}

#[test]
#[ignore = "larger case budget; run in release"]
fn fast_path_matches_per_bit_path_large_budget() {
    random_cases(0x5EED_0B16, 5_000);
    march_cases(0x5EED_0B18, 12, usize::MAX);
}
