//! §III — repair capacity against the literature baselines.
//!
//! "Chen and Sunada's scheme provides the capability of repairing only
//! two faulty addresses in each subblock. BISRAMGEN affords a much
//! greater degree of fault tolerance of about bpc·s faulty addresses in
//! each subblock"; Sawada's original scheme registers a single failed
//! address.
//!
//! Two workloads separate the schemes:
//!
//! * **clustered defects** (whole-row failures — a word-line or driver
//!   defect): each failed row is `bpc` faulty word addresses landing in
//!   one subblock, which overwhelms the two capture registers
//!   immediately, while row repair absorbs it with a single spare row;
//! * **scattered defects** (independent cell faults): here the roles
//!   reverse — row repair spends one spare row per faulty cell, the
//!   granularity cost the paper accepts in exchange for the untouched
//!   access path.

use bisram_bench::harness::Harness;
use bisram_bench::{banner, quick_harness};
use bisram_bist::engine::MarchConfig;
use bisram_bist::march;
use bisram_mem::{random_faults, row_failure, ArrayOrg, FaultMix, SramModel};
use bisram_repair::chen_sunada::{self, ChenSunadaConfig};
use bisram_repair::flow::{self, RepairSetup};
use bisram_repair::sawada;
use bisram_rng::rngs::StdRng;
use bisram_rng::Rng;
use bisram_rng::SeedableRng;

const TRIALS: usize = 40;

fn org() -> ArrayOrg {
    ArrayOrg::new(256, 8, 4, 4).expect("valid")
}

/// Success rates (ours, chen_sunada, sawada) over random patterns
/// produced by `pattern`.
fn success_rates(
    seed: u64,
    mut pattern: impl FnMut(&mut StdRng) -> Vec<bisram_mem::Fault>,
) -> (f64, f64, f64) {
    let o = org();
    let cs_cfg = ChenSunadaConfig::new(o.words(), 8, 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ours = 0;
    let mut chen = 0;
    let mut saw = 0;
    for _ in 0..TRIALS {
        let faults = pattern(&mut rng);

        let mut m = SramModel::new(o);
        m.inject_all(faults.clone());
        if flow::self_test_and_repair(&mut m, &RepairSetup::iterated(6))
            .outcome
            .is_usable()
        {
            ours += 1;
        }

        let mut m = SramModel::new(o);
        m.inject_all(faults.clone());
        if chen_sunada::evaluate(&mut m, &march::ifa9(), &MarchConfig::default(), &cs_cfg).repaired
        {
            chen += 1;
        }

        let mut m = SramModel::new(o);
        m.inject_all(faults);
        if sawada::evaluate(&mut m, &march::ifa9(), &MarchConfig::default()).repaired {
            saw += 1;
        }
    }
    (
        ours as f64 / TRIALS as f64,
        chen as f64 / TRIALS as f64,
        saw as f64 / TRIALS as f64,
    )
}

fn print_experiment() {
    banner(
        "§III capacity",
        "repair success: BISRAMGEN (4 spare rows, iterated) vs Chen-Sunada (2/subblock + 1 spare block) vs Sawada",
    );
    let o = org();
    let (cap_ours, cap_chen) = chen_sunada::repair_capacity_comparison(o.bpc(), o.spare_rows());
    println!(
        "theoretical per-subblock capacity: BISRAMGEN {cap_ours} word addresses, Chen-Sunada {cap_chen}, Sawada 1"
    );
    println!(
        "access-path compares: BISRAMGEN 1 (parallel CAM) vs Chen-Sunada {} (sequential)",
        ChenSunadaConfig::new(o.words(), 8, 1).sequential_compares()
    );

    println!("\nclustered defects (k whole-row failures = k*bpc faulty addresses):");
    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "rows", "BISRAMGEN", "Chen-Sunada", "Sawada"
    );
    let mut ours_row4 = 0.0;
    let mut chen_row2 = 0.0;
    for k in [1usize, 2, 3, 4, 5] {
        let (a, b, c) = success_rates(k as u64 * 31 + 5, |rng| {
            let mut rows: Vec<usize> = Vec::new();
            while rows.len() < k {
                let r = rng.gen_range(0..org().rows());
                if !rows.contains(&r) {
                    rows.push(r);
                }
            }
            rows.iter()
                .flat_map(|&r| row_failure(&org(), r, true))
                .collect()
        });
        if k == 4 {
            ours_row4 = a;
        }
        if k == 2 {
            chen_row2 = b;
        }
        println!(
            "{k:>8} {:>11.0}% {:>11.0}% {:>11.0}%",
            a * 100.0,
            b * 100.0,
            c * 100.0
        );
    }
    assert!(ours_row4 == 1.0, "four dead rows fit four spare rows");
    assert!(chen_row2 < 0.7, "two dead rows usually kill two subblocks");

    println!("\nscattered defects (independent single-cell faults):");
    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "faults", "BISRAMGEN", "Chen-Sunada", "Sawada"
    );
    for faults in [1usize, 2, 4, 6, 8] {
        let (a, b, c) = success_rates(faults as u64 * 7 + 1, |rng| {
            random_faults(rng, &org(), faults, &FaultMix::stuck_at_only())
        });
        println!(
            "{faults:>8} {:>11.0}% {:>11.0}% {:>11.0}%",
            a * 100.0,
            b * 100.0,
            c * 100.0
        );
        if faults == 1 {
            assert!(a == 1.0 && c == 1.0, "everyone repairs one fault");
        }
        if faults == 2 {
            assert!(c < 0.5, "Sawada cannot repair two scattered faults");
        }
    }
    println!("\nshape checks:");
    println!("  clustered rows: row repair dominates, capture registers are swamped  [OK]");
    println!("  scattered cells: word-granular schemes catch up; row repair pays its");
    println!("  granularity (the paper's trade for a zero-penalty access path)       [OK]");
}

fn main() {
    print_experiment();
    let mut crit: Harness = quick_harness();
    crit.bench_function("repair_flow_row_failure", |b| {
        let o = org();
        b.iter(|| {
            let mut m = SramModel::new(o);
            m.inject_all(row_failure(&o, 17, true));
            flow::self_test_and_repair(&mut m, &RepairSetup::default())
                .outcome
                .is_usable()
        })
    });
    crit.final_summary();
}
