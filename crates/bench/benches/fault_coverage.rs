//! §V — fault coverage of the microprogrammed BIST.
//!
//! "IFA-9 detects a wide range of functional faults caused by layout
//! defects; for example, stuck-at and stuck-open faults, transition
//! faults and state coupling faults. For a wide-word RAM, this test has
//! to be repeated with multiple background patterns in order to test
//! pairwise couplings between cells of the same word." Comparison point
//! 4 against Chen–Sunada: their generator applies a single pattern.
//!
//! The reproduction measures per-class coverage for the test library
//! under both the Johnson schedule and the single-background baseline.

use bisram_bench::harness::Harness;
use bisram_bench::{banner, quick_harness};
use bisram_bist::coverage;
use bisram_bist::march;
use bisram_mem::{ArrayOrg, FaultClass};
use bisram_rng::rngs::StdRng;
use bisram_rng::SeedableRng;

const PER_CLASS: usize = 30;

fn org() -> ArrayOrg {
    ArrayOrg::new(128, 8, 4, 0).expect("valid")
}

fn print_experiment() {
    banner(
        "§V coverage",
        "per-fault-class detection, Johnson backgrounds vs single background (intra-word couplings)",
    );
    let configs = [
        (march::ifa9(), true, "IFA-9 / Johnson"),
        (march::ifa9(), false, "IFA-9 / single"),
        (march::ifa13(), true, "IFA-13 / Johnson"),
        (march::march_c_minus(), true, "March C- / Johnson"),
        (march::mats_plus(), true, "MATS+ / Johnson"),
    ];
    println!(
        "{:<20} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "test / schedule", "SAF", "TF", "SOF", "CFin", "CFid", "CFst", "DRF"
    );
    let mut results = Vec::new();
    for (test, johnson, label) in configs {
        let mut rng = StdRng::seed_from_u64(101);
        let report = coverage::measure(&mut rng, org(), &test, johnson, PER_CLASS, true);
        let pct = |class: FaultClass| {
            report
                .class(class)
                .map(|c| c.fraction() * 100.0)
                .unwrap_or(0.0)
        };
        println!(
            "{:<20} {:>5.0}% {:>5.0}% {:>5.0}% {:>5.0}% {:>5.0}% {:>5.0}% {:>5.0}%",
            label,
            pct(FaultClass::Saf),
            pct(FaultClass::Tf),
            pct(FaultClass::Sof),
            pct(FaultClass::CfIn),
            pct(FaultClass::CfId),
            pct(FaultClass::CfSt),
            pct(FaultClass::Drf)
        );
        results.push((label, report));
    }

    let get = |label: &str, class: FaultClass| {
        results
            .iter()
            .find(|(l, _)| *l == label)
            .and_then(|(_, r)| r.class(class))
            .map(|c| c.fraction())
            .expect("measured")
    };
    assert_eq!(get("IFA-9 / Johnson", FaultClass::CfSt), 1.0);
    assert!(get("IFA-9 / single", FaultClass::CfSt) < get("IFA-9 / Johnson", FaultClass::CfSt));
    assert_eq!(get("IFA-13 / Johnson", FaultClass::Sof), 1.0);
    assert_eq!(get("MATS+ / Johnson", FaultClass::Drf), 0.0);
    println!("\nshape checks:");
    println!("  Johnson backgrounds lift intra-word coupling coverage to 100%   [OK]");
    println!("  the single-background baseline (Chen-Sunada style) misses them  [OK]");
    println!("  IFA-13's read-after-write is needed for full stuck-open cover   [OK]");
    println!("  MATS+ (no delay elements) misses retention faults               [OK]");
}

fn main() {
    print_experiment();
    let mut crit: Harness = quick_harness();
    crit.bench_function("coverage_ifa9_single_fault", |b| {
        use bisram_bist::engine::{run_march, MarchConfig};
        use bisram_mem::{Fault, FaultKind, SramModel};
        let test = march::ifa9();
        b.iter(|| {
            let mut ram = SramModel::new(org());
            ram.inject(Fault::new(17, FaultKind::StuckAt(true)));
            run_march(&test, &mut ram, &MarchConfig::quick(), None).detected()
        })
    });
    crit.final_summary();
}
