//! The full self-test / self-repair story on a defective memory.
//!
//! Compiles a RAM, injects a manufacturing defect pattern (a failed row,
//! scattered cell defects, and a faulty spare), runs the two-pass BIST +
//! BISR flow — and shows the iterated variant repairing the faulty spare
//! that defeats the plain two-pass algorithm.
//!
//! ```sh
//! cargo run --example repair_flow
//! ```

use bisram_bist::engine::{run_march, MarchConfig};
use bisram_bist::march;
use bisram_mem::{random_faults, row_failure, FaultMix};
use bisram_repair::column;
use bisram_repair::flow::{self, RepairOutcome, RepairSetup};
use bisram_rng::rngs::StdRng;
use bisram_rng::SeedableRng;
use bisramgen::{compile, RamParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = RamParams::builder()
        .words(1024)
        .bits_per_word(16)
        .bits_per_column(4)
        .spare_rows(4)
        .build()?;
    let ram = compile(&params)?;
    let org = *params.org();

    // A defect pattern: one dead row, two random cell defects, and a
    // defect inside spare row 0.
    let mut memory = ram.behavioural_model();
    memory.inject_all(row_failure(&org, 100, true));
    let mut rng = StdRng::seed_from_u64(2024);
    memory.inject_all(random_faults(&mut rng, &org, 2, &FaultMix::stuck_at_only()));
    memory.inject(bisram_mem::Fault::new(
        org.cell_at(org.rows(), 0, 0), // first spare row
        bisram_mem::FaultKind::StuckAt(true),
    ));
    println!("injected {} faults over {} rows", memory.faults().len(), {
        memory.faulty_rows().len()
    });

    // Plain two-pass flow: pass 1 captures, pass 2 verifies.
    let mut m1 = memory.clone();
    let report = flow::self_test_and_repair(&mut m1, &RepairSetup::default());
    println!(
        "\ntwo-pass flow: {:?} after {} passes ({} test operations)",
        report.outcome, report.passes, report.operations
    );
    println!("pass-1 faulty rows: {:?}", report.pass1_faulty_rows);

    // The iterated 2k-pass flow replaces the faulty spare.
    let mut m2 = memory.clone();
    let report = flow::self_test_and_repair(&mut m2, &RepairSetup::iterated(6));
    println!(
        "\niterated flow: {:?} after {} passes",
        report.outcome, report.passes
    );
    for (row, spare) in report.tlb.entries() {
        println!("  TLB: logical row {row:4} -> spare {spare}");
    }
    match report.outcome {
        RepairOutcome::Repaired { spares_used } => {
            println!("repaired using {spares_used} spares; verifying through the TLB ...");
            let verify = run_march(
                &march::ifa9(),
                &mut m2,
                &MarchConfig::default(),
                Some(&report.tlb),
            );
            println!(
                "post-repair IFA-9: {}",
                if verify.detected() {
                    "FAULTS REMAIN"
                } else {
                    "clean"
                }
            );
        }
        other => println!("unexpected outcome: {other:?}"),
    }

    // And the case row repair cannot handle: a column failure swamps the
    // redundancy and is detected (not repaired), per paper §VI.
    let mut m3 = ram.behavioural_model();
    m3.inject_all(bisram_mem::column_failure(&org, 3, 1, true));
    let outcome = run_march(&march::ifa9(), &mut m3, &MarchConfig::default(), None);
    let diag = column::diagnose(&outcome, &org);
    println!(
        "\ncolumn-failure experiment: swamped={} suspect column-selects={:?} -> {}",
        diag.redundancy_swamped,
        diag.suspect_column_selects,
        if diag.is_column_failure() {
            "column failure detected (row repair correctly refuses)"
        } else {
            "no column failure"
        }
    );

    Ok(())
}
