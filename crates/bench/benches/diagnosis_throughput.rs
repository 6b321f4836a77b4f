//! Chip-level diagnosis engine: accuracy, robustness and throughput.
//!
//! Three gates, all asserted even in smoke mode and grepped by CI:
//!
//! * **diagnosis accuracy** — every behavioural fault kind injected
//!   singly is localized to the exact cell and classified under IFA-13,
//!   cross-validated against the injected ground truth (candidate sets
//!   count as hits only when they contain the truth);
//! * **transport survival** — a 64-macro heterogeneous chip behind a
//!   noisy shared BIST link (drops, duplicates, timeouts) completes
//!   without a panic and leaves every macro in an explicit
//!   `DegradationState`; a hard-stuck link quarantines everything
//!   instead of aborting;
//! * **budget sweep** — chip-wide spare grants are monotone in the area
//!   budget and cap out at the physical demand.
//!
//! The timing section measures the dictionary path (single SAF), the
//! active coupling probe (far aggressor, binary-search localization)
//! and the full 16-macro chip flow.

use bisram_bench::harness::Harness;
use bisram_bench::{banner, quick_harness};
use bisram_bist::march;
use bisram_diag::{diagnose, validate, DiagnosisConfig, Transport, TransportFaults};
use bisram_field::{heterogeneous_chip, ChipConfig, ChipModel, DegradationState};
use bisram_mem::{ArrayOrg, Fault, FaultKind, SramModel};

fn org() -> ArrayOrg {
    ArrayOrg::new(256, 8, 4, 4).expect("valid org")
}

fn all_kinds(o: &ArrayOrg) -> Vec<FaultKind> {
    let same_word = o.cell_at(11, 2, 6);
    let other_row = o.cell_at(40, 1, 3);
    vec![
        FaultKind::StuckAt(false),
        FaultKind::StuckAt(true),
        FaultKind::TransitionUp,
        FaultKind::TransitionDown,
        FaultKind::StuckOpen,
        FaultKind::Retention { leaks_to: false },
        FaultKind::Retention { leaks_to: true },
        FaultKind::CouplingInv {
            aggressor: same_word,
            rising: true,
        },
        FaultKind::CouplingInv {
            aggressor: other_row,
            rising: false,
        },
        FaultKind::CouplingIdem {
            aggressor: same_word,
            rising: true,
            forced: false,
        },
        FaultKind::CouplingIdem {
            aggressor: other_row,
            rising: false,
            forced: true,
        },
        FaultKind::StateCoupling {
            aggressor: same_word,
            state: true,
            forced: false,
        },
        FaultKind::StateCoupling {
            aggressor: other_row,
            state: false,
            forced: true,
        },
    ]
}

fn accuracy_matrix() {
    let o = org();
    let victim = o.cell_at(11, 2, 3);
    let kinds = all_kinds(&o);
    let total = kinds.len();
    println!(
        "{:<58} {:>8} {:>10}",
        "injected kind (IFA-13)", "exact", "candidates"
    );
    let mut hits = 0;
    for kind in kinds {
        let mut m = SramModel::new(o);
        m.inject(Fault::new(victim, kind));
        let d = diagnose(&mut m, &DiagnosisConfig::new(march::ifa13()));
        let report = validate(&d.faults, &m);
        assert!(report.is_perfect(), "{kind}: {report:?}");
        assert_eq!(d.faults.len(), 1, "{kind}: one suspect");
        let f = &d.faults[0];
        assert_eq!(f.cell, victim, "{kind}: localized");
        println!(
            "{:<58} {:>8} {:>10}",
            kind.to_string(),
            if f.is_exact() { "yes" } else { "no" },
            f.candidates.len()
        );
        hits += 1;
    }
    assert_eq!(hits, total);
    println!("diagnosis accuracy: PASS ({hits}/{total} kinds localized and classified)");
}

fn transport_survival() {
    // Noisy link: some sessions retry, a few may exhaust their retries.
    // Per-word rates compound over a signature's length, so even 0.2%
    // is harsh on a fault-heavy macro's long transfer — faulty macros
    // are the ones most likely to lose their diagnosis to the link.
    let mut cfg = ChipConfig::new(heterogeneous_chip(64, 0xFA_11), 4096, 0xFA_11);
    cfg.transport = Transport::with_faults(TransportFaults {
        drop_probability: 0.002,
        duplicate_probability: 0.002,
        timeout_probability: 0.2,
        ..TransportFaults::none()
    });
    let report = ChipModel::new(cfg).diagnose_and_repair();
    let states = [
        DegradationState::Healthy,
        DegradationState::DetectOnly,
        DegradationState::Quarantined,
        DegradationState::Failed,
    ];
    let counted: usize = states.iter().map(|&s| report.count(s)).sum();
    assert_eq!(counted, 64, "every macro in exactly one explicit state");
    let retried = report
        .macros
        .iter()
        .filter(|m| m.transport_attempts > 1)
        .count();
    assert!(retried > 0, "noise never exercised the retry path");
    println!(
        "64-macro noisy link: {} repaired, {} detect-only, {} quarantined, {} failed ({} retried sessions)",
        report.count(DegradationState::Healthy),
        report.count(DegradationState::DetectOnly),
        report.count(DegradationState::Quarantined),
        report.count(DegradationState::Failed),
        retried
    );

    // Hard-stuck scan line: retries cannot help; the chip must fence
    // every macro off rather than abort.
    let mut cfg = ChipConfig::new(heterogeneous_chip(64, 0xFA_11), 4096, 0xFA_11);
    cfg.transport = Transport::with_faults(TransportFaults {
        stuck_bit: Some((5, true)),
        ..TransportFaults::none()
    });
    let stuck = ChipModel::new(cfg).diagnose_and_repair();
    assert_eq!(stuck.count(DegradationState::Quarantined), 64);
    println!("64-macro stuck link: 64 quarantined, 0 grants, no abort");
    println!("transport survival: PASS (every macro ends in an explicit state)");
}

fn budget_sweep() {
    let base = ChipConfig::new(heterogeneous_chip(16, 0xB1D), 0, 0xB1D);
    println!(
        "{:>12} {:>8} {:>8} {:>10}",
        "budget", "granted", "spent", "repaired"
    );
    let mut last_granted = 0;
    let mut last_spent = 0;
    for budget in [0u64, 64, 256, 1024, u64::MAX] {
        let mut cfg = base.clone();
        cfg.budget = budget;
        let report = ChipModel::new(cfg).diagnose_and_repair();
        assert!(report.plan.spent <= budget, "allocator overspent");
        assert!(
            report.plan.rows_granted >= last_granted && report.plan.spent >= last_spent,
            "grants must be monotone in budget"
        );
        last_granted = report.plan.rows_granted;
        last_spent = report.plan.spent;
        let label = if budget == u64::MAX {
            "unlimited".to_owned()
        } else {
            budget.to_string()
        };
        println!(
            "{label:>12} {:>8} {:>8} {:>10}",
            report.plan.rows_granted,
            report.plan.spent,
            report.count(DegradationState::Healthy)
        );
    }
    println!("budget sweep: PASS (grants monotone, never overspent)");
}

fn main() {
    banner(
        "chip diagnosis",
        "fault localization/classification accuracy, shared-transport survival, global budget sweep",
    );
    accuracy_matrix();
    println!();
    transport_survival();
    println!();
    budget_sweep();

    let mut crit: Harness = quick_harness();
    crit.bench_function("diagnose_saf_256x8", |b| {
        let o = org();
        b.iter(|| {
            let mut m = SramModel::new(o);
            m.inject(Fault::new(o.cell_at(17, 1, 2), FaultKind::StuckAt(true)));
            diagnose(&mut m, &DiagnosisConfig::new(march::ifa13()))
                .faults
                .len()
        })
    });
    crit.bench_function("probe_cfin_far_aggressor", |b| {
        let o = org();
        b.iter(|| {
            let mut m = SramModel::new(o);
            m.inject(Fault::new(
                o.cell_at(11, 2, 3),
                FaultKind::CouplingInv {
                    aggressor: o.cell_at(40, 1, 3),
                    rising: false,
                },
            ));
            diagnose(&mut m, &DiagnosisConfig::new(march::ifa13())).probe_writes
        })
    });
    crit.bench_sweep("chip_diagnose_16_macros", 16, |b| {
        b.iter(|| {
            let cfg = ChipConfig::new(heterogeneous_chip(16, 0x5EED), u64::MAX, 0x5EED);
            ChipModel::new(cfg).diagnose_and_repair().plan.rows_granted
        })
    });
    crit.final_summary();
}
