//! Chip-level diagnosis and repair: many heterogeneous bisram macros
//! behind one shared BIST transport, one redundancy area budget.
//!
//! A chip instantiates macros of different organizations; a chip-level
//! BIST controller serializes each macro's march signature over a
//! shared scan link ([`bisram_diag::transport`]), diagnoses it
//! ([`bisram_diag::diagnose_signature`]), pools all macros' repair
//! demands and allocates spare rows globally under the chip's area
//! budget ([`bisram_repair::budget`]). Degradation is graceful and
//! *explicit*: every macro ends the run in a
//! [`DegradationState`] — repaired, detect-only (under-budget or
//! swamped), quarantined (transport never delivered a valid session)
//! or failed (repair applied, verification still dirty) — and a
//! defective link or macro never aborts the chip run.
//!
//! The run is deterministic bit-for-bit: per-macro RNG streams are
//! derived from the chip seed and macro index, phases execute through
//! [`bisram_exec::run_tasks`] (results in task order regardless of
//! worker count), and the [`ChipRepairReport`] renders identically
//! across 1, 2 or 8 workers.

use crate::DegradationState;
use bisram_bist::engine::{run_march, run_march_diagnose, MarchConfig};
use bisram_bist::march::{self, MarchTest};
use bisram_diag::{
    decode_signature, diagnose_signature, encode_signature, frames_valid, DiagnosisConfig,
    MacroDiagnosis, Transport, TransportError,
};
use bisram_exec::{resolve_jobs, run_tasks};
use bisram_mem::{random_faults, ArrayOrg, FaultMix, SramModel};
use bisram_repair::budget::{allocate_greedy, AllocationPlan, MacroDemand};
use bisram_repair::Tlb;
use bisram_rng::rngs::StdRng;
use bisram_rng::SeedableRng;

/// One macro instance on the chip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacroSpec {
    /// Instance name (unique per chip by construction).
    pub name: String,
    /// Array organization.
    pub org: ArrayOrg,
    /// Manufacturing defects injected at birth (random over the default
    /// fault mix, spare rows included).
    pub fault_count: usize,
    /// Area cost of one spare row in this macro, in chip budget units.
    pub row_cost: u64,
}

impl MacroSpec {
    /// A macro with the row cost derived from its physical row width
    /// (cells per row — the natural area proxy).
    pub fn new(name: impl Into<String>, org: ArrayOrg, fault_count: usize) -> Self {
        MacroSpec {
            name: name.into(),
            org,
            fault_count,
            row_cost: org.columns() as u64,
        }
    }
}

/// A deterministic heterogeneous chip: `n` macros cycling through a
/// palette of organizations, with seed-derived fault counts. The same
/// `(n, seed)` always produces the same chip.
pub fn heterogeneous_chip(n: usize, seed: u64) -> Vec<MacroSpec> {
    // Valid organizations (derived row count a power of two), small
    // enough that dictionary diagnosis stays fast chip-wide.
    let palette: Vec<ArrayOrg> = [
        ArrayOrg::new(256, 8, 4, 4),
        ArrayOrg::new(128, 8, 4, 2),
        ArrayOrg::new(256, 4, 8, 4),
        ArrayOrg::new(128, 16, 2, 2),
        ArrayOrg::new(64, 8, 2, 2),
    ]
    .into_iter()
    .flatten()
    .collect();
    (0..n)
        .map(|i| {
            let org = palette[i % palette.len()];
            // Cheap deterministic spread of 0..=3 faults per macro.
            let mixed = seed
                .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_mul(0xD1B5_4A32_D192_ED03);
            MacroSpec::new(format!("macro{i:03}"), org, (mixed >> 33) as usize % 4)
        })
        .collect()
}

/// Chip-run configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipConfig {
    /// The macros on the chip.
    pub macros: Vec<MacroSpec>,
    /// The shared BIST transport (fault injection + retry policy).
    pub transport: Transport,
    /// Chip-wide spare-row area budget, in the same units as
    /// [`MacroSpec::row_cost`].
    pub budget: u64,
    /// Chip seed: derives every macro's fault and transport RNG streams.
    pub seed: u64,
    /// Diagnostic march (IFA-13 by default — the only library march
    /// that uniquely separates stuck-open faults).
    pub test: MarchTest,
    /// Worker threads (`None` = `BISRAM_JOBS` or available parallelism).
    pub jobs: Option<usize>,
}

impl ChipConfig {
    /// A chip with a clean transport and the IFA-13 diagnostic march.
    pub fn new(macros: Vec<MacroSpec>, budget: u64, seed: u64) -> Self {
        ChipConfig {
            macros,
            transport: Transport::default(),
            budget,
            seed,
            test: march::ifa13(),
            jobs: None,
        }
    }
}

/// Per-macro outcome in the chip report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacroReport {
    /// Index of the macro on the chip.
    pub macro_index: usize,
    /// Instance name.
    pub name: String,
    /// Organization summary `words x bpw (bpc, spares)`.
    pub org: ArrayOrg,
    /// Final explicit state.
    pub state: DegradationState,
    /// Suspect cells the signature named.
    pub suspects: usize,
    /// Suspects with a non-empty candidate set.
    pub classified: usize,
    /// Suspects classified to a single exact kind.
    pub exact: usize,
    /// Faulty rows diagnosis demanded repairs for.
    pub rows_needed: usize,
    /// Rows granted by the global allocator.
    pub rows_granted: usize,
    /// Granted rows verified repaired through the TLB.
    pub rows_repaired: usize,
    /// Transport session attempts spent (1 = clean first try).
    pub transport_attempts: u32,
    /// Backoff cycles spent between transport retries.
    pub transport_backoff_cycles: u64,
    /// Last transport error seen (recorded even when a retry recovered).
    pub transport_error: Option<TransportError>,
}

/// The deterministic chip-level repair report.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipRepairReport {
    /// Per-macro outcomes, ascending by macro index.
    pub macros: Vec<MacroReport>,
    /// The global allocation plan.
    pub plan: AllocationPlan,
    /// Chip seed the run used.
    pub seed: u64,
    /// Name of the diagnostic march.
    pub test: String,
}

impl ChipRepairReport {
    /// Macros currently in `state`.
    pub fn count(&self, state: DegradationState) -> usize {
        self.macros.iter().filter(|m| m.state == state).count()
    }

    /// True when every macro ended in `Healthy`.
    pub fn fully_repaired(&self) -> bool {
        self.count(DegradationState::Healthy) == self.macros.len()
    }
}

impl std::fmt::Display for ChipRepairReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "chip repair report: {} macros, march {}, seed {:#x}",
            self.macros.len(),
            self.test,
            self.seed
        )?;
        writeln!(
            f,
            "budget {} units: spent {}, rows {}/{} granted",
            self.plan.budget, self.plan.spent, self.plan.rows_granted, self.plan.rows_requested
        )?;
        for s in [
            DegradationState::Healthy,
            DegradationState::DetectOnly,
            DegradationState::Quarantined,
            DegradationState::Failed,
        ] {
            writeln!(f, "  {:<12} {}", format!("{s}:"), self.count(s))?;
        }
        for m in &self.macros {
            writeln!(
                f,
                "{:<10} {:>5}x{:<3} {:<12} suspects {:>3} (classified {:>3}, exact {:>3}) rows {}/{}/{} xport {}t+{}c{}",
                m.name,
                m.org.words(),
                m.org.bpw(),
                m.state.to_string(),
                m.suspects,
                m.classified,
                m.exact,
                m.rows_repaired,
                m.rows_granted,
                m.rows_needed,
                m.transport_attempts,
                m.transport_backoff_cycles,
                match m.transport_error {
                    None => String::new(),
                    Some(e) => format!(" [{e}]"),
                },
            )?;
        }
        Ok(())
    }
}

/// What phase 1 (per-macro diagnosis over the transport) produces.
struct MacroRun {
    ram: SramModel,
    report: MacroReport,
    faulty_rows: Vec<usize>,
}

/// The chip under test-and-repair.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipModel {
    /// Run configuration.
    pub config: ChipConfig,
}

impl ChipModel {
    /// Builds the chip.
    pub fn new(config: ChipConfig) -> Self {
        ChipModel { config }
    }

    /// Runs the full chip flow: per-macro march + transport + diagnosis
    /// (parallel), global spare allocation (serial), repair application
    /// and verification (parallel). Never panics on injected transport
    /// or memory faults; every macro ends in an explicit state.
    pub fn diagnose_and_repair(&self) -> ChipRepairReport {
        let jobs = resolve_jobs(self.config.jobs);
        let cfg = &self.config;

        // Phase 1: diagnose every macro across the shared transport.
        let tasks: Vec<_> = cfg
            .macros
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let spec = spec.clone();
                move || diagnose_macro(&spec, i, cfg)
            })
            .collect();
        let mut runs = run_tasks(jobs, tasks);

        // Phase 2 (barrier): pool demands, allocate globally.
        let demands: Vec<MacroDemand> = runs
            .iter()
            .map(|r| MacroDemand {
                macro_index: r.report.macro_index,
                rows_needed: if r.report.state == DegradationState::Quarantined {
                    0 // no diagnosis: nothing to grant
                } else {
                    r.faulty_rows.len()
                },
                row_cost: cfg.macros[r.report.macro_index].row_cost,
                max_rows: r.ram.org().spare_rows(),
            })
            .collect();
        let plan = allocate_greedy(&demands, cfg.budget);

        // Phase 3: apply grants and verify, in parallel again.
        let repair_tasks: Vec<_> = runs
            .drain(..)
            .map(|run| {
                let grant = plan.rows_for(run.report.macro_index);
                move || repair_macro(run, grant, cfg)
            })
            .collect();
        let macros = run_tasks(jobs, repair_tasks);

        ChipRepairReport {
            macros,
            plan,
            seed: cfg.seed,
            test: cfg.test.name().to_owned(),
        }
    }
}

/// Derives the per-macro, per-purpose RNG seed. Depends only on the
/// chip seed, the macro index and the stream tag — never on scheduling.
fn derive_seed(chip_seed: u64, macro_index: usize, stream: u64) -> u64 {
    chip_seed
        ^ (macro_index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

fn diagnose_macro(spec: &MacroSpec, index: usize, cfg: &ChipConfig) -> MacroRun {
    let mut fault_rng = StdRng::seed_from_u64(derive_seed(cfg.seed, index, 1));
    let mut ram = SramModel::new(spec.org);
    ram.inject_all(random_faults(
        &mut fault_rng,
        &spec.org,
        spec.fault_count.min(spec.org.total_cells()),
        &FaultMix::default(),
    ));

    let mut report = MacroReport {
        macro_index: index,
        name: spec.name.clone(),
        org: spec.org,
        state: DegradationState::Healthy,
        suspects: 0,
        classified: 0,
        exact: 0,
        rows_needed: 0,
        rows_granted: 0,
        rows_repaired: 0,
        transport_attempts: 0,
        transport_backoff_cycles: 0,
        transport_error: None,
    };

    // Macro-side march, full failure log.
    let march_cfg = MarchConfig::default();
    let sig = run_march_diagnose(&cfg.test, &mut ram, &march_cfg, None);

    // Ship the signature across the shared link.
    let frames = encode_signature(&sig);
    let mut transport_rng = StdRng::seed_from_u64(derive_seed(cfg.seed, index, 2));
    let delivery = cfg
        .transport
        .deliver(&frames, &mut transport_rng, |f| frames_valid(f, &spec.org));
    report.transport_attempts = delivery.attempts;
    report.transport_backoff_cycles = delivery.backoff_cycles;
    report.transport_error = delivery.last_error;

    let decoded = delivery
        .payload
        .and_then(|words| decode_signature(&words, &spec.org, cfg.test.name()).ok());
    let Some(decoded) = decoded else {
        // Bounded retries exhausted (or frames undecodable): fence the
        // macro off and let the rest of the chip proceed.
        report.state = DegradationState::Quarantined;
        return MacroRun {
            ram,
            report,
            faulty_rows: Vec::new(),
        };
    };

    // Chip-side diagnosis (probes reach the macro in diagnostic mode).
    let dcfg = DiagnosisConfig::new(cfg.test.clone());
    let diagnosis: MacroDiagnosis = diagnose_signature(decoded, &mut ram, &dcfg);
    report.suspects = diagnosis.faults.len();
    report.classified = diagnosis
        .faults
        .iter()
        .filter(|d| d.is_classified())
        .count();
    report.exact = diagnosis.faults.iter().filter(|d| d.is_exact()).count();
    let faulty_rows = diagnosis.faulty_rows();
    report.rows_needed = faulty_rows.len();
    MacroRun {
        ram,
        report,
        faulty_rows,
    }
}

fn repair_macro(mut run: MacroRun, grant: usize, cfg: &ChipConfig) -> MacroReport {
    let mut report = run.report;
    if report.state == DegradationState::Quarantined {
        return report;
    }
    report.rows_granted = grant.min(run.faulty_rows.len());
    if run.faulty_rows.is_empty() {
        // Signature clean: nothing to repair, nothing to verify.
        report.state = DegradationState::Healthy;
        return report;
    }

    let org = *run.ram.org();
    let target: Vec<usize> = run.faulty_rows.iter().copied().take(grant).collect();
    let mut tlb = Tlb::new(org.rows(), org.spare_rows());
    for &row in &target {
        if tlb.capture(row).is_err() {
            break;
        }
    }

    // Verify through the TLB; recapture granted rows that still fail
    // (their replacement spare was itself faulty). Bounded by the spare
    // count, so a hopeless macro converges to Failed instead of looping.
    let march_cfg = MarchConfig::default();
    let mut still: Vec<usize> = Vec::new();
    for _pass in 0..=org.spare_rows() {
        let out = run_march(&cfg.test, &mut run.ram, &march_cfg, Some(&tlb));
        still = out
            .faulty_rows()
            .into_iter()
            .filter(|r| target.contains(r))
            .collect();
        if still.is_empty() {
            break;
        }
        let mut progressed = false;
        for &row in &still {
            if tlb.capture(row).is_ok() {
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    report.rows_repaired = target.len() - still.len();
    report.state = if !still.is_empty() {
        DegradationState::Failed
    } else if report.rows_granted < run.faulty_rows.len() {
        DegradationState::DetectOnly
    } else {
        DegradationState::Healthy
    };
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisram_diag::TransportFaults;
    use bisram_mem::{column_failure, Fault, FaultKind};

    fn small_chip(n: usize, seed: u64, budget: u64) -> ChipConfig {
        ChipConfig::new(heterogeneous_chip(n, seed), budget, seed)
    }

    #[test]
    fn heterogeneous_chip_is_deterministic_and_varied() {
        let a = heterogeneous_chip(16, 7);
        let b = heterogeneous_chip(16, 7);
        assert_eq!(a, b);
        let orgs: std::collections::HashSet<_> =
            a.iter().map(|s| (s.org.words(), s.org.bpw())).collect();
        assert!(orgs.len() >= 3, "palette variety expected");
        assert!(a.iter().any(|s| s.fault_count > 0));
        // Names are unique.
        let names: std::collections::HashSet<_> = a.iter().map(|s| &s.name).collect();
        assert_eq!(names.len(), 16);
    }

    #[test]
    fn clean_transport_ample_budget_repairs_everything() {
        let cfg = small_chip(6, 11, u64::MAX);
        let report = ChipModel::new(cfg).diagnose_and_repair();
        assert_eq!(report.macros.len(), 6);
        for m in &report.macros {
            assert!(
                matches!(
                    m.state,
                    DegradationState::Healthy | DegradationState::DetectOnly
                ),
                "{}: {:?}",
                m.name,
                m.state
            );
            assert_eq!(m.transport_attempts, 1);
            // Budget is unlimited, so rows_needed were all granted.
            assert_eq!(m.rows_granted, m.rows_needed.min(m.org.spare_rows()));
        }
        // Plan bookkeeping is self-consistent.
        let granted: usize = report.macros.iter().map(|m| m.rows_granted).sum();
        assert_eq!(granted, report.plan.rows_granted);
    }

    #[test]
    fn zero_budget_leaves_faulty_macros_detect_only() {
        let cfg = small_chip(6, 11, 0);
        let report = ChipModel::new(cfg).diagnose_and_repair();
        assert_eq!(report.plan.rows_granted, 0);
        for m in &report.macros {
            if m.rows_needed > 0 {
                assert_eq!(m.state, DegradationState::DetectOnly, "{}", m.name);
                assert_eq!(m.rows_repaired, 0);
            } else {
                assert_eq!(m.state, DegradationState::Healthy, "{}", m.name);
            }
        }
    }

    #[test]
    fn stuck_link_quarantines_without_chip_abort() {
        let mut cfg = small_chip(5, 3, u64::MAX);
        cfg.transport = Transport::with_faults(TransportFaults {
            stuck_bit: Some((7, true)),
            ..TransportFaults::none()
        });
        let report = ChipModel::new(cfg).diagnose_and_repair();
        // Every macro whose frames carry a 0 in bit 7 somewhere (i.e.
        // all of them — the magic header guarantees mixed bits) ends
        // quarantined, with retries exhausted; none panicked.
        for m in &report.macros {
            assert_eq!(m.state, DegradationState::Quarantined, "{}", m.name);
            assert_eq!(m.transport_attempts, 4);
            assert!(m.transport_backoff_cycles > 0);
        }
        assert_eq!(report.plan.rows_granted, 0, "no grants without diagnosis");
    }

    #[test]
    fn flaky_link_recovers_or_degrades_explicitly() {
        let mut cfg = small_chip(12, 23, u64::MAX);
        cfg.transport = Transport::with_faults(TransportFaults {
            drop_probability: 0.01,
            duplicate_probability: 0.01,
            timeout_probability: 0.2,
            ..TransportFaults::none()
        });
        let report = ChipModel::new(cfg).diagnose_and_repair();
        // Some macros needed retries; every macro has an explicit state.
        assert!(report.macros.iter().any(|m| m.transport_attempts > 1));
        for m in &report.macros {
            assert!(
                matches!(
                    m.state,
                    DegradationState::Healthy
                        | DegradationState::DetectOnly
                        | DegradationState::Quarantined
                        | DegradationState::Failed
                ),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn column_failure_ends_failed_because_spares_share_the_column() {
        // A column failure swamps the redundancy: every physical row —
        // spares included — has a faulty cell in that column, so row
        // repair can never verify clean. The macro must converge to an
        // explicit Failed, not loop (the paper's swamping scenario).
        let org = ArrayOrg::new(256, 8, 4, 4).unwrap();
        let cfg = ChipConfig::new(vec![MacroSpec::new("swamped", org, 0)], u64::MAX, 1);
        let model = ChipModel::new(cfg);
        // Drive the phase functions directly so the column failure can
        // be injected between diagnosis and repair.
        let spec = &model.config.macros[0];
        let mut run = diagnose_macro(spec, 0, &model.config);
        run.ram.inject_all(column_failure(&org, 3, 1, true));
        // Re-run the march with the column fault present.
        let sig = run_march_diagnose(
            &model.config.test,
            &mut run.ram,
            &MarchConfig::default(),
            None,
        );
        run.faulty_rows = sig.faulty_rows();
        run.report.rows_needed = run.faulty_rows.len();
        assert!(run.faulty_rows.len() > org.spare_rows());
        let report = repair_macro(run, org.spare_rows(), &model.config);
        assert_eq!(report.state, DegradationState::Failed);
    }

    #[test]
    fn more_faulty_rows_than_spares_degrades_detect_only() {
        // Six independent faulty rows, four spares: the grant is capped
        // at the physical spares, the granted rows verify clean, and the
        // macro ends detect-only with the shortfall explicit.
        let org = ArrayOrg::new(256, 8, 4, 4).unwrap();
        let cfg = ChipConfig::new(vec![MacroSpec::new("short", org, 0)], u64::MAX, 1);
        let spec = &cfg.macros[0];
        let mut run = diagnose_macro(spec, 0, &cfg);
        for row in [1, 5, 9, 13, 17, 21] {
            run.ram
                .inject(Fault::new(org.cell_at(row, 0, 0), FaultKind::StuckAt(true)));
        }
        let sig = run_march_diagnose(&cfg.test, &mut run.ram, &MarchConfig::default(), None);
        run.faulty_rows = sig.faulty_rows();
        run.report.rows_needed = run.faulty_rows.len();
        assert_eq!(run.faulty_rows.len(), 6);
        let grant = org.spare_rows();
        let report = repair_macro(run, grant, &cfg);
        assert_eq!(report.state, DegradationState::DetectOnly);
        assert_eq!(report.rows_repaired, grant);
        assert_eq!(report.rows_granted, grant);
    }

    #[test]
    fn faulty_spares_end_in_failed_not_a_loop() {
        // Every spare row is stuck: repair is granted in full, applied,
        // and verification can never pass — the macro must converge to
        // Failed in bounded passes.
        let org = ArrayOrg::new(64, 8, 2, 2).unwrap();
        let cfg = ChipConfig::new(vec![MacroSpec::new("badspares", org, 0)], u64::MAX, 5);
        let spec = &cfg.macros[0];
        let mut run = diagnose_macro(spec, 0, &cfg);
        // One regular-array faulty row + both spares faulty.
        run.ram
            .inject(Fault::new(org.cell_at(3, 0, 0), FaultKind::StuckAt(true)));
        for spare in org.rows()..org.total_rows() {
            run.ram.inject(Fault::new(
                org.cell_at(spare, 0, 0),
                FaultKind::StuckAt(true),
            ));
        }
        let sig = run_march_diagnose(&cfg.test, &mut run.ram, &MarchConfig::default(), None);
        run.faulty_rows = sig.faulty_rows();
        run.report.rows_needed = run.faulty_rows.len();
        assert_eq!(run.faulty_rows, vec![3]);
        let report = repair_macro(run, 1, &cfg);
        assert_eq!(report.state, DegradationState::Failed);
        assert_eq!(report.rows_repaired, 0);
    }

    #[test]
    fn report_is_worker_count_invariant() {
        let mut cfg = small_chip(8, 99, 64);
        cfg.transport = Transport::with_faults(TransportFaults {
            drop_probability: 0.005,
            timeout_probability: 0.1,
            ..TransportFaults::none()
        });
        let run = |jobs: usize| {
            let mut c = cfg.clone();
            c.jobs = Some(jobs);
            ChipModel::new(c).diagnose_and_repair()
        };
        let serial = run(1);
        for jobs in [2, 8] {
            let parallel = run(jobs);
            assert_eq!(parallel, serial, "jobs={jobs}");
            assert_eq!(format!("{parallel}"), format!("{serial}"), "jobs={jobs}");
        }
    }
}
