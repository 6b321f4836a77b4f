//! One simulated device lifetime: arrivals, sessions, retries, repair,
//! degradation.

use bisram_bist::engine::{test_physical_rows, MarchConfig};
use bisram_bist::march::{self, MarchTest};
use bisram_bist::transparent::{run_transparent, run_transparent_diagnose};
use bisram_bist::RowMap;
use bisram_mem::{ArrayOrg, Fault, FaultKind, SramModel, Word};
use bisram_repair::flow::incremental_repair;
use bisram_repair::Tlb;
use bisram_rng::rngs::StdRng;
use bisram_rng::{Rng, SeedableRng};

/// How the lifetime engine accounts for faults landing on spare rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparePolicy {
    /// The paper's §VIII accounting: *any* spare-row fault is fatal (the
    /// analytic `(1−F)^s` factor demands every spare stay fault-free).
    /// Unassigned spares are screened each session with a destructive
    /// row-subset march; assigned spares are screened transparently
    /// through the TLB. This is the mode that cross-validates against
    /// `ReliabilityModel` exactly on the session grid.
    Pessimistic,
    /// What the hardware actually does: a faulty assigned spare is
    /// recaptured onto the next spare (the iterated-repair chain), at
    /// the cost of burning spares faster; unassigned spares are not
    /// screened (a bad one is discovered after assignment and chained
    /// past). Exhaustion degrades to detect-only instead of stopping.
    Opportunistic,
}

/// Parameters of one in-field lifetime.
#[derive(Debug, Clone)]
pub struct FieldConfig {
    /// Array organization (regular rows + spares).
    pub org: ArrayOrg,
    /// Constant per-bit failure rate, failures per hour.
    pub lambda_per_hour: f64,
    /// Interval between maintenance sessions, hours.
    pub session_period_hours: f64,
    /// Simulated service life, hours. Sessions run at `k·period` for
    /// every multiple inside the horizon; arrivals after the last
    /// session are censored.
    pub horizon_hours: f64,
    /// How many times a signature alarm is re-screened before it is
    /// classified as a hard fault. A clean re-screen dismisses the alarm
    /// as a transient.
    pub max_retries: u32,
    /// Per-session probability that a soft upset corrupts the observed
    /// MISR signature (memory contents untouched). `0.0` draws nothing
    /// from the RNG, keeping arrival streams comparable across configs.
    pub transient_upset_probability: f64,
    /// Spare-row fault accounting (see [`SparePolicy`]).
    pub spare_policy: SparePolicy,
    /// March test run transparently each session (and destructively over
    /// unassigned spares under the pessimistic policy).
    pub test: MarchTest,
}

impl FieldConfig {
    /// A configuration with the default session policy: MATS+ sessions,
    /// two retries, no soft upsets, pessimistic spare accounting.
    ///
    /// # Panics
    ///
    /// Panics when `lambda_per_hour` is negative or not finite, or when
    /// `session_period_hours` / `horizon_hours` are not strictly
    /// positive finite values.
    pub fn new(
        org: ArrayOrg,
        lambda_per_hour: f64,
        session_period_hours: f64,
        horizon_hours: f64,
    ) -> Self {
        assert!(
            lambda_per_hour.is_finite() && lambda_per_hour >= 0.0,
            "failure rate must be finite and non-negative"
        );
        assert!(
            session_period_hours.is_finite() && session_period_hours > 0.0,
            "session period must be positive"
        );
        assert!(
            horizon_hours.is_finite() && horizon_hours > 0.0,
            "horizon must be positive"
        );
        FieldConfig {
            org,
            lambda_per_hour,
            session_period_hours,
            horizon_hours,
            max_retries: 2,
            transient_upset_probability: 0.0,
            spare_policy: SparePolicy::Pessimistic,
            test: march::mats_plus(),
        }
    }

    /// Number of maintenance sessions inside the horizon.
    pub fn sessions(&self) -> usize {
        (self.horizon_hours / self.session_period_hours).floor() as usize
    }

    /// The session instants `k·period`, `k = 1..=sessions()` — the time
    /// grid every empirical survival curve is reported on.
    pub fn session_times(&self) -> Vec<f64> {
        (1..=self.sessions())
            .map(|k| k as f64 * self.session_period_hours)
            .collect()
    }
}

/// Why a lifetime ended (or degraded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureCause {
    /// A spare row itself failed (fatal under the pessimistic policy).
    SpareFault,
    /// More faulty rows than spares: repair could not map them all.
    SparesExhausted,
    /// Faults survived the in-session repair loop without progress
    /// (defensive bound; unreachable with row-confined fault kinds).
    FaultsPersist,
}

/// Whether a device (or one macro of a chip) still guarantees a
/// repaired address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum DegradationState {
    /// Every detected fault has been mapped to a spare.
    #[default]
    Healthy,
    /// Repair incomplete (spares or chip budget exhausted): sessions
    /// keep running and reporting, writes to the unrepairable region are
    /// no longer protected.
    DetectOnly,
    /// The macro's BIST transport never produced a valid session despite
    /// bounded retries — no diagnosis exists, the macro is fenced off
    /// and the rest of the chip proceeds.
    Quarantined,
    /// Repair was applied in full but verification still fails (e.g.
    /// every replacement spare turned out faulty).
    Failed,
}

impl std::fmt::Display for DegradationState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DegradationState::Healthy => "repaired",
            DegradationState::DetectOnly => "detect-only",
            DegradationState::Quarantined => "quarantined",
            DegradationState::Failed => "failed",
        })
    }
}

/// One entry of the structured, deterministic lifetime log.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldEvent {
    /// A latent defect struck `physical_row` at `time_hours` (logged
    /// when the covering session activates it).
    FaultArrived {
        time_hours: f64,
        physical_row: usize,
    },
    /// A signature alarm vanished on re-screen after `retries` re-runs.
    TransientDismissed { time_hours: f64, retries: u32 },
    /// Incremental repair mapped logical rows onto spares, copying
    /// `copied_words` words of user data.
    RowsRepaired {
        time_hours: f64,
        mapped: Vec<(usize, usize)>,
        copied_words: usize,
    },
    /// Physical spare rows found faulty.
    SpareFaultDetected {
        time_hours: f64,
        physical_rows: Vec<usize>,
    },
    /// Logical rows left unmapped because every spare was in use.
    SparesExhausted {
        time_hours: f64,
        unrepaired_rows: Vec<usize>,
    },
    /// The device entered detect-only degraded operation.
    EnteredDetectOnly { time_hours: f64 },
    /// Detect-only mode discovered additional unrepairable rows.
    UnrepairedFaultDetected { time_hours: f64, rows: Vec<usize> },
    /// Lifetime over.
    Failed {
        time_hours: f64,
        cause: FailureCause,
    },
}

/// Everything one simulated lifetime produced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LifetimeOutcome {
    /// First instant the device stopped being fully repaired, stamped at
    /// the detecting session. `None`: survived the whole horizon.
    pub failure_time_hours: Option<f64>,
    /// What ended (or degraded) the lifetime.
    pub failure_cause: Option<FailureCause>,
    /// Terminal degradation state.
    pub state: DegradationState,
    /// Logical rows with detected but unrepaired faults, ascending.
    pub unrepairable_rows: Vec<usize>,
    /// The deterministic event log (same seed ⇒ identical log).
    pub events: Vec<FieldEvent>,
    /// Sessions that actually exercised the test machinery.
    pub sessions_run: usize,
    /// Quiet sessions skipped (nothing new since a clean session — the
    /// screen outcome is provably identical, so the controller idles).
    pub sessions_skipped: usize,
    /// Alarms dismissed as soft upsets.
    pub transients_dismissed: usize,
    /// Logical rows successfully mapped to spares over the lifetime.
    pub rows_repaired: usize,
}

impl LifetimeOutcome {
    /// True when the device was still fully repaired strictly after `t`
    /// (a failure stamped exactly at `t` counts as dead at `t`, matching
    /// the analytic `R(t)` convention).
    pub fn alive_at(&self, t_hours: f64) -> bool {
        self.failure_time_hours.is_none_or(|ft| ft > t_hours)
    }
}

/// One sampled defect arrival.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Arrival {
    pub(crate) time_hours: f64,
    pub(crate) physical_row: usize,
    pub(crate) fault: Fault,
}

/// Draws the first defect arrival of every physical row.
///
/// With row-granular repair and stuck-at defects, only the *first* hit
/// on a row changes the device's fate, so one exponential draw per row
/// (`T = −ln(U)/(λ·columns)`) reproduces the analytic per-row fault
/// probability `F(t)` exactly. Regular rows are drawn before spares in
/// index order, so two configs differing only in spare count share the
/// regular-row fault history (common random numbers — this is what
/// makes the empirical spare-count crossover crisp).
pub(crate) fn sample_arrivals(config: &FieldConfig, rng: &mut StdRng) -> Vec<Arrival> {
    let org = config.org;
    let row_rate = config.lambda_per_hour * org.columns() as f64;
    let mut arrivals = Vec::new();
    for row in 0..org.total_rows() {
        // All four draws are consumed for every row, hit or miss, so the
        // stream stays aligned across configs.
        let u = 1.0 - rng.gen::<f64>(); // (0, 1]: ln is finite
        let time_hours = -u.ln() / row_rate;
        let col = rng.gen_range(0..org.bpc());
        let bit = rng.gen_range(0..org.bpw());
        let stuck = rng.gen_bool(0.5);
        if time_hours <= config.horizon_hours {
            arrivals.push(Arrival {
                time_hours,
                physical_row: row,
                fault: Fault::new(org.cell_at(row, col, bit), FaultKind::StuckAt(stuck)),
            });
        }
    }
    arrivals.sort_by(|a, b| {
        a.time_hours
            .total_cmp(&b.time_hours)
            .then(a.physical_row.cmp(&b.physical_row))
    });
    arrivals
}

/// Simulates one device lifetime under `config` with a private RNG
/// seeded from `seed`.
///
/// The simulation is fully deterministic: the same `(config, seed)` pair
/// produces the same [`LifetimeOutcome`] — event log included — on every
/// run. No path through the engine panics, whatever the fault pattern:
/// exhaustion, faulty spares and repeated alarms all end in structured
/// events.
pub fn simulate_lifetime(config: &FieldConfig, seed: u64) -> LifetimeOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let arrivals = sample_arrivals(config, &mut rng);

    let org = config.org;
    let mut ram = SramModel::new(org);
    // Resident user data: an address-derived pattern, so repair copies
    // move something recognizably non-trivial.
    let data_mask = if org.bpw() >= 64 {
        u64::MAX
    } else {
        (1u64 << org.bpw()) - 1
    };
    for addr in 0..org.words() {
        ram.write_word(addr, Word::from_u64(addr as u64 & data_mask, org.bpw()));
    }
    let mut tlb = Tlb::new(org.rows(), org.spare_rows());
    let mut out = LifetimeOutcome::default();

    let mut next_arrival = 0usize;
    let mut last_session_clean = true; // fresh silicon is screened good
    let spare_march = MarchConfig::quick();

    'sessions: for k in 1..=config.sessions() {
        let t = k as f64 * config.session_period_hours;

        // Activate every defect that arrived inside this window.
        let mut activated = false;
        while next_arrival < arrivals.len() && arrivals[next_arrival].time_hours <= t {
            let a = arrivals[next_arrival];
            ram.stage_fault(a.fault);
            out.events.push(FieldEvent::FaultArrived {
                time_hours: a.time_hours,
                physical_row: a.physical_row,
            });
            next_arrival += 1;
            activated = true;
        }
        ram.activate_staged();

        let upset = config.transient_upset_probability > 0.0
            && rng.gen_bool(config.transient_upset_probability);

        // Quiet-session skip: no new defects, no upset, and the previous
        // session came back clean — the hardware state is bit-identical
        // to the last screened state, so the outcome is already known.
        if !activated && !upset && last_session_clean {
            out.sessions_skipped += 1;
            continue;
        }
        out.sessions_run += 1;

        // Pessimistic policy: destructively march the spares no repair
        // is using yet, *before* any new capture could hand user data to
        // a bad one. Assigned spares hold live data and are covered by
        // the transparent screen below instead.
        if config.spare_policy == SparePolicy::Pessimistic {
            let unused: Vec<usize> = (tlb.used()..tlb.spares())
                .map(|i| tlb.spare_row(i))
                .collect();
            if !unused.is_empty() {
                let failed = test_physical_rows(&config.test, &mut ram, &spare_march, &unused);
                if !failed.is_empty() {
                    out.events.push(FieldEvent::SpareFaultDetected {
                        time_hours: t,
                        physical_rows: failed,
                    });
                    fail(&mut out, t, FailureCause::SpareFault);
                    break 'sessions;
                }
            }
        }

        if out.state == DegradationState::DetectOnly {
            // Degraded operation: diagnose and extend the unrepairable
            // map, nothing more.
            let diag = run_transparent_diagnose(&config.test, &mut ram, Some(&tlb));
            let fresh: Vec<usize> = diag
                .faulty_rows
                .iter()
                .copied()
                .filter(|r| !out.unrepairable_rows.contains(r))
                .collect();
            if !fresh.is_empty() {
                out.events.push(FieldEvent::UnrepairedFaultDetected {
                    time_hours: t,
                    rows: fresh.clone(),
                });
                out.unrepairable_rows.extend(fresh);
                out.unrepairable_rows.sort_unstable();
            }
            last_session_clean = false;
            continue;
        }

        // Healthy operation: screen, classify, repair, re-screen. Each
        // repairing round consumes at least one spare, so the loop is
        // bounded; a round with no progress is terminal.
        let mut upset_pending = upset;
        let mut rounds = 0usize;
        loop {
            let mut screen = run_transparent(&config.test, &mut ram, Some(&tlb));
            if upset_pending {
                // A soft upset flips one bit of the observation MISR;
                // memory contents are untouched.
                screen.observed ^= 1u64 << rng.gen_range(0..64);
                upset_pending = false;
            }
            if !screen.detected() {
                last_session_clean = true;
                break;
            }

            // Alarm: bounded re-screen to shake out soft upsets. A hard
            // fault re-detects every time; a clean re-run is a transient.
            let mut transient = false;
            for retry in 1..=config.max_retries {
                let again = run_transparent(&config.test, &mut ram, Some(&tlb));
                if !again.detected() {
                    out.transients_dismissed += 1;
                    out.events.push(FieldEvent::TransientDismissed {
                        time_hours: t,
                        retries: retry,
                    });
                    transient = true;
                    break;
                }
            }
            if transient {
                last_session_clean = true;
                break;
            }

            let diag = run_transparent_diagnose(&config.test, &mut ram, Some(&tlb));
            if diag.faulty_rows.is_empty() {
                // Signature-only disturbance with nothing word-exact
                // behind it (e.g. an upset with max_retries = 0).
                out.transients_dismissed += 1;
                out.events.push(FieldEvent::TransientDismissed {
                    time_hours: t,
                    retries: config.max_retries,
                });
                last_session_clean = true;
                break;
            }

            if config.spare_policy == SparePolicy::Pessimistic {
                let spare_backed: Vec<usize> = diag
                    .faulty_rows
                    .iter()
                    .copied()
                    .filter(|&r| tlb.is_mapped(r))
                    .map(|r| tlb.map_row(r))
                    .collect();
                if !spare_backed.is_empty() {
                    out.events.push(FieldEvent::SpareFaultDetected {
                        time_hours: t,
                        physical_rows: spare_backed,
                    });
                    fail(&mut out, t, FailureCause::SpareFault);
                    break 'sessions;
                }
            }

            let repair = incremental_repair(&mut ram, &mut tlb, &diag.faulty_rows);
            if !repair.mapped.is_empty() {
                out.rows_repaired += repair.mapped.len();
                out.events.push(FieldEvent::RowsRepaired {
                    time_hours: t,
                    mapped: repair.mapped.clone(),
                    copied_words: repair.copied_words,
                });
            }
            if !repair.unmapped.is_empty() {
                out.events.push(FieldEvent::SparesExhausted {
                    time_hours: t,
                    unrepaired_rows: repair.unmapped.clone(),
                });
                if config.spare_policy == SparePolicy::Pessimistic {
                    fail(&mut out, t, FailureCause::SparesExhausted);
                    break 'sessions;
                }
                degrade(&mut out, t, FailureCause::SparesExhausted, &repair.unmapped);
                last_session_clean = false;
                break;
            }
            if repair.mapped.is_empty() {
                // Diagnosed rows but nothing mapped and nothing left
                // unmapped is impossible; still, never spin.
                degrade(&mut out, t, FailureCause::FaultsPersist, &diag.faulty_rows);
                last_session_clean = false;
                break;
            }
            rounds += 1;
            if rounds > org.spare_rows() + 1 {
                // Repair keeps "succeeding" without the screen coming
                // clean — faults that are not confined to their row.
                degrade(&mut out, t, FailureCause::FaultsPersist, &diag.faulty_rows);
                last_session_clean = false;
                break;
            }
        }
    }
    out
}

/// Stamps a fatal failure (pessimistic accounting stops the lifetime).
fn fail(out: &mut LifetimeOutcome, t: f64, cause: FailureCause) {
    out.failure_time_hours = Some(t);
    out.failure_cause = Some(cause);
    out.events.push(FieldEvent::Failed {
        time_hours: t,
        cause,
    });
}

/// Enters detect-only degraded operation; the *first* degradation also
/// stamps the failure time (the device no longer presents a repaired
/// address space — dead as far as `R(t)` is concerned — but keeps
/// running and reporting).
fn degrade(out: &mut LifetimeOutcome, t: f64, cause: FailureCause, rows: &[usize]) {
    if out.state == DegradationState::Healthy {
        out.state = DegradationState::DetectOnly;
        out.failure_time_hours = Some(t);
        out.failure_cause = Some(cause);
        out.events
            .push(FieldEvent::EnteredDetectOnly { time_hours: t });
        out.events.push(FieldEvent::Failed {
            time_hours: t,
            cause,
        });
    }
    out.unrepairable_rows.extend_from_slice(rows);
    out.unrepairable_rows.sort_unstable();
    out.unrepairable_rows.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn org(spares: usize) -> ArrayOrg {
        // 16 regular rows of 4 columns (bpw = bpc = 2), tiny enough for
        // thousands of lifetimes in a debug test run.
        ArrayOrg::new(32, 2, 2, spares).expect("valid test geometry")
    }

    fn config(spares: usize) -> FieldConfig {
        // F(horizon) = 1 − e^{−λ·4·120000} ≈ 0.35: enough pressure that
        // both exhaustion and spare faults actually happen.
        FieldConfig::new(org(spares), 9.0e-7, 10_000.0, 120_000.0)
    }

    #[test]
    fn same_seed_gives_identical_event_logs() {
        let cfg = config(4);
        let a = simulate_lifetime(&cfg, 0x000F_1E1D_0001);
        let b = simulate_lifetime(&cfg, 0x000F_1E1D_0001);
        assert_eq!(a, b);
        assert_eq!(format!("{:?}", a.events), format!("{:?}", b.events));
        // And a different seed gives a different history (astronomically
        // unlikely to collide at this fault pressure).
        let c = simulate_lifetime(&cfg, 0x000F_1E1D_0002);
        assert_ne!(a.events, c.events);
    }

    #[test]
    fn quiet_lifetime_skips_every_session() {
        let mut cfg = config(2);
        cfg.lambda_per_hour = 0.0; // nothing ever fails
        let out = simulate_lifetime(&cfg, 7);
        assert_eq!(out.failure_time_hours, None);
        assert_eq!(out.sessions_run, 0);
        assert_eq!(out.sessions_skipped, cfg.sessions());
        assert!(out.events.is_empty());
        assert_eq!(out.state, DegradationState::Healthy);
    }

    #[test]
    fn repairs_extend_life_and_are_logged() {
        // Find a seed whose lifetime includes at least one repair, then
        // check the bookkeeping on it.
        let cfg = config(8);
        let out = (0..64u64)
            .map(|s| simulate_lifetime(&cfg, 0xCAFE_0000 + s))
            .find(|o| o.rows_repaired > 0)
            .expect("some lifetime out of 64 repairs at least one row");
        let repaired: usize = out
            .events
            .iter()
            .filter_map(|e| match e {
                FieldEvent::RowsRepaired { mapped, .. } => Some(mapped.len()),
                _ => None,
            })
            .sum();
        assert_eq!(repaired, out.rows_repaired);
        // Every arrival event precedes or coincides with the horizon and
        // events are time-ordered.
        let times: Vec<f64> = out
            .events
            .iter()
            .map(|e| match e {
                FieldEvent::FaultArrived { time_hours, .. }
                | FieldEvent::TransientDismissed { time_hours, .. }
                | FieldEvent::RowsRepaired { time_hours, .. }
                | FieldEvent::SpareFaultDetected { time_hours, .. }
                | FieldEvent::SparesExhausted { time_hours, .. }
                | FieldEvent::EnteredDetectOnly { time_hours }
                | FieldEvent::UnrepairedFaultDetected { time_hours, .. }
                | FieldEvent::Failed { time_hours, .. } => *time_hours,
            })
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
    }

    #[test]
    fn transient_upsets_are_dismissed_not_fatal() {
        let mut cfg = config(2);
        cfg.lambda_per_hour = 0.0; // isolate the upset path
        cfg.transient_upset_probability = 0.5;
        let out = simulate_lifetime(&cfg, 0xBEEF);
        assert_eq!(out.failure_time_hours, None, "upsets must never kill");
        assert!(out.transients_dismissed > 0, "p=0.5 over 12 sessions");
        assert!(out.unrepairable_rows.is_empty());
        assert!(out
            .events
            .iter()
            .all(|e| matches!(e, FieldEvent::TransientDismissed { .. })));
    }

    #[test]
    fn opportunistic_exhaustion_degrades_gracefully() {
        // One spare and heavy pressure: exhaustion is near-certain.
        let mut cfg = config(1);
        cfg.spare_policy = SparePolicy::Opportunistic;
        cfg.lambda_per_hour = 4.0e-6; // F(horizon) ≈ 0.85
        let out = simulate_lifetime(&cfg, 0xD00D);
        assert_eq!(out.state, DegradationState::DetectOnly);
        assert_eq!(out.failure_cause, Some(FailureCause::SparesExhausted));
        assert!(!out.unrepairable_rows.is_empty());
        assert!(
            out.unrepairable_rows.windows(2).all(|w| w[0] < w[1]),
            "sorted, deduplicated map"
        );
        // Detect-only sessions kept running after degradation.
        let death = out.failure_time_hours.expect("degraded");
        assert!(death < cfg.horizon_hours);
    }

    #[test]
    fn pessimistic_spare_fault_is_fatal_at_the_detecting_session() {
        // Force an early spare fault by cranking pressure until some
        // seed kills via SpareFault; verify the death stamp lies on the
        // session grid.
        let mut cfg = config(8);
        cfg.lambda_per_hour = 2.0e-6;
        let out = (0..64u64)
            .map(|s| simulate_lifetime(&cfg, 0x0005_FA6E_0000 + s))
            .find(|o| o.failure_cause == Some(FailureCause::SpareFault))
            .expect("heavy pressure on 8 spares kills some seed via a spare fault");
        let t = out.failure_time_hours.expect("failed");
        let k = t / cfg.session_period_hours;
        assert_eq!(k, k.round(), "death is stamped at a session instant");
    }

    #[test]
    #[should_panic(expected = "failure rate must be finite and non-negative")]
    fn negative_failure_rate_is_rejected() {
        FieldConfig::new(org(2), -1.0, 1.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "session period must be positive")]
    fn zero_session_period_is_rejected() {
        FieldConfig::new(org(2), 1e-9, 0.0, 10.0);
    }
}
