//! Datasheet generation.
//!
//! Paper §II: BISRAMGEN "can generate simple leaf cells ahead of time and
//! extract and simulate them, thereby extrapolating and providing timing,
//! area, and power guarantees for the overall system before designing the
//! overall layout" — the RAMGEN lineage of datasheets (setup/hold, read
//! access, write times, supply currents). This module performs that
//! extrapolation with the logical-effort and Elmore models of
//! `bisram-circuit`.

use crate::params::RamParams;
use bisram_circuit::campath::{self, TlbTiming};
use bisram_circuit::elmore;
use bisram_circuit::le::{self, GateType, Path};
use bisram_circuit::snm::{self, CellGeometry, NoiseMargins};
use bisram_field::{
    censored_mttf, simulate_fleet, ChipRepairReport, DegradationState, FieldConfig,
};
use bisram_layout::leaf;
use bisram_tech::{DeviceParams, Process};
use bisram_yield::reliability::ReliabilityModel;
use std::sync::{Mutex, PoisonError};

/// How many characterized cells [`cell_margins`] remembers. A sweep
/// touches one entry per process; custom processes beyond this evict
/// the oldest entry.
const MARGIN_MEMO_CAPACITY: usize = 8;

/// Exact identity of one characterization: the bit patterns of every
/// [`DeviceParams`] field, then of every [`CellGeometry`] field.
type MarginKey = [u64; 18];

/// Characterized cells, oldest first.
static MARGIN_MEMO: Mutex<Vec<(MarginKey, NoiseMargins)>> = Mutex::new(Vec::new());

fn margin_key(dev: &DeviceParams, geom: &CellGeometry) -> MarginKey {
    let CellGeometry {
        w_pulldown,
        w_pullup,
        w_access,
        l,
    } = *geom;
    let mut key = [0; 18];
    key[..14].copy_from_slice(&dev.field_bits());
    key[14..].copy_from_slice(&[w_pulldown, w_pullup, w_access, l].map(f64::to_bits));
    key
}

/// The cell's noise margins, characterized once per exact
/// `(devices, geometry)` pair (paper §II: leaf cells are simulated
/// "ahead of time" and every datasheet extrapolates from them).
/// [`snm::analyze`] is pure, so a remembered result is bit-identical to
/// a fresh one. It runs outside the lock: concurrent first calls may
/// each compute it, and all get the same value.
fn cell_margins(dev: &DeviceParams, geom: &CellGeometry) -> NoiseMargins {
    let key = margin_key(dev, geom);
    // Every update leaves the table a valid list, so a guard poisoned by
    // another thread's panic is still safe to use.
    let lock = || MARGIN_MEMO.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&(_, m)) = lock().iter().find(|(k, _)| *k == key) {
        return m;
    }
    let margins = snm::analyze(dev, geom);
    let mut table = lock();
    if !table.iter().any(|(k, _)| *k == key) {
        if table.len() == MARGIN_MEMO_CAPACITY {
            table.remove(0);
        }
        table.push((key, margins));
    }
    margins
}

/// Lifetime figures for the datasheet's reliability section: the
/// analytic §VIII model next to a seeded in-field simulation of the same
/// array ([`bisram_field`]), both censored to the same horizon so the
/// two MTTF figures are directly comparable.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilitySheet {
    /// Per-bit failure rate assumed, failures per hour.
    pub lambda_per_hour: f64,
    /// Horizon both figures are censored to, hours.
    pub horizon_hours: f64,
    /// MTTF from the closed-form `R(t)`, integrated over the session
    /// grid up to the horizon.
    pub analytic_mttf_hours: f64,
    /// MTTF from `lifetimes` simulated in-field lifetimes (periodic
    /// transparent test-and-repair sessions), same grid and censoring.
    pub simulated_mttf_hours: f64,
    /// Lifetimes simulated.
    pub lifetimes: usize,
    /// Of those, how many failed inside the horizon.
    pub deaths: usize,
}

/// The chip-level repair section of a datasheet: a
/// [`ChipRepairReport`] summarized and priced in silicon area for a
/// concrete process (granted spare rows × the 6T cell footprint).
#[derive(Debug, Clone, PartialEq)]
pub struct ChipSheet {
    /// Process the spare area is priced in.
    pub process: String,
    /// Macros on the chip.
    pub macros: usize,
    /// Macros fully repaired (or born clean).
    pub repaired: usize,
    /// Macros left detect-only (budget or spare shortfall).
    pub detect_only: usize,
    /// Macros quarantined by the transport.
    pub quarantined: usize,
    /// Macros whose repair failed verification.
    pub failed: usize,
    /// Spare rows the diagnoses demanded chip-wide.
    pub rows_requested: usize,
    /// Spare rows the allocator granted.
    pub rows_granted: usize,
    /// Chip redundancy budget, in cell units.
    pub budget_units: u64,
    /// Budget actually spent, in cell units.
    pub spent_units: u64,
    /// Silicon area of the granted spare cells, mm².
    pub spare_area_mm2: f64,
}

impl ChipSheet {
    /// Summarizes a chip run. Budget units are SRAM cells (a spare row's
    /// cost is its cell count), so the spent figure converts directly to
    /// area through the process's 6T cell footprint.
    pub fn from_report(report: &ChipRepairReport, process: &Process) -> ChipSheet {
        let lambda_m = process.rules().lambda() as f64 * 1e-9;
        let cell_m2 = leaf::SRAM_W as f64 * leaf::SRAM_H as f64 * lambda_m * lambda_m;
        ChipSheet {
            process: process.name().to_owned(),
            macros: report.macros.len(),
            repaired: report.count(DegradationState::Healthy),
            detect_only: report.count(DegradationState::DetectOnly),
            quarantined: report.count(DegradationState::Quarantined),
            failed: report.count(DegradationState::Failed),
            rows_requested: report.plan.rows_requested,
            rows_granted: report.plan.rows_granted,
            budget_units: report.plan.budget,
            spent_units: report.plan.spent,
            spare_area_mm2: report.plan.spent as f64 * cell_m2 * 1e6,
        }
    }
}

impl std::fmt::Display for ChipSheet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "chip repair ({}):", self.process)?;
        writeln!(
            f,
            "  macros        : {:8}  ({} repaired, {} detect-only, {} quarantined, {} failed)",
            self.macros, self.repaired, self.detect_only, self.quarantined, self.failed
        )?;
        writeln!(
            f,
            "  spare rows    : {:8}  of {} requested",
            self.rows_granted, self.rows_requested
        )?;
        let budget = if self.budget_units == u64::MAX {
            "unlimited".to_owned()
        } else {
            format!("{}", self.budget_units)
        };
        writeln!(
            f,
            "  budget spent  : {:8}  of {budget} cell units",
            self.spent_units
        )?;
        writeln!(f, "  spare area    : {:10.6} mm2", self.spare_area_mm2)?;
        Ok(())
    }
}

/// The extrapolated electrical datasheet of a compiled RAM.
#[derive(Debug, Clone, PartialEq)]
pub struct Datasheet {
    /// Read access time (address valid → data valid), seconds.
    pub access_time_s: f64,
    /// Write time, seconds.
    pub write_time_s: f64,
    /// Cycle time (access + precharge), seconds.
    pub cycle_time_s: f64,
    /// TLB compare-and-map delay (paper §VI), seconds.
    pub tlb: TlbTiming,
    /// Whether the TLB delay can be masked inside the precharge phase
    /// (paper §VI technique 1) — guaranteed for 1–4 spares.
    pub tlb_masked: bool,
    /// Active power at the rated cycle time, watts.
    pub active_power_w: f64,
    /// Standby (leakage) power, watts.
    pub standby_power_w: f64,
    /// Supply voltage, volts.
    pub vdd: f64,
    /// Hold static noise margin of the 6T cell, volts.
    pub hold_snm_v: f64,
    /// Read static noise margin of the 6T cell, volts.
    pub read_snm_v: f64,
    /// Lifetime section, filled in by
    /// [`Datasheet::with_simulated_reliability`]; `None` in the plain
    /// extrapolated sheet (the simulation costs real compute).
    pub reliability: Option<ReliabilitySheet>,
}

impl Datasheet {
    /// Extracts the datasheet for a parameter set.
    pub fn extrapolate(params: &RamParams) -> Datasheet {
        let process = params.process();
        let dev = process.devices();
        let lgate = process.gate_length_m();
        let lambda_m = process.rules().lambda() as f64 * 1e-9;
        let org = params.org();
        let tau = le::tau(dev, lgate);

        // --- Row decode: address buffer + predecode + final gate.
        let rows = org.total_rows() as f64;
        let addr_branch = rows / 2.0; // each address line loads half the decoders
        let buf_stages = Path::optimum_stage_count(addr_branch.max(1.0));
        let per_stage = addr_branch.max(1.0).powf(1.0 / buf_stages as f64);
        let mut decode = Path::new(tau);
        for _ in 0..buf_stages {
            decode = decode.stage(GateType::Inverter, per_stage);
        }
        decode = decode
            .stage(GateType::Nand(3), 3.0)
            .stage(GateType::Nor(2), 2.0);
        let t_decode = decode.delay_s();

        // --- Word line: driver (critical gate, scaled) into the strapped
        // word line across all columns.
        let cols = org.columns() as f64;
        let wl_len = cols * leaf::SRAM_W as f64 * lambda_m;
        let wire_w = 3.0 * lambda_m;
        let r_wl = dev.rsh_metal * wl_len / wire_w;
        let c_wl = dev.cw_metal * wl_len + cols * 2.0 * dev.c_gate(4.0 * lambda_m, lgate); // two access gates per cell
        let drv_w = 8.0 * lambda_m * params.gate_size() as f64;
        let r_drv = dev.r_eff_n(drv_w, lgate);
        let t_wl = r_drv * c_wl + elmore::wire_delay(r_wl, c_wl, 0.0);

        // --- Bitline: cell discharge through the stacked access +
        // pulldown devices. Current-mode sensing needs only a small
        // differential (paper §IV), captured by the 0.2 swing factor.
        let rows_total = org.total_rows() as f64;
        let bl_len = rows_total * leaf::SRAM_H as f64 * lambda_m;
        let c_bl = dev.cw_metal * bl_len + rows_total * dev.c_drain(4.0 * lambda_m, 3.0 * lambda_m);
        let r_cell = 2.0 * dev.r_eff_n(4.0 * lambda_m, lgate);
        let t_bl = 0.2 * r_cell * c_bl;

        // --- Column mux + sense amplifier + output driver.
        let t_out = Path::new(tau)
            .stage(GateType::Mux(org.bpc() as u8), 2.0)
            .stage(GateType::Inverter, 4.0)
            .stage(GateType::Inverter, 4.0)
            .delay_s();

        let access = t_decode + t_wl + t_bl + t_out;
        // Writes skip sensing: the (strong) write driver forces the
        // bitlines directly (paper §IV: "in write mode, the sense
        // amplifier is bypassed and the bit-lines are directly
        // accessed").
        let r_wdrv = dev.r_eff_n(8.0 * lambda_m, lgate);
        let write = t_decode + t_wl + 0.5 * r_wdrv * c_bl;
        let precharge = 0.6 * access;
        let cycle = access + precharge;

        // --- TLB delay and masking (paper §VI technique 1: overlap with
        // the precharge phase).
        // A one-row organization has no row address; the TLB still
        // compares one bit, as the TLB layout does.
        let tlb = campath::tlb_delay(process, org.row_bits().max(1), org.spare_rows().max(1));
        let tlb_masked = params.delay_masking_guaranteed() && tlb.total_s() < precharge;

        // --- Power: switched capacitance per cycle (one word line, the
        // selected subarray bitlines at partial swing, decoders).
        let c_switched = c_wl + org.bpw() as f64 * 0.2 * c_bl + 20.0 * dev.c_gate(drv_w, lgate);
        let f = 1.0 / cycle;
        let active_power_w = c_switched * dev.vdd * dev.vdd * f;
        // Leakage: ~1 pA per cell at these nodes.
        let standby_power_w = org.total_cells() as f64 * 1e-12 * dev.vdd;

        // Cell stability: the standard cell geometry for this process.
        let margins = cell_margins(dev, &CellGeometry::standard(lgate));

        Datasheet {
            access_time_s: access,
            write_time_s: write,
            cycle_time_s: cycle,
            tlb,
            tlb_masked,
            active_power_w,
            standby_power_w,
            vdd: dev.vdd,
            hold_snm_v: margins.hold_snm,
            read_snm_v: margins.read_snm,
            reliability: None,
        }
    }

    /// Fills the reliability section by running `lifetimes` seeded
    /// in-field simulations of this array next to the analytic model.
    ///
    /// The horizon is set to twice the row-failure time constant divided
    /// by the row count (the scale on which `R(t)` actually decays) and
    /// split into twelve maintenance sessions; both MTTF figures are
    /// censored to that horizon so they stay comparable. Small `lifetimes`
    /// counts (tens) give figure-of-merit accuracy in milliseconds; the
    /// full cross-validation lives in `bisram-field`'s test suite.
    ///
    /// # Panics
    ///
    /// Panics when `lambda_per_hour` is not a positive finite rate or
    /// `lifetimes` is zero.
    pub fn with_simulated_reliability(
        mut self,
        params: &RamParams,
        lambda_per_hour: f64,
        lifetimes: usize,
        seed: u64,
    ) -> Datasheet {
        assert!(
            lambda_per_hour.is_finite() && lambda_per_hour > 0.0,
            "failure rate must be positive and finite"
        );
        let org = *params.org();
        let model = ReliabilityModel {
            org,
            lambda_per_hour,
        };
        let tau_row = 1.0 / (lambda_per_hour * org.columns() as f64);
        let horizon_hours = 2.0 * tau_row / org.rows() as f64 * (1.0 + org.spare_rows() as f64);
        let config = FieldConfig::new(org, lambda_per_hour, horizon_hours / 12.0, horizon_hours);
        let fleet = simulate_fleet(&config, lifetimes, seed);
        let analytic = model.sample(&config.session_times());
        self.reliability = Some(ReliabilitySheet {
            lambda_per_hour,
            horizon_hours,
            analytic_mttf_hours: censored_mttf(&analytic),
            simulated_mttf_hours: fleet.mttf_hours,
            lifetimes,
            deaths: fleet.deaths,
        });
        self
    }
}

impl std::fmt::Display for Datasheet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "read access   : {:8.2} ns", self.access_time_s * 1e9)?;
        writeln!(f, "write time    : {:8.2} ns", self.write_time_s * 1e9)?;
        writeln!(f, "cycle time    : {:8.2} ns", self.cycle_time_s * 1e9)?;
        writeln!(
            f,
            "TLB delay     : {:8.2} ns ({})",
            self.tlb.total_s() * 1e9,
            if self.tlb_masked {
                "masked"
            } else {
                "NOT masked"
            }
        )?;
        writeln!(f, "active power  : {:8.2} mW", self.active_power_w * 1e3)?;
        writeln!(f, "standby power : {:8.4} mW", self.standby_power_w * 1e3)?;
        writeln!(f, "supply        : {:8.2} V", self.vdd)?;
        writeln!(f, "hold SNM      : {:8.2} V", self.hold_snm_v)?;
        writeln!(f, "read SNM      : {:8.2} V", self.read_snm_v)?;
        if let Some(r) = &self.reliability {
            writeln!(
                f,
                "MTTF (model)  : {:8.0} h  (lambda = {:.1e}/h, censored at {:.0} h)",
                r.analytic_mttf_hours, r.lambda_per_hour, r.horizon_hours
            )?;
            writeln!(
                f,
                "MTTF (simul.) : {:8.0} h  ({} lifetimes, {} failed in-horizon)",
                r.simulated_mttf_hours, r.lifetimes, r.deaths
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RamParams;
    use bisram_tech::Process;

    fn params(words: usize, bpw: usize, spares: usize) -> RamParams {
        RamParams::builder()
            .words(words)
            .bits_per_word(bpw)
            .bits_per_column(4)
            .spare_rows(spares)
            .build()
            .unwrap()
    }

    #[test]
    fn access_time_is_nanoseconds_scale() {
        let d = Datasheet::extrapolate(&params(4096, 32, 4));
        assert!(
            (1e-9..60e-9).contains(&d.access_time_s),
            "access {:.3e} s is implausible for a 0.7 um SRAM",
            d.access_time_s
        );
        assert!(d.cycle_time_s > d.access_time_s);
        assert!(d.write_time_s < d.cycle_time_s);
    }

    #[test]
    fn bigger_arrays_are_slower() {
        let small = Datasheet::extrapolate(&params(1024, 8, 4));
        let large = Datasheet::extrapolate(&params(16384, 64, 4));
        assert!(large.access_time_s > small.access_time_s);
    }

    #[test]
    fn tlb_delay_order_of_magnitude_below_access() {
        // Paper §VI: the TLB delay "is at least an order of magnitude
        // smaller than the RAM access time".
        let d = Datasheet::extrapolate(&params(4096, 32, 4));
        assert!(
            d.tlb.total_s() * 5.0 < d.access_time_s,
            "tlb {:.3e} vs access {:.3e}",
            d.tlb.total_s(),
            d.access_time_s
        );
        assert!(d.tlb_masked);
    }

    #[test]
    fn sixteen_spares_lose_the_masking_guarantee() {
        let d = Datasheet::extrapolate(&params(4096, 32, 16));
        assert!(!d.tlb_masked);
    }

    #[test]
    fn faster_process_is_faster() {
        let p05 = RamParams::builder()
            .process(Process::cda05())
            .build()
            .unwrap();
        let p07 = RamParams::builder()
            .process(Process::cda07())
            .build()
            .unwrap();
        let d05 = Datasheet::extrapolate(&p05);
        let d07 = Datasheet::extrapolate(&p07);
        assert!(d05.access_time_s < d07.access_time_s);
    }

    #[test]
    fn power_numbers_positive_and_display_complete() {
        let d = Datasheet::extrapolate(&params(1024, 8, 4));
        assert!(d.active_power_w > 0.0);
        assert!(d.standby_power_w > 0.0 && d.standby_power_w < d.active_power_w);
        let s = d.to_string();
        for key in [
            "read access",
            "TLB delay",
            "active power",
            "supply",
            "read SNM",
        ] {
            assert!(s.contains(key), "missing {key}");
        }
    }

    #[test]
    fn cell_is_stable_in_every_process() {
        for p in bisram_tech::Process::builtin() {
            let params = RamParams::builder().process(p.clone()).build().unwrap();
            let d = Datasheet::extrapolate(&params);
            assert!(
                d.read_snm_v > 0.1,
                "{}: read SNM {:.3}",
                p.name(),
                d.read_snm_v
            );
            assert!(d.hold_snm_v > d.read_snm_v);
        }
    }

    #[test]
    fn simulated_reliability_section_tracks_the_analytic_model() {
        let p = params(256, 4, 4);
        let d = Datasheet::extrapolate(&p);
        assert!(
            d.reliability.is_none(),
            "plain sheet carries no lifetime section"
        );
        let d = d.with_simulated_reliability(&p, 1e-9, 24, 0xD5);
        let r = d.reliability.as_ref().expect("section filled in");
        assert!(r.analytic_mttf_hours > 0.0 && r.simulated_mttf_hours > 0.0);
        assert!(r.simulated_mttf_hours <= r.horizon_hours);
        // Two dozen lifetimes give a figure of merit, not a validation —
        // but it must land on the analytic value's order of magnitude.
        let ratio = r.simulated_mttf_hours / r.analytic_mttf_hours;
        assert!(
            (0.5..2.0).contains(&ratio),
            "simulated {:.0} h vs analytic {:.0} h",
            r.simulated_mttf_hours,
            r.analytic_mttf_hours
        );
        assert_eq!(r.lifetimes, 24);
        assert!(r.deaths <= 24);
        let s = d.to_string();
        assert!(s.contains("MTTF (model)"), "{s}");
        assert!(s.contains("MTTF (simul.)"), "{s}");
        // Deterministic: same seed, same sheet.
        let again = Datasheet::extrapolate(&p).with_simulated_reliability(&p, 1e-9, 24, 0xD5);
        assert_eq!(d, again);
    }

    #[test]
    fn chip_sheet_summarizes_a_chip_run() {
        use bisram_field::{heterogeneous_chip, ChipConfig, ChipModel};
        let cfg = ChipConfig::new(heterogeneous_chip(4, 9), u64::MAX, 9);
        let report = ChipModel::new(cfg).diagnose_and_repair();
        let sheet = ChipSheet::from_report(&report, &Process::cda07());
        assert_eq!(sheet.macros, 4);
        assert_eq!(
            sheet.repaired + sheet.detect_only + sheet.quarantined + sheet.failed,
            4,
            "every macro lands in exactly one state"
        );
        assert_eq!(sheet.rows_granted, report.plan.rows_granted);
        // Cell-unit costs convert to a plausible spare area.
        assert!(sheet.spare_area_mm2 >= 0.0);
        if sheet.spent_units > 0 {
            assert!(sheet.spare_area_mm2 > 0.0);
        }
        let s = sheet.to_string();
        for key in [
            "chip repair",
            "macros",
            "spare rows",
            "budget spent",
            "spare area",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
        // A scaled-down process prices the same spares smaller.
        let smaller = ChipSheet::from_report(&report, &Process::cda05());
        assert!(smaller.spare_area_mm2 <= sheet.spare_area_mm2);
    }

    #[test]
    fn one_row_organization_extrapolates() {
        // words == bpc: a single row, so no row-address bit.
        let p = params(4, 4, 4);
        assert_eq!(p.org().row_bits(), 0);
        let d = Datasheet::extrapolate(&p);
        assert!(d.access_time_s > 0.0 && d.tlb.total_s() > 0.0);
    }

    /// A custom process no other test uses, so its margins start cold.
    fn custom_process(name: &str, vtn: f64) -> Process {
        let mut devices = Process::cda07().devices().clone();
        devices.vtn = vtn;
        Process::custom(name, 700, 3, devices).expect("valid custom process")
    }

    fn assert_margins_exact(process: &Process) {
        let params = RamParams::builder()
            .process(process.clone())
            .build()
            .unwrap();
        let d = Datasheet::extrapolate(&params);
        let direct = snm::analyze(
            process.devices(),
            &CellGeometry::standard(process.gate_length_m()),
        );
        assert_eq!(
            d.hold_snm_v.to_bits(),
            direct.hold_snm.to_bits(),
            "{}",
            process.name()
        );
        assert_eq!(
            d.read_snm_v.to_bits(),
            direct.read_snm.to_bits(),
            "{}",
            process.name()
        );
    }

    #[test]
    fn memoized_margins_are_bit_identical_to_a_direct_analysis() {
        let mut processes = Process::builtin();
        processes.push(custom_process("memo-exact", 0.7125));
        for p in &processes {
            // Twice: the first call may fill the entry, the second reads it.
            assert_margins_exact(p);
            assert_margins_exact(p);
        }
    }

    #[test]
    fn concurrent_first_calls_agree() {
        let p = RamParams::builder()
            .process(custom_process("memo-race", 0.6875))
            .build()
            .unwrap();
        let barrier = std::sync::Barrier::new(8);
        let sheets: Vec<Datasheet> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        Datasheet::extrapolate(&p)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });
        for d in &sheets[1..] {
            assert_eq!(d.hold_snm_v.to_bits(), sheets[0].hold_snm_v.to_bits());
            assert_eq!(d.read_snm_v.to_bits(), sheets[0].read_snm_v.to_bits());
        }
        assert_margins_exact(p.process());
    }

    #[test]
    fn margin_memo_stays_bounded_past_its_capacity() {
        for k in 0..MARGIN_MEMO_CAPACITY + 3 {
            let p = custom_process(&format!("memo-evict-{k}"), 0.64 + 0.005 * k as f64);
            assert_margins_exact(&p);
            let held = MARGIN_MEMO
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len();
            assert!(held <= MARGIN_MEMO_CAPACITY, "memo holds {held} entries");
        }
    }

    #[test]
    fn critical_gate_sizing_speeds_up_the_word_line() {
        let slow = RamParams::builder().gate_size(1).build().unwrap();
        let fast = RamParams::builder().gate_size(4).build().unwrap();
        assert!(
            Datasheet::extrapolate(&fast).access_time_s
                < Datasheet::extrapolate(&slow).access_time_s
        );
    }
}
