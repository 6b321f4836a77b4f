//! Logical-effort delay estimation.
//!
//! The datasheet generator and the TLB delay study estimate critical-path
//! delays with the method of logical effort: each stage contributes
//! `g·h + p` units of delay, where `g` is the gate's logical effort, `h`
//! its electrical fanout, and `p` its parasitic delay, all normalized to
//! the process time constant `τ` (the delay unit of a parasitic-free
//! inverter driving one identical inverter).

use bisram_tech::DeviceParams;

/// Gate types the RAM periphery uses, with their logical effort and
/// parasitic delay (in units of the inverter's).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateType {
    /// Static inverter.
    Inverter,
    /// n-input NAND.
    Nand(u8),
    /// n-input NOR.
    Nor(u8),
    /// Pass-transistor mux branch with n options (series switch + shared
    /// output, modelled with effort ~ n for the select network).
    Mux(u8),
    /// XOR / XNOR two-input stage (used in the comparator trees).
    Xor2,
}

impl GateType {
    /// Logical effort `g` per input, using the standard γ = 2 (PMOS/NMOS
    /// strength ratio) values.
    pub fn logical_effort(self) -> f64 {
        match self {
            GateType::Inverter => 1.0,
            GateType::Nand(n) => (n as f64 + 2.0) / 3.0,
            GateType::Nor(n) => (2.0 * n as f64 + 1.0) / 3.0,
            GateType::Mux(_) => 2.0,
            GateType::Xor2 => 4.0,
        }
    }

    /// Parasitic delay `p` in units of the inverter parasitic.
    pub fn parasitic(self) -> f64 {
        match self {
            GateType::Inverter => 1.0,
            GateType::Nand(n) => n as f64,
            GateType::Nor(n) => n as f64,
            GateType::Mux(n) => 2.0 * n as f64,
            GateType::Xor2 => 4.0,
        }
    }
}

/// One stage of a logical-effort path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stage {
    /// Gate type.
    pub gate: GateType,
    /// Electrical effort h = C_out / C_in of the stage.
    pub fanout: f64,
}

impl Stage {
    /// Creates a stage.
    pub fn new(gate: GateType, fanout: f64) -> Self {
        Stage { gate, fanout }
    }

    /// Stage delay in τ units: `g·h + p`.
    pub fn delay_tau(self) -> f64 {
        self.gate.logical_effort() * self.fanout + self.gate.parasitic()
    }
}

/// A logical-effort path: an ordered list of stages plus the process τ.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    stages: Vec<Stage>,
    tau_s: f64,
}

impl Path {
    /// Creates a path with the process time constant τ (seconds).
    pub fn new(tau_s: f64) -> Self {
        Path {
            stages: Vec::new(),
            tau_s,
        }
    }

    /// Appends a stage (builder style).
    pub fn stage(mut self, gate: GateType, fanout: f64) -> Self {
        self.stages.push(Stage::new(gate, fanout));
        self
    }

    /// The stages.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Total path delay in seconds.
    pub fn delay_s(&self) -> f64 {
        self.tau_s * self.stages.iter().map(|s| s.delay_tau()).sum::<f64>()
    }

    /// Total path delay in τ units.
    pub fn delay_tau(&self) -> f64 {
        self.stages.iter().map(|s| s.delay_tau()).sum()
    }

    /// The optimum number of stages to drive a path with total effort `f`
    /// (branching × logical × electrical effort), assuming effort-4
    /// stages — the classic result used when sizing the word-line driver
    /// chain.
    pub fn optimum_stage_count(path_effort: f64) -> usize {
        if path_effort <= 1.0 {
            return 1;
        }
        (path_effort.ln() / 4.0f64.ln()).round().max(1.0) as usize
    }
}

/// The process time constant τ: delay of an ideal fanout-1 inverter,
/// `τ = R_inv · C_inv`. Computed from the device parameters for a
/// minimum-size inverter (NMOS of width = 2·L, balanced PMOS).
pub fn tau(dev: &DeviceParams, gate_length_m: f64) -> f64 {
    let wn = 2.0 * gate_length_m;
    let beta = dev.mobility_ratio();
    let wp = wn * beta;
    let r = dev.r_eff_n(wn, gate_length_m);
    let c_in = dev.c_gate(wn + wp, gate_length_m);
    r * c_in
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisram_tech::Process;

    #[test]
    fn inverter_fo4_is_five_tau() {
        // FO4 inverter delay = g*h + p = 1*4 + 1 = 5 tau.
        let s = Stage::new(GateType::Inverter, 4.0);
        assert!((s.delay_tau() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn nand_and_nor_efforts_match_textbook() {
        assert!((GateType::Nand(2).logical_effort() - 4.0 / 3.0).abs() < 1e-12);
        assert!((GateType::Nor(2).logical_effort() - 5.0 / 3.0).abs() < 1e-12);
        assert!((GateType::Nand(3).logical_effort() - 5.0 / 3.0).abs() < 1e-12);
        // NOR is always worse than NAND of the same fan-in.
        for n in 2..6 {
            assert!(GateType::Nor(n).logical_effort() > GateType::Nand(n).logical_effort());
        }
    }

    #[test]
    fn path_delay_sums_stages() {
        let p = Path::new(1e-11)
            .stage(GateType::Nand(2), 3.0)
            .stage(GateType::Inverter, 4.0);
        let expect_tau = (4.0 / 3.0 * 3.0 + 2.0) + (4.0 + 1.0);
        assert!((p.delay_tau() - expect_tau).abs() < 1e-12);
        assert!((p.delay_s() - expect_tau * 1e-11).abs() < 1e-22);
    }

    #[test]
    fn optimum_stage_count_is_log4() {
        assert_eq!(Path::optimum_stage_count(1.0), 1);
        assert_eq!(Path::optimum_stage_count(4.0), 1);
        assert_eq!(Path::optimum_stage_count(16.0), 2);
        assert_eq!(Path::optimum_stage_count(256.0), 4);
        assert_eq!(Path::optimum_stage_count(0.5), 1);
    }

    #[test]
    fn tau_is_tens_of_picoseconds_for_builtin_processes() {
        for p in Process::builtin() {
            let t = tau(p.devices(), p.gate_length_m());
            assert!((1e-12..200e-12).contains(&t), "{}: tau = {t:e}", p.name());
        }
        // Finer process has smaller tau.
        let t05 = tau(Process::cda05().devices(), Process::cda05().gate_length_m());
        let t07 = tau(Process::cda07().devices(), Process::cda07().gate_length_m());
        assert!(t05 < t07);
    }
}
