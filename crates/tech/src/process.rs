//! Built-in process definitions.

use crate::{DesignRules, DeviceParams};
use bisram_geom::Coord;

/// Errors raised when validating a process selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcessError {
    /// The process has fewer than three metal layers; BISR RAMs built by
    /// BISRAMGEN require three metal layers (paper §X: the blank rows of
    /// Table II are exactly the 2-metal parts).
    TooFewMetalLayers {
        /// Metal layers the process offers.
        available: u8,
    },
    /// Feature size below the supported 0.5 µm floor.
    FeatureTooSmall {
        /// Requested drawn feature size in nanometres.
        feature_nm: Coord,
    },
}

impl std::fmt::Display for ProcessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcessError::TooFewMetalLayers { available } => write!(
                f,
                "process offers {available} metal layers but BISR generation requires 3"
            ),
            ProcessError::FeatureTooSmall { feature_nm } => write!(
                f,
                "feature size {feature_nm} nm is below the supported 0.5 um floor"
            ),
        }
    }
}

impl std::error::Error for ProcessError {}

/// A CMOS process: name, feature size, rule set and device parameters.
///
/// Three processes mirroring the paper's supported set are built in:
/// [`Process::cda05`], [`Process::mosis06`] and [`Process::cda07`]. Custom
/// processes can be assembled with [`Process::custom`] and are validated
/// against the paper's constraints (≥ 3 metal layers, ≥ 0.5 µm feature).
///
/// ```
/// use bisram_tech::Process;
/// let p = Process::mosis06();
/// assert_eq!(p.name(), "mos.6u3m1pHP");
/// assert_eq!(p.feature_nm(), 600);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Process {
    name: String,
    feature_nm: Coord,
    metal_layers: u8,
    rules: DesignRules,
    devices: DeviceParams,
}

impl Process {
    /// The Cascade Design Automation 0.5 µm, 3-metal, 1-poly process
    /// (`CDA.5u3m1p` in the paper).
    pub fn cda05() -> Self {
        Process {
            name: "CDA.5u3m1p".to_owned(),
            feature_nm: 500,
            metal_layers: 3,
            rules: DesignRules::scmos(250),
            devices: DeviceParams {
                vdd: 3.3,
                vtn: 0.6,
                vtp: 0.8,
                kp_n: 170e-6,
                kp_p: 60e-6,
                cox: 3.4e-3,
                cj: 5.6e-4,
                cjsw: 3.5e-10,
                cw_metal: 2.1e-10,
                cw_poly: 2.6e-10,
                rsh_metal: 0.06,
                rsh_poly: 20.0,
                rsh_diff: 55.0,
                channel_lambda: 0.06,
            },
        }
    }

    /// The MOSIS 0.6 µm HP process (`mos.6u3m1pHP` in the paper).
    pub fn mosis06() -> Self {
        Process {
            name: "mos.6u3m1pHP".to_owned(),
            feature_nm: 600,
            metal_layers: 3,
            rules: DesignRules::scmos(300),
            devices: DeviceParams {
                vdd: 3.3,
                vtn: 0.7,
                vtp: 0.9,
                kp_n: 145e-6,
                kp_p: 50e-6,
                cox: 2.9e-3,
                cj: 5.0e-4,
                cjsw: 3.2e-10,
                cw_metal: 2.0e-10,
                cw_poly: 2.5e-10,
                rsh_metal: 0.07,
                rsh_poly: 23.0,
                rsh_diff: 60.0,
                channel_lambda: 0.055,
            },
        }
    }

    /// The Cascade Design Automation 0.7 µm, 3-metal, 1-poly process
    /// (`CDA.7u3m1p`) — the process Table I of the paper uses.
    pub fn cda07() -> Self {
        Process {
            name: "CDA.7u3m1p".to_owned(),
            feature_nm: 700,
            metal_layers: 3,
            rules: DesignRules::scmos(350),
            devices: DeviceParams {
                vdd: 5.0,
                vtn: 0.75,
                vtp: 0.95,
                kp_n: 120e-6,
                kp_p: 42e-6,
                cox: 2.4e-3,
                cj: 4.4e-4,
                cjsw: 3.0e-10,
                cw_metal: 1.9e-10,
                cw_poly: 2.4e-10,
                rsh_metal: 0.08,
                rsh_poly: 25.0,
                rsh_diff: 65.0,
                channel_lambda: 0.05,
            },
        }
    }

    /// All built-in processes.
    pub fn builtin() -> Vec<Process> {
        vec![Process::cda05(), Process::mosis06(), Process::cda07()]
    }

    /// Looks a built-in process up by name.
    pub fn by_name(name: &str) -> Option<Process> {
        Process::builtin().into_iter().find(|p| p.name == name)
    }

    /// Assembles a custom process, enforcing the paper's constraints.
    ///
    /// # Errors
    ///
    /// * [`ProcessError::TooFewMetalLayers`] when `metal_layers < 3`.
    /// * [`ProcessError::FeatureTooSmall`] when `feature_nm < 500`.
    pub fn custom(
        name: impl Into<String>,
        feature_nm: Coord,
        metal_layers: u8,
        devices: DeviceParams,
    ) -> Result<Process, ProcessError> {
        if metal_layers < 3 {
            return Err(ProcessError::TooFewMetalLayers {
                available: metal_layers,
            });
        }
        if feature_nm < 500 {
            return Err(ProcessError::FeatureTooSmall { feature_nm });
        }
        Ok(Process {
            name: name.into(),
            feature_nm,
            metal_layers,
            rules: DesignRules::scmos(feature_nm / 2),
            devices,
        })
    }

    /// Process name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Drawn feature size (minimum gate length) in nanometres.
    pub fn feature_nm(&self) -> Coord {
        self.feature_nm
    }

    /// Number of metal layers.
    pub fn metal_layers(&self) -> u8 {
        self.metal_layers
    }

    /// Design rules.
    pub fn rules(&self) -> &DesignRules {
        &self.rules
    }

    /// Electrical device parameters.
    pub fn devices(&self) -> &DeviceParams {
        &self.devices
    }

    /// Minimum gate length in metres (for the circuit models).
    pub fn gate_length_m(&self) -> f64 {
        self.feature_nm as f64 * 1e-9
    }
}

impl std::fmt::Display for Process {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} nm, {} metal)",
            self.name, self.feature_nm, self.metal_layers
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_processes_match_paper() {
        let names: Vec<_> = Process::builtin()
            .iter()
            .map(|p| p.name().to_owned())
            .collect();
        assert_eq!(names, ["CDA.5u3m1p", "mos.6u3m1pHP", "CDA.7u3m1p"]);
        for p in Process::builtin() {
            assert_eq!(p.metal_layers(), 3);
            assert!(p.feature_nm() >= 500);
            // Lambda is half the feature size.
            assert_eq!(p.rules().lambda() * 2, p.feature_nm());
        }
    }

    #[test]
    fn by_name_lookup() {
        assert!(Process::by_name("CDA.7u3m1p").is_some());
        assert!(Process::by_name("tsmc7").is_none());
    }

    #[test]
    fn custom_process_validation() {
        let devs = Process::cda07().devices().clone();
        let err = Process::custom("2metal", 700, 2, devs.clone()).unwrap_err();
        assert_eq!(err, ProcessError::TooFewMetalLayers { available: 2 });
        assert!(err.to_string().contains("requires 3"));

        let err = Process::custom("deep", 250, 3, devs.clone()).unwrap_err();
        assert_eq!(err, ProcessError::FeatureTooSmall { feature_nm: 250 });

        let ok = Process::custom("fab8", 800, 4, devs).unwrap();
        assert_eq!(ok.rules().lambda(), 400);
    }

    #[test]
    fn device_params_sane() {
        for p in Process::builtin() {
            let d = p.devices();
            assert!(d.vdd > d.vtn && d.vdd > d.vtp);
            let beta = d.mobility_ratio();
            assert!((1.5..4.0).contains(&beta), "{}: beta={beta}", p.name());
        }
    }
}
