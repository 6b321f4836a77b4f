//! User parameters of a RAM compilation (paper §II).
//!
//! "The parameters explicitly specified by the user include: bpc, bpw,
//! number of words, number of spare rows (4, 8, or 16), size of critical
//! gates in the RAM circuitry, and the strap space."

use bisram_mem::{ArrayOrg, OrgError};
use bisram_tech::{Process, ProcessError};

/// Validation errors for [`RamParams`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamError {
    /// The array geometry is inconsistent (delegated to the memory
    /// organization rules: bpc a power of two, whole power-of-two rows,
    /// word width in range).
    Organization(OrgError),
    /// The selected process cannot host a BISR RAM.
    Process(ProcessError),
    /// Critical-gate size factor below 1.
    GateSizeTooSmall {
        /// Offending factor.
        factor: i64,
    },
    /// Strap space too small to satisfy the widest same-layer spacing
    /// rule (the n-well needs 9λ; the compiler enforces ≥ 12λ or zero).
    StrapSpaceTooSmall {
        /// Offending strap space in lambda.
        lambda: i64,
    },
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamError::Organization(e) => write!(f, "array organization: {e}"),
            ParamError::Process(e) => write!(f, "process: {e}"),
            ParamError::GateSizeTooSmall { factor } => {
                write!(
                    f,
                    "critical-gate size factor {factor} is below minimum size 1"
                )
            }
            ParamError::StrapSpaceTooSmall { lambda } => write!(
                f,
                "strap space {lambda} lambda is below the 12 lambda the well spacing rule needs"
            ),
        }
    }
}

impl std::error::Error for ParamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParamError::Organization(e) => Some(e),
            ParamError::Process(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OrgError> for ParamError {
    fn from(e: OrgError) -> Self {
        ParamError::Organization(e)
    }
}

impl From<ProcessError> for ParamError {
    fn from(e: ProcessError) -> Self {
        ParamError::Process(e)
    }
}

/// Validated compiler parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RamParams {
    org: ArrayOrg,
    process: Process,
    gate_size: i64,
    strap_every: usize,
    strap_lambda: i64,
}

impl RamParams {
    /// Starts a builder with the paper's defaults: 4 spare rows, 2×
    /// critical gates, a strap gap of 12λ every 32 columns, on the
    /// CDA 0.7 µm process.
    pub fn builder() -> RamParamsBuilder {
        RamParamsBuilder::default()
    }

    /// The array organization.
    pub fn org(&self) -> &ArrayOrg {
        &self.org
    }

    /// The target process.
    pub fn process(&self) -> &Process {
        &self.process
    }

    /// Critical-gate size factor (paper: precharge transistors and
    /// word-line drivers are made larger than minimal size).
    pub fn gate_size(&self) -> i64 {
        self.gate_size
    }

    /// Columns between straps (0 = no straps).
    pub fn strap_every(&self) -> usize {
        self.strap_every
    }

    /// Strap gap width in lambda.
    pub fn strap_lambda(&self) -> i64 {
        self.strap_lambda
    }

    /// Whether the TLB delay-masking guarantee of paper §VI applies:
    /// "BISRAMGEN will allow a user to generate a RAM array with more
    /// spares but will not be able to guarantee that the TLB delay
    /// penalty can be masked." The guarantee holds for the standard
    /// spare counts.
    pub fn delay_masking_guaranteed(&self) -> bool {
        matches!(self.org.spare_rows(), 1..=4)
    }

    /// Memory capacity in bits.
    pub fn capacity_bits(&self) -> usize {
        self.org.capacity_bits()
    }
}

impl std::fmt::Display for RamParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} in {} (gates x{}, strap {}l/{} cols)",
            self.org,
            self.process.name(),
            self.gate_size,
            self.strap_lambda,
            self.strap_every
        )
    }
}

/// Builder for [`RamParams`].
#[derive(Debug, Clone)]
pub struct RamParamsBuilder {
    words: usize,
    bpw: usize,
    bpc: usize,
    spare_rows: usize,
    process: Process,
    gate_size: i64,
    strap_every: usize,
    strap_lambda: i64,
}

impl Default for RamParamsBuilder {
    fn default() -> Self {
        RamParamsBuilder {
            words: 1024,
            bpw: 8,
            bpc: 4,
            spare_rows: 4,
            process: Process::cda07(),
            gate_size: 2,
            strap_every: 32,
            strap_lambda: 12,
        }
    }
}

impl RamParamsBuilder {
    /// Number of addressable words.
    pub fn words(mut self, words: usize) -> Self {
        self.words = words;
        self
    }

    /// Bits per word (`bpw`).
    pub fn bits_per_word(mut self, bpw: usize) -> Self {
        self.bpw = bpw;
        self
    }

    /// Bits per column (`bpc`, must be a power of two).
    pub fn bits_per_column(mut self, bpc: usize) -> Self {
        self.bpc = bpc;
        self
    }

    /// Spare rows (4, 8 or 16 carry the paper's delay-masking
    /// guarantee; other values compile with the guarantee withdrawn).
    pub fn spare_rows(mut self, spares: usize) -> Self {
        self.spare_rows = spares;
        self
    }

    /// Target CMOS process.
    pub fn process(mut self, process: Process) -> Self {
        self.process = process;
        self
    }

    /// Critical-gate size factor (≥ 1).
    pub fn gate_size(mut self, factor: i64) -> Self {
        self.gate_size = factor;
        self
    }

    /// Strap space: a gap of `lambda` λ every `every` columns. `every`
    /// of 0 disables straps.
    pub fn strap(mut self, every: usize, lambda: i64) -> Self {
        self.strap_every = every;
        self.strap_lambda = lambda;
        self
    }

    /// Validates and builds.
    ///
    /// # Errors
    ///
    /// See [`ParamError`].
    pub fn build(self) -> Result<RamParams, ParamError> {
        if self.gate_size < 1 {
            return Err(ParamError::GateSizeTooSmall {
                factor: self.gate_size,
            });
        }
        if self.strap_every > 0 && self.strap_lambda < 12 {
            return Err(ParamError::StrapSpaceTooSmall {
                lambda: self.strap_lambda,
            });
        }
        let org = ArrayOrg::new(self.words, self.bpw, self.bpc, self.spare_rows)?;
        Ok(RamParams {
            org,
            process: self.process,
            gate_size: self.gate_size,
            strap_every: self.strap_every,
            strap_lambda: self.strap_lambda,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisram_mem::OrgError;

    #[test]
    fn defaults_build() {
        let p = RamParams::builder().build().unwrap();
        assert_eq!(p.org().words(), 1024);
        assert!(p.delay_masking_guaranteed());
        assert_eq!(p.capacity_bits(), 8192);
        assert!(p.to_string().contains("CDA.7u3m1p"));
    }

    #[test]
    fn organization_errors_propagate() {
        let e = RamParams::builder().bits_per_column(3).build().unwrap_err();
        assert_eq!(
            e,
            ParamError::Organization(OrgError::BpcNotPowerOfTwo { bpc: 3 })
        );
        assert!(e.to_string().contains("power of two"));
    }

    #[test]
    fn gate_size_validated() {
        let e = RamParams::builder().gate_size(0).build().unwrap_err();
        assert_eq!(e, ParamError::GateSizeTooSmall { factor: 0 });
    }

    #[test]
    fn strap_space_validated() {
        let e = RamParams::builder().strap(32, 8).build().unwrap_err();
        assert_eq!(e, ParamError::StrapSpaceTooSmall { lambda: 8 });
        // Disabled straps skip the check.
        assert!(RamParams::builder().strap(0, 0).build().is_ok());
    }

    #[test]
    fn many_spares_withdraw_the_masking_guarantee() {
        let p = RamParams::builder().spare_rows(16).build().unwrap();
        assert!(!p.delay_masking_guaranteed());
        // But it still compiles — the paper allows it.
        assert_eq!(p.org().spare_rows(), 16);
    }

    #[test]
    fn fig6_parameters_build() {
        // Fig. 6: 4K words of 128 bits, bpc 8, 32 cells between straps,
        // 4 spare rows, buffer size 2.
        let p = RamParams::builder()
            .words(4096)
            .bits_per_word(128)
            .bits_per_column(8)
            .spare_rows(4)
            .gate_size(2)
            .strap(32, 12)
            .build()
            .unwrap();
        assert_eq!(p.capacity_bits() / 8 / 1024, 64, "64 kB");
    }
}
