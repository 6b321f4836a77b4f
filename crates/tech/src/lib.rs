//! CMOS process technology descriptions for the BISRAMGEN reproduction.
//!
//! BISRAMGEN is *design-rule independent*: the user selects a 3-metal CMOS
//! process with feature width 0.5 µm or above (the paper names the Cascade
//! Design Automation processes `CDA.5u3m1p` and `CDA.7u3m1p`, and the MOSIS
//! process `mos.6u3m1pHP`), and every leaf cell is constructed from the
//! process's design rules. This crate provides:
//!
//! * the [`Layer`] set of a generic single-poly, triple-metal CMOS process,
//! * lambda-based [`DesignRules`] with per-process scaling,
//! * [`DeviceParams`] (mobilities, oxide capacitance, thresholds, parasitic
//!   capacitances, sheet resistances) feeding the circuit models,
//! * three built-in [`Process`] definitions mirroring the paper's choices.
//!
//! The rules are checked by the one DRC engine, `bisram_verify::drc`,
//! which the layout integration tests run over every generated leaf cell
//! and tiling in every process.
//!
//! # Examples
//!
//! ```
//! use bisram_tech::Process;
//!
//! let p = Process::cda07();
//! assert_eq!(p.metal_layers(), 3);
//! // Minimum metal1 width for a 0.7 µm process (lambda = 350 nm) is 3
//! // lambda = 1050 nm.
//! use bisram_tech::Layer;
//! assert_eq!(p.rules().min_width(Layer::Metal1), 1050);
//! ```

// Invalid processes surface as a typed `ProcessError`, never a panic.
// Enforced by CI clippy.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod device;
mod layer;
mod process;
mod rules;

pub use device::DeviceParams;
pub use layer::Layer;
pub use process::{Process, ProcessError};
pub use rules::DesignRules;
