//! **BISRAMGEN** — a physical design tool for built-in self-repairable
//! static RAMs (reproduction of Chakraborty et al., DATE 1999 / IEEE
//! TVLSI 9(2), 2001).
//!
//! From a set of user-specified geometry parameters and a CMOS process,
//! the compiler builds a library of leaf cells and assembles them
//! bottom-up into a redundant RAM array with built-in self-test (a
//! microprogrammed IFA-9 march controller with Johnson-counter data
//! backgrounds) and built-in self-repair (a TLB that switches faulty
//! rows out and spare rows in), producing:
//!
//! * the hierarchical **layout** with a macrocell floorplan, plus CIF
//!   and SVG exports,
//! * **simulation models**: a behavioural memory wired to the BIST/BISR
//!   machinery, a SPICE deck of the sense path, and the TRPLA control
//!   code as the paper's two personality-plane files,
//! * a **datasheet** with extrapolated access time, cycle time, area and
//!   power, and the TLB delay-masking check of paper §VI,
//! * the **area-overhead report** behind Table I.
//!
//! # Quickstart
//!
//! ```
//! use bisramgen::{RamParams, compile};
//! use bisram_tech::Process;
//!
//! let params = RamParams::builder()
//!     .words(1024)
//!     .bits_per_word(8)
//!     .bits_per_column(4)
//!     .spare_rows(4)
//!     .process(Process::cda07())
//!     .build()?;
//! let ram = compile(&params)?;
//! assert!(ram.areas().overhead_fraction() < 0.07, "paper: at most 7%");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod compiler;
mod datasheet;
mod overhead;
mod params;
pub mod pipeline;

pub use compiler::{compile, compile_with, Areas, CompileError, CompiledRam};
pub use datasheet::{ChipSheet, Datasheet, ReliabilitySheet};
pub use overhead::{overhead_row, OverheadRow};
pub use params::{ParamError, RamParams, RamParamsBuilder};
pub use pipeline::{CellCache, CompileOptions, KindStats, PipelineTrace, VerifyMode};

// Re-export the workspace crates under one roof, matching how the tool
// presents itself as a single entry point.
pub use bisram_bist as bist;
pub use bisram_circuit as circuit;
pub use bisram_diag as diag;
pub use bisram_field as field;
pub use bisram_geom as geom;
pub use bisram_layout as layout;
pub use bisram_mem as mem;
pub use bisram_repair as repair;
pub use bisram_tech as tech;
pub use bisram_yield as yield_model;
