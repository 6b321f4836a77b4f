//! Physical verification for generated SRAM layouts.
//!
//! Three engines over flattened `(Layer, Rect)` geometry:
//!
//! - [`drc`] — scanline design-rule checking (width, spacing, enclosure,
//!   extension classes) against a process's
//!   [`bisram_tech::DesignRules`];
//! - [`mod@extract`] — connectivity extraction and MOS recognition,
//!   producing a [`graph::NetGraph`];
//! - [`lvs`] — layout-versus-schematic comparison of an extracted graph
//!   against a reference composed from per-leaf schematics
//!   ([`schematic`]).
//!
//! [`verify_cell`] bundles all three for one hierarchical cell and
//! returns a [`CellVerifyReport`].

// Bad geometry surfaces as a typed `VerifyError`, never a panic.
// Enforced by CI clippy.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod drc;
pub mod error;
pub mod extract;
mod gates;
pub mod graph;
pub mod hier;
pub mod lvs;
pub mod report;
pub mod schematic;

pub use drc::DrcViolation;
pub use error::VerifyError;
pub use extract::{extract, Extracted};
pub use graph::{Device, Net, NetGraph};
pub use hier::{verify_cell_hier, CellCertificate, CertificateStore, MemCertStore, NoCertStore};
pub use lvs::{compare, LvsMismatch, LvsReport, MismatchKind};
pub use report::{CellVerifyReport, VerifyReport};
pub use schematic::{compose, leaf_schematic, CellSchematic, ComposeError, SchematicLib};

use bisram_layout::Cell;
use bisram_tech::DesignRules;

/// Runs DRC, extraction, and LVS on one cell.
///
/// The cell is flattened, design-rule checked against `rules`, extracted
/// to a netlist, and — when a reference can be composed from `lib` —
/// compared against that reference. A composition failure (a cell with
/// geometry but no registered schematic) is reported in
/// [`CellVerifyReport::error`] rather than aborting, so DRC results are
/// still available.
pub fn verify_cell(rules: &DesignRules, cell: &Cell, lib: &SchematicLib) -> CellVerifyReport {
    let shapes = cell.flatten();
    let mut report = CellVerifyReport {
        cell: cell.name().to_string(),
        shape_count: shapes.len(),
        drc: Vec::new(),
        lvs: None,
        error: None,
    };
    match drc::check(rules, &shapes) {
        Ok(v) => report.drc = v,
        Err(e) => {
            report.error = Some(e);
            return report;
        }
    }
    let extracted = match extract(&shapes) {
        Ok(x) => x,
        Err(e) => {
            report.error = Some(e);
            return report;
        }
    };
    match schematic::compose(cell, lib) {
        Ok(reference) => report.lvs = Some(lvs::compare(&extracted.graph, &reference)),
        Err(e) => report.error = Some(e.into()),
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisram_layout::leaf::LeafSpec;
    use bisram_tech::Process;

    #[test]
    fn verify_cell_reports_missing_schematic_without_losing_drc() {
        let process = Process::cda07();
        let cell = LeafSpec::Sram6t.build(&process);
        let report = verify_cell(process.rules(), &cell, &SchematicLib::new());
        assert!(report.lvs.is_none());
        let err = report.error.as_ref().expect("missing schematic error");
        assert_eq!(
            err,
            &VerifyError::MissingSchematic {
                cell: "sram6t".into()
            }
        );
        assert!(err.to_string().contains("sram6t"));
        assert!(!report.is_clean());
    }

    #[test]
    fn verify_cell_clean_leaf_end_to_end() {
        let process = Process::cda07();
        let lib = SchematicLib::standard(&process);
        let cell = LeafSpec::Sram6t.build(&process);
        let report = verify_cell(process.rules(), &cell, &lib);
        assert!(report.is_clean(), "{report}");
        assert!(report.to_string().contains("clean"));
    }
}
