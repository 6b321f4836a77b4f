//! Typed failures for the verification engines.
//!
//! The checkers never panic on malformed or degenerate geometry: every
//! internal invariant that used to be an `expect` is now a `VerifyError`
//! variant that propagates out of `drc::check` / `extract` and is
//! surfaced through `CellVerifyReport::error` (and, for design-level
//! passes, `VerifyReport::error`), so a corrupt shape list degrades a
//! report to DIRTY instead of aborting the compile.

use bisram_geom::Rect;
use bisram_tech::Layer;

use crate::schematic::ComposeError;

/// A non-recoverable inconsistency met while verifying a cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// LVS was requested for a cell whose schematic is not registered.
    MissingSchematic {
        /// Name of the geometry-bearing cell without a schematic.
        cell: String,
    },
    /// A poly and an active rectangle report as overlapping but their
    /// intersection is empty or zero-area, so no gate can be formed.
    DegenerateGateOverlap {
        /// The poly rectangle of the inconsistent pair.
        poly: Rect,
        /// The active rectangle of the inconsistent pair.
        active: Rect,
    },
    /// A layer that is not part of the conductor stack reached a code
    /// path that requires one (e.g. a contact-table entry).
    UnexpectedLayer {
        /// The offending layer.
        layer: Layer,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // Byte-identical to `ComposeError::MissingSchematic` so that
            // reports keep their historical text.
            VerifyError::MissingSchematic { cell } => {
                write!(f, "no schematic registered for cell '{cell}'")
            }
            VerifyError::DegenerateGateOverlap { poly, active } => {
                write!(
                    f,
                    "degenerate gate overlap between poly {poly} and active {active}"
                )
            }
            VerifyError::UnexpectedLayer { layer } => {
                write!(
                    f,
                    "unexpected non-conductor layer {layer} in connectivity table"
                )
            }
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<ComposeError> for VerifyError {
    fn from(e: ComposeError) -> Self {
        match e {
            ComposeError::MissingSchematic { cell } => VerifyError::MissingSchematic { cell },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_schematic_text_matches_compose_error() {
        let compose = ComposeError::MissingSchematic {
            cell: "sram6t".into(),
        };
        let verify: VerifyError = compose.clone().into();
        assert_eq!(compose.to_string(), verify.to_string());
    }

    #[test]
    fn variants_render_their_operands() {
        let e = VerifyError::DegenerateGateOverlap {
            poly: Rect::new(0, 0, 4, 4),
            active: Rect::new(4, 0, 8, 4),
        };
        assert!(e.to_string().contains("degenerate gate overlap"));
        let e = VerifyError::UnexpectedLayer {
            layer: Layer::Contact,
        };
        assert!(e.to_string().contains("contact"));
    }
}
