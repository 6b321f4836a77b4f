//! Functional fault models.
//!
//! These are the inductive-fault-analysis fault classes the IFA-9 test of
//! paper §V targets: "stuck-at and stuck-open faults, transition faults
//! and state coupling faults", plus data-retention faults (the reason for
//! the `Delay` elements in the march notation) and the inversion /
//! idempotent coupling classes that the multiple data backgrounds of the
//! DATAGEN Johnson counter are designed to expose inside a word.

use crate::org::CellIndex;

/// The functional fault *classes* of the IFA taxonomy — the typed key
/// every coverage and diagnosis table is indexed by. The `Display`
/// strings are the classical mnemonics (`SAF`, `TF`, ...) and are part
/// of the stable report format; the enum exists so lookups are checked
/// at compile time instead of through string comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultClass {
    /// Stuck-at faults.
    Saf,
    /// Transition faults (both directions).
    Tf,
    /// Stuck-open faults.
    Sof,
    /// Inversion coupling faults.
    CfIn,
    /// Idempotent coupling faults.
    CfId,
    /// State coupling faults.
    CfSt,
    /// Data-retention faults.
    Drf,
}

impl FaultClass {
    /// Every class, in the canonical report order.
    pub const ALL: [FaultClass; 7] = [
        FaultClass::Saf,
        FaultClass::Tf,
        FaultClass::Sof,
        FaultClass::CfIn,
        FaultClass::CfId,
        FaultClass::CfSt,
        FaultClass::Drf,
    ];

    /// The stable mnemonic used in every rendered report.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultClass::Saf => "SAF",
            FaultClass::Tf => "TF",
            FaultClass::Sof => "SOF",
            FaultClass::CfIn => "CFin",
            FaultClass::CfId => "CFid",
            FaultClass::CfSt => "CFst",
            FaultClass::Drf => "DRF",
        }
    }

    /// True for the coupling classes (those carrying an aggressor).
    pub fn is_coupling(self) -> bool {
        matches!(self, FaultClass::CfIn | FaultClass::CfId | FaultClass::CfSt)
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The kind of a single-cell (or cell-pair) functional fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Cell reads as a constant.
    StuckAt(bool),
    /// Cell cannot make a 0→1 transition (`TF⟨↑⟩`).
    TransitionUp,
    /// Cell cannot make a 1→0 transition (`TF⟨↓⟩`).
    TransitionDown,
    /// Cell is disconnected: writes are lost and a read returns whatever
    /// the I/O subarray's sense amplifier last produced (the classical
    /// stuck-open behaviour in a static RAM).
    StuckOpen,
    /// Inversion coupling `CFin`: a transition of the aggressor cell in
    /// the given direction (`rising`) inverts this cell.
    CouplingInv {
        /// Aggressor cell index.
        aggressor: CellIndex,
        /// Direction of the sensitizing aggressor transition.
        rising: bool,
    },
    /// Idempotent coupling `CFid`: a transition of the aggressor in the
    /// given direction forces this cell to `forced`.
    CouplingIdem {
        /// Aggressor cell index.
        aggressor: CellIndex,
        /// Direction of the sensitizing aggressor transition.
        rising: bool,
        /// Value forced onto the victim.
        forced: bool,
    },
    /// State coupling `CFst`: while the aggressor sits in `state`, this
    /// cell is forced to `forced` (evaluated whenever the aggressor is
    /// written into `state`).
    StateCoupling {
        /// Aggressor cell index.
        aggressor: CellIndex,
        /// Sensitizing aggressor state.
        state: bool,
        /// Value forced onto the victim.
        forced: bool,
    },
    /// Data-retention fault `DRF`: after a retention pause (the ~100 ms
    /// tristate window of §V), the cell leaks to `leaks_to`.
    Retention {
        /// Value the defective cell decays to.
        leaks_to: bool,
    },
}

impl FaultKind {
    /// True for faults involving a second (aggressor) cell.
    pub fn is_coupling(self) -> bool {
        matches!(
            self,
            FaultKind::CouplingInv { .. }
                | FaultKind::CouplingIdem { .. }
                | FaultKind::StateCoupling { .. }
        )
    }

    /// The aggressor cell for coupling faults.
    pub fn aggressor(self) -> Option<CellIndex> {
        match self {
            FaultKind::CouplingInv { aggressor, .. }
            | FaultKind::CouplingIdem { aggressor, .. }
            | FaultKind::StateCoupling { aggressor, .. } => Some(aggressor),
            _ => None,
        }
    }

    /// The typed fault class (rendered as `SAF`, `TF`, `SOF`, `CFin`,
    /// `CFid`, `CFst`, `DRF` in coverage reports).
    pub fn class(&self) -> FaultClass {
        match self {
            FaultKind::StuckAt(_) => FaultClass::Saf,
            FaultKind::TransitionUp | FaultKind::TransitionDown => FaultClass::Tf,
            FaultKind::StuckOpen => FaultClass::Sof,
            FaultKind::CouplingInv { .. } => FaultClass::CfIn,
            FaultKind::CouplingIdem { .. } => FaultClass::CfId,
            FaultKind::StateCoupling { .. } => FaultClass::CfSt,
            FaultKind::Retention { .. } => FaultClass::Drf,
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::StuckAt(v) => write!(f, "SAF/{}", *v as u8),
            FaultKind::TransitionUp => write!(f, "TF<up>"),
            FaultKind::TransitionDown => write!(f, "TF<down>"),
            FaultKind::StuckOpen => write!(f, "SOF"),
            FaultKind::CouplingInv { aggressor, rising } => {
                write!(
                    f,
                    "CFin<{}{}>",
                    if *rising { "up" } else { "down" },
                    aggressor
                )
            }
            FaultKind::CouplingIdem {
                aggressor,
                rising,
                forced,
            } => write!(
                f,
                "CFid<{}{};{}>",
                if *rising { "up" } else { "down" },
                aggressor,
                *forced as u8
            ),
            FaultKind::StateCoupling {
                aggressor,
                state,
                forced,
            } => write!(f, "CFst<{}={};{}>", aggressor, *state as u8, *forced as u8),
            FaultKind::Retention { leaks_to } => write!(f, "DRF/{}", *leaks_to as u8),
        }
    }
}

/// A row-level address-decoder fault (`AF`).
///
/// Decoder faults act on whole physical rows rather than single cells:
/// a defective decoder either fails to select its row or co-selects a
/// second row. March tests detect both (it is the original claim behind
/// MATS+), and row-replacement BISR repairs them outright — the row is
/// simply never selected once the TLB diverts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowFault {
    /// The word line never asserts: reads float (the sense amplifiers
    /// repeat their previous values), writes are lost.
    NoAccess,
    /// Accessing this row also activates `other`: writes land in both
    /// rows; a read returns the wired-OR of the two rows' cells.
    AliasedWith {
        /// The co-selected physical row.
        other: usize,
    },
}

impl std::fmt::Display for RowFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RowFault::NoAccess => write!(f, "AF/no-access"),
            RowFault::AliasedWith { other } => write!(f, "AF/aliased-with-{other}"),
        }
    }
}

/// A fault instance: a victim cell plus the fault kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// Victim cell index in the physical array (spare rows included).
    pub cell: CellIndex,
    /// Fault kind.
    pub kind: FaultKind,
}

impl Fault {
    /// Creates a fault instance.
    pub fn new(cell: CellIndex, kind: FaultKind) -> Self {
        Fault { cell, kind }
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} @ cell {}", self.kind, self.cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_and_aggressors() {
        assert_eq!(FaultKind::StuckAt(true).class(), FaultClass::Saf);
        assert_eq!(FaultKind::TransitionUp.class(), FaultClass::Tf);
        assert_eq!(FaultKind::StuckOpen.class(), FaultClass::Sof);
        let cf = FaultKind::CouplingInv {
            aggressor: 42,
            rising: true,
        };
        assert_eq!(cf.class(), FaultClass::CfIn);
        assert!(cf.is_coupling());
        assert_eq!(cf.aggressor(), Some(42));
        assert_eq!(FaultKind::StuckAt(false).aggressor(), None);
        assert!(!FaultKind::Retention { leaks_to: false }.is_coupling());
    }

    #[test]
    fn display_is_compact() {
        let f = Fault::new(7, FaultKind::StuckAt(true));
        assert_eq!(f.to_string(), "SAF/1 @ cell 7");
        let f = Fault::new(
            3,
            FaultKind::StateCoupling {
                aggressor: 9,
                state: true,
                forced: false,
            },
        );
        assert!(f.to_string().contains("CFst"));
    }

    #[test]
    fn class_mnemonics_are_the_stable_report_strings() {
        // The Display strings are a frozen report format: coverage
        // tables, datasheets and CI greps all key on them.
        let expect = ["SAF", "TF", "SOF", "CFin", "CFid", "CFst", "DRF"];
        for (class, s) in FaultClass::ALL.iter().zip(expect) {
            assert_eq!(class.as_str(), s);
            assert_eq!(class.to_string(), s);
        }
        assert!(FaultClass::CfSt.is_coupling());
        assert!(!FaultClass::Drf.is_coupling());
    }
}
