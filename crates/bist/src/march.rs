//! March-test notation and the built-in test library.
//!
//! A march test is a sequence of *march elements*; each element walks the
//! address space in a direction (⇑ ascending, ⇓ descending, ⇕ either) and
//! applies a fixed sequence of operations at every address before moving
//! on. `r0`/`r1` read and expect the current data background (or its
//! complement); `w0`/`w1` write it. A `Delay` element is the retention
//! pause of the IFA tests.

/// One memory operation inside a march element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MarchOp {
    /// Read, expect the background pattern ("0").
    R0,
    /// Read, expect the complemented background ("1").
    R1,
    /// Write the background pattern ("0").
    W0,
    /// Write the complemented background ("1").
    W1,
}

impl MarchOp {
    /// True for reads.
    pub fn is_read(self) -> bool {
        matches!(self, MarchOp::R0 | MarchOp::R1)
    }

    /// True when the op refers to the complemented background.
    pub fn is_inverse(self) -> bool {
        matches!(self, MarchOp::R1 | MarchOp::W1)
    }
}

impl std::fmt::Display for MarchOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MarchOp::R0 => "r0",
            MarchOp::R1 => "r1",
            MarchOp::W0 => "w0",
            MarchOp::W1 => "w1",
        };
        f.write_str(s)
    }
}

/// Address sweep direction of a march element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddrOrder {
    /// Ascending (`⇑`).
    Up,
    /// Descending (`⇓`).
    Down,
    /// Direction irrelevant (`⇕`); executed ascending.
    Either,
}

impl AddrOrder {
    /// The concrete direction used during execution.
    pub fn effective_up(self) -> bool {
        !matches!(self, AddrOrder::Down)
    }
}

/// A march element or a retention delay.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MarchElement {
    /// Sweep all addresses applying `ops` at each.
    Sweep {
        /// Address order.
        order: AddrOrder,
        /// Operations applied per address.
        ops: Vec<MarchOp>,
    },
    /// Retention pause (the processor tristates the array for ~100 ms).
    Delay,
}

impl MarchElement {
    /// Ascending sweep.
    pub fn up(ops: &[MarchOp]) -> Self {
        MarchElement::Sweep {
            order: AddrOrder::Up,
            ops: ops.to_vec(),
        }
    }

    /// Descending sweep.
    pub fn down(ops: &[MarchOp]) -> Self {
        MarchElement::Sweep {
            order: AddrOrder::Down,
            ops: ops.to_vec(),
        }
    }

    /// Direction-independent sweep.
    pub fn either(ops: &[MarchOp]) -> Self {
        MarchElement::Sweep {
            order: AddrOrder::Either,
            ops: ops.to_vec(),
        }
    }

    /// Operations per address (0 for `Delay`).
    pub fn ops_per_address(&self) -> usize {
        match self {
            MarchElement::Sweep { ops, .. } => ops.len(),
            MarchElement::Delay => 0,
        }
    }
}

impl std::fmt::Display for MarchElement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MarchElement::Sweep { order, ops } => {
                let arrow = match order {
                    AddrOrder::Up => "^",
                    AddrOrder::Down => "v",
                    AddrOrder::Either => "$",
                };
                let body: Vec<String> = ops.iter().map(|o| o.to_string()).collect();
                write!(f, "{arrow}({})", body.join(","))
            }
            MarchElement::Delay => f.write_str("Delay"),
        }
    }
}

/// A complete march test.
///
/// ```
/// use bisram_bist::march;
/// let t = march::ifa9();
/// assert_eq!(t.name(), "IFA-9");
/// // IFA-9 is a 12N test (plus two delays).
/// assert_eq!(t.ops_per_address(), 12);
/// assert_eq!(t.delay_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarchTest {
    name: String,
    elements: Vec<MarchElement>,
}

impl MarchTest {
    /// Creates a march test from elements.
    ///
    /// # Panics
    ///
    /// Panics if `elements` is empty or any sweep has no operations.
    pub fn new(name: impl Into<String>, elements: Vec<MarchElement>) -> Self {
        assert!(
            !elements.is_empty(),
            "march test needs at least one element"
        );
        for e in &elements {
            if let MarchElement::Sweep { ops, .. } = e {
                assert!(!ops.is_empty(), "march element needs at least one op");
            }
        }
        MarchTest {
            name: name.into(),
            elements,
        }
    }

    /// Test name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The elements.
    pub fn elements(&self) -> &[MarchElement] {
        &self.elements
    }

    /// Total operations applied per address over the whole test (the `N`
    /// multiplier in the usual `kN` complexity notation).
    pub fn ops_per_address(&self) -> usize {
        self.elements.iter().map(|e| e.ops_per_address()).sum()
    }

    /// Number of retention delays.
    pub fn delay_count(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| matches!(e, MarchElement::Delay))
            .count()
    }

    /// Total memory operations when run over `words` addresses with one
    /// data background.
    pub fn operation_count(&self, words: usize) -> u64 {
        self.ops_per_address() as u64 * words as u64
    }
}

impl std::fmt::Display for MarchTest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let parts: Vec<String> = self.elements.iter().map(|e| e.to_string()).collect();
        write!(f, "{}: {}", self.name, parts.join("; "))
    }
}

use MarchOp::{R0, R1, W0, W1};

/// IFA-9 (Dekker et al., via inductive fault analysis, paper ref. \[18\]) — the test
/// BISRAMGEN microprograms into the TRPLA. March notation (paper §V):
/// `⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); Delay; ⇕(r0,w1);
/// Delay; ⇕(r1)`.
pub fn ifa9() -> MarchTest {
    MarchTest::new(
        "IFA-9",
        vec![
            MarchElement::either(&[W0]),
            MarchElement::up(&[R0, W1]),
            MarchElement::up(&[R1, W0]),
            MarchElement::down(&[R0, W1]),
            MarchElement::down(&[R1, W0]),
            MarchElement::Delay,
            MarchElement::either(&[R0, W1]),
            MarchElement::Delay,
            MarchElement::either(&[R1]),
        ],
    )
}

/// IFA-13: the extended IFA test with read-after-write verification used
/// by Chen and Sunada's scheme (paper §III).
pub fn ifa13() -> MarchTest {
    MarchTest::new(
        "IFA-13",
        vec![
            MarchElement::either(&[W0]),
            MarchElement::up(&[R0, W1, R1]),
            MarchElement::up(&[R1, W0, R0]),
            MarchElement::down(&[R0, W1, R1]),
            MarchElement::down(&[R1, W0, R0]),
            MarchElement::Delay,
            MarchElement::either(&[R0, W1]),
            MarchElement::Delay,
            MarchElement::either(&[R1]),
        ],
    )
}

/// MATS+ — the minimal test detecting all stuck-at and address-decoder
/// faults; used as the cheap baseline in the coverage study.
pub fn mats_plus() -> MarchTest {
    MarchTest::new(
        "MATS+",
        vec![
            MarchElement::either(&[W0]),
            MarchElement::up(&[R0, W1]),
            MarchElement::down(&[R1, W0]),
        ],
    )
}

/// March C- — the classic 10N coupling-fault test.
pub fn march_c_minus() -> MarchTest {
    MarchTest::new(
        "March C-",
        vec![
            MarchElement::either(&[W0]),
            MarchElement::up(&[R0, W1]),
            MarchElement::up(&[R1, W0]),
            MarchElement::down(&[R0, W1]),
            MarchElement::down(&[R1, W0]),
            MarchElement::either(&[R0]),
        ],
    )
}

/// March B — 17N, strong on linked coupling and transition faults.
pub fn march_b() -> MarchTest {
    MarchTest::new(
        "March B",
        vec![
            MarchElement::either(&[W0]),
            MarchElement::up(&[R0, W1, R1, W0, R0, W1]),
            MarchElement::up(&[R1, W0, W1]),
            MarchElement::down(&[R1, W0, W1, W0]),
            MarchElement::down(&[R0, W1, W0]),
        ],
    )
}

/// March LR — 14N, designed for linked (overlapping) faults and
/// realistic address-decoder fault combinations.
pub fn march_lr() -> MarchTest {
    MarchTest::new(
        "March LR",
        vec![
            MarchElement::either(&[W0]),
            MarchElement::down(&[R0, W1]),
            MarchElement::up(&[R1, W0, R0, W1]),
            MarchElement::up(&[R1, W0]),
            MarchElement::up(&[R0, W1, R1, W0]),
            MarchElement::up(&[R0]),
        ],
    )
}

/// PMOVI (the DELTA test) — 13N with a read verifying every write,
/// strong on transition faults in both sweeps.
pub fn pmovi() -> MarchTest {
    MarchTest::new(
        "PMOVI",
        vec![
            MarchElement::down(&[W0]),
            MarchElement::up(&[R0, W1, R1]),
            MarchElement::up(&[R1, W0, R0]),
            MarchElement::down(&[R0, W1, R1]),
            MarchElement::down(&[R1, W0, R0]),
        ],
    )
}

/// All built-in tests.
pub fn library() -> Vec<MarchTest> {
    vec![
        ifa9(),
        ifa13(),
        mats_plus(),
        march_c_minus(),
        march_b(),
        march_lr(),
        pmovi(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_properties() {
        assert!(R0.is_read() && R1.is_read());
        assert!(!W0.is_read());
        assert!(R1.is_inverse() && W1.is_inverse());
        assert!(!R0.is_inverse() && !W0.is_inverse());
    }

    #[test]
    fn complexity_multipliers_match_names() {
        assert_eq!(ifa9().ops_per_address(), 12);
        assert_eq!(ifa13().ops_per_address(), 16);
        assert_eq!(mats_plus().ops_per_address(), 5);
        assert_eq!(march_c_minus().ops_per_address(), 10);
        assert_eq!(march_b().ops_per_address(), 17);
        assert_eq!(march_lr().ops_per_address(), 14);
        assert_eq!(pmovi().ops_per_address(), 13);
    }

    #[test]
    fn ifa_tests_contain_retention_delays() {
        assert_eq!(ifa9().delay_count(), 2);
        assert_eq!(ifa13().delay_count(), 2);
        assert_eq!(mats_plus().delay_count(), 0);
    }

    #[test]
    fn display_notation() {
        let s = ifa9().to_string();
        assert!(s.starts_with("IFA-9: $(w0); ^(r0,w1)"), "{s}");
        assert!(s.contains("Delay"));
        assert!(s.contains("v(r1,w0)"));
    }

    #[test]
    fn operation_count_scales_with_words() {
        assert_eq!(ifa9().operation_count(1024), 12 * 1024);
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn empty_test_rejected() {
        MarchTest::new("empty", vec![]);
    }

    #[test]
    #[should_panic(expected = "at least one op")]
    fn empty_element_rejected() {
        MarchTest::new("bad", vec![MarchElement::up(&[])]);
    }

    #[test]
    fn library_names_unique() {
        let names: std::collections::HashSet<_> =
            library().into_iter().map(|t| t.name().to_owned()).collect();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn effective_direction() {
        assert!(AddrOrder::Up.effective_up());
        assert!(AddrOrder::Either.effective_up());
        assert!(!AddrOrder::Down.effective_up());
    }
}
