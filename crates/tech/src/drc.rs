//! A flat design-rule checker.
//!
//! The checker validates a bag of `(Layer, Rect)` shapes against the
//! process's minimum-width and same-layer minimum-spacing rules. Shapes on
//! the same layer that touch or overlap are treated as connected (merged)
//! and are exempt from the spacing rule between themselves, which matches
//! how the leaf-cell generators compose rectangles into wires and devices.
//!
//! The layout crate runs this over every generated leaf cell in its test
//! suite, which is what makes the "design-rule independent generation"
//! claim checkable.
//!
//! Since the `bisram-verify` crate landed, the core here is the shared
//! scanline sweep from [`bisram_geom::sweep`] rather than the original
//! all-pairs loop; the old loop survives as [`check_pairwise`], kept only
//! as a reference baseline for equivalence tests and the
//! `verify_throughput` bench.

use crate::{DesignRules, Layer};
use bisram_geom::{sweep, Rect};

/// The classes of geometric design rules a checker can evaluate.
///
/// [`check`] in this crate evaluates only [`Width`](RuleClass::Width) and
/// [`Spacing`](RuleClass::Spacing); the full set is evaluated by the DRC
/// engine in `bisram-verify`. Reports carry the evaluated classes so that
/// "clean" can never silently mean "clean under a subset nobody looked at".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleClass {
    /// Minimum width of a shape on a layer.
    Width,
    /// Minimum same-layer spacing between unconnected shapes.
    Spacing,
    /// Minimum conductor enclosure of a contact/via cut.
    CutEnclosure,
    /// Minimum poly extension past the gate (poly endcap).
    GateExtension,
    /// Minimum diffusion extension past the gate (source/drain landing).
    SdExtension,
    /// Minimum spacing between poly and unrelated diffusion.
    PolyActiveSpace,
    /// Minimum well enclosure of diffusion inside it.
    WellEnclosure,
    /// Minimum select enclosure of the diffusion it implants.
    SelectEnclosure,
}

impl RuleClass {
    /// All rule classes, in reporting order.
    pub const ALL: [RuleClass; 8] = [
        RuleClass::Width,
        RuleClass::Spacing,
        RuleClass::CutEnclosure,
        RuleClass::GateExtension,
        RuleClass::SdExtension,
        RuleClass::PolyActiveSpace,
        RuleClass::WellEnclosure,
        RuleClass::SelectEnclosure,
    ];
}

impl std::fmt::Display for RuleClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            RuleClass::Width => "width",
            RuleClass::Spacing => "spacing",
            RuleClass::CutEnclosure => "cut-enclosure",
            RuleClass::GateExtension => "gate-extension",
            RuleClass::SdExtension => "sd-extension",
            RuleClass::PolyActiveSpace => "poly-active-space",
            RuleClass::WellEnclosure => "well-enclosure",
            RuleClass::SelectEnclosure => "select-enclosure",
        };
        f.write_str(name)
    }
}

/// A single design-rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A shape is narrower than the layer's minimum width.
    Width {
        /// Offending layer.
        layer: Layer,
        /// Offending shape.
        rect: Rect,
        /// Observed minimum dimension.
        actual: i64,
        /// Required minimum width.
        required: i64,
    },
    /// Two unconnected shapes on the same layer are closer than the
    /// layer's minimum spacing.
    Spacing {
        /// Offending layer.
        layer: Layer,
        /// First shape.
        a: Rect,
        /// Second shape.
        b: Rect,
        /// Observed spacing.
        actual: i64,
        /// Required minimum spacing.
        required: i64,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Width {
                layer,
                rect,
                actual,
                required,
            } => write!(
                f,
                "width violation on {layer}: {rect} is {actual} wide, needs {required}"
            ),
            Violation::Spacing {
                layer,
                a,
                b,
                actual,
                required,
            } => write!(
                f,
                "spacing violation on {layer}: {a} and {b} are {actual} apart, need {required}"
            ),
        }
    }
}

/// The result of a [`check_report`] run: the violations found plus the
/// rule classes that were actually evaluated, so callers can tell a clean
/// full check from a clean partial one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrcReport {
    /// All violations found (empty ⇒ clean *for the evaluated classes*).
    pub violations: Vec<Violation>,
    /// Which rule classes this run evaluated.
    pub evaluated: Vec<RuleClass>,
}

impl DrcReport {
    /// True when no violations were found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks shapes against width and same-layer spacing rules.
///
/// `shapes` is any iterator of `(Layer, Rect)` pairs — the layout crate's
/// cells flatten to exactly this. Returns all violations found (empty ⇒
/// clean).
///
/// Connectivity for the spacing exemption is computed with a union–find
/// over touching shapes per layer; candidate pairs come from the scanline
/// sweep in [`bisram_geom::sweep`], so the cost is near-linear on tiled
/// layouts instead of quadratic.
///
/// **Deprecation note:** this checker only covers the width and spacing
/// rule classes (see [`DrcReport::evaluated`] via [`check_report`]).
/// New code should run the full-coverage engine in `bisram-verify`, which
/// also checks enclosures, extensions, and poly/active spacing; this
/// entry point is kept because its two rules and its exact output
/// ordering are baked into the leaf-generator test contracts.
///
/// ```
/// use bisram_tech::{drc, DesignRules, Layer};
/// use bisram_geom::Rect;
///
/// let rules = DesignRules::scmos(100);
/// // Two metal1 shapes 100 nm apart; metal1 needs 300.
/// let shapes = vec![
///     (Layer::Metal1, Rect::new(0, 0, 300, 300)),
///     (Layer::Metal1, Rect::new(400, 0, 700, 300)),
/// ];
/// let violations = drc::check(&rules, shapes);
/// assert_eq!(violations.len(), 1);
/// ```
pub fn check<I>(rules: &DesignRules, shapes: I) -> Vec<Violation>
where
    I: IntoIterator<Item = (Layer, Rect)>,
{
    check_report(rules, shapes).violations
}

/// Like [`check`], but returns the violations together with the list of
/// rule classes that were evaluated ([`RuleClass::Width`] and
/// [`RuleClass::Spacing`] for this checker).
pub fn check_report<I>(rules: &DesignRules, shapes: I) -> DrcReport
where
    I: IntoIterator<Item = (Layer, Rect)>,
{
    let mut by_layer: Vec<(Layer, Vec<Rect>)> = Vec::new();
    for (layer, rect) in shapes {
        if rect.is_degenerate() {
            continue;
        }
        match by_layer.iter_mut().find(|(l, _)| *l == layer) {
            Some((_, v)) => v.push(rect),
            None => by_layer.push((layer, vec![rect])),
        }
    }

    let mut violations = Vec::new();
    for (layer, rects) in &by_layer {
        let min_w = rules.min_width(*layer);
        let min_s = rules.min_space(*layer);
        let n = rects.len();

        // One sweep wide enough for every question asked below: coverage
        // (spacing 0), connectivity (spacing 0), and spacing violations
        // (spacing < min_s).
        let window = (min_s - 1).max(0);
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        sweep::pair_sweep(rects, window, |i, j| pairs.push((i, j)));
        // The sweep emits in left-edge order; the public contract (and the
        // legacy checker) order by original shape index.
        pairs.sort_unstable();

        let mut covered = vec![false; n];
        let mut uf = sweep::UnionFind::new(n);
        for &(i, j) in &pairs {
            let (a, b) = (rects[i], rects[j]);
            // A shape narrower than min width is legal if it is a stub
            // fully covered by strictly larger connected metal; the
            // `a != b` guard keeps exact duplicates from exempting each
            // other, matching the original pairwise checker.
            if a != b {
                if b.contains_rect(a) && b.area() > a.area() {
                    covered[i] = true;
                }
                if a.contains_rect(b) && a.area() > b.area() {
                    covered[j] = true;
                }
            }
            if a.touches(b) {
                uf.union(i, j);
            }
        }

        for (i, &r) in rects.iter().enumerate() {
            if r.min_dimension() < min_w && !covered[i] {
                violations.push(Violation::Width {
                    layer: *layer,
                    rect: r,
                    actual: r.min_dimension(),
                    required: min_w,
                });
            }
        }

        for &(i, j) in &pairs {
            if uf.find(i) == uf.find(j) {
                continue;
            }
            let s = rects[i].spacing(rects[j]);
            if s < min_s {
                violations.push(Violation::Spacing {
                    layer: *layer,
                    a: rects[i],
                    b: rects[j],
                    actual: s,
                    required: min_s,
                });
            }
        }
    }
    DrcReport {
        violations,
        evaluated: vec![RuleClass::Width, RuleClass::Spacing],
    }
}

/// The original O(n²) all-pairs checker, byte-for-byte equivalent to
/// [`check`] in its output.
///
/// Kept as the reference baseline: the unit tests assert scanline/pairwise
/// equivalence on randomized layouts, and the `verify_throughput` bench
/// measures the scanline speedup against it. Do not use it on macrocell
/// flattenings — that is exactly the quadratic blow-up the sweep removes.
pub fn check_pairwise<I>(rules: &DesignRules, shapes: I) -> Vec<Violation>
where
    I: IntoIterator<Item = (Layer, Rect)>,
{
    let mut by_layer: Vec<(Layer, Vec<Rect>)> = Vec::new();
    for (layer, rect) in shapes {
        if rect.is_degenerate() {
            continue;
        }
        match by_layer.iter_mut().find(|(l, _)| *l == layer) {
            Some((_, v)) => v.push(rect),
            None => by_layer.push((layer, vec![rect])),
        }
    }

    let mut violations = Vec::new();
    for (layer, rects) in &by_layer {
        let min_w = rules.min_width(*layer);
        let min_s = rules.min_space(*layer);

        for &r in rects {
            let covered = rects
                .iter()
                .any(|&o| o != r && o.contains_rect(r) && o.area() > r.area());
            if r.min_dimension() < min_w && !covered {
                violations.push(Violation::Width {
                    layer: *layer,
                    rect: r,
                    actual: r.min_dimension(),
                    required: min_w,
                });
            }
        }

        let n = rects.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if rects[i].touches(rects[j]) {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    parent[ri] = rj;
                }
            }
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if find(&mut parent, i) == find(&mut parent, j) {
                    continue;
                }
                let s = rects[i].spacing(rects[j]);
                if s < min_s {
                    violations.push(Violation::Spacing {
                        layer: *layer,
                        a: rects[i],
                        b: rects[j],
                        actual: s,
                        required: min_s,
                    });
                }
            }
        }
    }
    violations
}

/// Convenience wrapper asserting a clean check, with a readable panic
/// message listing up to the first five violations.
///
/// Evaluates the same two rule classes as [`check`]; full-coverage
/// assertions live in `bisram-verify`.
///
/// # Panics
///
/// Panics when any violation is found; intended for test suites.
pub fn assert_clean<I>(rules: &DesignRules, shapes: I, context: &str)
where
    I: IntoIterator<Item = (Layer, Rect)>,
{
    let report = check_report(rules, shapes);
    if !report.is_clean() {
        let mut msg = format!("{context}: {} DRC violation(s):\n", report.violations.len());
        for v in report.violations.iter().take(5) {
            msg.push_str(&format!("  - {v}\n"));
        }
        panic!("{msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisram_rng::rngs::StdRng;
    use bisram_rng::{Rng, SeedableRng};

    fn rules() -> DesignRules {
        DesignRules::scmos(100) // metal1: w=300 s=300; poly: w=200 s=200
    }

    #[test]
    fn clean_layout_passes() {
        let shapes = vec![
            (Layer::Metal1, Rect::new(0, 0, 300, 2000)),
            (Layer::Metal1, Rect::new(600, 0, 900, 2000)),
            (Layer::Poly, Rect::new(0, 0, 200, 500)),
        ];
        assert!(check(&rules(), shapes).is_empty());
    }

    #[test]
    fn narrow_shape_flagged() {
        let shapes = vec![(Layer::Metal1, Rect::new(0, 0, 200, 1000))];
        let v = check(&rules(), shapes);
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            Violation::Width {
                layer: Layer::Metal1,
                actual: 200,
                required: 300,
                ..
            }
        ));
    }

    #[test]
    fn close_shapes_flagged_but_touching_exempt() {
        // Touching shapes are connected: no spacing violation.
        let connected = vec![
            (Layer::Metal1, Rect::new(0, 0, 300, 300)),
            (Layer::Metal1, Rect::new(300, 0, 600, 300)),
        ];
        assert!(check(&rules(), connected).is_empty());

        // 100 nm gap on metal1 violates the 300 nm rule.
        let apart = vec![
            (Layer::Metal1, Rect::new(0, 0, 300, 300)),
            (Layer::Metal1, Rect::new(400, 0, 700, 300)),
        ];
        let v = check(&rules(), apart);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], Violation::Spacing { actual: 100, .. }));
    }

    #[test]
    fn transitive_connectivity_exempts_spacing() {
        // a touches b, b touches c; a and c are 100 apart diagonally but
        // connected through b, so no violation.
        let shapes = vec![
            (Layer::Metal1, Rect::new(0, 0, 300, 300)),
            (Layer::Metal1, Rect::new(300, 0, 600, 300)),
            (Layer::Metal1, Rect::new(600, 0, 900, 300)),
        ];
        assert!(check(&rules(), shapes).is_empty());
    }

    #[test]
    fn covered_stub_not_a_width_violation() {
        let shapes = vec![
            (Layer::Metal1, Rect::new(0, 0, 1000, 1000)),
            (Layer::Metal1, Rect::new(10, 10, 110, 60)), // thin, but covered
        ];
        assert!(check(&rules(), shapes).is_empty());
    }

    #[test]
    fn degenerate_shapes_ignored() {
        let shapes = vec![(Layer::Metal1, Rect::new(0, 0, 0, 500))];
        assert!(check(&rules(), shapes).is_empty());
    }

    #[test]
    #[should_panic(expected = "DRC violation")]
    fn assert_clean_panics_on_violation() {
        assert_clean(
            &rules(),
            vec![(Layer::Metal1, Rect::new(0, 0, 100, 100))],
            "unit test",
        );
    }

    #[test]
    fn different_layers_do_not_interact() {
        let shapes = vec![
            (Layer::Metal1, Rect::new(0, 0, 300, 300)),
            (Layer::Metal2, Rect::new(310, 0, 610, 300)),
        ];
        assert!(check(&rules(), shapes).is_empty());
    }

    #[test]
    fn violation_display_is_informative() {
        let v = check(&rules(), vec![(Layer::Poly, Rect::new(0, 0, 100, 400))]);
        let s = v[0].to_string();
        assert!(
            s.contains("poly") && s.contains("100") && s.contains("200"),
            "{s}"
        );
    }

    #[test]
    fn report_names_evaluated_rule_classes() {
        let report = check_report(&rules(), Vec::new());
        assert!(report.is_clean());
        assert_eq!(report.evaluated, vec![RuleClass::Width, RuleClass::Spacing]);
        assert_eq!(RuleClass::Width.to_string(), "width");
        assert_eq!(RuleClass::ALL.len(), 8);
    }

    #[test]
    fn scanline_matches_pairwise_on_random_layouts() {
        let mut rng = StdRng::seed_from_u64(0xD2C_0003);
        for case in 0..64 {
            let shapes: Vec<(Layer, Rect)> = (0..60)
                .map(|_| {
                    let layer = match rng.gen_range(0u32..3) {
                        0 => Layer::Metal1,
                        1 => Layer::Metal2,
                        _ => Layer::Poly,
                    };
                    let x = rng.gen_range(-2000i64..2000);
                    let y = rng.gen_range(-2000i64..2000);
                    let w = rng.gen_range(0i64..900);
                    let h = rng.gen_range(0i64..900);
                    (layer, Rect::new(x, y, x + w, y + h))
                })
                .collect();
            let fast = check(&rules(), shapes.clone());
            let slow = check_pairwise(&rules(), shapes);
            assert_eq!(fast, slow, "case {case}");
        }
    }

    // Deterministic seeded sweeps replacing the proptest strategies;
    // failing geometry is named in each assert.

    #[test]
    fn far_apart_wide_shapes_always_clean() {
        let mut rng = StdRng::seed_from_u64(0xD2C_0001);
        for case in 0..256 {
            let w = rng.gen_range(300i64..1000);
            let h = rng.gen_range(300i64..1000);
            let gap = rng.gen_range(300i64..2000);
            let shapes = vec![
                (Layer::Metal1, Rect::new(0, 0, w, h)),
                (Layer::Metal1, Rect::new(w + gap, 0, 2 * w + gap, h)),
            ];
            let v = check(&rules(), shapes);
            assert!(v.is_empty(), "case {case}: w={w} h={h} gap={gap}: {v:?}");
        }
    }

    #[test]
    fn single_wide_shape_always_clean() {
        let mut rng = StdRng::seed_from_u64(0xD2C_0002);
        for case in 0..256 {
            let x = rng.gen_range(-1000i64..1000);
            let y = rng.gen_range(-1000i64..1000);
            let w = rng.gen_range(300i64..5000);
            let h = rng.gen_range(300i64..5000);
            let shapes = vec![(Layer::Metal1, Rect::new(x, y, x + w, y + h))];
            let v = check(&rules(), shapes);
            assert!(v.is_empty(), "case {case}: x={x} y={y} w={w} h={h}: {v:?}");
        }
    }
}
