//! The scanline design-rule checker: the one DRC engine of the workspace.
//!
//! [`check`] evaluates every [`RuleClass`] over a flat bag of
//! `(Layer, Rect)` shapes: width and same-layer spacing, plus cut
//! enclosure, gate and source/drain extension, poly-to-diffusion spacing,
//! well enclosure and select enclosure. Signoff, the hierarchical
//! certificates (through [`check_clipped`]) and the layout integration
//! tests all run it. Candidate pairs come from the interval sweep in
//! [`bisram_geom::sweep`], so whole macrocells are checkable; coverage
//! questions use the exact rectangle-subtraction test from the same
//! module.
//!
//! Shapes on the same layer that touch or overlap are connected (merged)
//! and exempt from the spacing rule between themselves, which matches how
//! the leaf-cell generators compose rectangles into wires and devices. A
//! shape narrower than the minimum width is legal when strictly larger
//! metal on its layer covers it.
//!
//! The output order is deterministic: violations are grouped by rule class
//! in [`RuleClass::ALL`] order, then follow layer and input shape order.
//! [`check_pairwise`] is the all-pairs width/spacing reference that the
//! tests and the `verify_throughput` bench compare the engine against.

use crate::error::VerifyError;
use crate::gates;
use bisram_geom::{sweep, Coord, Rect};
use bisram_tech::{DesignRules, Layer};

/// The classes of geometric design rules [`check`] evaluates.
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

/// A single violation from the full checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrcViolation {
    /// Which rule class was violated.
    pub class: RuleClass,
    /// The layer the rule is filed under (the cut layer for enclosures,
    /// poly for gate extension, diffusion for the rest).
    pub layer: Layer,
    /// The offending shape.
    pub rect: Rect,
    /// The other shape involved, when the rule relates two shapes.
    pub other: Option<Rect>,
    /// Observed value (width, spacing or enclosure); negative enclosure
    /// means the shape is not even covered at zero margin.
    pub actual: Coord,
    /// The rule's required value.
    pub required: Coord,
}

impl std::fmt::Display for DrcViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} violation on {}: {}",
            self.class,
            self.layer.name(),
            self.rect
        )?;
        if let Some(o) = self.other {
            write!(f, " vs {o}")?;
        }
        if self.actual < 0 {
            write!(f, ": uncovered, needs {}", self.required)
        } else {
            write!(f, ": actual {}, needs {}", self.actual, self.required)
        }
    }
}

/// Largest margin `d` in `[0, limit]` such that `target.expand(d)` is
/// covered by the union of `covers`; `-1` when even the bare target is
/// uncovered. Callers invoke this only after `expand(limit)` failed.
fn max_enclosure(target: Rect, covers: &[Rect], limit: Coord) -> Coord {
    if !sweep::covered_by(target, covers) {
        return -1;
    }
    let (mut lo, mut hi) = (0, (limit - 1).max(0));
    while lo < hi {
        let mid = (lo + hi + 1) / 2;
        if sweep::covered_by(target.expand(mid), covers) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// Per-target coverage check: for each `targets[i].expand(margin)`, test
/// coverage by the nearby `covers` shapes and report the achieved margin
/// when it falls short. `gate(i)` filters which targets the rule applies
/// to. Returns `(index, achieved)` for failures, in target order.
fn enclosure_failures(
    targets: &[Rect],
    covers: &[Rect],
    margin: Coord,
    gate: impl Fn(usize, &[usize]) -> bool,
) -> Vec<(usize, Coord)> {
    let mut near: Vec<Vec<usize>> = vec![Vec::new(); targets.len()];
    sweep::join_sweep(targets, covers, margin, |ti, ci| near[ti].push(ci));
    let mut failures = Vec::new();
    let mut cands: Vec<Rect> = Vec::new();
    for (i, &t) in targets.iter().enumerate() {
        if !gate(i, &near[i]) {
            continue;
        }
        cands.clear();
        cands.extend(near[i].iter().map(|&c| covers[c]));
        if !sweep::covered_by(t.expand(margin), &cands) {
            failures.push((i, max_enclosure(t, &cands, margin)));
        }
    }
    failures
}

/// The largest distance over which any rule can relate two shapes: the
/// maximum of every same-layer spacing rule and every enclosure or
/// extension margin. Two shapes farther apart than this can never appear
/// in the same violation, which is what makes halo-windowed hierarchical
/// checking sound (see `crate::hier`).
pub fn interaction_distance(rules: &DesignRules) -> Coord {
    let mut d = 0;
    for layer in Layer::ALL {
        d = d.max(rules.min_space(layer));
    }
    d.max(rules.cut_enclosure())
        .max(rules.gate_extension())
        .max(rules.sd_extension())
        .max(rules.poly_active_space())
        .max(rules.well_enclosure())
        .max(rules.select_enclosure())
}

/// Runs [`check`] over a window's shape set and keeps only the findings
/// that touch `keep` — the boundary strip a hierarchical pass owns.
/// Findings whose every shape lies outside `keep` belong to some cell's
/// own certificate and are dropped to avoid double reporting.
pub fn check_clipped(
    rules: &DesignRules,
    shapes: &[(Layer, Rect)],
    keep: Rect,
) -> Result<Vec<DrcViolation>, VerifyError> {
    let mut out = check(rules, shapes)?;
    out.retain(|v| v.rect.touches(keep) || v.other.is_some_and(|o| o.touches(keep)));
    Ok(out)
}

/// The non-degenerate shapes bucketed by layer id, in input order within
/// each layer.
fn by_layer(shapes: &[(Layer, Rect)]) -> Vec<Vec<Rect>> {
    let mut by_layer: Vec<Vec<Rect>> = vec![Vec::new(); Layer::ALL.len()];
    for &(layer, rect) in shapes {
        if !rect.is_degenerate() {
            by_layer[layer.id().index() as usize].push(rect);
        }
    }
    by_layer
}

fn width_violation(layer: Layer, rect: Rect, required: Coord) -> DrcViolation {
    DrcViolation {
        class: RuleClass::Width,
        layer,
        rect,
        other: None,
        actual: rect.min_dimension(),
        required,
    }
}

fn spacing_violation(layer: Layer, a: Rect, b: Rect, required: Coord) -> DrcViolation {
    DrcViolation {
        class: RuleClass::Spacing,
        layer,
        rect: a,
        other: Some(b),
        actual: a.spacing(b),
        required,
    }
}

/// Runs the full eight-class check. Degenerate rectangles are ignored.
///
/// ```
/// use bisram_geom::Rect;
/// use bisram_tech::{DesignRules, Layer};
/// use bisram_verify::drc::{self, RuleClass};
///
/// let rules = DesignRules::scmos(100);
/// // Two metal1 shapes 100 nm apart; metal1 needs 300.
/// let shapes = [
///     (Layer::Metal1, Rect::new(0, 0, 300, 300)),
///     (Layer::Metal1, Rect::new(400, 0, 700, 300)),
/// ];
/// let violations = drc::check(&rules, &shapes)?;
/// assert_eq!(violations.len(), 1);
/// assert_eq!(violations[0].class, RuleClass::Spacing);
/// # Ok::<(), bisram_verify::VerifyError>(())
/// ```
pub fn check(
    rules: &DesignRules,
    shapes: &[(Layer, Rect)],
) -> Result<Vec<DrcViolation>, VerifyError> {
    let by_layer = by_layer(shapes);
    let on = |l: Layer| &by_layer[l.id().index() as usize];

    let mut out: Vec<DrcViolation> = Vec::new();

    // -- Width + spacing, all layers -------------------------------------
    let mut spacing_violations = Vec::new();
    for layer in Layer::ALL {
        let rects = on(layer);
        let (min_w, min_s) = (rules.min_width(layer), rules.min_space(layer));
        let window = (min_s - 1).max(0);
        let mut pairs = Vec::new();
        sweep::pair_sweep(rects, window, |i, j| pairs.push((i, j)));
        pairs.sort_unstable();

        let mut covered = vec![false; rects.len()];
        let mut uf = sweep::UnionFind::new(rects.len());
        for &(i, j) in &pairs {
            let (a, b) = (rects[i], rects[j]);
            // Strictly larger: exact duplicates do not cover each other.
            if b.contains_rect(a) && b.area() > a.area() {
                covered[i] = true;
            }
            if a.contains_rect(b) && a.area() > b.area() {
                covered[j] = true;
            }
            if a.touches(b) {
                uf.union(i, j);
            }
        }
        for (i, &r) in rects.iter().enumerate() {
            if r.min_dimension() < min_w && !covered[i] {
                out.push(width_violation(layer, r, min_w));
            }
        }
        for &(i, j) in &pairs {
            if rects[i].spacing(rects[j]) < min_s && uf.find(i) != uf.find(j) {
                spacing_violations.push(spacing_violation(layer, rects[i], rects[j], min_s));
            }
        }
    }
    out.append(&mut spacing_violations);

    // -- Cut enclosure ----------------------------------------------------
    // Each cut, expanded by the enclosure margin, must be covered by the
    // union of its lower conductor(s) and, separately, its upper metal.
    let enc = rules.cut_enclosure();
    for (cut_layer, lowers, upper) in [
        (
            Layer::Contact,
            &[Layer::Active, Layer::Poly][..],
            Layer::Metal1,
        ),
        (Layer::Via1, &[Layer::Metal1][..], Layer::Metal2),
        (Layer::Via2, &[Layer::Metal2][..], Layer::Metal3),
    ] {
        let cuts = on(cut_layer);
        let mut lower_rects: Vec<Rect> = Vec::new();
        for &l in lowers {
            lower_rects.extend_from_slice(on(l));
        }
        let mut failures: Vec<(usize, Coord)> = Vec::new();
        failures.extend(enclosure_failures(cuts, &lower_rects, enc, |_, _| true));
        failures.extend(enclosure_failures(cuts, on(upper), enc, |_, _| true));
        failures.sort_by_key(|&(i, _)| i);
        for (i, achieved) in failures {
            out.push(DrcViolation {
                class: RuleClass::CutEnclosure,
                layer: cut_layer,
                rect: cuts[i],
                other: None,
                actual: achieved,
                required: enc,
            });
        }
    }

    // -- Gate recognition, shared by the next three classes ---------------
    let (poly, active) = (on(Layer::Poly), on(Layer::Active));
    let hits = gates::find_gates(poly, active)?;

    // Gate extension: every poly/diffusion overlap must be a full crossing
    // with the required endcap; a partial overlap (negative extension) is
    // the worst violation of the same rule.
    let gate_ext = rules.gate_extension();
    let mut ext_violations: Vec<&gates::GateHit> =
        hits.iter().filter(|h| h.ext() < gate_ext).collect();
    ext_violations.sort_by_key(|h| (h.poly, h.active));
    for h in ext_violations {
        out.push(DrcViolation {
            class: RuleClass::GateExtension,
            layer: Layer::Poly,
            rect: poly[h.poly],
            other: Some(active[h.active]),
            actual: h.ext(),
            required: gate_ext,
        });
    }

    // Source/drain extension: along the channel axis, the diffusion must
    // extend past the first and last gate and leave room between adjacent
    // gates, on every diffusion that carries gates.
    let sd_ext = rules.sd_extension();
    let mut hit_cursor = 0usize; // hits are sorted by (active, poly)
    for (ai, &a) in active.iter().enumerate() {
        let start = hit_cursor;
        while hit_cursor < hits.len() && hits[hit_cursor].active == ai {
            hit_cursor += 1;
        }
        let active_hits = &hits[start..hit_cursor];
        for vertical in [true, false] {
            // Work on the interval along the split axis.
            let span = |r: Rect| {
                if vertical {
                    (r.left(), r.right())
                } else {
                    (r.bottom(), r.top())
                }
            };
            let mut gate_spans: Vec<(Coord, Coord, usize)> = active_hits
                .iter()
                .filter(|h| h.crosses() && h.vertical() == vertical)
                .map(|h| {
                    let (lo, hi) = span(h.overlap);
                    (lo, hi, h.poly)
                })
                .collect();
            gate_spans.sort_unstable();
            // A diffusion with no crossing in this direction has no
            // source/drain landings to judge.
            let Some(&(_, last_hi, last_pi)) = gate_spans.last() else {
                continue;
            };
            let (a_lo, a_hi) = span(a);
            let mut edge = a_lo;
            for &(lo, hi, pi) in &gate_spans {
                let margin = lo - edge;
                if margin < sd_ext {
                    out.push(DrcViolation {
                        class: RuleClass::SdExtension,
                        layer: Layer::Active,
                        rect: a,
                        other: Some(poly[pi]),
                        actual: margin,
                        required: sd_ext,
                    });
                }
                edge = edge.max(hi);
            }
            let margin = a_hi - last_hi;
            if margin < sd_ext {
                out.push(DrcViolation {
                    class: RuleClass::SdExtension,
                    layer: Layer::Active,
                    rect: a,
                    other: Some(poly[last_pi]),
                    actual: margin,
                    required: sd_ext,
                });
            }
        }
    }

    // Poly to unrelated diffusion: any poly that comes closer than the
    // rule to a diffusion it does not cross (overlapping pairs are gates,
    // judged above; mere touching is a violation at spacing zero).
    let pas = rules.poly_active_space();
    let mut near: Vec<(usize, usize)> = Vec::new();
    sweep::join_sweep(poly, active, (pas - 1).max(0), |pi, ai| {
        if !poly[pi].overlaps(active[ai]) {
            near.push((pi, ai));
        }
    });
    near.sort_unstable();
    for (pi, ai) in near {
        out.push(DrcViolation {
            class: RuleClass::PolyActiveSpace,
            layer: Layer::Poly,
            rect: poly[pi],
            other: Some(active[ai]),
            actual: poly[pi].spacing(active[ai]),
            required: pas,
        });
    }

    // Well enclosure: a diffusion overlapping a well (a PMOS diffusion)
    // must be enclosed by the well union with the rule margin.
    let well_enc = rules.well_enclosure();
    let nwell = on(Layer::Nwell);
    for (i, achieved) in enclosure_failures(active, nwell, well_enc, |i, near| {
        near.iter().any(|&c| active[i].overlaps(nwell[c]))
    }) {
        out.push(DrcViolation {
            class: RuleClass::WellEnclosure,
            layer: Layer::Nwell,
            rect: active[i],
            other: None,
            actual: achieved,
            required: well_enc,
        });
    }

    // Select enclosure: every diffusion must be implanted, i.e. enclosed
    // by the union of the two select layers with the rule margin.
    let sel_enc = rules.select_enclosure();
    let mut selects: Vec<Rect> = Vec::new();
    selects.extend_from_slice(on(Layer::Pselect));
    selects.extend_from_slice(on(Layer::Nselect));
    for (i, achieved) in enclosure_failures(active, &selects, sel_enc, |_, _| true) {
        out.push(DrcViolation {
            class: RuleClass::SelectEnclosure,
            layer: Layer::Active,
            rect: active[i],
            other: None,
            actual: achieved,
            required: sel_enc,
        });
    }

    // `RuleClass` is `Ord` in declaration order, which is exactly
    // `RuleClass::ALL` order; sorting on the class directly keeps the
    // grouping total and panic-free for any future rule class.
    out.sort_by_key(|v| v.class);
    Ok(out)
}

/// The O(n²) all-pairs width/spacing reference: returns exactly the
/// [`RuleClass::Width`] and [`RuleClass::Spacing`] findings of [`check`],
/// in the same order.
///
/// Only the unit tests and the `verify_throughput` bench run it, to check
/// the scanline engine against an obviously correct loop and to measure
/// the gap. It is quadratic in the shapes per layer, so never run it on
/// macrocell flattenings.
pub fn check_pairwise(rules: &DesignRules, shapes: &[(Layer, Rect)]) -> Vec<DrcViolation> {
    let by_layer = by_layer(shapes);
    let (mut out, mut spacing_violations) = (Vec::new(), Vec::new());
    for layer in Layer::ALL {
        let rects = &by_layer[layer.id().index() as usize];
        let (min_w, min_s) = (rules.min_width(layer), rules.min_space(layer));
        for &r in rects {
            let covered = rects
                .iter()
                .any(|&o| o.contains_rect(r) && o.area() > r.area());
            if r.min_dimension() < min_w && !covered {
                out.push(width_violation(layer, r, min_w));
            }
        }
        let n = rects.len();
        let mut uf = sweep::UnionFind::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                if rects[i].touches(rects[j]) {
                    uf.union(i, j);
                }
            }
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if rects[i].spacing(rects[j]) < min_s && uf.find(i) != uf.find(j) {
                    spacing_violations.push(spacing_violation(layer, rects[i], rects[j], min_s));
                }
            }
        }
    }
    out.append(&mut spacing_violations);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisram_rng::rngs::StdRng;
    use bisram_rng::{Rng, SeedableRng};

    fn rules() -> DesignRules {
        DesignRules::scmos(100) // metal1: w=300 s=300; poly: w=200 s=200
    }

    fn width_spacing(v: &[DrcViolation]) -> Vec<DrcViolation> {
        v.iter()
            .filter(|v| matches!(v.class, RuleClass::Width | RuleClass::Spacing))
            .cloned()
            .collect()
    }

    /// Runs the engine, asserts that its width/spacing findings equal the
    /// all-pairs reference's, and returns every finding.
    fn check_both(shapes: &[(Layer, Rect)]) -> Vec<DrcViolation> {
        let v = check(&rules(), shapes).expect("consistent input");
        assert_eq!(width_spacing(&v), check_pairwise(&rules(), shapes));
        v
    }

    /// A minimal clean NMOS: diffusion, crossing gate, select, and a
    /// contacted drain. All coordinates in DBU with λ = 100.
    fn clean_nmos() -> Vec<(Layer, Rect)> {
        vec![
            (Layer::Active, Rect::new(300, 500, 1100, 1400)),
            (Layer::Poly, Rect::new(600, 300, 800, 1600)),
            (Layer::Nselect, Rect::new(100, 300, 1300, 1600)),
            (Layer::Contact, Rect::new(400, 700, 600, 900)),
            (Layer::Metal1, Rect::new(300, 600, 700, 1000)),
        ]
    }

    #[test]
    fn clean_device_passes_all_classes() {
        let v = check(&rules(), &clean_nmos()).expect("consistent input");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn short_endcap_is_gate_extension() {
        let mut shapes = clean_nmos();
        shapes[1].1 = Rect::new(600, 400, 800, 1600); // bottom endcap 1λ
        let v = check(&rules(), &shapes).expect("consistent input");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].class, RuleClass::GateExtension);
        assert_eq!(v[0].actual, 100);
        assert_eq!(v[0].required, 200);
    }

    #[test]
    fn partial_crossing_is_negative_gate_extension() {
        let mut shapes = clean_nmos();
        shapes[1].1 = Rect::new(600, 700, 800, 1600); // starts inside
        let v = check(&rules(), &shapes).expect("consistent input");
        assert!(
            v.iter()
                .any(|v| v.class == RuleClass::GateExtension && v.actual < 0),
            "{v:?}"
        );
    }

    #[test]
    fn narrow_sd_landing_is_flagged() {
        let mut shapes = clean_nmos();
        // Gate shifted right: only 2λ of diffusion on the drain side.
        shapes[1].1 = Rect::new(700, 300, 900, 1600);
        let v = check(&rules(), &shapes).expect("consistent input");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].class, RuleClass::SdExtension);
        assert_eq!(v[0].actual, 200);
        assert_eq!(v[0].required, 300);
    }

    #[test]
    fn two_gates_too_close_on_one_diffusion() {
        let shapes = vec![
            (Layer::Active, Rect::new(0, 500, 1700, 1400)),
            (Layer::Poly, Rect::new(300, 300, 500, 1600)),
            (Layer::Poly, Rect::new(700, 300, 900, 1600)), // 2λ from first
            (Layer::Nselect, Rect::new(-200, 300, 1900, 1600)),
        ];
        let v = check(&rules(), &shapes).expect("consistent input");
        assert!(
            v.iter()
                .any(|v| v.class == RuleClass::SdExtension && v.actual == 200),
            "{v:?}"
        );
    }

    #[test]
    fn poly_near_unrelated_diffusion_flagged() {
        let mut shapes = clean_nmos();
        // A wire 0.5λ from the diffusion edge (rule: 1λ).
        shapes.push((Layer::Poly, Rect::new(300, 1450, 1100, 1650)));
        let v = check(&rules(), &shapes).expect("consistent input");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].class, RuleClass::PolyActiveSpace);
        assert_eq!(v[0].actual, 50);
    }

    #[test]
    fn abutting_poly_and_diffusion_flagged() {
        let mut shapes = clean_nmos();
        shapes.push((Layer::Poly, Rect::new(300, 1400, 1100, 1600)));
        let v = check(&rules(), &shapes).expect("consistent input");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].class, RuleClass::PolyActiveSpace);
        assert_eq!(v[0].actual, 0);
    }

    #[test]
    fn contact_needs_both_lower_and_upper_cover() {
        let mut shapes = clean_nmos();
        // Shift the metal pad so the cut pokes out of it by 1λ.
        shapes[4].1 = Rect::new(500, 600, 900, 1000);
        let v = check(&rules(), &shapes).expect("consistent input");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].class, RuleClass::CutEnclosure);
        assert_eq!(v[0].layer, Layer::Contact);
        assert!(v[0].actual < 0, "cut not covered: {v:?}");
    }

    #[test]
    fn skimpy_cut_enclosure_reports_achieved_margin() {
        let mut shapes = clean_nmos();
        // Metal covers the cut exactly, with zero margin on the left.
        shapes[4].1 = Rect::new(400, 600, 800, 1000);
        let v = check(&rules(), &shapes).expect("consistent input");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].class, RuleClass::CutEnclosure);
        assert_eq!(v[0].actual, 0);
        assert_eq!(v[0].required, 100);
    }

    #[test]
    fn pmos_diffusion_demands_well_enclosure() {
        let shapes = vec![
            (Layer::Active, Rect::new(600, 2700, 2000, 3400)),
            (Layer::Poly, Rect::new(900, 2500, 1100, 3600)),
            (Layer::Pselect, Rect::new(400, 2500, 2200, 3600)),
            (Layer::Nwell, Rect::new(0, 2100, 2600, 4000)),
        ];
        assert!(check(&rules(), &shapes)
            .expect("consistent input")
            .is_empty());

        let mut bad = shapes.clone();
        bad[3].1 = Rect::new(100, 2100, 2600, 4000); // 5λ on the left
        let v = check(&rules(), &bad).expect("consistent input");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].class, RuleClass::WellEnclosure);
        assert_eq!(v[0].actual, 500);
        assert_eq!(v[0].required, 600);
    }

    #[test]
    fn diffusion_outside_any_well_skips_well_rule() {
        // NMOS diffusion far from the well: no well enclosure demanded.
        let mut shapes = clean_nmos();
        shapes.push((Layer::Nwell, Rect::new(3000, 3000, 4500, 4500)));
        assert!(check(&rules(), &shapes)
            .expect("consistent input")
            .is_empty());
    }

    #[test]
    fn unimplanted_diffusion_is_select_violation() {
        let mut shapes = clean_nmos();
        shapes[2].1 = Rect::new(200, 300, 1300, 1600); // 1λ left margin
        let v = check(&rules(), &shapes).expect("consistent input");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].class, RuleClass::SelectEnclosure);
        assert_eq!(v[0].actual, 100);
        assert_eq!(v[0].required, 200);
    }

    #[test]
    fn select_union_of_both_flavours_counts() {
        let mut shapes = clean_nmos();
        // Split the implant across nselect and pselect halves.
        shapes[2].1 = Rect::new(100, 300, 700, 1600);
        shapes.push((Layer::Pselect, Rect::new(600, 300, 1300, 1600)));
        assert!(check(&rules(), &shapes)
            .expect("consistent input")
            .is_empty());
    }

    #[test]
    fn width_and_spacing_still_checked() {
        let shapes = vec![
            (Layer::Metal1, Rect::new(0, 0, 200, 1000)),
            (Layer::Metal1, Rect::new(300, 0, 700, 1000)),
        ];
        let v = check_both(&shapes);
        assert_eq!(v.len(), 2, "{v:?}");
        assert_eq!(v[0].class, RuleClass::Width);
        assert_eq!(v[1].class, RuleClass::Spacing);
    }

    #[test]
    fn output_grouped_by_rule_class_order() {
        let mut shapes = clean_nmos();
        shapes.push((Layer::Metal2, Rect::new(0, 0, 100, 900))); // width
        shapes[2].1 = Rect::new(200, 300, 1300, 1600); // select margin
        let v = check(&rules(), &shapes).expect("consistent input");
        let classes: Vec<RuleClass> = v.iter().map(|v| v.class).collect();
        let mut sorted = classes.clone();
        sorted.sort_unstable();
        assert_eq!(classes, sorted);
    }

    #[test]
    fn interaction_distance_is_the_widest_rule() {
        // In the scalable rule set the n-well spacing (9λ) dominates
        // every other spacing, enclosure, and extension distance.
        let r = rules();
        assert_eq!(interaction_distance(&r), r.min_space(Layer::Nwell));
        for layer in Layer::ALL {
            assert!(interaction_distance(&r) >= r.min_space(layer));
        }
    }

    #[test]
    fn clipped_check_drops_findings_outside_the_keep_strip() {
        // Two width violations far apart; the keep window sees only one.
        let shapes = vec![
            (Layer::Metal1, Rect::new(0, 0, 200, 1000)),
            (Layer::Metal1, Rect::new(5000, 0, 5200, 1000)),
        ];
        let all = check(&rules(), &shapes).expect("consistent input");
        assert_eq!(all.len(), 2);
        let kept = check_clipped(&rules(), &shapes, Rect::new(4000, 0, 6000, 1000))
            .expect("consistent input");
        assert_eq!(kept.len(), 1, "{kept:?}");
        assert_eq!(kept[0].rect, Rect::new(5000, 0, 5200, 1000));
    }

    #[test]
    fn degenerate_shapes_never_panic() {
        // Zero-area rects on every layer, including poly/active touch
        // lines, must be ignored rather than trip internal expects.
        let mut shapes = clean_nmos();
        for layer in Layer::ALL {
            shapes.push((layer, Rect::new(0, 0, 0, 0)));
            shapes.push((layer, Rect::new(300, 1400, 1100, 1400)));
        }
        let v = check(&rules(), &shapes).expect("degenerate shapes are ignored");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn violation_display_carries_coordinates() {
        let mut shapes = clean_nmos();
        shapes[1].1 = Rect::new(600, 400, 800, 1600);
        let v = check(&rules(), &shapes).expect("consistent input");
        let s = v[0].to_string();
        assert!(
            s.contains("gate-extension") && s.contains("[600,400"),
            "{s}"
        );
    }

    // Width and spacing: connectivity, coverage and layer exemptions,
    // each input also checked against the all-pairs reference.

    #[test]
    fn clean_layout_passes() {
        let shapes = vec![
            (Layer::Metal1, Rect::new(0, 0, 300, 2000)),
            (Layer::Metal1, Rect::new(600, 0, 900, 2000)),
            (Layer::Poly, Rect::new(0, 0, 200, 500)),
        ];
        let v = check_both(&shapes);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn narrow_shape_flagged() {
        let v = check_both(&[(Layer::Metal1, Rect::new(0, 0, 200, 1000))]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(
            (v[0].class, v[0].layer, v[0].actual, v[0].required),
            (RuleClass::Width, Layer::Metal1, 200, 300)
        );
    }

    #[test]
    fn close_shapes_flagged_but_touching_exempt() {
        // Touching shapes are connected: no spacing violation.
        let connected = vec![
            (Layer::Metal1, Rect::new(0, 0, 300, 300)),
            (Layer::Metal1, Rect::new(300, 0, 600, 300)),
        ];
        assert!(check_both(&connected).is_empty());

        // 100 nm gap on metal1 violates the 300 nm rule.
        let apart = vec![
            (Layer::Metal1, Rect::new(0, 0, 300, 300)),
            (Layer::Metal1, Rect::new(400, 0, 700, 300)),
        ];
        let v = check_both(&apart);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].class, v[0].actual), (RuleClass::Spacing, 100));
        assert_eq!(v[0].other, Some(apart[1].1));
    }

    #[test]
    fn transitive_connectivity_exempts_spacing() {
        // `a` and `c` are 100 apart and do not touch, but both touch the
        // bar `b` above them, so they are one net: no violation.
        let a = (Layer::Metal1, Rect::new(0, 0, 300, 300));
        let b = (Layer::Metal1, Rect::new(0, 300, 1000, 600));
        let c = (Layer::Metal1, Rect::new(400, 0, 700, 300));
        assert!(check_both(&[a, b, c]).is_empty());
        // Without the bar the same pair is a spacing violation.
        let v = check_both(&[a, c]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].class, v[0].actual), (RuleClass::Spacing, 100));
    }

    #[test]
    fn covered_stub_not_a_width_violation() {
        let shapes = vec![
            (Layer::Metal1, Rect::new(0, 0, 1000, 1000)),
            (Layer::Metal1, Rect::new(10, 10, 110, 60)), // thin, but covered
        ];
        assert!(check_both(&shapes).is_empty());

        // Exact duplicates do not cover each other: both copies of a
        // narrow wire are width violations (and, overlapping, connected).
        let stub = (Layer::Metal1, Rect::new(2000, 0, 2100, 500));
        let v = check_both(&[stub, stub]);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v
            .iter()
            .all(|v| v.class == RuleClass::Width && v.actual == 100));
    }

    #[test]
    fn degenerate_shapes_ignored() {
        // A zero-width line would be a width violation if it counted.
        let v = check_both(&[(Layer::Metal1, Rect::new(0, 0, 0, 500))]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn different_layers_do_not_interact() {
        let shapes = vec![
            (Layer::Metal1, Rect::new(0, 0, 300, 300)),
            (Layer::Metal2, Rect::new(310, 0, 610, 300)),
            (Layer::Metal3, Rect::new(0, 310, 500, 810)),
        ];
        let v = check_both(&shapes);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn violation_display_is_informative() {
        let v = check_both(&[(Layer::Poly, Rect::new(0, 0, 100, 400))]);
        let s = v[0].to_string();
        assert!(
            s.contains("poly") && s.contains("100") && s.contains("200"),
            "{s}"
        );
    }

    #[test]
    fn report_names_evaluated_rule_classes() {
        // Every class has its own name, and `ALL` lists them in the
        // `Ord` order the output is grouped by.
        let names: Vec<String> = RuleClass::ALL.iter().map(|c| c.to_string()).collect();
        assert_eq!(names[0], "width");
        let mut distinct = names.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 8);
        let mut sorted = RuleClass::ALL;
        sorted.sort_unstable();
        assert_eq!(sorted, RuleClass::ALL);
        // Each finding names its class first.
        let mut shapes = clean_nmos();
        shapes.push((Layer::Metal2, Rect::new(0, 0, 100, 900)));
        shapes[2].1 = Rect::new(200, 300, 1300, 1600);
        let v = check(&rules(), &shapes).expect("consistent input");
        assert_eq!(v.len(), 2, "{v:?}");
        for f in &v {
            assert!(f.to_string().starts_with(&f.class.to_string()), "{f}");
        }
        assert!(check(&rules(), &[]).expect("empty input").is_empty());
    }

    #[test]
    fn scanline_matches_pairwise_on_random_layouts() {
        let mut rng = StdRng::seed_from_u64(0xD2C_0003);
        let mut extras = StdRng::seed_from_u64(0xD2C_0004);
        let mut flagged = 0;
        for case in 0..64 {
            let mut shapes: Vec<(Layer, Rect)> = (0..60)
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
            // Exact duplicates of a few shapes, and a stacked metal1
            // column (one shared left edge, gaps around the spacing
            // rule) that the sweep runs along y.
            for _ in 0..4 {
                let k = extras.gen_range(0usize..60);
                shapes.push(shapes[k]);
            }
            let (x, w) = (
                extras.gen_range(-2000i64..2000),
                extras.gen_range(100i64..600),
            );
            let mut y = extras.gen_range(-2000i64..0);
            for _ in 0..12 {
                let h = extras.gen_range(100i64..400);
                shapes.push((Layer::Metal1, Rect::new(x, y, x + w, y + h)));
                y += h + extras.gen_range(0i64..450);
            }
            let fast = check(&rules(), &shapes).expect("consistent input");
            let slow = check_pairwise(&rules(), &shapes);
            assert_eq!(width_spacing(&fast), slow, "case {case}");
            flagged += slow.len();
        }
        assert!(flagged > 64, "the sets exercise the rules: {flagged}");
    }

    // Deterministic seeded sweeps; failing geometry is named in each
    // assert.

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
            let v = check(&rules(), &shapes).expect("consistent input");
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
            let v = check(&rules(), &shapes).expect("consistent input");
            assert!(v.is_empty(), "case {case}: x={x} y={y} w={w} h={h}: {v:?}");
        }
    }
}
