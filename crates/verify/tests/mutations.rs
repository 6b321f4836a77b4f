//! Seeded fault-injection: mutate a single rectangle of a known-good
//! leaf cell and assert the checkers flag exactly the injected defect.
//!
//! Each DRC scenario targets one rule class; after the mutation every
//! reported violation must belong to that class and at least one must
//! carry coordinates overlapping the mutated region. The LVS scenarios
//! delete geometry that leaves DRC clean but changes connectivity, and
//! must surface a coordinate-bearing mismatch.
//!
//! Every scenario is additionally replayed in hierarchical mode: the
//! mutated geometry is wrapped in a cell and tiled next to clean
//! masters, and `verify_cell_hier` must flag the same defect set the
//! flat checker finds on the identical top cell. Dedicated scenarios
//! seed defects *across* an instance boundary, inside the halo, where
//! only the boundary-interaction pass (or the summary merge) can see
//! them.

use std::sync::Arc;

use bisram_geom::{Point, Rect, Transform};
use bisram_layout::leaf::LeafSpec;
use bisram_layout::Cell;
use bisram_rng::rngs::StdRng;
use bisram_rng::{Rng, SeedableRng};
use bisram_tech::{Layer, Process};
use bisram_verify::drc::{self, RuleClass};
use bisram_verify::{
    extract, leaf_schematic, lvs, verify_cell, verify_cell_hier, CellSchematic, NoCertStore,
    SchematicLib,
};

fn processes() -> Vec<Process> {
    vec![Process::cda05(), Process::mosis06(), Process::cda07()]
}

/// λ-grid rect scaled to DBU.
fn lr(lam: i64, x0: i64, y0: i64, x1: i64, y1: i64) -> Rect {
    Rect::new(x0 * lam, y0 * lam, x1 * lam, y1 * lam)
}

/// Index of the exact shape, panicking when the art changed under us.
fn find(shapes: &[(Layer, Rect)], layer: Layer, r: Rect) -> usize {
    shapes
        .iter()
        .position(|&(l, s)| l == layer && s == r)
        .unwrap_or_else(|| panic!("expected {layer} shape at {r} in the leaf art"))
}

/// Runs one DRC fault-injection scenario on a clean sram6t: `mutate`
/// edits the shape list and returns the region of interest; all
/// resulting violations must be of `class` and one must touch the
/// region.
fn assert_drc_flags_exactly(
    process: &Process,
    class: RuleClass,
    mutate: impl Fn(&mut Vec<(Layer, Rect)>, i64, &mut StdRng) -> Rect,
    seed: u64,
) {
    let rules = process.rules();
    let lam = rules.lambda();
    let mut shapes = LeafSpec::Sram6t.build(process).flatten();
    assert!(
        drc::check(rules, &shapes)
            .expect("consistent input")
            .is_empty(),
        "baseline sram6t must be clean"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let region = mutate(&mut shapes, lam, &mut rng);
    let violations = drc::check(rules, &shapes).expect("consistent input");
    assert!(
        !violations.is_empty(),
        "[{}] {class} mutation went undetected",
        process.name()
    );
    for v in &violations {
        assert_eq!(
            v.class,
            class,
            "[{}] expected only {class}, got {v}",
            process.name()
        );
    }
    assert!(
        violations.iter().any(|v| {
            let grown = region.expand(lam);
            grown.overlaps(v.rect)
                || grown.touches(v.rect)
                || v.other
                    .is_some_and(|o| grown.overlaps(o) || grown.touches(o))
        }),
        "[{}] no {class} violation near mutated region {region}",
        process.name()
    );
    assert_hier_matches_flat_on_array(process, &shapes, Some(class));
}

/// Wraps `mutated_shapes` in a cell named `sram6t` (so the standard
/// schematic library still resolves it), tiles it with clean masters
/// into a 2x2 array, and asserts hierarchical verification reports the
/// same DRC defect set as flat verification of the identical top cell —
/// including at least one violation of `class` when given.
fn assert_hier_matches_flat_on_array(
    process: &Process,
    mutated_shapes: &[(Layer, Rect)],
    class: Option<RuleClass>,
) {
    let mut mutated = Cell::new("sram6t");
    for &(layer, r) in mutated_shapes {
        mutated.add_shape(layer, r);
    }
    let mutated = Arc::new(mutated);
    let clean = Arc::new(LeafSpec::Sram6t.build(process));
    let pitch = clean.bbox();
    let (dx, dy) = (pitch.width(), pitch.height());
    let mut top = Cell::new("array");
    top.add_instance("m", mutated, Transform::IDENTITY);
    top.add_instance("c0", clean.clone(), Transform::translate(Point::new(dx, 0)));
    top.add_instance("c1", clean.clone(), Transform::translate(Point::new(0, dy)));
    top.add_instance("c2", clean, Transform::translate(Point::new(dx, dy)));
    let lib = SchematicLib::standard(process);
    let flat = verify_cell(process.rules(), &top, &lib);
    let hier = verify_cell_hier(process.rules(), &top, &lib, &NoCertStore);
    let canon = |list: &[drc::DrcViolation]| {
        let mut v = list.to_vec();
        v.sort_by_key(|v| {
            (
                v.class,
                v.layer.id().index(),
                [v.rect.left(), v.rect.bottom(), v.rect.right(), v.rect.top()],
                v.other
                    .map(|o| [o.left(), o.bottom(), o.right(), o.top()])
                    .unwrap_or([i64::MIN; 4]),
                v.actual,
                v.required,
            )
        });
        v.dedup();
        v
    };
    assert_eq!(
        canon(&hier.drc),
        canon(&flat.drc),
        "[{}] hierarchical DRC diverged from flat on the mutated array",
        process.name()
    );
    if let Some(class) = class {
        assert!(
            hier.drc.iter().any(|v| v.class == class),
            "[{}] hierarchical mode missed the {class} defect",
            process.name()
        );
    }
    assert_eq!(
        flat.is_clean(),
        hier.is_clean(),
        "[{}] cleanliness verdicts diverged:\nflat:\n{flat}\nhier:\n{hier}",
        process.name()
    );
}

#[test]
fn width_shrink_is_flagged() {
    for process in processes() {
        for seed in 0..4 {
            assert_drc_flags_exactly(
                &process,
                RuleClass::Width,
                |shapes, lam, rng| {
                    // Squash the gnd rail below minimum metal1 width.
                    let i = find(shapes, Layer::Metal1, lr(lam, 0, 0, 26, 3));
                    let h = rng.gen_range(1..3i64);
                    shapes[i].1 = lr(lam, 0, 0, 26, h);
                    shapes[i].1
                },
                seed,
            );
        }
    }
}

#[test]
fn spacing_shift_is_flagged() {
    for process in processes() {
        for seed in 0..4 {
            assert_drc_flags_exactly(
                &process,
                RuleClass::Spacing,
                |shapes, lam, rng| {
                    // Slide the gnd rail up toward the storage-node
                    // metal1 islands (which start at y=6λ).
                    let i = find(shapes, Layer::Metal1, lr(lam, 0, 0, 26, 3));
                    let dy = rng.gen_range(1..3i64);
                    shapes[i].1 = lr(lam, 0, dy, 26, 3 + dy);
                    shapes[i].1
                },
                seed,
            );
        }
    }
}

#[test]
fn cut_enclosure_shrink_is_flagged() {
    for process in processes() {
        assert_drc_flags_exactly(
            &process,
            RuleClass::CutEnclosure,
            |shapes, lam, _| {
                // Pull the island's left edge flush with the contact:
                // zero metal1 margin on one side.
                let i = find(shapes, Layer::Metal1, lr(lam, 3, 6, 7, 10));
                shapes[i].1 = lr(lam, 4, 6, 7, 10);
                shapes[i].1
            },
            0,
        );
    }
}

#[test]
fn gate_extension_shrink_is_flagged() {
    for process in processes() {
        assert_drc_flags_exactly(
            &process,
            RuleClass::GateExtension,
            |shapes, lam, _| {
                // Trim the access-gate endcaps to 1λ past the diffusion.
                let i = find(shapes, Layer::Poly, lr(lam, 6, 3, 8, 16));
                shapes[i].1 = lr(lam, 6, 4, 8, 15);
                shapes[i].1
            },
            0,
        );
    }
}

#[test]
fn sd_extension_shrink_is_flagged() {
    for process in processes() {
        for seed in 0..4 {
            assert_drc_flags_exactly(
                &process,
                RuleClass::SdExtension,
                |shapes, lam, rng| {
                    // Starve the drain landing right of the gate at
                    // x=6..8λ (the contact at x=4..6λ keeps its cover).
                    let i = find(shapes, Layer::Active, lr(lam, 3, 5, 11, 14));
                    let right = rng.gen_range(9..11i64);
                    shapes[i].1 = lr(lam, 3, 5, right, 14);
                    shapes[i].1
                },
                seed,
            );
        }
    }
}

#[test]
fn poly_active_space_shift_is_flagged() {
    for process in processes() {
        assert_drc_flags_exactly(
            &process,
            RuleClass::PolyActiveSpace,
            |shapes, lam, _| {
                // Drop the wordline onto the diffusion tops: touching
                // but not crossing, so it never becomes a gate.
                let i = find(shapes, Layer::Poly, lr(lam, 0, 18, 26, 20));
                shapes[i].1 = lr(lam, 0, 14, 26, 16);
                shapes[i].1
            },
            0,
        );
    }
}

#[test]
fn well_enclosure_shrink_is_flagged() {
    for process in processes() {
        for seed in 0..4 {
            assert_drc_flags_exactly(
                &process,
                RuleClass::WellEnclosure,
                |shapes, lam, rng| {
                    // Retreat the nwell's left edge past the 6λ margin
                    // around the PMOS diffusion at x=6λ.
                    let i = find(shapes, Layer::Nwell, lr(lam, 0, 21, 26, 40));
                    let left = rng.gen_range(1..9i64);
                    shapes[i].1 = lr(lam, left, 21, 26, 40);
                    shapes[i].1
                },
                seed,
            );
        }
    }
}

#[test]
fn select_enclosure_shrink_is_flagged() {
    for process in processes() {
        for seed in 0..4 {
            assert_drc_flags_exactly(
                &process,
                RuleClass::SelectEnclosure,
                |shapes, lam, rng| {
                    // Clip the nselect implant's top margin over the
                    // NMOS diffusions (tops at y=14λ).
                    let i = find(shapes, Layer::Nselect, lr(lam, 1, 3, 25, 16));
                    let top = rng.gen_range(14..16i64);
                    shapes[i].1 = lr(lam, 1, 3, 25, top);
                    shapes[i].1
                },
                seed,
            );
        }
    }
}

/// Deletes one shape from a clean sram6t and asserts DRC stays clean
/// while LVS reports a coordinate-bearing mismatch.
fn assert_lvs_flags_deletion(process: &Process, layer: Layer, gone_lambda: (i64, i64, i64, i64)) {
    let rules = process.rules();
    let lam = rules.lambda();
    let spec = LeafSpec::Sram6t;
    let mut shapes = spec.build(process).flatten();
    let (x0, y0, x1, y1) = gone_lambda;
    let i = find(&shapes, layer, lr(lam, x0, y0, x1, y1));
    shapes.remove(i);

    assert!(
        drc::check(rules, &shapes)
            .expect("consistent input")
            .is_empty(),
        "[{}] deleting the {layer} shape should not create DRC violations",
        process.name()
    );
    let extracted = extract(&shapes).expect("consistent input");
    let reference = leaf_schematic(&spec, process).graph();
    let report = lvs::compare(&extracted.graph, &reference);
    assert!(
        !report.is_clean(),
        "[{}] {layer} deletion went undetected by LVS",
        process.name()
    );
    assert!(
        report
            .mismatches
            .iter()
            .any(|m| m.extracted_at.is_some() || m.reference_at.is_some()),
        "[{}] LVS mismatches carry no layout coordinates:\n{report}",
        process.name()
    );
    assert_hier_flags_lvs_defect(process, &shapes);
}

/// Replays an LVS defect in hierarchical mode: the mutated shapes become
/// one `sram6t` instance in a 2x2 array of clean masters and the
/// hierarchical report must come back dirty with an LVS mismatch, just
/// as flat verification of the same top does.
fn assert_hier_flags_lvs_defect(process: &Process, mutated_shapes: &[(Layer, Rect)]) {
    let mut mutated = Cell::new("sram6t");
    for &(layer, r) in mutated_shapes {
        mutated.add_shape(layer, r);
    }
    let mutated = Arc::new(mutated);
    let clean = Arc::new(LeafSpec::Sram6t.build(process));
    let pitch = clean.bbox();
    let (dx, dy) = (pitch.width(), pitch.height());
    let mut top = Cell::new("array");
    top.add_instance("m", mutated, Transform::IDENTITY);
    top.add_instance("c0", clean.clone(), Transform::translate(Point::new(dx, 0)));
    top.add_instance("c1", clean.clone(), Transform::translate(Point::new(0, dy)));
    top.add_instance("c2", clean, Transform::translate(Point::new(dx, dy)));
    let lib = SchematicLib::standard(process);
    let flat = verify_cell(process.rules(), &top, &lib);
    let hier = verify_cell_hier(process.rules(), &top, &lib, &NoCertStore);
    assert!(
        !flat.is_clean(),
        "[{}] flat verification missed the seeded LVS defect",
        process.name()
    );
    assert!(
        !hier.is_clean(),
        "[{}] hierarchical verification missed the seeded LVS defect:\n{hier}",
        process.name()
    );
    let lvs = hier.lvs.as_ref().expect("hier LVS report");
    assert!(
        !lvs.mismatches.is_empty(),
        "[{}] hierarchical report is dirty without an LVS mismatch:\n{hier}",
        process.name()
    );
}

#[test]
fn lvs_catches_deleted_contact() {
    for process in processes() {
        // Losing the storage-node contact splits a net in two.
        assert_lvs_flags_deletion(&process, Layer::Contact, (4, 7, 6, 9));
    }
}

#[test]
fn lvs_catches_deleted_gate() {
    for process in processes() {
        // Losing an access gate removes a transistor and merges its
        // source/drain diffusion into one piece.
        assert_lvs_flags_deletion(&process, Layer::Poly, (6, 3, 8, 16));
    }
}

#[test]
fn lvs_catches_shorted_storage_nodes() {
    // A metal1 sliver bridging the two storage-node islands is DRC-legal
    // (it connects them, so spacing is exempt) but shorts two nets.
    for process in processes() {
        let rules = process.rules();
        let lam = rules.lambda();
        let spec = LeafSpec::Sram6t;
        let mut shapes = spec.build(&process).flatten();
        shapes.push((Layer::Metal1, lr(lam, 3, 6, 23, 10)));
        assert!(
            drc::check(rules, &shapes)
                .expect("consistent input")
                .is_empty(),
            "[{}] the bridge itself is DRC-legal",
            process.name()
        );
        let extracted = extract(&shapes).expect("consistent input");
        let reference = leaf_schematic(&spec, &process).graph();
        let report = lvs::compare(&extracted.graph, &reference);
        assert!(
            !report.is_clean(),
            "[{}] storage-node short went undetected",
            process.name()
        );
        assert_hier_flags_lvs_defect(&process, &shapes);
    }
}

// ---- Cross-boundary defects (hierarchical-only territory) ---------------
//
// The scenarios above seed defects *inside* one instance, where a
// per-cell certificate alone would catch them. These seed defects in
// the space *between* instances, inside the interaction halo, so only
// the boundary-window pass (DRC) or the open-net merge (LVS) can see
// them.

#[test]
fn cross_boundary_spacing_defect_is_flagged_in_hier_mode() {
    for process in processes() {
        let rules = process.rules();
        let lam = rules.lambda();
        let master = Arc::new(LeafSpec::Sram6t.build(&process));
        let height = master.bbox().height();
        let mut top = Cell::new("pair");
        top.add_instance("a", master.clone(), Transform::IDENTITY);
        // 1λ vertical gap: each instance is internally clean, but
        // facing metal/poly across the gap violates min spacing.
        top.add_instance(
            "b",
            master,
            Transform::translate(Point::new(0, height + lam)),
        );
        let lib = SchematicLib::standard(&process);
        let flat = verify_cell(rules, &top, &lib);
        let hier = verify_cell_hier(rules, &top, &lib, &NoCertStore);
        assert!(
            hier.drc.iter().any(|v| v.class == RuleClass::Spacing),
            "[{}] boundary spacing defect missed by hierarchical mode:\n{hier}",
            process.name()
        );
        assert!(
            flat.drc.iter().any(|v| v.class == RuleClass::Spacing),
            "[{}] flat checker disagrees about the seeded defect",
            process.name()
        );
    }
}

/// A top cell with two clean sram6t instances `gap` λ apart vertically,
/// optionally bridged by a metal2 strap cell over the bitline.
fn bridged_pair(process: &Process, gap: i64, with_bridge: bool) -> (Cell, SchematicLib) {
    let rules = process.rules();
    let lam = rules.lambda();
    let master = Arc::new(LeafSpec::Sram6t.build(process));
    let height = master.bbox().height();
    let mut top = Cell::new("pair");
    top.add_instance("a", master.clone(), Transform::IDENTITY);
    top.add_instance(
        "b",
        master,
        Transform::translate(Point::new(0, height + gap * lam)),
    );
    let mut lib = SchematicLib::standard(process);
    if with_bridge {
        // Spans the inter-instance gap on the bitline track, shorting
        // the two bitline nets together. Its registered schematic is a
        // single anchorless net, so the reference graph does NOT merge:
        // the defect exists only across the instance boundary.
        let mut bridge = Cell::new("blbridge");
        bridge.add_shape(
            Layer::Metal2,
            Rect::new(2 * lam, height, 5 * lam, height + gap * lam),
        );
        top.add_instance("br", Arc::new(bridge), Transform::IDENTITY);
        lib.insert(CellSchematic {
            name: "blbridge".into(),
            nets: vec![bisram_verify::schematic::SchematicNet {
                name: "br".into(),
                anchors: Vec::new(),
            }],
            devices: Vec::new(),
        });
    }
    (top, lib)
}

#[test]
fn cross_boundary_bitline_short_is_flagged_in_hier_mode() {
    for process in processes() {
        let rules = process.rules();
        let (top, lib) = bridged_pair(&process, 6, true);
        let flat = verify_cell(rules, &top, &lib);
        let hier = verify_cell_hier(rules, &top, &lib, &NoCertStore);
        assert!(
            !flat.is_clean(),
            "[{}] flat verification missed the bitline bridge",
            process.name()
        );
        assert!(
            !hier.is_clean(),
            "[{}] hierarchical verification missed the bitline bridge:\n{hier}",
            process.name()
        );
        let lvs = hier.lvs.as_ref().expect("hier LVS report");
        assert!(
            !lvs.mismatches.is_empty(),
            "[{}] bridge shorted nets across the boundary but no mismatch \
             was reported:\n{hier}",
            process.name()
        );
    }
}

#[test]
fn unbridged_pair_stays_byte_identical_to_flat() {
    for process in processes() {
        let rules = process.rules();
        let (top, lib) = bridged_pair(&process, 6, false);
        let flat = verify_cell(rules, &top, &lib);
        let hier = verify_cell_hier(rules, &top, &lib, &NoCertStore);
        assert!(flat.is_clean(), "[{}]\n{flat}", process.name());
        assert_eq!(
            flat.to_string(),
            hier.to_string(),
            "[{}] clean reports diverged",
            process.name()
        );
    }
}
