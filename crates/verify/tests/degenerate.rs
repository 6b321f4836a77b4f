//! Panic-path regression tests: every public verification entry point
//! must return (a result or a typed error) on malformed and degenerate
//! geometry — zero-area rects, slivers, inverted-looking coordinates,
//! giant coordinates, and random rect soups.
//!
//! These feed the exact inputs that used to hit `expect`/`unwrap` paths
//! (`gates.rs` "overlapping rects intersect", `extract.rs` "conductor
//! layer", `drc.rs` "non-empty") plus a seeded fuzz sweep over arbitrary
//! `(Layer, Rect)` lists.

use std::sync::Arc;

use bisram_geom::{Point, Rect, Transform};
use bisram_layout::Cell;
use bisram_rng::rngs::StdRng;
use bisram_rng::{Rng, SeedableRng};
use bisram_tech::{Layer, Process};
use bisram_verify::{
    drc, extract, verify_cell, verify_cell_hier, NoCertStore, SchematicLib, VerifyError,
};

/// A zero-width poly sliver strictly crossing a diffusion: the gate
/// recognizer's former panic site ("overlapping rects intersect"). The
/// ingestion filters drop degenerate shapes, so both engines must come
/// back `Ok` — and the filtered run must see only the diffusion.
#[test]
fn poly_sliver_over_active_never_panics() {
    let process = Process::cda07();
    let shapes = vec![
        (Layer::Active, Rect::new(0, 0, 40, 40)),
        (Layer::Poly, Rect::new(20, -10, 20, 50)),
    ];
    let violations = drc::check(process.rules(), &shapes).expect("sliver is filtered");
    assert!(violations.iter().all(|v| v.layer != Layer::Poly));
    let x = extract(&shapes).expect("sliver is filtered");
    assert!(x.graph.devices.is_empty(), "a sliver is not a gate");
}

/// The same degenerate geometry wrapped in a cell must flow through the
/// report-level entry points without panicking, in both modes, and agree
/// on the verdict.
#[test]
fn degenerate_cell_verifies_in_both_modes() {
    let process = Process::cda07();
    let mut cell = Cell::new("sliver");
    cell.add_shape(Layer::Active, Rect::new(0, 0, 40, 40));
    cell.add_shape(Layer::Poly, Rect::new(20, -10, 20, 50));
    let lib = SchematicLib::standard(&process);
    let flat = verify_cell(process.rules(), &cell, &lib);

    let mut top = Cell::new("top");
    top.add_instance("s", Arc::new(cell), Transform::translate(Point::new(7, 3)));
    let hier = verify_cell_hier(process.rules(), &top, &lib, &NoCertStore);
    assert_eq!(flat.error, hier.error);
    assert_eq!(flat.is_clean(), hier.is_clean());
}

/// The typed error is still reachable where the panic used to live: the
/// internal gate recognizer rejects inconsistent shape data instead of
/// asserting. (Covered against the public API by the fuzz sweep below;
/// this pins the error type's shape for report plumbing.)
#[test]
fn degenerate_gate_error_carries_both_operands() {
    let err = VerifyError::DegenerateGateOverlap {
        poly: Rect::new(20, -10, 20, 50),
        active: Rect::new(0, 0, 40, 40),
    };
    let text = err.to_string();
    assert!(text.contains("degenerate gate overlap"), "{text}");
}

/// Zero-area and point shapes on every layer at once: nothing to check,
/// nothing to extract, no panic.
#[test]
fn point_shapes_on_every_layer_are_harmless() {
    let process = Process::cda07();
    let mut shapes = Vec::new();
    for layer in Layer::ALL {
        shapes.push((layer, Rect::new(0, 0, 0, 0)));
        shapes.push((layer, Rect::new(5, 5, 5, 9)));
        shapes.push((layer, Rect::new(3, 7, 11, 7)));
    }
    let _ = drc::check(process.rules(), &shapes);
    let _ = extract(&shapes);
}

/// Seeded fuzz: random rect soups over all layers, including slivers and
/// coordinates far off the λ grid, through every public entry point.
/// The only acceptable outcomes are `Ok` or a typed `VerifyError`.
#[test]
fn random_rect_soup_never_panics() {
    let process = Process::cda05();
    let rules = process.rules();
    let lib = SchematicLib::standard(&process);
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for round in 0..64 {
        let n = rng.gen_range(0..40usize);
        let mut shapes = Vec::with_capacity(n);
        for _ in 0..n {
            let layer = Layer::ALL[rng.gen_range(0..Layer::ALL.len())];
            let x0 = rng.gen_range(-200..200i64);
            let y0 = rng.gen_range(-200..200i64);
            // Zero extents are common on purpose: degenerate shapes are
            // the whole point of this suite.
            let w = rng.gen_range(0..60i64);
            let h = rng.gen_range(0..60i64);
            shapes.push((layer, Rect::new(x0, y0, x0 + w, y0 + h)));
        }
        let _ = drc::check(rules, &shapes);
        let _ = extract(&shapes);

        let mut cell = Cell::new("soup");
        for &(l, r) in &shapes {
            cell.add_shape(l, r);
        }
        let cell = Arc::new(cell);
        let _ = verify_cell(rules, &cell, &lib);
        let mut top = Cell::new("top");
        top.add_instance("a", cell.clone(), Transform::IDENTITY);
        top.add_instance(
            "b",
            cell,
            Transform::translate(Point::new(
                rng.gen_range(-300..300),
                rng.gen_range(-300..300),
            )),
        );
        let _ = verify_cell_hier(rules, &top, &lib, &NoCertStore);
        let _ = round;
    }
}

/// Extreme coordinates near the ends of the usable range must not
/// overflow inside the sweeps or the violation ordering.
#[test]
fn huge_coordinates_do_not_panic() {
    let process = Process::mosis06();
    let big = 1_000_000_000_000i64;
    let shapes = vec![
        (Layer::Metal1, Rect::new(-big, -big, -big + 3, -big + 3)),
        (Layer::Metal1, Rect::new(big - 3, big - 3, big, big)),
        (Layer::Metal1, Rect::new(-1, -1, 1, 1)),
    ];
    let _ = drc::check(process.rules(), &shapes);
    let _ = extract(&shapes);
}
