//! Integration: the generated layouts hold together — DRC-clean leaf
//! cells and arrays in every process, pitch-consistent macrocells,
//! exportable geometry, and area accounting that adds up.

use bisram_geom::Rect;
use bisram_layout::placer::{place_with_margin, Macro};
use bisram_layout::{export, leaf, tile, Cell};
use bisram_tech::{Layer, Process};
use bisram_verify::drc;
use bisramgen::{compile, compile_with, CellCache, CompileOptions, RamParams};
use std::collections::HashMap;
use std::sync::Arc;

/// Runs the eight-class DRC engine over `shapes` and panics, naming
/// `what` and the first five findings, unless they are clean.
fn assert_drc_clean(process: &Process, shapes: &[(Layer, Rect)], what: &str) {
    let violations = drc::check(process.rules(), shapes).expect("consistent geometry");
    if !violations.is_empty() {
        let mut msg = format!(
            "{what} in {}: {} DRC violation(s):\n",
            process.name(),
            violations.len()
        );
        for v in violations.iter().take(5) {
            msg.push_str(&format!("  - {v}\n"));
        }
        panic!("{msg}");
    }
}

#[test]
fn every_leaf_cell_is_drc_clean_in_every_process() {
    for process in Process::builtin() {
        for cell in leaf::library(&process) {
            assert_drc_clean(&process, &cell.flatten(), cell.name());
        }
    }
}

#[test]
fn tiled_sram_array_is_drc_clean() {
    // The crucial array-level check: abutting instances must not create
    // cross-boundary violations in any process.
    for process in Process::builtin() {
        let master = Arc::new(leaf::sram6t(&process));
        let grid = tile::tile_grid("arr", master, 4, 4);
        assert_drc_clean(&process, &grid.flatten(), "4x4 sram array");
    }
}

#[test]
fn tiled_pla_plane_is_drc_clean() {
    for process in Process::builtin() {
        let on = Arc::new(leaf::pla_crosspoint(&process, true));
        let grid = tile::tile_grid("and_plane", on, 6, 6);
        assert_drc_clean(&process, &grid.flatten(), "6x6 programmed PLA plane");
    }
}

#[test]
fn strapped_array_remains_drc_clean() {
    // The strap gap must clear the widest same-layer spacing rule (the
    // nwell, 9 lambda): the compiler's default strap space is 12 lambda
    // for exactly this reason.
    for process in Process::builtin() {
        let l = process.rules().lambda();
        let master = Arc::new(leaf::sram6t(&process));
        let grid = tile::tile_with_straps("arr", master, 2, 8, 4, 12 * l);
        assert_drc_clean(&process, &grid.flatten(), "strapped array");
    }
}

#[test]
fn compiled_module_core_is_drc_clean_in_every_process() {
    // Flatten a complete small module (array + periphery + BIST/BISR)
    // and run the checker. Macrocells are placed with clearance, so the
    // only possible violations are internal — and there must be none.
    for process in Process::builtin() {
        let params = RamParams::builder()
            .words(64)
            .bits_per_word(4)
            .bits_per_column(4)
            .spare_rows(4)
            .process(process.clone())
            .build()
            .expect("valid");
        let ram = compile(&params).expect("compiles");
        let shapes = ram.chip().flatten();
        assert!(
            shapes.len() > 500,
            "module is non-trivial: {}",
            shapes.len()
        );
        // Note: route shapes (metal3) connect macros and may touch many
        // rects; the DRC treats touching shapes as connected.
        assert_drc_clean(&process, &shapes, "64x4 module");
    }
}

#[test]
fn macrocell_areas_sum_close_to_floorplan_area() {
    let params = RamParams::builder()
        .words(1024)
        .bits_per_word(16)
        .bits_per_column(4)
        .build()
        .expect("valid");
    let ram = compile(&params).expect("compiles");
    let accounted = ram.areas().report().total() as f64;
    let bbox = ram.placement().bbox().area() as f64;
    let utilization = accounted / bbox;
    // RAM floorplans with tall skinny arrays and thin periphery strips
    // pack around 50%; anything below 40% would indicate a placer bug.
    assert!(
        utilization > 0.4,
        "placement wastes too much area: utilization {utilization:.3}"
    );
    assert!(utilization <= 1.0 + 1e-9);
}

#[test]
fn exports_are_consistent_with_geometry() {
    let p = Process::cda07();
    let array = tile::tile_grid("arr", Arc::new(leaf::sram6t(&p)), 2, 2);
    let flat = array.flatten();
    let cif = export::to_cif(&array);
    let svg = export::to_svg(&array);
    assert_eq!(
        cif.lines().filter(|l| l.starts_with("B ")).count(),
        flat.len()
    );
    assert_eq!(svg.matches("<rect").count(), flat.len());
}

#[test]
fn pitch_contracts_hold_in_every_process() {
    for p in Process::builtin() {
        let l = p.rules().lambda();
        let sram = leaf::sram6t(&p);
        assert_eq!(sram.bbox().width(), leaf::SRAM_W * l);
        // The column-pitch family.
        for cell in [
            leaf::precharge(&p, 2),
            leaf::col_mux(&p),
            leaf::sense_amp(&p),
            leaf::write_driver(&p),
        ] {
            assert_eq!(
                cell.bbox().width(),
                sram.bbox().width(),
                "{} in {}",
                cell.name(),
                p.name()
            );
        }
        // The row-pitch family.
        for cell in [leaf::row_decoder(&p, 8), leaf::wordline_driver(&p, 2)] {
            assert_eq!(cell.bbox().height(), sram.bbox().height());
        }
    }
}

#[test]
fn bigger_user_knobs_grow_the_layout_monotonically() {
    let area_of = |gate_size: i64, strap: (usize, i64)| {
        let params = RamParams::builder()
            .words(256)
            .bits_per_word(8)
            .bits_per_column(4)
            .gate_size(gate_size)
            .strap(strap.0, strap.1)
            .build()
            .expect("valid");
        compile(&params).expect("compiles").area_mm2()
    };
    // Bigger critical gates grow the drivers; straps grow the array.
    assert!(area_of(4, (0, 0)) > area_of(1, (0, 0)));
    assert!(area_of(2, (8, 16)) > area_of(2, (0, 0)));
}

#[test]
fn floorplan_svg_covers_every_macro_and_is_parsable_xml() {
    let params = RamParams::builder()
        .words(256)
        .bits_per_word(8)
        .build()
        .unwrap();
    let ram = compile(&params).unwrap();
    let svg = ram.floorplan_svg();
    for m in ram.placement().placed() {
        assert!(svg.contains(&m.name), "missing macro {}", m.name);
    }
    // Minimal well-formedness: every rect/text self-closes or closes.
    assert_eq!(svg.matches("<svg").count(), 1);
    assert_eq!(svg.matches("</svg>").count(), 1);
    assert_eq!(svg.matches("<text").count(), svg.matches("</text>").count());
}

/// The bounding box of `cell.flatten()`, computed from the flattened
/// shapes of each distinct child master: a cell flattens to its own
/// shapes plus every instance's flattened master under the instance
/// transform, and a Manhattan transform maps the bounding box of a set
/// to the bounding box of the mapped set. Flattening a 16384x32 array
/// outright materializes ~13 M rectangles.
fn flat_bbox(cell: &Cell) -> Option<Rect> {
    let mut masters: HashMap<*const Cell, Option<Rect>> = HashMap::new();
    let mut boxes: Vec<Rect> = cell.shapes().iter().map(|&(_, r)| r).collect();
    for inst in cell.instances() {
        let master = masters
            .entry(Arc::as_ptr(&inst.master))
            .or_insert_with(|| Rect::bounding(inst.master.flatten().into_iter().map(|(_, r)| r)));
        boxes.extend(master.map(|b| inst.transform.apply_rect(b)));
    }
    Rect::bounding(boxes)
}

#[test]
fn placement_matches_flatten_based_extents_across_the_sweep_space() {
    // The placer bounds each macrocell by its outline unioned with the
    // geometry extent the cell maintains as it is built. The definition
    // that extent replaces is the bounding box of the flattened shapes:
    // give the placer stand-in macros whose only shape *is* that box
    // (same outline, same ports) and every organization of the
    // benchmark's sweep space must come out placed identically.
    let cache = Arc::new(CellCache::new());
    let options = CompileOptions::new().with_cache(Arc::clone(&cache));
    let mut checked = 0;
    for process in Process::builtin() {
        for words in [256, 512, 1024, 2048, 4096, 8192, 16384] {
            for bpw in [8, 16, 32] {
                for bpc in [4, 8] {
                    let params = RamParams::builder()
                        .words(words)
                        .bits_per_word(bpw)
                        .bits_per_column(bpc)
                        .process(process.clone())
                        .build()
                        .expect("valid");
                    let ram = compile_with(&params, &options).expect("compiles");
                    let stand_ins: Vec<Macro> = ram
                        .macrocells()
                        .cells
                        .iter()
                        .map(|(name, cell)| {
                            let mut s = Cell::new(cell.name());
                            s.set_outline(cell.bbox());
                            for p in cell.ports() {
                                s.add_port(p.clone());
                            }
                            if let Some(b) = flat_bbox(cell) {
                                s.add_shape(Layer::Metal1, b);
                            }
                            Macro::new(*name, Arc::new(s))
                        })
                        .collect();
                    let lambda = process.rules().lambda();
                    let oracle = place_with_margin(stand_ins, 12 * lambda);
                    let placed: Vec<_> = ram
                        .placement()
                        .placed()
                        .iter()
                        .map(|p| (&p.name, p.transform))
                        .collect();
                    let expected: Vec<_> = oracle
                        .placed()
                        .iter()
                        .map(|p| (&p.name, p.transform))
                        .collect();
                    assert_eq!(
                        placed,
                        expected,
                        "{} {words}x{bpw} bpc {bpc}",
                        process.name()
                    );
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 126);
}
