//! Ablation — what the paper's placement heuristics buy.
//!
//! §II motivates two heuristics: *port alignment* ("it improves
//! routability and interconnect lengths") and the squareness drive ("as
//! rectangular as possible"). This ablation turns each off and measures
//! the claimed quantity: total over-the-cell route length for port
//! alignment, bounding-box aspect ratio for the squareness term.

use bisram_bench::harness::Harness;
use bisram_bench::{banner, quick_harness};
use bisram_geom::{Port, Rect, Side};
use bisram_layout::placer::{place_with_options, Macro, PlacerOptions};
use bisram_layout::route;
use bisram_layout::Cell;
use bisram_rng::rngs::StdRng;
use bisram_rng::{Rng, SeedableRng};
use bisram_tech::{Layer, Process};
use std::sync::Arc;

/// A synthetic macro set shaped like the compiler's: one big block,
/// several medium strips, a handful of small blocks, with shared bus
/// ports between random pairs.
fn macro_set(seed: u64) -> Vec<Macro> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut macros = Vec::new();
    let dims: Vec<(i64, i64)> = vec![
        (4000, 3000),
        (3000, 800),
        (800, 3000),
        (1500, 1200),
        (1200, 900),
        (900, 900),
        (700, 500),
        (600, 600),
    ];
    let buses = ["a_bus", "b_bus", "c_bus", "d_bus"];
    for (i, (w, h)) in dims.iter().enumerate() {
        let mut c = Cell::new(format!("m{i}"));
        c.set_outline(Rect::new(0, 0, *w, *h));
        c.add_shape(Layer::Metal1, Rect::new(0, 0, *w, *h));
        // Each macro carries 1-2 bus ports on random edges.
        for _ in 0..rng.gen_range(1..=2usize) {
            let bus = buses[rng.gen_range(0..buses.len())];
            let side = match rng.gen_range(0..4) {
                0 => Side::West,
                1 => Side::East,
                2 => Side::South,
                _ => Side::North,
            };
            let r = match side {
                Side::West => Rect::new(0, h / 2, 60, h / 2 + 60),
                Side::East => Rect::new(w - 60, h / 2, *w, h / 2 + 60),
                Side::South => Rect::new(w / 2, 0, w / 2 + 60, 60),
                Side::North => Rect::new(w / 2, h - 60, w / 2 + 60, *h),
            };
            c.add_port(Port::new(bus, Layer::Metal3.id(), r, side));
        }
        macros.push(Macro::new(format!("m{i}"), Arc::new(c)));
    }
    macros
}

fn evaluate(options: PlacerOptions, seeds: std::ops::Range<u64>) -> (f64, f64, f64) {
    let process = Process::cda07();
    let mut total_wire = 0.0;
    let mut total_aspect = 0.0;
    let mut total_util = 0.0;
    let n = (seeds.end - seeds.start) as f64;
    for seed in seeds {
        let placement = place_with_options(macro_set(seed), options);
        let routes = route::route_placement(&placement, &process);
        total_wire += route::total_length(&routes) as f64;
        total_aspect += placement.aspect_ratio();
        total_util += placement.utilization();
    }
    (total_wire / n, total_aspect / n, total_util / n)
}

fn print_experiment() {
    banner(
        "ablation",
        "placement heuristics on/off: route length (port alignment), aspect (squareness)",
    );
    let seeds = 0..12u64;
    let full = PlacerOptions {
        margin: 100,
        ..PlacerOptions::default()
    };
    let no_ports = PlacerOptions {
        port_weight: 0.0,
        ..full
    };
    let no_aspect = PlacerOptions {
        aspect_weight: 0.0,
        ..full
    };

    println!(
        "{:<26} {:>14} {:>10} {:>12}",
        "configuration", "avg wire (um)", "aspect", "utilization"
    );
    let mut results = Vec::new();
    for (label, opts) in [
        ("full heuristics", full),
        ("port alignment OFF", no_ports),
        ("squareness OFF", no_aspect),
    ] {
        let (wire, aspect, util) = evaluate(opts, seeds.clone());
        println!(
            "{label:<26} {:>14.1} {:>10.2} {:>11.0}%",
            wire / 1000.0,
            aspect,
            util * 100.0
        );
        results.push((label, wire, aspect));
    }
    let full_wire = results[0].1;
    let no_port_wire = results[1].1;
    let full_aspect = results[0].2;
    let no_aspect_aspect = results[2].2;
    println!(
        "\nport alignment cuts average route length by {:.0}% (paper: 'improves routability and interconnect lengths')",
        (1.0 - full_wire / no_port_wire) * 100.0
    );
    println!("squareness keeps the aspect at {full_aspect:.2} vs {no_aspect_aspect:.2} without it");
    assert!(
        full_wire < no_port_wire,
        "port alignment must shorten the routes"
    );
    assert!(
        full_aspect <= no_aspect_aspect + 0.2,
        "the squareness term must not lose to its ablation"
    );
}

fn main() {
    print_experiment();
    let mut crit: Harness = quick_harness();
    crit.bench_function("ablation_placement_run", |b| {
        let opts = PlacerOptions {
            margin: 100,
            ..PlacerOptions::default()
        };
        b.iter(|| place_with_options(macro_set(3), opts).utilization())
    });
    crit.final_summary();
}
