//! Verification throughput: scanline DRC vs the legacy pairwise checker
//! on a flattened array macrocell.
//!
//! A 32x32 SRAM bit array is tiled from the 6T leaf and flattened to a
//! single `(Layer, Rect)` database (~30k shapes), then both DRC cores
//! run over it: the interval-sweep scanline engine that `bisram-verify`
//! and the Signoff stage use, and the original O(n²) all-pairs loop kept
//! as the reference baseline. Both must report the layout clean and the
//! scanline core must be at least 5x faster; the speedup is asserted
//! even in smoke mode (`BISRAM_BENCH_SMOKE=1`), which is what CI runs.
//! A third measurement times the full verification path (DRC +
//! extraction + LVS) through `verify_cell` for scale.
//!
//! The second half measures flat vs **hierarchical** verification
//! (`verify_cell_hier`) over growing bit arrays: flat cost scales with
//! placed area while the hierarchical engine verifies the one distinct
//! leaf once and sweeps only instance-boundary halos, so its curve
//! flattens out. Smoke mode asserts hier is at least 3x faster than
//! flat on the largest smoke configuration; the full run extends the
//! hierarchical curve to a 1 Mb+ array (1024x1024) that flat
//! verification cannot touch in bench time.
//!
//! A third case is shaped like the compiler's `ram_array` macro: one
//! 32-bit row cell stacked N and then 4N times in a single column.
//! Every instance shares one left edge, so any step of the engine that
//! sweeps along x alone degrades to O(N²) here. The rows form one run,
//! whose connectivity summary is built by doubling; what stays linear
//! is each row's unlinked wordline and rail ends and the boundary pass.
//! Smoke mode asserts hier(4N)/hier(N) <= 3.5: the engine measures about
//! 2.4 on a 2-core host, and a per-row merge measures 4.3.

use bisram_bench::harness::black_box;
use bisram_bench::{banner, quick_harness};
use bisram_geom::{Point, Transform};
use bisram_layout::leaf::LeafSpec;
use bisram_layout::{tile, Cell};
use bisram_tech::{drc, Process};
use bisram_verify::{verify_cell, verify_cell_hier, NoCertStore, SchematicLib};
use std::sync::Arc;
use std::time::Instant;

const ROWS: i64 = 32;
const COLS: i64 = 32;

fn array_cells(process: &Process, rows: i64, cols: i64) -> Cell {
    let lam = process.rules().lambda();
    let sram = Arc::new(LeafSpec::Sram6t.build(process));
    let mut array = Cell::new("bench_array");
    for row in 0..rows {
        for col in 0..cols {
            array.add_instance(
                format!("b{row}_{col}"),
                sram.clone(),
                Transform::translate(Point::new(col * 26 * lam, row * 40 * lam)),
            );
        }
    }
    array
}

/// `rows` copies of one 32-bit row cell in a column, as the compiler
/// tiles `ram_array`.
fn row_column(process: &Process, rows: usize) -> Cell {
    let sram = Arc::new(LeafSpec::Sram6t.build(process));
    let row = Arc::new(tile::tile_row("bench_row", sram, 32));
    tile::tile_column("bench_column", row, rows)
}

fn array_macro(process: &Process) -> Cell {
    array_cells(process, ROWS, COLS)
}

fn main() {
    banner(
        "verify_throughput",
        "scanline DRC vs legacy pairwise checker on a flattened array macro",
    );
    let process = Process::cda07();
    let rules = process.rules();
    let array = array_macro(&process);
    let shapes = array.flatten();
    println!(
        "flattened {}x{} bit array: {} shapes ({})",
        ROWS,
        COLS,
        shapes.len(),
        process.name(),
    );

    // Both cores must agree the tiling is clean before timing means
    // anything.
    let fast = drc::check(rules, shapes.iter().copied());
    let slow = drc::check_pairwise(rules, shapes.iter().copied());
    assert_eq!(fast, slow, "scanline and pairwise checkers disagree");
    assert!(fast.is_empty(), "bench array is not DRC-clean: {fast:?}");

    let mut h = quick_harness();
    h.bench_function("drc_scanline", |b| {
        b.iter(|| black_box(drc::check(rules, shapes.iter().copied())))
    });
    h.bench_function("drc_pairwise", |b| {
        b.iter(|| black_box(drc::check_pairwise(rules, shapes.iter().copied())))
    });
    let lib = SchematicLib::standard(&process);
    h.bench_function("verify_cell_full", |b| {
        b.iter(|| black_box(verify_cell(rules, &array, &lib)))
    });

    let scan = h.measurements().iter().find(|m| m.name == "drc_scanline");
    let pair = h.measurements().iter().find(|m| m.name == "drc_pairwise");
    if let (Some(scan), Some(pair)) = (scan, pair) {
        let speedup = pair.median / scan.median.max(1e-12);
        println!(
            "scanline: {} shapes in {:.2} ms   pairwise: {:.2} ms   speedup: {:.1}x",
            shapes.len(),
            scan.median * 1e3,
            pair.median * 1e3,
            speedup,
        );
        // The 5x floor is the acceptance bar for retiring the pairwise
        // core from the hot path; it must hold even on a single-shot
        // smoke timing, so no smoke-mode escape hatch here.
        assert!(
            speedup >= 5.0,
            "scanline DRC must beat the pairwise checker by at least 5x \
             on a flattened array macro, measured {speedup:.2}x"
        );
        println!("PASS: scanline >= 5x pairwise ({speedup:.1}x)");
    }

    // ---- flat vs hierarchical scaling ------------------------------------
    //
    // Single-shot wall-clock per configuration (the big arrays are far
    // too slow for repeated sampling, and a >=3x bar does not need
    // sub-millisecond precision). `NoCertStore` keeps the comparison
    // honest: each hierarchical run re-verifies the leaf once — the
    // speedup measured here is structural, not cache warmth.
    let smoke = std::env::var("BISRAM_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let (flat_sizes, hier_sizes): (&[i64], &[i64]) = if smoke {
        (&[8, 16, 32], &[8, 16, 32])
    } else {
        (&[32, 64, 128], &[32, 64, 128, 256, 1024])
    };
    println!("\n-- flat vs hierarchical verification scaling --");
    let mut flat_times = Vec::new();
    for &n in flat_sizes {
        let array = array_cells(&process, n, n);
        let start = Instant::now();
        let report = black_box(verify_cell(rules, &array, &lib));
        let secs = start.elapsed().as_secs_f64();
        assert!(report.is_clean(), "{n}x{n} flat report dirty:\n{report}");
        println!(
            "flat  {n:>5}x{n:<5} ({:>9} bits): {:>9.1} ms",
            n * n,
            secs * 1e3
        );
        flat_times.push((n, secs, report.to_string()));
    }
    let mut hier_times = Vec::new();
    for &n in hier_sizes {
        let array = array_cells(&process, n, n);
        let start = Instant::now();
        let report = black_box(verify_cell_hier(rules, &array, &lib, &NoCertStore));
        let secs = start.elapsed().as_secs_f64();
        assert!(report.is_clean(), "{n}x{n} hier report dirty:\n{report}");
        println!(
            "hier  {n:>5}x{n:<5} ({:>9} bits): {:>9.1} ms",
            n * n,
            secs * 1e3
        );
        // Wherever both modes ran, the clean reports must be
        // byte-identical — the hierarchical-mode contract.
        if let Some((_, _, flat_bytes)) = flat_times.iter().find(|(m, _, _)| *m == n) {
            assert_eq!(
                &report.to_string(),
                flat_bytes,
                "{n}x{n}: hierarchical report diverged from flat"
            );
        }
        hier_times.push((n, secs));
    }
    let (n, flat_at_bar, _) = flat_times.last().expect("flat configurations ran");
    let hier_at_bar = hier_times
        .iter()
        .find(|(hn, _)| hn == n)
        .map(|(_, s)| *s)
        .expect("hier ran the largest flat configuration");
    let ratio = flat_at_bar / hier_at_bar.max(1e-12);
    assert!(
        ratio >= 3.0,
        "hierarchical verification must be at least 3x faster than flat \
         on the {n}x{n} array, measured {ratio:.2}x"
    );
    println!("PASS: hier >= 3x flat ({ratio:.1}x at {n}x{n})");

    // ---- column of rows ---------------------------------------------------
    // 4N = 4096 rows is the row count of a 16384-word, 4-bit-per-column
    // array — the size at which an O(N²) step dominates.
    let base_rows = 1024;
    println!("\n-- hierarchical verification of a column of 32-bit rows --");
    let sizes = [base_rows, 4 * base_rows];
    let columns = sizes.map(|rows| row_column(&process, rows));
    // Best of five, the two sizes interleaved: a ratio of two single
    // shots is at the mercy of one scheduler hiccup, and a burst of host
    // load then slows both sizes alike.
    let mut column_times = [f64::INFINITY; 2];
    for _ in 0..5 {
        for (k, column) in columns.iter().enumerate() {
            let start = Instant::now();
            let report = black_box(verify_cell_hier(rules, column, &lib, &NoCertStore));
            column_times[k] = column_times[k].min(start.elapsed().as_secs_f64());
            assert!(
                report.is_clean(),
                "{}-row column hier report dirty:\n{report}",
                sizes[k]
            );
        }
    }
    for (rows, secs) in sizes.iter().zip(column_times) {
        println!(
            "hier  {rows:>5} rows x 32 ({:>9} bits): {:>9.1} ms",
            rows * 32,
            secs * 1e3
        );
    }
    let growth = column_times[1] / column_times[0].max(1e-12);
    let [small_ms, large_ms] = column_times.map(|s| s * 1e3);
    assert!(
        growth <= 3.5,
        "hierarchical verification of a column must grow slower than its rows: \
         4x the rows took {growth:.2}x the time ({small_ms:.2} -> {large_ms:.2} ms)"
    );
    println!(
        "PASS: hier column scales linearly ({growth:.2}x time for 4x rows: \
         {small_ms:.2} ms at {} rows, {large_ms:.2} ms at {} rows)",
        sizes[0], sizes[1]
    );

    if !smoke {
        let (big, secs) = hier_times.last().expect("hier configurations ran");
        println!(
            "hierarchical 1 Mb+ point: {}x{} = {} bits in {:.2} s",
            big,
            big,
            big * big,
            secs
        );
    }

    h.final_summary();
}
