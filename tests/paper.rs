//! The paper's figures as numbers: every value the Fig. 4 and Table I
//! benches print, pinned at its printed precision and at its exact
//! bits. `tests/golden/paper.tsv` holds the expected rows; a mismatch
//! prints the replacement rows.
//!
//! Fig. 4 is the yield model of §VII (13 defect counts × 4 curves, the
//! calls of `crates/bench/benches/fig4_yield.rs`); Table I is the BISR
//! area overhead of every geometry `crates/bench/benches/table1_overhead.rs`
//! compiles, which reads the module area through the placement.

use bisramgen::mem::ArrayOrg;
use bisramgen::overhead_row;
use bisramgen::tech::Process;
use bisramgen::yield_model::repairability::YieldModel;

const GOLDEN: &str = include_str!("golden/paper.tsv");

/// Table I's geometry sweep (words, bpw, bpc), four spare rows each.
const TABLE1: &[(usize, usize, usize)] = &[
    (2048, 32, 4),
    (4096, 32, 4),
    (4096, 64, 8),
    (8192, 64, 8),
    (16384, 64, 8),
    (16384, 128, 8),
    (32768, 128, 8),
];

/// One golden row: `section <TAB> key <TAB> printed <TAB> bits`.
fn row(section: &str, key: &str, printed: String, value: f64) -> String {
    format!("{section}\t{key}\t{printed}\t{:016x}\n", value.to_bits())
}

fn fig4_model(spares: usize) -> YieldModel {
    let org = ArrayOrg::new(4096, 4, 4, spares).expect("fig4 geometry is valid");
    YieldModel::new(org, 0.05)
}

fn fig4_rows() -> String {
    let mut out = String::new();
    for i in 0..=12 {
        let defects = i as f64 * 4.0;
        let curves = [
            ("(a) none", fig4_model(4).yield_without_bisr(defects)),
            ("(b) 4+BISR", fig4_model(4).yield_with_bisr(defects)),
            ("(c) 8+BISR", fig4_model(8).yield_with_bisr(defects)),
            ("(d) 16+BISR", fig4_model(16).yield_with_bisr(defects)),
        ];
        for (curve, y) in curves {
            out += &row(
                "fig4",
                &format!("{defects:.0} {curve}"),
                format!("{y:.4}"),
                y,
            );
        }
    }
    out
}

fn table1_rows() -> String {
    let process = Process::cda07();
    let mut out = String::new();
    for &(words, bpw, bpc) in TABLE1 {
        let r = overhead_row(&process, words, bpw, bpc, 4).expect("valid geometry");
        let key = format!("{words}x{bpw} bpc{bpc}");
        out += &row(
            "table1",
            &format!("{key} area_mm2"),
            format!("{:.3}", r.area_mm2),
            r.area_mm2,
        );
        out += &row(
            "table1",
            &format!("{key} overhead"),
            format!("{:.2}%", r.overhead * 100.0),
            r.overhead,
        );
        out += &row(
            "table1",
            &format!("{key} overhead_with_spares"),
            format!("{:.2}%", r.overhead_with_spares * 100.0),
            r.overhead_with_spares,
        );
    }
    out
}

/// Compares `rows` with the golden rows of `section`, and panics with
/// the replacement rows on a mismatch.
fn check(section: &str, rows: String) {
    let expected: String = GOLDEN
        .lines()
        .filter(|l| l.split('\t').next() == Some(section))
        .map(|l| format!("{l}\n"))
        .collect();
    if rows != expected {
        let changed: Vec<&str> = rows
            .lines()
            .filter(|l| !expected.lines().any(|e| e == *l))
            .map(|l| l.split('\t').nth(1).unwrap_or(""))
            .collect();
        panic!(
            "{section}: values differ from tests/golden/paper.tsv at {changed:?}; \
             replacement rows:\n{rows}"
        );
    }
}

#[test]
fn fig4_yield_curves_are_pinned() {
    check("fig4", fig4_rows());
}

#[test]
fn table1_overhead_rows_are_pinned() {
    check("table1", table1_rows());
}
