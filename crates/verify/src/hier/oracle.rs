//! The per-instance summary merge, kept as the reference the run-aware
//! merge is checked against, and the generated tilings that check it.

use super::*;
use bisram_layout::leaf::LeafSpec;
use bisram_layout::tile;
use bisram_rng::rngs::StdRng;
use bisram_rng::{Rng, SeedableRng};
use bisram_tech::Process;

/// Merges the children's summaries one child at a time: every open net
/// of every child is unioned through the pairs of touching children,
/// then classified against the container frame.
fn merge_per_instance(
    children: &[(Arc<CellCertificate>, Transform)],
    frame: Rect,
    side: Side,
) -> GraphSummary {
    let extents: Vec<Rect> = children
        .iter()
        .map(|(c, t)| t.apply_rect(c.extent))
        .collect();
    let mut out = GraphSummary::default();
    let mut base = Vec::with_capacity(children.len());
    let mut total = 0usize;
    for (c, _) in children {
        let s = side(c);
        base.push(total);
        total += s.open.len();
        out.closed_nets += s.closed_nets;
        out.closed_floating += s.closed_floating;
        out.devices += s.devices;
    }
    let nl = Layer::ALL.len();
    let mut uf = sweep::UnionFind::new(total);
    let mut pairs = Vec::new();
    sweep::pair_sweep(&extents, 0, |i, j| pairs.push((i, j)));
    pairs.sort_unstable();
    let fill = |c: &CellCertificate, t: Transform| {
        let mut buckets: Vec<(Vec<Rect>, Vec<usize>)> = vec![(Vec::new(), Vec::new()); nl];
        let s = side(c);
        for (oi, (_, range)) in s.open_ranges().enumerate() {
            for &(layer, r) in &s.shapes[range] {
                let idx = layer.id().index() as usize;
                buckets[idx].0.push(t.apply_rect(r));
                buckets[idx].1.push(oi);
            }
        }
        buckets
    };
    for &(i, j) in &pairs {
        let ((ci, ti), (cj, tj)) = (&children[i], &children[j]);
        let rel = tj.then(ti.inverse());
        let (a, b) = (fill(ci, Transform::IDENTITY), fill(cj, rel));
        for l in 0..nl {
            let ((ra, ia), (rb, ib)) = (&a[l], &b[l]);
            sweep::join_sweep(ra, rb, 0, |x, y| uf.union(base[i] + ia[x], base[j] + ib[y]));
        }
    }
    let interior = frame.expand(-1);
    let mut comp_of_root = vec![usize::MAX; total];
    let (mut comp_terminals, mut frame_shapes) = (Vec::new(), Vec::new());
    for (k, (c, t)) in children.iter().enumerate() {
        let s = side(c);
        for (oi, (net, range)) in s.open_ranges().enumerate() {
            let ci = comp_for(
                &mut comp_of_root[uf.find(base[k] + oi)],
                &mut comp_terminals,
            );
            comp_terminals[ci] += net.terminals;
            for &(layer, r) in &s.shapes[range] {
                let rr = t.apply_rect(r);
                if !interior.contains_rect(rr) {
                    frame_shapes.push((ci, layer, rr));
                }
            }
        }
    }
    // Group by component, keeping the (child, net, shape) order within.
    frame_shapes.sort_by_key(|&(ci, ..)| ci);
    let mut at = 0;
    for (ci, &terminals) in comp_terminals.iter().enumerate() {
        let end = at + frame_shapes[at..].iter().take_while(|s| s.0 == ci).count();
        if end == at {
            out.closed_nets += 1;
            if terminals == 0 {
                out.closed_floating += 1;
            }
        } else {
            out.open.push(OpenNet { end, terminals });
        }
        at = end;
    }
    out.shapes = frame_shapes.iter().map(|&(_, l, r)| (l, r)).collect();
    out
}

/// Asserts that the run-aware and the per-instance merge certify `cell`
/// identically, whole certificate compared. Summaries are checked
/// field by field first, so a failure names what differs instead of
/// printing thousands of nets.
fn assert_merges_agree(process: &Process, lib: &SchematicLib, cell: &Cell) {
    let rules = process.rules();
    let fast = Hier::new(rules, lib, &NoCertStore).certify(cell);
    let mut per_instance = Hier::new(rules, lib, &NoCertStore);
    per_instance.merge = merge_per_instance;
    let slow = per_instance.certify(cell);
    let name = cell.name();
    for (what, a, b) in [
        ("extracted", &fast.extracted, &slow.extracted),
        ("reference", &fast.reference, &slow.reference),
    ] {
        assert_eq!(
            (a.closed_nets, a.closed_floating, a.devices),
            (b.closed_nets, b.closed_floating, b.devices),
            "{name} {what}: closed nets, floating, devices"
        );
        assert_eq!(a.open.len(), b.open.len(), "{name} {what}: open nets");
        let net = a.open.iter().zip(&b.open).position(|(x, y)| x != y);
        assert_eq!(net, None, "{name} {what}: first differing open net");
        let shape = a.shapes.iter().zip(&b.shapes).position(|(x, y)| x != y);
        assert_eq!(shape, None, "{name} {what}: first differing shape");
    }
    assert!(*fast == *slow, "{name}: certificates differ");
}

fn sram(process: &Process) -> Arc<Cell> {
    Arc::new(LeafSpec::Sram6t.build(process))
}

/// A 6T cell whose bitline is cut: a through-wire missing in one row.
fn sram_without_bitline(process: &Process) -> Arc<Cell> {
    let lam = process.rules().lambda();
    let bl = Rect::new(2 * lam, 0, 5 * lam, 40 * lam);
    let full = LeafSpec::Sram6t.build(process);
    let mut cut = Cell::new("sram6t");
    for &(layer, r) in full.shapes() {
        if (layer, r) != (Layer::Metal2, bl) {
            cut.add_shape(layer, r);
        }
    }
    Arc::new(cut)
}

/// The schematic library with an entry for the `bridge` strip of
/// [`shorted_row`]: one net and no anchor, so the strip is a short.
fn lib_with_bridge(process: &Process) -> SchematicLib {
    let mut lib = SchematicLib::standard(process);
    lib.insert(CellSchematic {
        name: "bridge".into(),
        nets: vec![schematic::SchematicNet {
            name: "strap".into(),
            anchors: Vec::new(),
        }],
        devices: Vec::new(),
    });
    lib
}

/// The row kinds the generated columns are stacked from.
#[derive(Clone, Copy, Debug)]
enum RowKind {
    /// `bits` 6T cells.
    Plain,
    /// The same content as `Plain` under another `Arc`: a different
    /// certificate, so it breaks runs without changing the geometry.
    Copy,
    /// A metal-1 strip shorting the first cell's ground and VDD rails.
    Shorted,
    /// The first cell's bitline cut.
    Open,
}

struct Rows {
    plain: Arc<Cell>,
    copy: Arc<Cell>,
    shorted: Arc<Cell>,
    open: Arc<Cell>,
}

impl Rows {
    fn new(process: &Process, bits: usize) -> Self {
        let lam = process.rules().lambda();
        let row = |name: &str| tile::tile_row(name, sram(process), bits);
        let mut shorted = row("row_short");
        let mut bridge = Cell::new("bridge");
        bridge.add_shape(Layer::Metal1, Rect::new(12 * lam, 0, 15 * lam, 25 * lam));
        shorted.add_instance("bridge", Arc::new(bridge), Transform::IDENTITY);
        let mut open = Cell::new("row_open");
        open.add_instance("c0", sram_without_bitline(process), Transform::IDENTITY);
        let rest = Arc::new(tile::tile_row("rest", sram(process), bits - 1));
        open.add_instance("rest", rest, Transform::translate(Point::new(26 * lam, 0)));
        Rows {
            plain: Arc::new(row("row")),
            copy: Arc::new(row("row")),
            shorted: Arc::new(shorted),
            open: Arc::new(open),
        }
    }

    fn get(&self, kind: RowKind) -> &Arc<Cell> {
        match kind {
            RowKind::Plain => &self.plain,
            RowKind::Copy => &self.copy,
            RowKind::Shorted => &self.shorted,
            RowKind::Open => &self.open,
        }
    }

    /// The rows stacked bottom-up at the row pitch, all unmirrored.
    fn column(&self, kinds: &[RowKind]) -> Cell {
        let h = self.plain.bbox().height();
        let mut column = Cell::new("column");
        for (r, &kind) in kinds.iter().enumerate() {
            column.add_instance(
                format!("r{r}"),
                self.get(kind).clone(),
                Transform::translate(Point::new(0, r as i64 * h)),
            );
        }
        column
    }
}

/// The run lengths of a container's children, as the merge splits them.
fn run_lengths(process: &Process, lib: &SchematicLib, cell: &Cell) -> Vec<usize> {
    let mut engine = Hier::new(process.rules(), lib, &NoCertStore);
    let children: Vec<_> = cell
        .instances()
        .iter()
        .map(|i| (engine.certify(&i.master), i.transform))
        .collect();
    find_runs(&children).iter().map(|r| r.1).collect()
}

const RUN_LENGTHS: [usize; 10] = [1, 2, 3, 5, 7, 8, 63, 64, 65, 1000];

#[test]
fn run_aware_merge_equals_per_instance_on_columns_and_rows() {
    let process = Process::cda07();
    let lib = SchematicLib::standard(&process);
    let rows = Rows::new(&process, 4);
    for n in RUN_LENGTHS {
        let column = rows.column(&vec![RowKind::Plain; n]);
        assert_eq!(run_lengths(&process, &lib, &column), vec![n]);
        assert_merges_agree(&process, &lib, &column);
        let row = tile::tile_row("wide_row", sram(&process), n);
        assert_eq!(run_lengths(&process, &lib, &row), vec![n]);
        assert_merges_agree(&process, &lib, &row);
    }
}

#[test]
fn run_aware_merge_equals_per_instance_on_grids_and_strapped_rows() {
    // Row-major grids make one run per grid row, all sharing one run
    // summary; straps break a row into equal runs at a changed step.
    let process = Process::cda07();
    let lib = SchematicLib::standard(&process);
    let lam = process.rules().lambda();
    for (rows, cols) in [(2, 3), (5, 7), (3, 64), (65, 2)] {
        let grid = tile::tile_grid("grid", sram(&process), rows, cols);
        assert_eq!(run_lengths(&process, &lib, &grid), vec![cols; rows]);
        assert_merges_agree(&process, &lib, &grid);
    }
    let strapped = tile::tile_with_straps("strapped", sram(&process), 1, 37, 8, 12 * lam);
    assert_eq!(run_lengths(&process, &lib, &strapped), vec![8, 8, 8, 8, 5]);
    assert_merges_agree(&process, &lib, &strapped);
}

#[test]
fn mirrored_rows_are_no_run_and_fall_back_to_single_children() {
    let process = Process::cda07();
    let lib = SchematicLib::standard(&process);
    let row = Arc::new(tile::tile_row("row", sram(&process), 4));
    let h = row.bbox().height();
    for n in [2, 3, 64, 65] {
        let mut column = Cell::new("mirrored");
        for r in 0..n {
            let t = if r % 2 == 0 {
                Transform::translate(Point::new(0, r * h))
            } else {
                Transform::new(Orientation::Mx, Point::new(0, (r + 1) * h))
            };
            column.add_instance(format!("r{r}"), row.clone(), t);
        }
        assert_eq!(run_lengths(&process, &lib, &column), vec![1; n as usize]);
        assert_merges_agree(&process, &lib, &column);
    }
}

#[test]
fn planted_short_and_open_rows_split_the_run_like_per_instance() {
    let process = Process::cda07();
    let lib = lib_with_bridge(&process);
    let rows = Rows::new(&process, 4);
    for n in [8, 65] {
        for k in [0, n / 2, n - 1] {
            for defect in [RowKind::Shorted, RowKind::Open] {
                let mut kinds = vec![RowKind::Plain; n];
                kinds[k] = defect;
                let column = rows.column(&kinds);
                let runs = run_lengths(&process, &lib, &column);
                assert_eq!(runs.iter().sum::<usize>(), n);
                assert!(runs.contains(&1), "{defect:?} at {k}: {runs:?}");
                assert_merges_agree(&process, &lib, &column);
            }
        }
    }
}

#[test]
fn run_aware_merge_equals_per_instance_on_generated_mixed_columns() {
    // Stretches of random length and random row kind: runs of every
    // length meet runs of other masters, copies and planted defects.
    let process = Process::cda07();
    let lib = lib_with_bridge(&process);
    let rows = Rows::new(&process, 3);
    let kinds = [
        RowKind::Plain,
        RowKind::Copy,
        RowKind::Shorted,
        RowKind::Open,
    ];
    for seed in 0..12 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut column = Vec::new();
        while column.len() < 80 {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let len = rng.gen_range(1..=12usize);
            column.extend(std::iter::repeat_n(kind, len));
        }
        assert_merges_agree(&process, &lib, &rows.column(&column));
    }
}

#[test]
fn runs_in_every_orientation_at_any_origin_equal_per_instance() {
    // Rows and columns of one row cell under each orientation, starting
    // away from the origin: the run's linked nets are found between
    // reoriented neighbours, and a lone run is placed at its first
    // child's offset.
    let process = Process::cda07();
    let lib = SchematicLib::standard(&process);
    let lam = process.rules().lambda();
    let row = Arc::new(tile::tile_row("row", sram(&process), 3));
    for o in Orientation::ALL {
        let e = Transform::new(o, Point::ORIGIN).apply_rect(row.bbox());
        for (dx, dy) in [(0, e.height()), (e.width(), 0)] {
            let mut cell = Cell::new("oriented");
            for k in 0..9 {
                let at = Point::new(-7 * lam + k * dx, 11 * lam + k * dy);
                cell.add_instance(format!("r{k}"), row.clone(), Transform::new(o, at));
            }
            assert_eq!(run_lengths(&process, &lib, &cell), vec![9], "{o:?}");
            assert_merges_agree(&process, &lib, &cell);
        }
    }
}

#[test]
fn a_child_inside_a_run_frame_makes_the_merge_fall_back() {
    // A staircase of 6T cells is a run whose frame holds empty corners;
    // a cell placed in one touches two steps through its wordline and
    // rails. A run summary has dropped those shapes as interior, so the
    // merge must take the children one by one.
    let process = Process::cda07();
    let lib = SchematicLib::standard(&process);
    let cell = sram(&process);
    let (w, h) = (cell.bbox().width(), cell.bbox().height());
    let mut stairs = Cell::new("stairs");
    for k in 0..6 {
        stairs.add_instance(
            format!("s{k}"),
            cell.clone(),
            Transform::translate(Point::new(k * w, k * h)),
        );
    }
    stairs.add_instance("nook", cell.clone(), Transform::translate(Point::new(w, 0)));
    assert_eq!(run_lengths(&process, &lib, &stairs), vec![6, 1]);
    assert_merges_agree(&process, &lib, &stairs);
}

/// A `w`×`h` metal-1 cell with a strip down its west edge (`p`, which
/// joins the cells above and below) and a tab in its north-east corner
/// (`q`, which joins nothing in a column). `q_first` lists the tab's net
/// first, so its shapes precede the strip's in the cell's own summary.
fn strip_and_tab(lam: i64, q_first: bool) -> (Arc<Cell>, CellSchematic) {
    let (w, h) = (20 * lam, 12 * lam);
    let p = Rect::new(0, 0, 3 * lam, h);
    let q = Rect::new(w - 3 * lam, h - 3 * lam, w, h);
    let nets = if q_first {
        [("q", q), ("p", p)]
    } else {
        [("p", p), ("q", q)]
    };
    let name = if q_first { "tab_strip" } else { "strip_tab" };
    let mut cell = Cell::new(name);
    for (_, r) in nets {
        cell.add_shape(Layer::Metal1, r);
    }
    let schematic = CellSchematic {
        name: name.into(),
        nets: nets
            .iter()
            .map(|&(net, r)| schematic::SchematicNet {
                name: net.into(),
                anchors: vec![(Layer::Metal1, r)],
            })
            .collect(),
        devices: Vec::new(),
    };
    (Arc::new(cell), schematic)
}

#[test]
fn a_bar_joining_a_run_nets_interleaves_their_shapes_like_per_instance() {
    // A column of strip-and-tab cells under a bar that touches the top
    // cell's strip and tab. Inside the run the strip is one net with a
    // shape in every cell and the top tab a net of its own; the bar joins
    // them, so the merged net takes the strip's shapes and then the tab's,
    // which the per-instance order puts before the top strip shape when
    // the tab comes first in the cell.
    let process = Process::cda07();
    let lam = process.rules().lambda();
    for q_first in [true, false] {
        let (cell, schematic) = strip_and_tab(lam, q_first);
        let mut lib = SchematicLib::new();
        lib.insert(schematic);
        let bar_rect = Rect::new(0, 0, 20 * lam, 3 * lam);
        let mut bar = Cell::new("bar");
        bar.add_shape(Layer::Metal1, bar_rect);
        lib.insert(CellSchematic {
            name: "bar".into(),
            nets: vec![schematic::SchematicNet {
                name: "bar".into(),
                anchors: vec![(Layer::Metal1, bar_rect)],
            }],
            devices: Vec::new(),
        });
        for n in [2, 5, 64] {
            let mut column = tile::tile_column("column", cell.clone(), n);
            column.add_instance(
                "bar",
                Arc::new(bar.clone()),
                Transform::translate(Point::new(0, n as i64 * 12 * lam)),
            );
            assert_eq!(run_lengths(&process, &lib, &column), vec![n, 1]);
            assert_merges_agree(&process, &lib, &column);
        }
    }
}

#[test]
fn zero_area_extents_form_no_runs() {
    let process = Process::cda07();
    let lam = process.rules().lambda();
    let mut line = Cell::new("line");
    line.add_shape(Layer::Metal1, Rect::new(0, 0, 0, 4 * lam));
    let column = tile::tile_column("column", Arc::new(line), 4);
    let lib = SchematicLib::new();
    assert_eq!(run_lengths(&process, &lib, &column), vec![1; 4]);
    assert_merges_agree(&process, &lib, &column);
}

#[test]
#[ignore = "long: a 16 384-row column of 32-bit rows, run in release"]
fn run_aware_merge_equals_per_instance_on_a_16k_row_column() {
    let process = Process::cda07();
    let lib = SchematicLib::standard(&process);
    let row = Arc::new(tile::tile_row("array_row", sram(&process), 32));
    let column = tile::tile_column("ram_array", row, 16_384);
    assert_merges_agree(&process, &lib, &column);
}
