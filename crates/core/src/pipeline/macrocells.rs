//! Stage 3 — the macrocell set: leaf cells tiled into the twelve
//! macrocells of the module, plus the area report behind Table I.
//!
//! The macrocells are mutually independent (each tiles its own leaves),
//! so this stage generates them **in parallel** on the scoped-thread
//! executor, up to the context's job count. Each macrocell is also
//! individually content-keyed (kind `macro`), so a sweep point that
//! changes only the word width regenerates the word-pitched macros and
//! reuses the row-pitched ones.

use super::control::ControlPlan;
use super::key::{content_key, ContentKey};
use super::leaves::LeafSet;
use super::{PipelineCtx, Stage};
use crate::compiler::CompileError;
use bisram_bist::trpla::{Pla, Tri};
use bisram_geom::{Point, PortDirection, Side, Transform};
use bisram_layout::area::AreaReport;
use bisram_layout::{tile, Cell};
use std::sync::Arc;

/// A deferred macrocell build handed to the parallel executor.
type Task<'t> = Box<dyn FnOnce() -> Result<Arc<Cell>, CompileError> + Send + 't>;

/// The macrocell names, in the compiler's canonical order (the area
/// report and the placer consume them in this order, which keeps every
/// downstream artifact byte-stable).
pub const MACRO_NAMES: [&str; 12] = [
    "ram_array",
    "row_decoders",
    "wl_drivers",
    "precharge",
    "column_mux",
    "sense_amps",
    "write_drivers",
    "bist_addgen",
    "bist_datagen",
    "bist_trpla",
    "bist_streg",
    "bisr_tlb",
];

/// The tiled macrocells of one compile plus their area accounting.
#[derive(Debug, Clone)]
pub struct MacroSet {
    /// `(name, cell)` in [`MACRO_NAMES`] order.
    pub cells: Vec<(&'static str, Arc<Cell>)>,
    /// The itemized area report (array rows split into regular/spare).
    pub report: AreaReport,
}

impl MacroSet {
    /// Looks a macrocell up by name.
    pub fn cell(&self, name: &str) -> Option<&Arc<Cell>> {
        self.cells.iter().find(|(n, _)| *n == name).map(|(_, c)| c)
    }
}

/// Builds the [`MacroSet`] from the control plan and leaf set.
#[derive(Debug, Clone)]
pub struct MacroStage {
    /// Stage-1 artifact (the TRPLA personality sizes `bist_trpla` and
    /// `bist_streg`).
    pub control: Arc<ControlPlan>,
    /// Stage-2 artifact.
    pub leaves: Arc<LeafSet>,
}

impl Stage for MacroStage {
    type Artifact = MacroSet;

    const NAME: &'static str = "macrocells";

    fn key(&self, ctx: &PipelineCtx<'_>) -> ContentKey {
        // Reads the full geometry, the process (via the leaf set), and
        // the PLA personality.
        content_key(&(ctx.params_fingerprint(), &self.control.pla))
    }

    fn run(&self, ctx: &PipelineCtx<'_>) -> Result<MacroSet, CompileError> {
        let params = ctx.params;
        let org = *params.org();
        let lambda = params.process().rules().lambda();
        let fp = ctx.process_fingerprint();
        let leaves = &self.leaves;
        let pla = &self.control.pla;
        let flip_flops = self.control.program.flip_flops() as usize;
        let addr_bits = (org.row_bits() + org.col_bits()).max(1) as usize;

        // One closure per macrocell; each consults the cache under its
        // own key (the subset of inputs that macro reads) and builds on
        // a miss. The executor preserves list order, so the result is
        // schedule-independent.
        fn cached<'t>(
            ctx: &'t PipelineCtx<'_>,
            key: ContentKey,
            build: Box<dyn FnOnce() -> Cell + Send + 't>,
        ) -> Task<'t> {
            Box::new(move || ctx.cache().get_or_build("macro", key, || Ok(build())))
        }
        let cached = |key, build| cached(ctx, key, build);
        let tasks: Vec<Task<'_>> = vec![
            cached(
                content_key(&(
                    "ram_array",
                    fp,
                    org.columns(),
                    org.total_rows(),
                    params.strap_every(),
                    params.strap_lambda(),
                )),
                Box::new(move || {
                    let array_row = Arc::new(tile::tile_with_straps(
                        "array_row",
                        Arc::clone(&leaves.sram),
                        1,
                        org.columns(),
                        params.strap_every(),
                        params.strap_lambda() * lambda,
                    ));
                    let mut array = tile::tile_column("ram_array", array_row, org.total_rows());
                    // Representative boundary ports so the placer's
                    // alignment heuristic has something to align (word
                    // line of row 0, bitline of column 0).
                    array.add_port(tile::wordline_boundary_port(
                        lambda,
                        array.bbox().width(),
                        Side::West,
                        PortDirection::Input,
                    ));
                    array.add_port(tile::bitline_boundary_port(lambda));
                    array
                }),
            ),
            cached(
                content_key(&("row_decoders", fp, org.row_bits(), org.total_rows())),
                Box::new(move || {
                    let mut rowdec = tile::tile_column(
                        "row_decoders",
                        Arc::clone(&leaves.rowdec),
                        org.total_rows(),
                    );
                    rowdec.add_port(tile::wordline_boundary_port(
                        lambda,
                        rowdec.bbox().width(),
                        Side::East,
                        PortDirection::Output,
                    ));
                    rowdec
                }),
            ),
            cached(
                content_key(&("wl_drivers", fp, params.gate_size(), org.total_rows())),
                Box::new(move || {
                    tile::tile_column("wl_drivers", Arc::clone(&leaves.wldrv), org.total_rows())
                }),
            ),
            cached(
                content_key(&("precharge", fp, params.gate_size(), org.columns())),
                Box::new(move || {
                    let mut prech =
                        tile::tile_row("precharge", Arc::clone(&leaves.prech), org.columns());
                    prech.add_port(tile::bitline_boundary_port(lambda));
                    prech
                }),
            ),
            cached(
                content_key(&("column_mux", fp, org.columns())),
                Box::new(move || {
                    tile::tile_row("column_mux", Arc::clone(&leaves.colmux), org.columns())
                }),
            ),
            cached(
                content_key(&("sense_amps", fp, org.bpw())),
                Box::new(move || tile::tile_row("sense_amps", Arc::clone(&leaves.samp), org.bpw())),
            ),
            cached(
                content_key(&("write_drivers", fp, org.bpw())),
                Box::new(move || {
                    tile::tile_row("write_drivers", Arc::clone(&leaves.wrdrv), org.bpw())
                }),
            ),
            cached(
                content_key(&("bist_addgen", fp, addr_bits)),
                Box::new(move || {
                    tile::tile_row("bist_addgen", Arc::clone(&leaves.counter), addr_bits)
                }),
            ),
            cached(
                content_key(&("bist_datagen", fp, org.bpw())),
                Box::new(move || {
                    // DATAGEN: Johnson stages + XOR read comparators.
                    let stages = org.bpw() / 2 + 1;
                    let johnson = Arc::new(tile::tile_row(
                        "johnson",
                        Arc::clone(&leaves.dff),
                        stages.max(1),
                    ));
                    let xors = Arc::new(tile::tile_row(
                        "comparators",
                        Arc::clone(&leaves.xor2),
                        org.bpw(),
                    ));
                    let mut c = Cell::new("bist_datagen");
                    let jh = johnson.bbox().height();
                    c.add_instance("johnson", johnson, Transform::IDENTITY);
                    c.add_instance("xors", xors, Transform::translate(Point::new(0, jh)));
                    c
                }),
            ),
            cached(
                content_key(&("bist_trpla", fp, pla)),
                Box::new(move || build_pla_layout(leaves, pla)),
            ),
            cached(
                content_key(&("bist_streg", fp, flip_flops)),
                Box::new(move || tile::tile_row("bist_streg", Arc::clone(&leaves.dff), flip_flops)),
            ),
            cached(
                content_key(&("bisr_tlb", fp, org.spare_rows(), org.row_bits())),
                Box::new(move || {
                    build_tlb_layout(leaves, org.spare_rows(), org.row_bits(), lambda)
                }),
            ),
        ];
        let cells: Vec<Arc<Cell>> = bisram_exec::run_tasks(ctx.jobs(), tasks)
            .into_iter()
            .collect::<Result<_, _>>()?;

        // Area accounting (placement independent, so it belongs to this
        // stage). The array is split into regular and spare rows.
        let mut report = AreaReport::new();
        let array_area = cells[0].area();
        let per_row = array_area / org.total_rows() as i128;
        report.add("array_regular_rows", per_row * org.rows() as i128);
        report.add("array_spare_rows", per_row * org.spare_rows() as i128);
        for (name, cell) in MACRO_NAMES.iter().zip(&cells).skip(1) {
            report.add(name, cell.area());
        }

        Ok(MacroSet {
            cells: MACRO_NAMES.iter().copied().zip(cells).collect(),
            report,
        })
    }

    fn describe(artifact: &MacroSet) -> String {
        format!(
            "{} macros, {} nm2 accounted",
            artifact.cells.len(),
            artifact.report.total()
        )
    }
}

/// Builds the TRPLA layout from the PLA personality: one crosspoint cell
/// per (term, column), programmed where the personality demands, plus a
/// pull-up per term line.
fn build_pla_layout(leaves: &LeafSet, pla: &Pla) -> Cell {
    let on = &leaves.pla_on;
    let off = &leaves.pla_off;
    let pitch = on.bbox().width();
    let vpitch = on.bbox().height();
    let mut c = Cell::new("bist_trpla");
    for (t, (term, outs)) in pla.and_plane.iter().zip(pla.or_plane.iter()).enumerate() {
        let y = t as i64 * vpitch;
        for (i, tri) in term.iter().enumerate() {
            let master = if *tri == Tri::DontCare { off } else { on };
            c.add_instance(
                format!("and_{t}_{i}"),
                Arc::clone(master),
                Transform::translate(Point::new(i as i64 * pitch, y)),
            );
        }
        let or_x0 = term.len() as i64 * pitch;
        for (o, drive) in outs.iter().enumerate() {
            let master = if *drive { on } else { off };
            c.add_instance(
                format!("or_{t}_{o}"),
                Arc::clone(master),
                Transform::translate(Point::new(or_x0 + o as i64 * pitch, y)),
            );
        }
        c.add_instance(
            format!("pu_{t}"),
            Arc::clone(&leaves.pullup),
            Transform::translate(Point::new(or_x0 + outs.len() as i64 * pitch, y)),
        );
    }
    c
}

/// Builds the TLB: a CAM of `spares × row_bits` plus per-entry
/// match-line pull-ups at the CAM row pitch (the CAM bit's match line
/// sits at 28λ, the pull-up's at 3λ).
fn build_tlb_layout(leaves: &LeafSet, spare_rows: usize, row_bits: u32, lambda: i64) -> Cell {
    let cam_h = leaves.cam_bit.bbox().height();
    let cam = Arc::new(tile::tile_grid(
        "cam",
        Arc::clone(&leaves.cam_bit),
        spare_rows.max(1),
        row_bits.max(1) as usize,
    ));
    let mut c = Cell::new("bisr_tlb");
    let cw = cam.bbox().width();
    c.add_instance("cam", cam, Transform::IDENTITY);
    for entry in 0..spare_rows.max(1) {
        c.add_instance(
            format!("pullup_{entry}"),
            Arc::clone(&leaves.pullup),
            Transform::translate(Point::new(cw, entry as i64 * cam_h + 25 * lambda)),
        );
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::control::ControlStage;
    use crate::pipeline::leaves::LeafStage;
    use crate::pipeline::CompileOptions;
    use crate::RamParams;

    fn stage_for(params: &RamParams, opts: &CompileOptions) -> (MacroSet, MacroSet) {
        let ctx = PipelineCtx::new(params, opts);
        let control = ctx.run_stage(&ControlStage).unwrap();
        let leaves = ctx.run_stage(&LeafStage).unwrap();
        let stage = MacroStage { control, leaves };
        let serial_ctx = PipelineCtx::new(params, &CompileOptions::cold().with_jobs(1));
        let control_s = serial_ctx.run_stage(&ControlStage).unwrap();
        let leaves_s = serial_ctx.run_stage(&LeafStage).unwrap();
        let serial = MacroStage {
            control: control_s,
            leaves: leaves_s,
        };
        (stage.run(&ctx).unwrap(), serial.run(&serial_ctx).unwrap())
    }

    #[test]
    fn parallel_and_serial_macro_sets_are_identical() {
        let params = RamParams::builder()
            .words(512)
            .bits_per_word(16)
            .bits_per_column(4)
            .build()
            .unwrap();
        let (par, ser) = stage_for(&params, &CompileOptions::cold().with_jobs(8));
        assert_eq!(par.cells.len(), 12);
        for ((n1, c1), (n2, c2)) in par.cells.iter().zip(&ser.cells) {
            assert_eq!(n1, n2);
            assert_eq!(c1.bbox(), c2.bbox(), "{n1}");
            assert_eq!(c1.flatten(), c2.flatten(), "{n1}");
        }
        assert_eq!(format!("{}", par.report), format!("{}", ser.report));
    }

    #[test]
    fn macro_lookup_by_name() {
        let params = RamParams::builder().words(256).build().unwrap();
        let (set, _) = stage_for(&params, &CompileOptions::cold());
        assert!(set.cell("ram_array").is_some());
        assert!(set.cell("bisr_tlb").is_some());
        assert!(set.cell("nonexistent").is_none());
    }

    #[test]
    fn word_width_change_reuses_row_pitched_macros() {
        let opts = CompileOptions::cold();
        let a = RamParams::builder()
            .words(1024)
            .bits_per_word(8)
            .bits_per_column(4)
            .build()
            .unwrap();
        // Same rows/columns? No: bpw changes columns (columns = bpw*bpc).
        // Row decoder column + wl driver column depend only on
        // total_rows, which is words/bpc here — keep words and bpc.
        let b = RamParams::builder()
            .words(1024)
            .bits_per_word(16)
            .bits_per_column(4)
            .build()
            .unwrap();
        let ctx_a = PipelineCtx::new(&a, &opts);
        let control = ctx_a.run_stage(&ControlStage).unwrap();
        let leaves = ctx_a.run_stage(&LeafStage).unwrap();
        let set_a = MacroStage { control, leaves }.run(&ctx_a).unwrap();
        let ctx_b = PipelineCtx::new(&b, &opts);
        let control = ctx_b.run_stage(&ControlStage).unwrap();
        let leaves = ctx_b.run_stage(&LeafStage).unwrap();
        let set_b = MacroStage { control, leaves }.run(&ctx_b).unwrap();
        // Shared: row-pitched and PLA macros. Distinct: word-pitched.
        for name in [
            "row_decoders",
            "wl_drivers",
            "bist_trpla",
            "bist_streg",
            "bisr_tlb",
        ] {
            assert!(
                Arc::ptr_eq(set_a.cell(name).unwrap(), set_b.cell(name).unwrap()),
                "{name} should be cache-shared"
            );
        }
        for name in ["ram_array", "sense_amps", "write_drivers", "bist_datagen"] {
            assert!(
                !Arc::ptr_eq(set_a.cell(name).unwrap(), set_b.cell(name).unwrap()),
                "{name} should differ"
            );
        }
    }
}
