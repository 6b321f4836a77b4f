//! The compile entry points and the assembled [`CompiledRam`].
//!
//! The actual generation lives in the staged pipeline
//! ([`crate::pipeline`]): control plan → leaf set → macrocells →
//! floorplan → signoff, each stage content-keyed and cached. This
//! module owns the public error type, the `compile`/`compile_with`
//! entry points, and the `CompiledRam` facade over the stage artifacts.

use crate::datasheet::Datasheet;
use crate::params::{ParamError, RamParams};
use crate::pipeline::{
    self, CompileOptions, ControlPlan, Floorplan, MacroSet, PipelineTrace, Signoff,
};
use bisram_bist::trpla::{ControlProgram, Pla, PlaneParseError};
use bisram_layout::area::AreaReport;
use bisram_layout::placer::Placement;
use bisram_layout::route::Route;
use bisram_layout::{export, Cell};
use bisram_mem::SramModel;
use std::fmt::Write as _;
use std::sync::Arc;

/// Errors from the compiler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Parameter validation failed (when compiling from raw inputs).
    Params(ParamError),
    /// The control-code interchange (the two PLA personality planes)
    /// failed to parse back.
    Pla(PlaneParseError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Params(e) => write!(f, "invalid parameters: {e}"),
            CompileError::Pla(e) => write!(f, "control code interchange: {e}"),
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Params(e) => Some(e),
            CompileError::Pla(e) => Some(e),
        }
    }
}

impl From<ParamError> for CompileError {
    fn from(e: ParamError) -> Self {
        CompileError::Params(e)
    }
}

impl From<PlaneParseError> for CompileError {
    fn from(e: PlaneParseError) -> Self {
        CompileError::Pla(e)
    }
}

/// A fully compiled BISR RAM module: a facade over the `Arc`-shared
/// pipeline artifacts, so cloning a compiled module (or holding many
/// from one sweep) shares the heavy layout data.
#[derive(Debug, Clone)]
pub struct CompiledRam {
    params: RamParams,
    control: Arc<ControlPlan>,
    macros: Arc<MacroSet>,
    floorplan: Arc<Floorplan>,
    signoff: Arc<Signoff>,
    areas: Areas,
    trace: PipelineTrace,
}

/// Area accounting of a compiled RAM.
#[derive(Debug, Clone)]
pub struct Areas {
    report: AreaReport,
}

impl Areas {
    /// The itemized report.
    pub fn report(&self) -> &AreaReport {
        &self.report
    }

    /// The Table I quantity: BIST + BISR circuitry area over everything
    /// else (spare rows are *not* counted as overhead — paper §IX:
    /// "redundancy is used in a vast majority of large RAMs even if
    /// there is no self-repair").
    pub fn overhead_fraction(&self) -> f64 {
        self.report
            .overhead(|n| n.starts_with("bist_") || n.starts_with("bisr_"))
    }

    /// The stricter variant counting the spare rows as overhead too.
    pub fn overhead_fraction_with_spares(&self) -> f64 {
        self.report.overhead(|n| {
            n.starts_with("bist_") || n.starts_with("bisr_") || n == "array_spare_rows"
        })
    }

    /// Controller (TRPLA) area as a fraction of the storage array area
    /// (paper §VI: "less than 0.1% for a 16-kbyte RAM").
    pub fn controller_fraction_of_array(&self) -> f64 {
        let array =
            self.report.area_of("array_regular_rows") + self.report.area_of("array_spare_rows");
        if array == 0 {
            0.0
        } else {
            self.report.area_of("bist_trpla") as f64 / array as f64
        }
    }
}

/// Compiles a validated parameter set into a full BISR RAM module,
/// using the process-wide shared artifact cache and automatic
/// parallelism (see [`compile_with`] for explicit control).
///
/// # Errors
///
/// [`CompileError::Pla`] if the self-generated control-code interchange
/// fails to parse back (indicates a bug, but no longer a panic);
/// parameter validation happens in [`RamParams`] construction.
pub fn compile(params: &RamParams) -> Result<CompiledRam, CompileError> {
    compile_with(params, &CompileOptions::default())
}

/// Compiles with explicit pipeline options: a chosen artifact cache
/// (shared, cold, or custom — see [`CompileOptions`]) and a fixed
/// macrocell worker count.
///
/// # Errors
///
/// See [`compile`].
pub fn compile_with(
    params: &RamParams,
    options: &CompileOptions,
) -> Result<CompiledRam, CompileError> {
    let out = pipeline::run_pipeline(params, options)?;
    Ok(CompiledRam {
        params: params.clone(),
        areas: Areas {
            report: out.macros.report.clone(),
        },
        control: out.control,
        macros: out.macros,
        floorplan: out.floorplan,
        signoff: out.signoff,
        trace: out.trace,
    })
}

impl CompiledRam {
    /// The parameters this module was compiled from.
    pub fn params(&self) -> &RamParams {
        &self.params
    }

    /// The assembled chip cell (macrocell instances + route shapes).
    pub fn chip(&self) -> &Cell {
        &self.floorplan.chip
    }

    /// The macrocell placement.
    pub fn placement(&self) -> &Placement {
        &self.floorplan.placement
    }

    /// The over-the-cell metal-3 routes.
    pub fn routes(&self) -> &[Route] {
        &self.floorplan.routes
    }

    /// The tiled macrocells (stage-3 artifact).
    pub fn macrocells(&self) -> &MacroSet {
        &self.macros
    }

    /// Area accounting.
    pub fn areas(&self) -> &Areas {
        &self.areas
    }

    /// The extrapolated datasheet.
    pub fn datasheet(&self) -> &Datasheet {
        &self.signoff.datasheet
    }

    /// The physical verification report (DRC + extraction + LVS over
    /// every macrocell), present when the compile ran with
    /// [`CompileOptions::with_verify`].
    pub fn verify_report(&self) -> Option<&bisram_verify::VerifyReport> {
        self.signoff.verify.as_deref()
    }

    /// The TRPLA control program (two-pass IFA-9 test and repair).
    pub fn control_program(&self) -> &ControlProgram {
        &self.control.program
    }

    /// The PLA personality.
    pub fn pla(&self) -> &Pla {
        &self.control.pla
    }

    /// The per-stage pipeline instrumentation of this compile: wall
    /// times, cache hits/misses, artifact summaries (printed by
    /// `bisramgen --timings`).
    pub fn trace(&self) -> &PipelineTrace {
        &self.trace
    }

    /// The control code in the paper's two-file format
    /// `(and_plane, or_plane)`.
    pub fn pla_planes(&self) -> (String, String) {
        self.control.pla.export_planes()
    }

    /// A fresh behavioural model of this memory (fault-free; inject
    /// faults and run the BIST/BISR flows from `bisram-bist` /
    /// `bisram-repair` against it).
    pub fn behavioural_model(&self) -> SramModel {
        SramModel::new(*self.params.org())
    }

    /// Total module area in mm².
    pub fn area_mm2(&self) -> f64 {
        self.floorplan.placement.bbox().area() as f64 * 1e-12
    }

    /// An SVG floorplan plot — the stand-in for the paper's Fig. 6/7
    /// layout photographs (macro outlines with labels; full-detail
    /// geometry export is [`CompiledRam::to_cif`]).
    pub fn floorplan_svg(&self) -> String {
        let bbox = self.floorplan.placement.bbox();
        let mut out = String::new();
        let _ = writeln!(
            out,
            r#"<svg xmlns="http://www.w3.org/2000/svg" viewBox="{} {} {} {}">"#,
            bbox.left(),
            -bbox.top(),
            bbox.width().max(1),
            bbox.height().max(1)
        );
        let palette = [
            "#b0c4de", "#ffd9a0", "#c1e1c1", "#f4b6c2", "#d7bde2", "#aed6f1", "#f9e79f", "#a3e4d7",
            "#f5cba7", "#d5dbdb", "#fadbd8", "#d4efdf",
        ];
        for (i, m) in self.floorplan.placement.placed().iter().enumerate() {
            let b = m.bbox();
            let _ = writeln!(
                out,
                r##"<rect x="{}" y="{}" width="{}" height="{}" fill="{}" stroke="#333" stroke-width="{}"/>"##,
                b.left(),
                -b.top(),
                b.width(),
                b.height(),
                palette[i % palette.len()],
                bbox.width() / 400 + 1,
            );
            let c = b.center();
            let _ = writeln!(
                out,
                r#"<text x="{}" y="{}" font-size="{}" text-anchor="middle">{}</text>"#,
                c.x,
                -c.y,
                (b.height() / 8).clamp(bbox.width() / 120 + 1, bbox.width() / 30 + 2),
                m.name
            );
        }
        for r in &self.floorplan.routes {
            for (_, rect) in &r.shapes {
                let _ = writeln!(
                    out,
                    r##"<rect x="{}" y="{}" width="{}" height="{}" fill="#20b2aa"/>"##,
                    rect.left(),
                    -rect.top(),
                    rect.width().max(1),
                    rect.height().max(1)
                );
            }
        }
        let _ = writeln!(out, "</svg>");
        out
    }

    /// Full-detail CIF of the chip. **Flattens the entire hierarchy** —
    /// intended for small modules and leaf-cell inspection; a 4 Mb array
    /// produces a very large file. The first call renders it into the
    /// floorplan; later calls on any module sharing that floorplan copy
    /// the rendered text.
    pub fn to_cif(&self) -> String {
        let floorplan = &self.floorplan;
        floorplan
            .cif
            .get_or_init(|| export::to_cif(&floorplan.chip))
            .clone()
    }

    /// A SPICE deck of the sense path (bit cell driving the bitline into
    /// the current-mode sense amplifier) — the per-leaf "simulation
    /// model" output of the tool.
    pub fn sense_path_spice(&self) -> String {
        use bisram_circuit::{MosType, Netlist};
        let dev = self.params.process().devices();
        let l = self.params.process().gate_length_m();
        let lambda_m = self.params.process().rules().lambda() as f64 * 1e-9;
        let mut nl = Netlist::new("sense_path");
        let vdd = nl.node("vdd!");
        let gnd = Netlist::ground();
        nl.vdc(vdd, gnd, dev.vdd);
        // Selected cell pulls one bitline down through the access device.
        let wl = nl.node("wl");
        let bl = nl.node("bl");
        let blb = nl.node("blb");
        nl.vpwl(wl, gnd, vec![(0.0, 0.0), (1e-9, 0.0), (1.05e-9, dev.vdd)]);
        nl.mos(MosType::Nmos, bl, wl, gnd, 4.0 * lambda_m, l);
        // Bitline capacitances.
        let rows = self.params.org().total_rows() as f64;
        let c_bl = rows * dev.c_drain(4.0 * lambda_m, 3.0 * lambda_m);
        nl.capacitor(bl, gnd, c_bl);
        nl.capacitor(blb, gnd, c_bl);
        // Cross-coupled current-mode sense pair (Fig. 3).
        nl.mos(MosType::Pmos, bl, blb, vdd, 8.0 * lambda_m, l);
        nl.mos(MosType::Pmos, blb, bl, vdd, 8.0 * lambda_m, l);
        nl.to_spice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellCache, RamParams};

    fn small() -> CompiledRam {
        let p = RamParams::builder()
            .words(256)
            .bits_per_word(8)
            .bits_per_column(4)
            .spare_rows(4)
            .build()
            .unwrap();
        compile(&p).unwrap()
    }

    #[test]
    fn compile_produces_all_macrocells() {
        let ram = small();
        for name in [
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
        ] {
            assert!(
                ram.placement().find(name).is_some(),
                "missing macrocell {name}"
            );
            assert!(ram.areas().report().area_of(name) > 0 || name == "ram_array");
            assert!(ram.macrocells().cell(name).is_some());
        }
        assert!(ram.area_mm2() > 0.0);
    }

    #[test]
    fn macrocells_do_not_overlap() {
        let ram = small();
        let placed = ram.placement().placed();
        for i in 0..placed.len() {
            for j in (i + 1)..placed.len() {
                assert!(
                    !placed[i].bbox().overlaps(placed[j].bbox()),
                    "{} overlaps {}",
                    placed[i].name,
                    placed[j].name
                );
            }
        }
    }

    #[test]
    fn overhead_is_below_seven_percent_for_realistic_sizes() {
        // Paper abstract: "low area overheads for BIST and BISR, of at
        // most 7% for realistic array sizes" (64 Kb to 4 Mb).
        for (words, bpw, bpc) in [(2048, 32, 4), (8192, 32, 8), (16384, 64, 8)] {
            let p = RamParams::builder()
                .words(words)
                .bits_per_word(bpw)
                .bits_per_column(bpc)
                .build()
                .unwrap();
            let ram = compile(&p).unwrap();
            let o = ram.areas().overhead_fraction();
            assert!(
                o < 0.07,
                "{words}x{bpw}: overhead {:.2}% exceeds 7%",
                o * 100.0
            );
        }
    }

    #[test]
    fn overhead_shrinks_with_array_size() {
        let mk = |words| {
            let p = RamParams::builder()
                .words(words)
                .bits_per_word(32)
                .bits_per_column(8)
                .build()
                .unwrap();
            compile(&p).unwrap().areas().overhead_fraction()
        };
        let small = mk(2048);
        let large = mk(32768);
        assert!(large < small, "overhead: small={small:.4} large={large:.4}");
    }

    #[test]
    fn controller_is_tiny_fraction_of_sixteen_kb_array() {
        // Paper §VI: "the controller area is found to be a very tiny
        // fraction of the memory array area (less than 0.1%) for a
        // 16-kbyte RAM".
        let p = RamParams::builder()
            .words(16384)
            .bits_per_word(8)
            .bits_per_column(8)
            .build()
            .unwrap();
        let ram = compile(&p).unwrap();
        let frac = ram.areas().controller_fraction_of_array();
        assert!(frac < 0.001, "controller fraction {frac:.5}");
    }

    #[test]
    fn floorplan_svg_and_cif_render() {
        let ram = small();
        let svg = ram.floorplan_svg();
        assert!(svg.contains("ram_array") && svg.contains("bisr_tlb"));
        assert!(svg.trim_end().ends_with("</svg>"));
        let cif = ram.to_cif();
        assert!(cif.contains("L CMF;") && cif.trim_end().ends_with('E'));
    }

    #[test]
    fn cif_renders_once_per_cached_floorplan() {
        let options = CompileOptions::new().with_cache(Arc::new(CellCache::new()));
        let a = compile_with(small().params(), &options).unwrap();
        let b = compile_with(small().params(), &options).unwrap();
        assert!(Arc::ptr_eq(&a.floorplan, &b.floorplan));
        assert!(b.floorplan.cif.get().is_none());
        let cif = a.to_cif();
        assert_eq!(cif, export::to_cif(&a.floorplan.chip));
        assert_eq!(b.floorplan.cif.get(), Some(&cif), "b sees a's render");
        assert_eq!(b.to_cif(), cif);
    }

    #[test]
    fn pla_planes_roundtrip_through_files() {
        let ram = small();
        let (and_s, or_s) = ram.pla_planes();
        let back = Pla::import_planes(&and_s, &or_s).unwrap();
        assert_eq!(&back, ram.pla());
        assert_eq!(ram.control_program().flip_flops(), 6);
    }

    #[test]
    fn behavioural_model_matches_parameters() {
        let ram = small();
        let model = ram.behavioural_model();
        assert_eq!(model.org(), ram.params().org());
    }

    #[test]
    fn sense_path_spice_is_simulatable_text() {
        let ram = small();
        let deck = ram.sense_path_spice();
        assert!(deck.contains("M1") && deck.contains("PWL") && deck.contains(".END"));
    }

    #[test]
    fn compile_records_a_full_trace() {
        let ram = small();
        assert_eq!(ram.trace().stages.len(), 5);
        assert!(ram.trace().jobs >= 1);
        assert!(ram.trace().to_string().contains("macrocells"));
    }

    #[test]
    fn pla_errors_are_typed_not_panics() {
        let e = CompileError::from(PlaneParseError::Ragged { plane: "AND" });
        assert_eq!(e.to_string(), "control code interchange: ragged AND plane");
        assert!(std::error::Error::source(&e).is_some());
    }
}
