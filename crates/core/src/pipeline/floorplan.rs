//! Stage 4 — the floorplan: macrocell placement, over-the-cell routing,
//! and the assembled chip cell.

use super::key::content_key;
use super::macrocells::MacroSet;
use super::{PipelineCtx, Stage};
use crate::compiler::CompileError;
use bisram_layout::placer::{place_with_margin, Macro, Placement};
use bisram_layout::route::{self, Route};
use bisram_layout::Cell;
use std::sync::{Arc, OnceLock};

/// The placed-and-routed module.
#[derive(Debug, Clone)]
pub struct Floorplan {
    /// The macrocell placement (decreasing area + port alignment).
    pub placement: Placement,
    /// The over-the-cell metal-3 routes.
    pub routes: Vec<Route>,
    /// The assembled chip cell (macro instances + route shapes).
    pub chip: Cell,
    /// The flattened CIF of `chip`, rendered on first use: every
    /// compile that shares this cached floorplan shares the render.
    pub(crate) cif: OnceLock<String>,
}

/// Builds the [`Floorplan`] from the macro set.
#[derive(Debug, Clone)]
pub struct FloorplanStage {
    /// Stage-3 artifact.
    pub macros: Arc<MacroSet>,
}

impl Stage for FloorplanStage {
    type Artifact = Floorplan;

    const NAME: &'static str = "floorplan";

    fn key(&self, ctx: &PipelineCtx<'_>) -> super::key::ContentKey {
        // Placement and routing read every macro (hence the full
        // parameter set) plus the process's lambda for the margin; all
        // of it is covered by the module fingerprint. The PLA is fixed
        // per march, already part of the macro stage inputs — keyed
        // here through the macro report total, which pins the actual
        // macro contents this floorplan placed.
        content_key(&(ctx.params_fingerprint(), self.macros.report.total()))
    }

    fn run(&self, ctx: &PipelineCtx<'_>) -> Result<Floorplan, CompileError> {
        let org = ctx.params.org();
        let lambda = ctx.params.process().rules().lambda();
        let macros = self
            .macros
            .cells
            .iter()
            .map(|(name, cell)| Macro::new(*name, Arc::clone(cell)))
            .collect();
        // Clearance between macros: the widest same-layer spacing rule
        // (the n-well's 9 lambda) with slack, so no cross-macro DRC
        // violations can arise.
        let placement = place_with_margin(macros, 12 * lambda);
        let routes = route::route_placement(&placement, ctx.params.process());
        let mut chip =
            placement
                .clone()
                .into_cell(&format!("bisram_{}x{}", org.words(), org.bpw()));
        for r in &routes {
            for (layer, rect) in &r.shapes {
                chip.add_shape(*layer, *rect);
            }
        }
        Ok(Floorplan {
            placement,
            routes,
            chip,
            cif: OnceLock::new(),
        })
    }

    fn describe(artifact: &Floorplan) -> String {
        format!(
            "{} macros placed, {} routes, {:.1}% utilization",
            artifact.placement.placed().len(),
            artifact.routes.len(),
            artifact.placement.utilization() * 100.0
        )
    }
}
