//! Stage 1 — the control plan: march test → TRPLA program → PLA
//! personality, round-tripped through the paper's two-file interchange.

use super::key::content_key;
use super::{PipelineCtx, Stage};
use crate::compiler::CompileError;
use bisram_bist::march;
use bisram_bist::trpla::{self, ControlProgram, Pla};

/// The BIST control plan: the microprogrammed IFA-9 controller and the
/// PLA personality it synthesizes to. The personality is exported to
/// the two-file format and parsed back, exactly as the original tool
/// loads its control code at run time — so a malformed interchange is a
/// typed [`CompileError::Pla`], not a panic.
#[derive(Debug, Clone)]
pub struct ControlPlan {
    /// The assembled two-pass test-and-repair microprogram.
    pub program: ControlProgram,
    /// The personality, as reloaded from the interchange files.
    pub pla: Pla,
}

/// Builds the [`ControlPlan`]. Reads nothing from `RamParams` — the
/// controller is geometry-independent (its word-width adaptation lives
/// in the data generator) — so every compile in a process shares one
/// cached plan.
#[derive(Debug, Clone, Copy, Default)]
pub struct ControlStage;

impl Stage for ControlStage {
    type Artifact = ControlPlan;

    const NAME: &'static str = "control";

    fn key(&self, _ctx: &PipelineCtx<'_>) -> super::key::ContentKey {
        // The one input is the built-in march algorithm.
        content_key(&"march:IFA-9")
    }

    fn run(&self, _ctx: &PipelineCtx<'_>) -> Result<ControlPlan, CompileError> {
        let program = trpla::assemble(&march::ifa9());
        let synthesized = program.synthesize_pla();
        let (and_s, or_s) = synthesized.export_planes();
        let pla = Pla::import_planes(&and_s, &or_s).map_err(CompileError::Pla)?;
        Ok(ControlPlan { program, pla })
    }

    fn describe(artifact: &ControlPlan) -> String {
        format!(
            "{} states / {} FFs / {} PLA terms",
            artifact.program.state_count(),
            artifact.program.flip_flops(),
            artifact.pla.terms()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::CompileOptions;
    use crate::RamParams;

    #[test]
    fn control_plan_round_trips_and_is_parameter_independent() {
        let opts = CompileOptions::cold();
        let small = RamParams::builder().words(256).build().unwrap();
        let large = RamParams::builder()
            .words(16384)
            .bits_per_word(64)
            .bits_per_column(8)
            .build()
            .unwrap();
        let ctx_a = PipelineCtx::new(&small, &opts);
        let ctx_b = PipelineCtx::new(&large, &opts);
        assert_eq!(ControlStage.key(&ctx_a), ControlStage.key(&ctx_b));
        let plan = ControlStage.run(&ctx_a).unwrap();
        let (and_s, or_s) = plan.pla.export_planes();
        assert_eq!(Pla::import_planes(&and_s, &or_s).unwrap(), plan.pla);
        assert!(ControlStage::describe(&plan).contains("states"));
    }
}
