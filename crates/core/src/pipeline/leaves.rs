//! Stage 2 — the leaf set: every process-sized leaf cell the macrocells
//! tile from.
//!
//! Leaves are cached at two granularities: each leaf individually
//! (kind `leaf`, keyed on `(process fingerprint, LeafSpec)` so sweeps
//! that only change the array geometry reuse the whole library), and
//! the assembled [`LeafSet`] (kind `stage:leaves`) so a fully-warm
//! compile takes one lookup.

use super::key::process_fingerprint;
use super::{PipelineCtx, Stage};
use crate::compiler::CompileError;
use bisram_layout::leaf::LeafSpec;
use bisram_layout::Cell;
use std::sync::Arc;

/// The generated leaf-cell library of one compile, every entry shared
/// behind an [`Arc`] so tiles reference rather than copy them.
#[derive(Debug, Clone)]
pub struct LeafSet {
    /// Six-transistor storage cell.
    pub sram: Arc<Cell>,
    /// Row decoder sized for this row-address width.
    pub rowdec: Arc<Cell>,
    /// Word-line driver at the user's critical-gate size.
    pub wldrv: Arc<Cell>,
    /// Bitline precharge at the user's critical-gate size.
    pub prech: Arc<Cell>,
    /// Column multiplexer bit.
    pub colmux: Arc<Cell>,
    /// Current-mode sense amplifier.
    pub samp: Arc<Cell>,
    /// Write driver.
    pub wrdrv: Arc<Cell>,
    /// D flip-flop (Johnson counter stages, state register).
    pub dff: Arc<Cell>,
    /// Up/down counter bit (address generator).
    pub counter: Arc<Cell>,
    /// Two-input XOR (read comparators).
    pub xor2: Arc<Cell>,
    /// CAM bit (TLB entries).
    pub cam_bit: Arc<Cell>,
    /// Programmed PLA crosspoint.
    pub pla_on: Arc<Cell>,
    /// Blank PLA crosspoint.
    pub pla_off: Arc<Cell>,
    /// PLA term-line pull-up (also the TLB match-line pull-up).
    pub pullup: Arc<Cell>,
}

/// What the leaf stage reads from `(RamParams, Process)`: the process
/// itself, the critical-gate size, and the row-address width (the row
/// decoder's fan-in).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LeafKey {
    /// [`process_fingerprint`] of the target process.
    pub process: u64,
    /// Critical-gate size factor.
    pub gate_size: i64,
    /// Row-address bits (clamped to ≥ 1 like the generators expect).
    pub row_bits: u32,
}

impl LeafKey {
    /// Extracts the key from a compile context.
    pub fn of(ctx: &PipelineCtx<'_>) -> Self {
        LeafKey {
            process: process_fingerprint(ctx.params.process()),
            gate_size: ctx.params.gate_size(),
            row_bits: ctx.params.org().row_bits().max(1),
        }
    }

    /// The 14 leaf specs of this compile, in [`LeafSet`] field order —
    /// the one list both the leaf stage and the signoff schematic
    /// library read.
    pub fn specs(&self) -> [LeafSpec; 14] {
        [
            LeafSpec::Sram6t,
            LeafSpec::RowDecoder {
                address_bits: self.row_bits,
            },
            LeafSpec::WordlineDriver {
                size_factor: self.gate_size,
            },
            LeafSpec::Precharge {
                size_factor: self.gate_size,
            },
            LeafSpec::ColMux,
            LeafSpec::SenseAmp,
            LeafSpec::WriteDriver,
            LeafSpec::Dff,
            LeafSpec::CounterBit,
            LeafSpec::Xor2,
            LeafSpec::CamBit,
            LeafSpec::PlaCrosspoint { programmed: true },
            LeafSpec::PlaCrosspoint { programmed: false },
            LeafSpec::PlaPullup,
        ]
    }
}

/// Builds the [`LeafSet`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LeafStage;

impl Stage for LeafStage {
    type Artifact = LeafSet;

    const NAME: &'static str = "leaves";

    fn key(&self, ctx: &PipelineCtx<'_>) -> super::key::ContentKey {
        super::key::content_key(&LeafKey::of(ctx))
    }

    fn run(&self, ctx: &PipelineCtx<'_>) -> Result<LeafSet, CompileError> {
        let key = LeafKey::of(ctx);
        let [sram, rowdec, wldrv, prech, colmux, samp, wrdrv, dff, counter, xor2, cam_bit, pla_on, pla_off, pullup] =
            key.specs().map(|spec| ctx.leaf(key.process, spec));
        Ok(LeafSet {
            sram: sram?,
            rowdec: rowdec?,
            wldrv: wldrv?,
            prech: prech?,
            colmux: colmux?,
            samp: samp?,
            wrdrv: wrdrv?,
            dff: dff?,
            counter: counter?,
            xor2: xor2?,
            cam_bit: cam_bit?,
            pla_on: pla_on?,
            pla_off: pla_off?,
            pullup: pullup?,
        })
    }

    fn describe(artifact: &LeafSet) -> String {
        format!(
            "14 leaves, sram {}x{} nm",
            artifact.sram.bbox().width(),
            artifact.sram.bbox().height()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::CompileOptions;
    use crate::RamParams;

    #[test]
    fn leaf_key_ignores_geometry_that_leaves_do_not_read() {
        let opts = CompileOptions::cold();
        // Same rows (words/bpc fixed), different word width: identical key.
        let a = RamParams::builder()
            .words(1024)
            .bits_per_word(8)
            .build()
            .unwrap();
        let b = RamParams::builder()
            .words(1024)
            .bits_per_word(32)
            .build()
            .unwrap();
        assert_eq!(
            LeafKey::of(&PipelineCtx::new(&a, &opts)),
            LeafKey::of(&PipelineCtx::new(&b, &opts))
        );
        // More words ⇒ more row bits ⇒ different key.
        let c = RamParams::builder()
            .words(4096)
            .bits_per_word(8)
            .build()
            .unwrap();
        assert_ne!(
            LeafKey::of(&PipelineCtx::new(&a, &opts)),
            LeafKey::of(&PipelineCtx::new(&c, &opts))
        );
    }

    #[test]
    fn shared_cache_reuses_individual_leaves_across_geometries() {
        let opts = CompileOptions::cold();
        let a = RamParams::builder()
            .words(1024)
            .bits_per_word(8)
            .build()
            .unwrap();
        let b = RamParams::builder()
            .words(4096)
            .bits_per_word(8)
            .build()
            .unwrap();
        let ctx_a = PipelineCtx::new(&a, &opts);
        let set_a = LeafStage.run(&ctx_a).unwrap();
        let misses_after_a = opts.cache().misses();
        // Different row_bits: the decoder misses, but the other 13
        // leaves are shared with the first geometry.
        let ctx_b = PipelineCtx::new(&b, &opts);
        let set_b = LeafStage.run(&ctx_b).unwrap();
        assert!(Arc::ptr_eq(&set_a.sram, &set_b.sram));
        assert!(!Arc::ptr_eq(&set_a.rowdec, &set_b.rowdec));
        assert_eq!(opts.cache().misses(), misses_after_a + 1);
    }
}
