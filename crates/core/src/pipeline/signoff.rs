//! Stage 5 — signoff: the extrapolated datasheet, plus (on request)
//! full physical verification of every macrocell.
//!
//! Verification runs the three `bisram-verify` engines — scanline DRC,
//! connectivity extraction, and LVS against schematics composed from
//! the leaf library — over each tiled macrocell. Macrocells are
//! verified **in parallel** on the same scoped-thread executor the
//! macrocell stage uses, and each per-macro result is content-keyed
//! (kind `verify`) so sweeps re-verify only the macros that actually
//! changed.

use super::cache::CellCache;
use super::floorplan::Floorplan;
use super::key::content_key;
use super::leaves::LeafKey;
use super::macrocells::MacroSet;
use super::{PipelineCtx, Stage, VerifyMode};
use crate::compiler::CompileError;
use crate::datasheet::Datasheet;
use bisram_bist::trpla::Pla;
use bisram_verify::hier::{boundary_findings, verify_cell_hier, CellCertificate, CertificateStore};
use bisram_verify::{verify_cell, CellVerifyReport, SchematicLib, VerifyReport};
use std::sync::Arc;

/// The signoff artifact: electrical extrapolations for the datasheet
/// (access/cycle time, power, the TLB delay-masking check) and, when
/// the compile asked for it, the physical verification report.
#[derive(Debug, Clone)]
pub struct Signoff {
    /// The extrapolated datasheet.
    pub datasheet: Datasheet,
    /// DRC + LVS over every macrocell
    /// ([`CompileOptions::with_verify`](super::CompileOptions::with_verify)).
    pub verify: Option<Arc<VerifyReport>>,
}

/// Builds the [`Signoff`]. The datasheet reads the full parameter set
/// (organization, process electricals, gate sizing); verification
/// additionally reads the stage-3 macrocells and the PLA personality
/// that shaped them.
#[derive(Debug, Clone)]
pub struct SignoffStage {
    /// Stage-3 artifact (the cells verification checks).
    pub macros: Arc<MacroSet>,
    /// Stage-4 artifact: hierarchical verification additionally runs a
    /// boundary-interaction DRC pass over the placed macros.
    pub floorplan: Arc<Floorplan>,
    /// The PLA personality (part of the verify cache key: it is the one
    /// macrocell input the parameter fingerprint does not cover).
    pub pla: Pla,
}

/// Adapts the pipeline's [`CellCache`] as a
/// [`CertificateStore`]: verified-clean certificates live under the
/// cache kind `verify-cert`, salted with the process fingerprint so
/// each process's certificates stay apart in a shared cache. The
/// certificate key itself covers the rules, the cell's content and the
/// schematic entries the cell resolves, so points that differ only in
/// organization share every certificate whose subtree they share.
struct CacheCertStore<'a> {
    cache: &'a CellCache,
    salt: u64,
}

impl CertificateStore for CacheCertStore<'_> {
    fn get_or_build(
        &self,
        key: u64,
        build: &mut dyn FnMut() -> CellCertificate,
    ) -> Arc<CellCertificate> {
        match self.cache.get_or_build(
            "verify-cert",
            content_key(&(self.salt, key)),
            || Ok(build()),
        ) {
            Ok(cert) => cert,
            // The builder is infallible; this arm is unreachable but
            // keeps the adapter total without unwrapping.
            Err(_) => Arc::new(build()),
        }
    }
}

/// Runs DRC + LVS over every macrocell, in parallel, each macro cached
/// under kind `verify`. In [`VerifyMode::Hier`] each macro is verified
/// through content-keyed certificates and the placed floorplan gets a
/// boundary-interaction DRC pass on top.
fn verify_macros(
    ctx: &PipelineCtx<'_>,
    macros: &MacroSet,
    floorplan: &Floorplan,
    pla: &Pla,
) -> Result<VerifyReport, CompileError> {
    let process = ctx.params.process();
    let rules = process.rules();
    let lib = Arc::new(SchematicLib::for_leaves(&LeafKey::of(ctx).specs(), process));
    let fp = ctx.params_fingerprint();
    let mode = ctx.verify_mode();
    let salt = ctx.process_fingerprint();
    let tasks: Vec<_> = macros
        .cells
        .iter()
        .map(|(name, cell)| {
            let lib = Arc::clone(&lib);
            let cell = Arc::clone(cell);
            move || {
                ctx.cache()
                    .get_or_build("verify", content_key(&(fp, pla, *name, mode)), || {
                        Ok(match mode {
                            VerifyMode::Flat => verify_cell(rules, &cell, &lib),
                            VerifyMode::Hier => {
                                let store = CacheCertStore {
                                    cache: ctx.cache(),
                                    salt,
                                };
                                verify_cell_hier(rules, &cell, &lib, &store)
                            }
                        })
                    })
            }
        })
        .collect();
    let per_macro: Vec<Arc<CellVerifyReport>> = bisram_exec::run_tasks(ctx.jobs(), tasks)
        .into_iter()
        .collect::<Result<_, _>>()?;
    let mut cells: Vec<CellVerifyReport> = per_macro.iter().map(|c| (**c).clone()).collect();
    let mut error = None;
    if mode == VerifyMode::Hier {
        // Macros are placed with a 12λ margin — wider than the largest
        // rule distance — so this pass finds nothing on a healthy
        // placement; it exists to catch placer regressions. Routes are
        // deliberately excluded: flat mode does not check them either
        // (they belong to no macrocell).
        let placed = floorplan.placement.clone().into_cell("floorplan");
        match boundary_findings(rules, &placed) {
            Ok(findings) if findings.is_empty() => {}
            Ok(findings) => cells.push(CellVerifyReport {
                cell: "floorplan".to_string(),
                shape_count: 0,
                drc: findings,
                lvs: None,
                error: None,
            }),
            Err(e) => error = Some(e),
        }
    }
    Ok(VerifyReport {
        process: process.name().to_string(),
        cells,
        error,
    })
}

impl Stage for SignoffStage {
    type Artifact = Signoff;

    const NAME: &'static str = "signoff";

    fn key(&self, ctx: &PipelineCtx<'_>) -> super::key::ContentKey {
        content_key(&(
            ctx.params_fingerprint(),
            ctx.verify(),
            ctx.verify_mode(),
            &self.pla,
        ))
    }

    fn run(&self, ctx: &PipelineCtx<'_>) -> Result<Signoff, CompileError> {
        let verify = if ctx.verify() {
            Some(Arc::new(verify_macros(
                ctx,
                &self.macros,
                &self.floorplan,
                &self.pla,
            )?))
        } else {
            None
        };
        Ok(Signoff {
            datasheet: Datasheet::extrapolate(ctx.params),
            verify,
        })
    }

    fn describe(artifact: &Signoff) -> String {
        let mut s = format!("access {:.2} ns", artifact.datasheet.access_time_s * 1e9);
        if let Some(v) = &artifact.verify {
            s.push_str(if v.is_clean() {
                ", verify clean"
            } else {
                ", verify DIRTY"
            });
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::control::ControlStage;
    use crate::pipeline::leaves::LeafStage;
    use crate::pipeline::macrocells::MacroStage;
    use crate::pipeline::CompileOptions;
    use crate::RamParams;

    fn with_words(words: usize) -> RamParams {
        RamParams::builder()
            .words(words)
            .bits_per_word(4)
            .bits_per_column(4)
            .spare_rows(4)
            .build()
            .unwrap()
    }

    fn signoff_with(opts: &CompileOptions) -> Signoff {
        signoff_of(&with_words(64), opts)
    }

    fn signoff_of(params: &RamParams, opts: &CompileOptions) -> Signoff {
        let ctx = PipelineCtx::new(params, opts);
        let control = ctx.run_stage(&ControlStage).unwrap();
        let leaves = ctx.run_stage(&LeafStage).unwrap();
        let macros = ctx
            .run_stage(&MacroStage {
                control: Arc::clone(&control),
                leaves,
            })
            .unwrap();
        let floorplan = ctx
            .run_stage(&crate::pipeline::floorplan::FloorplanStage {
                macros: Arc::clone(&macros),
            })
            .unwrap();
        let stage = SignoffStage {
            macros,
            floorplan,
            pla: control.pla.clone(),
        };
        stage.run(&ctx).unwrap()
    }

    #[test]
    fn verification_is_off_by_default() {
        let signoff = signoff_with(&CompileOptions::cold());
        assert!(signoff.verify.is_none());
        assert!(!SignoffStage::describe(&signoff).contains("verify"));
    }

    #[test]
    fn verification_covers_every_macro_and_is_clean() {
        let signoff = signoff_with(&CompileOptions::cold().with_verify(true));
        let report = signoff.verify.as_ref().expect("verify requested");
        assert_eq!(report.cells.len(), 12);
        assert!(report.is_clean(), "{report}");
        assert!(SignoffStage::describe(&signoff).contains("verify clean"));
    }

    #[test]
    fn per_macro_results_are_cache_shared() {
        let opts = CompileOptions::cold().with_verify(true);
        let _ = signoff_with(&opts);
        let misses = opts.cache().misses();
        let _ = signoff_with(&opts);
        // Second run: every per-macro verify (and everything else) hits.
        assert_eq!(opts.cache().misses(), misses);
    }

    #[test]
    fn hierarchical_report_is_byte_identical_to_flat() {
        let flat = signoff_with(&CompileOptions::cold().with_verify(true));
        let hier = signoff_with(
            &CompileOptions::cold()
                .with_verify(true)
                .with_verify_mode(VerifyMode::Hier),
        );
        let flat = flat.verify.expect("flat report");
        let hier = hier.verify.expect("hier report");
        assert!(flat.is_clean(), "{flat}");
        assert_eq!(flat.to_string(), hier.to_string());
    }

    #[test]
    fn hierarchical_certificates_are_cache_shared() {
        let opts = CompileOptions::cold()
            .with_verify(true)
            .with_verify_mode(VerifyMode::Hier);
        let _ = signoff_with(&opts);
        let misses = opts.cache().misses();
        let _ = signoff_with(&opts);
        assert_eq!(opts.cache().misses(), misses);
    }

    fn hier() -> CompileOptions {
        CompileOptions::cold()
            .with_verify(true)
            .with_verify_mode(VerifyMode::Hier)
    }

    #[test]
    fn organizations_share_certificates() {
        // 16 rows vs 32: different row-address widths, decoders and
        // arrays, but the control logic and most leaf tiles repeat.
        let opts = hier();
        let cert_misses = || {
            opts.cache()
                .kind_stats()
                .into_iter()
                .find(|k| k.kind == "verify-cert")
                .map_or(0, |k| k.misses)
        };
        let _ = signoff_of(&with_words(64), &opts);
        let first = cert_misses();
        let shared = signoff_of(&with_words(128), &opts);
        let second = cert_misses() - first;
        assert!(
            second < first,
            "second point missed {second} times, first {first}"
        );
        let cold = signoff_of(&with_words(128), &hier());
        let (shared, cold) = (shared.verify.expect("hier"), cold.verify.expect("hier"));
        assert!(cold.is_clean(), "{cold}");
        assert_eq!(shared.to_string(), cold.to_string());
    }
}
