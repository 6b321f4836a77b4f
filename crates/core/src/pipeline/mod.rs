//! The staged compile pipeline.
//!
//! `compile()` used to be one long function that regenerated every leaf
//! cell, tile, and PLA layout from scratch, serially, on every
//! invocation — so a parameter sweep recompiled identical
//! sub-structures hundreds of times. This module restructures it as an
//! explicit pipeline of five typed stages:
//!
//! | stage | artifact | reads |
//! |-------|----------|-------|
//! | [`control::ControlStage`] | [`control::ControlPlan`] | the built-in march |
//! | [`leaves::LeafStage`] | [`leaves::LeafSet`] | process, gate size, row bits |
//! | [`macrocells::MacroStage`] | [`macrocells::MacroSet`] | full geometry + PLA |
//! | [`floorplan::FloorplanStage`] | [`floorplan::Floorplan`] | full geometry |
//! | [`signoff::SignoffStage`] | [`signoff::Signoff`] | full parameter set (+ macrocells when verifying) |
//!
//! Each stage declares a deterministic **content key** over the subset
//! of `(RamParams, Process)` it actually reads ([`key`]), and every
//! artifact is memoized in a sharded, `Arc`-sharing [`cache::CellCache`]
//! — so repeated compiles in a sweep reuse leaf cells, tiles, and PLA
//! layouts across parameter points that share a process. Macrocell
//! generation inside stage 3 fans out over a scoped-thread executor
//! ([`bisram_exec`]), bounded by [`CompileOptions::with_jobs`] or the
//! `BISRAM_JOBS` environment variable. Every compile records a
//! [`trace::PipelineTrace`] (per-stage wall time, cache traffic,
//! artifact sizes) surfaced on `CompiledRam::trace` and printed by
//! `bisramgen --timings`.
//!
//! Caching and parallelism are **transparent**: outputs are
//! byte-identical to a cold serial compile (`tests/determinism.rs`).

pub mod cache;
pub mod control;
pub mod floorplan;
pub mod key;
pub mod leaves;
pub mod macrocells;
pub mod signoff;
pub mod trace;

pub use cache::{CellCache, KindStats};
pub use control::ControlPlan;
pub use floorplan::Floorplan;
pub use key::ContentKey;
pub use leaves::LeafSet;
pub use macrocells::MacroSet;
pub use signoff::Signoff;
pub use trace::{PipelineTrace, StageTrace};

use crate::compiler::CompileError;
use crate::params::RamParams;
use key::content_key;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One pipeline stage: a typed artifact, a content key over the inputs
/// the stage reads, and the generation itself.
pub trait Stage {
    /// The stage's output artifact.
    type Artifact: Send + Sync + 'static;

    /// Stage (and cache-kind) name.
    const NAME: &'static str;

    /// The content key: a digest of exactly the inputs [`Stage::run`]
    /// reads. Anything the stage reads but the key omits breaks cache
    /// transparency — the determinism suite exists to catch that.
    fn key(&self, ctx: &PipelineCtx<'_>) -> ContentKey;

    /// Generates the artifact.
    ///
    /// # Errors
    ///
    /// Stage-specific [`CompileError`]s.
    fn run(&self, ctx: &PipelineCtx<'_>) -> Result<Self::Artifact, CompileError>;

    /// One-line artifact summary for the trace.
    fn describe(artifact: &Self::Artifact) -> String;
}

/// How signoff verification traverses the design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VerifyMode {
    /// Flatten each macrocell and check every placed shape.
    #[default]
    Flat,
    /// Verify each *distinct* cell once behind a content-keyed
    /// verified-clean certificate (cache kind `verify-cert`), then
    /// design-rule check only the halo windows where instances abut.
    /// Byte-identical reports to [`VerifyMode::Flat`] on clean designs.
    Hier,
}

impl VerifyMode {
    /// Parses the `--verify-mode` spelling (`flat` | `hier`).
    pub fn parse(s: &str) -> Option<VerifyMode> {
        match s {
            "flat" => Some(VerifyMode::Flat),
            "hier" => Some(VerifyMode::Hier),
            _ => None,
        }
    }
}

impl std::fmt::Display for VerifyMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            VerifyMode::Flat => "flat",
            VerifyMode::Hier => "hier",
        })
    }
}

/// Knobs for [`compile_with`](crate::compile_with): which cache to use
/// and how many macrocell workers to run.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    jobs: Option<usize>,
    cache: Arc<CellCache>,
    verify: bool,
    verify_mode: VerifyMode,
}

impl Default for CompileOptions {
    /// The production default: the process-wide shared cache
    /// ([`CellCache::global`]), automatic parallelism, no verification.
    fn default() -> Self {
        CompileOptions {
            jobs: None,
            cache: Arc::clone(CellCache::global()),
            verify: false,
            verify_mode: VerifyMode::Flat,
        }
    }
}

impl CompileOptions {
    /// The default options (shared global cache, automatic jobs).
    pub fn new() -> Self {
        CompileOptions::default()
    }

    /// Options with a private empty cache — a guaranteed-cold compile,
    /// for benchmarking and for the determinism suite's baselines.
    pub fn cold() -> Self {
        CompileOptions {
            jobs: None,
            cache: Arc::new(CellCache::new()),
            verify: false,
            verify_mode: VerifyMode::Flat,
        }
    }

    /// Replaces the cache (e.g. one cache per sweep).
    pub fn with_cache(mut self, cache: Arc<CellCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Fixes the macrocell worker count (1 = serial). Overrides the
    /// `BISRAM_JOBS` environment variable.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs);
        self
    }

    /// The cache compiles with these options will share.
    pub fn cache(&self) -> &Arc<CellCache> {
        &self.cache
    }

    /// Requests full physical verification (scanline DRC, extraction,
    /// LVS) of every macrocell during signoff; the report lands on
    /// [`Signoff::verify`](signoff::Signoff) and
    /// `CompiledRam::verify_report`.
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Whether signoff will run physical verification.
    pub fn verify(&self) -> bool {
        self.verify
    }

    /// Selects flat or hierarchical verification (default
    /// [`VerifyMode::Flat`]); only consulted when verification is on.
    pub fn with_verify_mode(mut self, mode: VerifyMode) -> Self {
        self.verify_mode = mode;
        self
    }

    /// How signoff verification will traverse the design.
    pub fn verify_mode(&self) -> VerifyMode {
        self.verify_mode
    }

    /// The explicit worker count, if fixed.
    pub fn jobs(&self) -> Option<usize> {
        self.jobs
    }
}

/// Everything a stage can see: the validated parameters, the artifact
/// cache, the resolved worker count, and the trace being accumulated.
#[derive(Debug)]
pub struct PipelineCtx<'a> {
    /// The validated compile parameters.
    pub params: &'a RamParams,
    cache: Arc<CellCache>,
    jobs: usize,
    verify: bool,
    verify_mode: VerifyMode,
    traces: Mutex<Vec<StageTrace>>,
}

impl<'a> PipelineCtx<'a> {
    /// Builds a context from options (resolving the worker count from
    /// the options, the `BISRAM_JOBS` variable, or the machine).
    pub fn new(params: &'a RamParams, options: &CompileOptions) -> Self {
        PipelineCtx {
            params,
            cache: Arc::clone(options.cache()),
            jobs: bisram_exec::resolve_jobs(options.jobs()),
            verify: options.verify(),
            verify_mode: options.verify_mode(),
            traces: Mutex::new(Vec::new()),
        }
    }

    /// The artifact cache.
    pub fn cache(&self) -> &CellCache {
        &self.cache
    }

    /// Worker threads the macrocell stage may use.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Whether signoff should run physical verification.
    pub fn verify(&self) -> bool {
        self.verify
    }

    /// How signoff verification traverses the design.
    pub fn verify_mode(&self) -> VerifyMode {
        self.verify_mode
    }

    /// Fingerprint of the target process (see
    /// [`key::process_fingerprint`]).
    pub fn process_fingerprint(&self) -> u64 {
        key::process_fingerprint(self.params.process())
    }

    /// Digest of the full parameter set: process fingerprint plus every
    /// user knob (geometry, spares, gate sizing, straps). The key for
    /// stages that read everything.
    pub fn params_fingerprint(&self) -> u64 {
        let org = self.params.org();
        content_key(&(
            self.process_fingerprint(),
            org.words(),
            org.bpw(),
            org.columns(),
            org.total_rows(),
            org.spare_rows(),
            self.params.gate_size(),
            self.params.strap_every(),
            self.params.strap_lambda(),
        ))
        .0
    }

    /// Fetches one leaf cell through the cache (kind `leaf`), keyed on
    /// the process fingerprint and the typed
    /// [`LeafSpec`](bisram_layout::leaf::LeafSpec).
    ///
    /// # Errors
    ///
    /// Currently infallible (leaf generators cannot fail for validated
    /// parameters); the `Result` keeps the signature uniform.
    pub fn leaf(
        &self,
        process_fp: u64,
        spec: bisram_layout::leaf::LeafSpec,
    ) -> Result<Arc<bisram_layout::Cell>, CompileError> {
        self.cache
            .get_or_build("leaf", content_key(&(process_fp, spec)), || {
                Ok(spec.build(self.params.process()))
            })
    }

    /// Runs one stage through the cache, recording a [`StageTrace`].
    ///
    /// # Errors
    ///
    /// Propagates the stage's error (nothing is cached on failure).
    pub fn run_stage<S: Stage>(&self, stage: &S) -> Result<Arc<S::Artifact>, CompileError> {
        let stage_key = stage.key(self);
        let hits_before = self.cache.hits();
        let misses_before = self.cache.misses();
        let start = Instant::now();
        let (artifact, cached) = match self.cache.lookup::<S::Artifact>(S::NAME, stage_key) {
            Some(found) => (found, true),
            None => (
                self.cache
                    .get_or_build(S::NAME, stage_key, || stage.run(self))?,
                false,
            ),
        };
        let record = StageTrace {
            stage: S::NAME,
            key: stage_key,
            wall: start.elapsed(),
            cached,
            cache_hits: self.cache.hits() - hits_before,
            cache_misses: self.cache.misses() - misses_before,
            artifact: S::describe(&artifact),
        };
        self.traces
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(record);
        Ok(artifact)
    }

    /// Consumes the context into the per-compile trace.
    pub fn finish(self) -> PipelineTrace {
        PipelineTrace {
            stages: self.traces.into_inner().unwrap_or_else(|e| e.into_inner()),
            jobs: self.jobs,
        }
    }
}

/// The five-stage artifact bundle a compile assembles into a
/// `CompiledRam`.
pub(crate) struct PipelineOutput {
    pub control: Arc<ControlPlan>,
    pub macros: Arc<MacroSet>,
    pub floorplan: Arc<Floorplan>,
    pub signoff: Arc<Signoff>,
    pub trace: PipelineTrace,
}

/// Runs the full pipeline for one parameter point.
pub(crate) fn run_pipeline(
    params: &RamParams,
    options: &CompileOptions,
) -> Result<PipelineOutput, CompileError> {
    let ctx = PipelineCtx::new(params, options);
    let control = ctx.run_stage(&control::ControlStage)?;
    let leaves = ctx.run_stage(&leaves::LeafStage)?;
    let macros = ctx.run_stage(&macrocells::MacroStage {
        control: Arc::clone(&control),
        leaves,
    })?;
    let floorplan = ctx.run_stage(&floorplan::FloorplanStage {
        macros: Arc::clone(&macros),
    })?;
    let signoff = ctx.run_stage(&signoff::SignoffStage {
        macros: Arc::clone(&macros),
        floorplan: Arc::clone(&floorplan),
        pla: control.pla.clone(),
    })?;
    Ok(PipelineOutput {
        control,
        macros,
        floorplan,
        signoff,
        trace: ctx.finish(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RamParams;

    fn small() -> RamParams {
        RamParams::builder()
            .words(256)
            .bits_per_word(8)
            .bits_per_column(4)
            .spare_rows(4)
            .build()
            .unwrap()
    }

    #[test]
    fn pipeline_runs_all_five_stages_in_order() {
        let out = run_pipeline(&small(), &CompileOptions::cold()).unwrap();
        let names: Vec<&str> = out.trace.stages.iter().map(|s| s.stage).collect();
        assert_eq!(
            names,
            ["control", "leaves", "macrocells", "floorplan", "signoff"]
        );
        assert!(out.trace.total_wall().as_nanos() > 0);
        assert_eq!(out.macros.cells.len(), 12);
        assert_eq!(out.floorplan.placement.placed().len(), 12);
        assert!(out.signoff.datasheet.access_time_s > 0.0);
        assert!(out.control.program.state_count() > 0);
    }

    #[test]
    fn second_compile_on_the_same_cache_hits_every_stage() {
        let opts = CompileOptions::cold();
        let cold = run_pipeline(&small(), &opts).unwrap();
        assert!(cold.trace.stages.iter().all(|s| !s.cached));
        let warm = run_pipeline(&small(), &opts).unwrap();
        assert!(warm.trace.stages.iter().all(|s| s.cached), "{}", warm.trace);
        assert_eq!(warm.trace.cache_misses(), 0);
        assert!(warm.trace.cache_hits() >= 5);
    }

    #[test]
    fn fresh_cache_contexts_do_not_interfere() {
        let a = run_pipeline(&small(), &CompileOptions::cold()).unwrap();
        let b = run_pipeline(&small(), &CompileOptions::cold()).unwrap();
        // Different caches, so no sharing — but identical artifacts.
        assert!(!Arc::ptr_eq(&a.macros, &b.macros));
        assert_eq!(
            format!("{}", a.macros.report),
            format!("{}", b.macros.report)
        );
    }

    #[test]
    fn jobs_resolution_prefers_options() {
        let params = small();
        let ctx = PipelineCtx::new(&params, &CompileOptions::cold().with_jobs(3));
        assert_eq!(ctx.jobs(), 3);
    }

    #[test]
    fn default_options_share_the_global_cache() {
        let a = CompileOptions::default();
        let b = CompileOptions::new();
        assert!(Arc::ptr_eq(a.cache(), b.cache()));
        assert!(!Arc::ptr_eq(a.cache(), CompileOptions::cold().cache()));
    }
}
