//! `sweep-explore`: a cold design-space sweep through the in-process
//! service, two workers, closed loop.
//!
//! Every batch runs on a fresh cold cache, so compile does almost all
//! the work and the cache is write-heavy; no point repeats, so memo and
//! single-flight are bypassed. Each point is timed at its boundary:
//! `run_sweep` for unverified points, `Service::submit` for the
//! hierarchically verified ones (see [`SweepPoint::verify_job`]).
//!
//! The traced run replays one batch through `PipelineCtx::run_stage`
//! with a span per stage, then replays each point's layout (place,
//! route, assemble) and, on verified points, hierarchical verification
//! and the DRC, extraction and LVS engines on the point's leaf cells.

use crate::gen::{self, SweepPoint};
use crate::stats::{median, percentile};
use crate::trace::{Ctx, Tracer};
use crate::{cache_layers, reconcile_cache, Report, Run};
use bisram_exec::run_chunked;
use bisram_layout::leaf::LeafSpec;
use bisram_layout::placer::{place_with_margin, Macro};
use bisram_layout::route::route_placement;
use bisram_layout::Cell;
use bisram_serve::{run_sweep, CompileJob, JobSpec, Service, SweepBackend, SweepSpec};
use bisram_tech::Process;
use bisram_verify::hier::{verify_cell_hier, CellCertificate, CertificateStore};
use bisram_verify::{drc, extract, lvs, schematic, SchematicLib};
use bisram_wire::fnv1a64_bytes;
use bisramgen::pipeline::control::ControlStage;
use bisramgen::pipeline::floorplan::FloorplanStage;
use bisramgen::pipeline::leaves::{LeafSet, LeafStage};
use bisramgen::pipeline::macrocells::{MacroSet, MacroStage};
use bisramgen::pipeline::signoff::SignoffStage;
use bisramgen::pipeline::PipelineCtx;
use bisramgen::{CellCache, CompileOptions, RamParams, VerifyMode};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Closed-loop workers.
const WORKERS: usize = 2;
/// Batches every run completes at least (2 × 84 points leaves ≥ 10
/// points beyond p90).
const MIN_BATCHES: u64 = 2;
/// Set-up repetitions before the first batch and after every batch,
/// each while nothing else runs. The set-up takes a fraction of a
/// millisecond, so the host's speed of the moment decides a single
/// one; `setup_s` is the median of all of them, spread over the run.
const SETUP_REPS: usize = 17;

/// A point parsed into what its boundary call takes.
enum Prepared {
    Sweep(SweepSpec),
    Verify(JobSpec),
}

fn prepare(points: &[SweepPoint]) -> Result<Vec<Prepared>, String> {
    points
        .iter()
        .map(|p| {
            Ok(if p.hier {
                Prepared::Verify(JobSpec::parse(&p.verify_job())?)
            } else {
                Prepared::Sweep(SweepSpec::parse(&p.sweep_spec())?)
            })
        })
        .collect()
}

fn submit_point(service: &Service, prepared: &Prepared) -> Result<String, String> {
    match prepared {
        Prepared::Sweep(spec) => {
            let report = run_sweep(spec, &SweepBackend::InProcess(service), Some(1))?;
            Ok(report.points[0].metrics.clone())
        }
        Prepared::Verify(job) => {
            let (outcome, _) = service.submit(job);
            match outcome.as_ref() {
                Ok(result) => result
                    .section("metrics.txt")
                    .map(str::to_owned)
                    .ok_or_else(|| "no metrics.txt section".to_owned()),
                Err(failure) => Err(failure.to_string()),
            }
        }
    }
}

/// One batch through the service: per-point latency (ms) and metrics.
struct BatchOut {
    wall_s: f64,
    ms: Vec<f64>,
    metrics: Vec<Result<String, String>>,
    cache: Arc<CellCache>,
    counters: (u64, u64, u64),
}

fn service_batch(prepared: &[Prepared]) -> BatchOut {
    let cache = Arc::new(CellCache::new());
    let service = Service::with_cache(Arc::clone(&cache), None);
    let start = Instant::now();
    let outs = run_chunked(WORKERS, prepared.len(), 1, |r| {
        let t = Instant::now();
        let out = submit_point(&service, &prepared[r.start]);
        (t.elapsed().as_secs_f64() * 1e3, out)
    });
    let wall_s = start.elapsed().as_secs_f64();
    let (ms, metrics) = outs.into_iter().unzip();
    BatchOut {
        wall_s,
        ms,
        metrics,
        counters: service.counters(),
        cache,
    }
}

/// Output checks on one batch; returns the batch's report text.
fn check_batch(report: &mut Report, points: &[SweepPoint], out: &BatchOut) -> String {
    let mut text = String::new();
    for (p, m) in points.iter().zip(&out.metrics) {
        match m {
            Ok(metrics) => {
                report.check(
                    !p.hier || metrics.contains("metric verify_clean: 1\n"),
                    || format!("hier point not verified clean: {}", p.verify_job()),
                );
                text.push_str(metrics);
            }
            Err(e) => report.check(false, || format!("point failed: {e}: {}", p.verify_job())),
        }
    }
    // Nothing repeats inside a batch: every submission executes.
    let (_, executed, dedup) = out.counters;
    report.check(executed == points.len() as u64 && dedup == 0, || {
        format!(
            "expected {} executions and no dedup, got {executed}/{dedup}",
            points.len()
        )
    });
    reconcile_cache(report, &out.cache);
    text
}

/// The points of batch `batch`, generated and parsed.
fn inputs(seed: u64, batch: u64) -> Result<(Vec<SweepPoint>, Vec<Prepared>), String> {
    let points = gen::sweep_batch(seed, batch);
    let prepared = prepare(&points)?;
    Ok((points, prepared))
}

/// One set-up of the first batch: generate and parse its points and
/// build a cold service. Returns its time, s.
fn set_up(seed: u64) -> Result<f64, String> {
    let t = Instant::now();
    std::hint::black_box(inputs(seed, 0)?);
    std::hint::black_box(Service::cold());
    Ok(t.elapsed().as_secs_f64())
}

/// [`SETUP_REPS`] set-ups, their times appended to `times`.
fn set_ups(seed: u64, times: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..SETUP_REPS {
        times.push(set_up(seed)?);
    }
    Ok(())
}

pub fn run(run: &Run, report: &mut Report) {
    if run.trace {
        match inputs(run.seed, 0) {
            Ok((points, prepared)) => traced(run, report, &points, &prepared),
            Err(e) => report.check(false, || format!("generated point rejected: {e}")),
        }
        return;
    }
    timed(run, report);
}

fn timed(run: &Run, report: &mut Report) {
    let mut setup_times = Vec::new();
    if let Err(e) = set_ups(run.seed, &mut setup_times) {
        report.check(false, || format!("generated point rejected: {e}"));
        return;
    }
    let mut ms = Vec::new();
    let mut hier_ms = Vec::new();
    let mut wall = 0.0;
    let mut text = String::new();
    let (mut batch_rate, mut batch_p50) = (Vec::new(), Vec::new());
    let mut batch = 0;
    while batch < MIN_BATCHES || wall < run.seconds {
        let (points, prepared) = match inputs(run.seed, batch) {
            Ok(batch) => batch,
            Err(e) => {
                report.check(false, || format!("generated point rejected: {e}"));
                return;
            }
        };
        let out = service_batch(&prepared);
        wall += out.wall_s;
        batch_rate.push(points.len() as f64 / out.wall_s);
        batch_p50.push(median(&out.ms));
        report.attempted += points.len() as u64;
        for (p, &t) in points.iter().zip(&out.ms) {
            ms.push(t);
            if p.hier {
                hier_ms.push(t);
            }
        }
        text.push_str(&check_batch(report, &points, &out));
        batch += 1;
        if let Err(e) = set_ups(run.seed, &mut setup_times) {
            report.check(false, || format!("generated point rejected: {e}"));
            return;
        }
    }
    report.setup_s = median(&setup_times);
    report.note(format!(
        "sweep: {} points in {batch} batches, {:.3} s of sweep wall time",
        ms.len(),
        wall
    ));
    report.note(format!(
        "sweep report digest: {:016x}",
        fnv1a64_bytes(text.as_bytes())
    ));
    let p90 = percentile(&ms, 0.90);
    report.check(p90.is_some(), || "too few points for p90".to_owned());
    // Medians over batches: a slow spell on the host slows one batch,
    // not the figure.
    report.throughput_per_s = median(&batch_rate);
    report.p50_ms = median(&batch_p50);
    report.tail_ms = p90.unwrap_or(0.0);
    // A mean, not a median: the hier points span every size class, so
    // their middle rank jumps between far-apart sizes under noise.
    report.class_ms = hier_ms.iter().sum::<f64>() / hier_ms.len() as f64;
    report.named("sweep_points_per_s", report.throughput_per_s, "1/s");
    report.named("sweep_point_p50_ms", report.p50_ms, "ms");
    report.named("sweep_point_p90_ms", report.tail_ms, "ms");
    report.named("sweep_hier_point_mean_ms", report.class_ms, "ms");
}

/// What a traced point leaves for the replays.
pub struct Traced {
    params: RamParams,
    leaves: Arc<LeafSet>,
    macros: Arc<MacroSet>,
    clean: Option<bool>,
    /// Summed `PipelineTrace` stage walls, ms.
    trace_ms: f64,
}

/// The compile parameters of a compile-family job, built the way the
/// service builds them.
pub fn params_of(c: &CompileJob) -> Result<RamParams, String> {
    let process = Process::by_name(&c.process).ok_or("unknown process")?;
    RamParams::builder()
        .words(c.words)
        .bits_per_word(c.bpw)
        .bits_per_column(c.bpc)
        .spare_rows(c.spares)
        .gate_size(c.gate_size)
        .strap(c.strap_every, c.strap_lambda)
        .process(process)
        .build()
        .map_err(|e| e.to_string())
}

/// The five stages of one compile, a span per `run_stage` call.
pub fn traced_stages(
    tracer: &Tracer,
    ctx: Ctx,
    cache: &Arc<CellCache>,
    params: RamParams,
    hier: bool,
) -> Result<Traced, String> {
    let mut options = CompileOptions::new()
        .with_cache(Arc::clone(cache))
        .with_verify(hier);
    if hier {
        options = options.with_verify_mode(VerifyMode::Hier);
    }
    let pctx = PipelineCtx::new(&params, &options);
    let e = |e: bisramgen::CompileError| e.to_string();
    let control = tracer
        .span("pipeline.control", ctx, |_| pctx.run_stage(&ControlStage))
        .map_err(e)?;
    let leaves = tracer
        .span("pipeline.leaves", ctx, |_| pctx.run_stage(&LeafStage))
        .map_err(e)?;
    let macros = tracer
        .span("pipeline.macrocells", ctx, |_| {
            pctx.run_stage(&MacroStage {
                control: Arc::clone(&control),
                leaves: Arc::clone(&leaves),
            })
        })
        .map_err(e)?;
    let floorplan = tracer
        .span("pipeline.floorplan", ctx, |_| {
            pctx.run_stage(&FloorplanStage {
                macros: Arc::clone(&macros),
            })
        })
        .map_err(e)?;
    let signoff = tracer
        .span("pipeline.signoff", ctx, |_| {
            pctx.run_stage(&SignoffStage {
                macros: Arc::clone(&macros),
                floorplan,
                pla: control.pla.clone(),
            })
        })
        .map_err(e)?;
    let clean = signoff.verify.as_ref().map(|v| v.is_clean());
    let trace_ms = pctx.finish().total_wall().as_secs_f64() * 1e3;
    Ok(Traced {
        params,
        leaves,
        macros,
        clean,
        trace_ms,
    })
}

/// The leaf library signoff composes reference schematics from (the
/// pipeline keeps its copy private).
fn leaf_specs(params: &RamParams) -> Vec<LeafSpec> {
    let size_factor = params.gate_size();
    vec![
        LeafSpec::Sram6t,
        LeafSpec::RowDecoder {
            address_bits: params.org().row_bits().max(1),
        },
        LeafSpec::WordlineDriver { size_factor },
        LeafSpec::Precharge { size_factor },
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

/// A certificate store that counts lookups and builds.
#[derive(Default)]
struct CountingStore {
    map: Mutex<HashMap<u64, Arc<CellCertificate>>>,
    calls: AtomicUsize,
    builds: AtomicUsize,
}

impl CertificateStore for CountingStore {
    fn get_or_build(
        &self,
        key: u64,
        build: &mut dyn FnMut() -> CellCertificate,
    ) -> Arc<CellCertificate> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        if let Some(found) = self.map.lock().expect("store poisoned").get(&key) {
            return Arc::clone(found);
        }
        self.builds.fetch_add(1, Ordering::Relaxed);
        let cert = Arc::new(build());
        self.map
            .lock()
            .expect("store poisoned")
            .insert(key, Arc::clone(&cert));
        cert
    }
}

fn leaf_cells(leaves: &LeafSet) -> [&Arc<Cell>; 14] {
    [
        &leaves.sram,
        &leaves.rowdec,
        &leaves.wldrv,
        &leaves.prech,
        &leaves.colmux,
        &leaves.samp,
        &leaves.wrdrv,
        &leaves.dff,
        &leaves.counter,
        &leaves.xor2,
        &leaves.cam_bit,
        &leaves.pla_on,
        &leaves.pla_off,
        &leaves.pullup,
    ]
}

/// Hierarchical verification of every macro, then the flat engines on
/// the point's leaf cells.
fn replay_verify(tracer: &Tracer, ctx: Ctx, t: &Traced, store: &CountingStore) -> bool {
    let process = t.params.process();
    let rules = process.rules();
    let lib = SchematicLib::for_leaves(&leaf_specs(&t.params), process);
    let mut clean = tracer.span("verify.hier", ctx, |_| {
        t.macros
            .cells
            .iter()
            .all(|(_, cell)| verify_cell_hier(rules, cell, &lib, store).is_clean())
    });
    for cell in leaf_cells(&t.leaves) {
        let shapes = cell.flatten();
        let drc_ok = tracer.span("verify.drc", ctx, |_| {
            drc::check(rules, &shapes).is_ok_and(|v| v.is_empty())
        });
        let Ok(extracted) = tracer.span("verify.extract", ctx, |_| extract(&shapes)) else {
            return false;
        };
        let lvs_ok = tracer.span("verify.lvs", ctx, |_| {
            schematic::compose(cell, &lib)
                .is_ok_and(|r| lvs::compare(&extracted.graph, &r).is_clean())
        });
        clean &= drc_ok && lvs_ok;
    }
    clean
}

/// Place, route and assemble the point's macro set, as the floorplan
/// stage does.
fn replay_layout(tracer: &Tracer, ctx: Ctx, t: &Traced) {
    let lambda = t.params.process().rules().lambda();
    let macros: Vec<Macro> = t
        .macros
        .cells
        .iter()
        .map(|(name, cell)| Macro::new(*name, Arc::clone(cell)))
        .collect();
    let placement = tracer.span("layout.place", ctx, |_| {
        place_with_margin(macros, 12 * lambda)
    });
    let routes = tracer.span("layout.route", ctx, |_| {
        route_placement(&placement, t.params.process())
    });
    tracer.span("layout.assemble", ctx, |_| {
        let mut chip = placement.clone().into_cell("replay");
        for r in &routes {
            for (layer, rect) in &r.shapes {
                chip.add_shape(*layer, *rect);
            }
        }
        std::hint::black_box(chip);
    });
}

/// Relative tolerance of the layout replay against the floorplan stage.
const LAYOUT_TOLERANCE: f64 = 0.5;
/// Relative tolerance of the stage spans against `PipelineTrace`.
const TRACE_TOLERANCE: f64 = 0.10;

fn traced(run: &Run, report: &mut Report, points: &[SweepPoint], prepared: &[Prepared]) {
    // The untraced baseline: the same batch through the service.
    let base = service_batch(prepared);
    report.attempted += points.len() as u64;
    check_batch(report, points, &base);

    let tracer = Tracer::new(true);
    let cache = Arc::new(CellCache::new());
    let start = tracer.now();
    let t0 = Instant::now();
    let outs = run_chunked(WORKERS, points.len(), 1, |r| {
        let i = r.start;
        tracer.span("sweep.point", Ctx::root(i as u64), |ctx| {
            let p = &points[i];
            let JobSpec::Verify(c) = JobSpec::parse(&p.verify_job())? else {
                return Err("not a verify job".to_owned());
            };
            traced_stages(&tracer, ctx, &cache, params_of(&c)?, p.hier)
        })
    });
    let wall = t0.elapsed().as_secs_f64();
    let end = tracer.now();
    report.attempted += points.len() as u64;
    // Untraced again after the traced pass, so warm-up and drift cancel
    // out of the overhead.
    let after = service_batch(prepared);
    report.attempted += points.len() as u64;
    check_batch(report, points, &after);
    let untraced_s = 0.5 * (base.wall_s + after.wall_s);
    report.layer("trace.overhead", wall / untraced_s - 1.0);
    report.layer("trace.coverage", tracer.coverage(start, end, WORKERS));

    let mut ok = Vec::new();
    for (p, out) in points.iter().zip(outs) {
        match out {
            Ok(t) => {
                report.check(t.clean == p.hier.then_some(true), || {
                    format!("traced point verify state wrong: {}", p.verify_job())
                });
                ok.push((p, t));
            }
            Err(e) => report.check(false, || format!("traced point failed: {e}")),
        }
    }
    let stage_spans: f64 = ["control", "leaves", "macrocells", "floorplan", "signoff"]
        .iter()
        .map(|s| {
            let ms = tracer.total_ms(&format!("pipeline.{s}"));
            report.layer(&format!("pipeline.{s}.ms"), ms);
            ms
        })
        .sum();
    let trace_ms: f64 = ok.iter().map(|(_, t)| t.trace_ms).sum();
    let agreement = trace_ms / stage_spans;
    report.layer("pipeline.trace_agreement", agreement);
    report.check((agreement - 1.0).abs() <= TRACE_TOLERANCE, || {
        format!("stage spans and PipelineTrace disagree: ratio {agreement:.3}")
    });
    cache_layers(report, &cache, &[]);
    reconcile_cache(report, &cache);

    // Replays, outside the measured window.
    let store = CountingStore::default();
    let n = ok.len();
    let verified = run_chunked(WORKERS, n, 1, |r| {
        let i = r.start;
        let (p, t) = &ok[i];
        let ctx = Ctx::root((n + i) as u64);
        tracer.span("replay.layout", ctx, |ctx| replay_layout(&tracer, ctx, t));
        !p.hier
            || tracer.span("replay.verify", ctx, |ctx| {
                replay_verify(&tracer, ctx, t, &store)
            })
    });
    report.check(verified.iter().all(|&v| v), || {
        "verify replay found violations".to_owned()
    });
    let mut layout = 0.0;
    for s in ["place", "route", "assemble"] {
        let ms = tracer.total_ms(&format!("layout.{s}"));
        report.layer(&format!("layout.{s}.ms"), ms);
        layout += ms;
    }
    let ratio = layout / tracer.total_ms("pipeline.floorplan");
    report.layer("layout.replay_vs_floorplan", ratio);
    report.check((ratio - 1.0).abs() <= LAYOUT_TOLERANCE, || {
        format!("layout replay {ratio:.3}x the floorplan stage, tolerance {LAYOUT_TOLERANCE}")
    });
    for s in ["hier", "drc", "extract", "lvs"] {
        report.layer(
            &format!("verify.{s}.ms"),
            tracer.total_ms(&format!("verify.{s}")),
        );
    }
    let calls = store.calls.load(Ordering::Relaxed);
    let builds = store.builds.load(Ordering::Relaxed);
    report.layer(
        "verify.cert_reuse_ratio",
        if calls == 0 {
            0.0
        } else {
            1.0 - builds as f64 / calls as f64
        },
    );
    report.note(format!(
        "trace: {} points, {wall:.3} s traced vs {untraced_s:.3} s untraced; layout replay tolerance {LAYOUT_TOLERANCE}",
        points.len(),
    ));
    report.finish_trace(&tracer, run);
}
