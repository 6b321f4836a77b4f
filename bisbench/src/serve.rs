//! `serve-mixed`: an in-process daemon on a Unix socket, two client
//! connections in a closed loop.
//!
//! Set-up compiles every organization the mix uses and fills the memo
//! with the hot set, so timed traffic never runs a cold pipeline stage.
//! The timed mix (see [`gen::Class`]) is memo hits, warm memo misses,
//! single-flight pairs and pings; more distinct keys arrive per run
//! than the memo holds, so hot entries are evicted and re-executed.
//!
//! The traced run measures an untraced window, then a traced one with
//! a span per client call, then replays the traced window's requests
//! against an in-process `Service` on the same cache — parse,
//! canonicalize and submit, each attributed by dedup role — and
//! replays the warm compiles' pipeline stages and artifact exports.

use crate::gen::{self, Class, Org};
use crate::stats::{median, percentile};
use crate::sweep::{params_of, traced_stages};
use crate::trace::{Ctx, Tracer};
use crate::{cache_layers, reconcile_cache, Report, Run};
use bisram_serve::{Client, Daemon, DaemonConfig, JobResult, JobSpec, Listen, Service};
use bisram_wire::fnv1a64_bytes;
use bisramgen::{compile_with, CellCache, CompileOptions};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Client connections.
const CONNS: u64 = 2;
/// Set-up repetitions (each a fresh daemon and cold cache).
const SETUP_REPS: usize = 5;
/// Responses checked byte for byte against the in-process service:
/// every `SAMPLE_EVERY`-th step.
const SAMPLE_EVERY: u64 = 16;

struct Setup {
    daemon: Daemon,
    service: Arc<Service>,
    cache: Arc<CellCache>,
    orgs: Vec<Org>,
    hot: Vec<String>,
}

/// The socket, relative to the working directory.
fn socket_path() -> PathBuf {
    PathBuf::from(format!(".bisbench-{}.sock", std::process::id()))
}

fn set_up() -> Result<Setup, String> {
    let orgs = gen::serve_orgs();
    let hot = gen::hot_set(&orgs);
    let cache = Arc::new(CellCache::new());
    let service = Arc::new(Service::with_cache(Arc::clone(&cache), None));
    let config = DaemonConfig {
        listen: Listen::Unix(socket_path()),
        jobs: None,
    };
    let daemon = Daemon::start_with_service(&config, Arc::clone(&service))
        .map_err(|e| format!("starting the daemon: {e}"))?;
    let warm = || -> Result<(), String> {
        let mut client =
            Client::connect(daemon.listen()).map_err(|e| format!("connecting: {e}"))?;
        for org in &orgs {
            client
                .request_text(&org.job("characterize", 0.75, 1.0e-7))
                .map_err(|e| format!("cold compile: {e}"))?;
        }
        for spec in &hot {
            client
                .request_text(spec)
                .map_err(|e| format!("memo fill: {e}"))?;
        }
        Ok(())
    };
    if let Err(e) = warm() {
        daemon.stop();
        daemon.join();
        return Err(e);
    }
    Ok(Setup {
        daemon,
        service,
        cache,
        orgs,
        hot,
    })
}

/// One data-plane request replayed in process.
struct Replayed {
    class: Class,
    role: &'static str,
    parse_us: f64,
    canonical_us: f64,
    submit_us: f64,
}

/// One timed request.
struct Sample {
    /// Completion time, seconds into the window.
    at: f64,
    conn: u64,
    step: u64,
    class: Class,
    us: f64,
    ok: bool,
    bytes: usize,
    dedup: bool,
    digest: u64,
}

impl Sample {
    /// The spec text this request sent, generated again: keeping every
    /// request's text would grow the heap with the request count.
    fn text(&self, seed: u64, setup: &Setup) -> String {
        gen::step_job(seed, self.conn, self.step, &setup.orgs, &setup.hot).1
    }
}

fn digest_sections(result: &JobResult) -> u64 {
    let mut bytes = Vec::new();
    for s in &result.sections {
        bytes.extend_from_slice(s.name.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(s.content.as_bytes());
        bytes.push(0);
    }
    fnv1a64_bytes(&bytes)
}

/// A closed-loop window of at least `seconds` from `first_step`: both
/// connections walk the same step sequence, meeting at every
/// single-flight step, where the stop decision is also taken. Returns
/// the samples, the step the window stopped at, and its wall time.
fn window(
    setup: &Setup,
    seed: u64,
    seconds: f64,
    first_step: u64,
    tracer: &Tracer,
) -> (Vec<Sample>, u64, f64) {
    let barrier = Barrier::new(CONNS as usize);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let per_conn: Vec<(Vec<Sample>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|conn| {
                let (barrier, stop) = (&barrier, &stop);
                s.spawn(move || {
                    let mut client = Client::connect(setup.daemon.listen()).ok();
                    let mut samples = Vec::new();
                    let mut step = first_step;
                    loop {
                        let (class, text) =
                            gen::step_job(seed, conn, step, &setup.orgs, &setup.hot);
                        if class == Class::Single {
                            if barrier.wait().is_leader() {
                                stop.store(
                                    start.elapsed().as_secs_f64() >= seconds,
                                    Ordering::SeqCst,
                                );
                            }
                            barrier.wait();
                            if stop.load(Ordering::SeqCst) {
                                return (samples, step);
                            }
                        }
                        let t = Instant::now();
                        let rid = (conn << 40) | step;
                        let name = if class == Class::Ping {
                            "wire.ping"
                        } else {
                            "wire.request"
                        };
                        let outcome = tracer.span("mix.step", Ctx::root(rid), |ctx| {
                            tracer.span(name, ctx, |_| match client.as_mut() {
                                None => None,
                                Some(c) if class == Class::Ping => c.ping().ok().map(|()| None),
                                Some(c) => c.request_text(&text).ok().map(Some),
                            })
                        });
                        let us = t.elapsed().as_secs_f64() * 1e6;
                        let (ok, bytes, dedup, digest) = match &outcome {
                            None => (false, 0, false, 0),
                            Some(None) => (true, 0, false, 0),
                            Some(Some((result, dedup))) => (
                                true,
                                result
                                    .sections
                                    .iter()
                                    .map(|s| s.name.len() + s.content.len())
                                    .sum(),
                                *dedup,
                                digest_sections(result),
                            ),
                        };
                        samples.push(Sample {
                            at: start.elapsed().as_secs_f64(),
                            conn,
                            step,
                            class,
                            us,
                            ok,
                            bytes,
                            dedup,
                            digest,
                        });
                        step += 1;
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let next = per_conn[0].1;
    (
        per_conn.into_iter().flat_map(|(s, _)| s).collect(),
        next,
        wall,
    )
}

/// Counts, checks and counter reconciliation for one window.
fn check_window(
    report: &mut Report,
    setup: &Setup,
    seed: u64,
    samples: &[Sample],
    counters_before: (u64, u64, u64),
    misses_before: u64,
) {
    report.attempted += samples.len() as u64;
    for s in samples {
        report.check(s.ok, || {
            format!(
                "request failed ({}): {}",
                s.class.name(),
                s.text(seed, setup)
            )
        });
    }
    let data_plane = samples.iter().filter(|s| s.class != Class::Ping).count() as u64;
    let (r0, e0, d0) = counters_before;
    let (r1, e1, d1) = setup.service.counters();
    report.check(
        (e1 - e0) + (d1 - d0) == data_plane && r1 - r0 == samples.len() as u64,
        || {
            format!(
                "service counters: executed {} + dedup {} vs {data_plane} data-plane requests, {} requests vs {} sent",
                e1 - e0,
                d1 - d0,
                r1 - r0,
                samples.len()
            )
        },
    );
    report.check(setup.cache.misses() == misses_before, || {
        format!(
            "{} cold pipeline builds during timed traffic",
            setup.cache.misses() - misses_before
        )
    });
    reconcile_cache(report, &setup.cache);

    // Daemon responses are byte-equal to the in-process service.
    let inproc = Service::with_cache(Arc::clone(&setup.cache), None);
    let mut compared = 0;
    for s in samples
        .iter()
        .filter(|s| s.ok && s.class != Class::Ping && s.step % SAMPLE_EVERY == 0)
    {
        let text = s.text(seed, setup);
        let same = JobSpec::parse(&text).is_ok_and(
            |job| matches!(inproc.submit(&job).0.as_ref(), Ok(r) if digest_sections(r) == s.digest),
        );
        report.check(same, || {
            format!("daemon and in-process sections differ: {text}")
        });
        compared += 1;
    }
    report.note(format!(
        "byte-equality: {compared} responses compared with in-process submit"
    ));
}

fn ms_of(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| keep(s))
        .map(|s| s.us / 1e3)
        .collect()
}

/// Equal time slices of the window the latency figures are taken over.
const SLICES: usize = 10;

/// The median over [`SLICES`] equal slices of the window of `stat`
/// over each slice's latencies (ms) of the requests `keep` selects —
/// one stalled second moves one slice, not the figure. `None` when a
/// slice has too few samples for `stat`.
fn sliced(
    samples: &[Sample],
    wall: f64,
    keep: impl Fn(&Sample) -> bool,
    stat: impl Fn(&[f64]) -> Option<f64>,
) -> Option<f64> {
    let mut per_slice = Vec::with_capacity(SLICES);
    for k in 0..SLICES {
        let (lo, hi) = (
            wall * k as f64 / SLICES as f64,
            wall * (k + 1) as f64 / SLICES as f64,
        );
        per_slice.push(stat(&ms_of(samples, |s| {
            keep(s) && s.at >= lo && s.at < hi
        }))?);
    }
    Some(median(&per_slice))
}

/// The median of a slice's latencies, if it has any.
fn slice_median(ms: &[f64]) -> Option<f64> {
    (!ms.is_empty()).then(|| median(ms))
}

pub fn run(run: &Run, report: &mut Report) {
    let mut times = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = setup.take() {
            let Setup { daemon, .. } = old;
            daemon.stop();
            daemon.join();
        }
        let t = Instant::now();
        match set_up() {
            Ok(s) => setup = Some(s),
            Err(e) => {
                report.check(false, || e);
                return;
            }
        }
        times.push(t.elapsed().as_secs_f64());
    }
    report.setup_s = median(&times);
    let setup = setup.expect("set up at least once");

    if run.trace {
        traced(run, report, &setup);
    } else {
        let counters = setup.service.counters();
        let misses = setup.cache.misses();
        let (samples, _, wall) = window(&setup, run.seed, run.seconds, 0, &Tracer::new(false));
        check_window(report, &setup, run.seed, &samples, counters, misses);
        let non_ping = |s: &Sample| s.class != Class::Ping;
        let p50 = sliced(&samples, wall, non_ping, slice_median);
        let warm_p50 = sliced(&samples, wall, |s| s.class == Class::Warm, slice_median);
        let p99 = sliced(&samples, wall, non_ping, |ms| percentile(ms, 0.99));
        report.check(p50.is_some() && warm_p50.is_some() && p99.is_some(), || {
            "too few requests per slice".to_owned()
        });
        report.throughput_per_s = samples.len() as f64 / wall;
        report.p50_ms = p50.unwrap_or(0.0);
        report.tail_ms = p99.unwrap_or(0.0);
        report.class_ms = warm_p50.unwrap_or(0.0);
        report.note(format!(
            "serve: {} requests in {wall:.3} s over {CONNS} connections",
            samples.len()
        ));
        for class in Class::ALL {
            let n = samples.iter().filter(|s| s.class == class).count();
            report.note(format!("serve class {}: {n} requests", class.name()));
        }
        let all = ms_of(&samples, non_ping);
        report.named("serve_rps", report.throughput_per_s, "1/s");
        report.named("serve_p50_ms", report.p50_ms, "ms");
        report.named("serve_p99_ms", percentile(&all, 0.99).unwrap_or(0.0), "ms");
        report.named("serve_p99_sliced_median_ms", report.tail_ms, "ms");
        report.named("serve_warm_miss_p50_ms", report.class_ms, "ms");
    }
    let Setup { daemon, .. } = setup;
    daemon.stop();
    daemon.join();
}

fn traced(run: &Run, report: &mut Report, setup: &Setup) {
    let half = run.seconds / 2.0;
    let counters = setup.service.counters();
    let misses = setup.cache.misses();
    let (untraced, next, wall_u) = window(setup, run.seed, half, 0, &Tracer::new(false));
    check_window(report, setup, run.seed, &untraced, counters, misses);

    let tracer = Tracer::new(true);
    let counters = setup.service.counters();
    let misses = setup.cache.misses();
    let kinds_before = setup.cache.kind_stats();
    let start = tracer.now();
    let (samples, _, wall) = window(setup, run.seed, half, next, &tracer);
    let end = tracer.now();
    let (_, e0, d0) = counters;
    let (_, e1, d1) = setup.service.counters();
    check_window(report, setup, run.seed, &samples, counters, misses);
    cache_layers(report, &setup.cache, &kinds_before);
    report.layer(
        "trace.overhead",
        (untraced.len() as f64 / wall_u) / (samples.len() as f64 / wall) - 1.0,
    );
    report.layer(
        "trace.coverage",
        tracer.coverage(start, end, CONNS as usize),
    );

    let data_plane: Vec<&Sample> = samples.iter().filter(|s| s.class != Class::Ping).collect();
    let n = data_plane.len().max(1) as f64;
    let executed = e1 - e0;
    let dedup = d1 - d0;
    report.layer("serve.executed", executed as f64);
    report.layer(
        "serve.dedup_ratio",
        dedup as f64 / (executed + dedup).max(1) as f64,
    );
    // A dedup flag outside the single-flight class can only be a memo hit.
    let memo = data_plane
        .iter()
        .filter(|s| s.dedup && s.class != Class::Single)
        .count();
    report.layer("serve.memo_hit_ratio", memo as f64 / n);
    let pings: Vec<f64> = samples
        .iter()
        .filter(|s| s.class == Class::Ping)
        .map(|s| s.us)
        .collect();
    if !pings.is_empty() {
        report.layer("wire.ping_rtt.us", median(&pings));
    }
    report.layer(
        "wire.resp_bytes",
        samples.iter().map(|s| s.bytes as f64).sum(),
    );

    // Replay the traced window's data-plane steps in process, in step
    // order per connection, meeting at single-flight steps as before.
    let inproc = Service::with_cache(Arc::clone(&setup.cache), None);
    for spec in &setup.hot {
        if let Ok(job) = JobSpec::parse(spec) {
            inproc.submit(&job);
        }
    }
    let mut steps: Vec<u64> = samples.iter().map(|s| s.step).collect();
    steps.sort_unstable();
    steps.dedup();
    let barrier = Barrier::new(CONNS as usize);
    let replayed: Vec<Vec<Replayed>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|conn| {
                let (steps, barrier, inproc, tracer) = (&steps, &barrier, &inproc, &tracer);
                s.spawn(move || {
                    let mut out = Vec::new();
                    for &step in steps {
                        let (class, text) =
                            gen::step_job(run.seed, conn, step, &setup.orgs, &setup.hot);
                        if class == Class::Single {
                            barrier.wait();
                        }
                        if class == Class::Ping {
                            continue;
                        }
                        let ctx = Ctx::root((1 << 60) | (conn << 40) | step);
                        let t = Instant::now();
                        let Ok(job) = tracer.span("serve.parse", ctx, |_| JobSpec::parse(&text))
                        else {
                            continue;
                        };
                        let parse_us = t.elapsed().as_secs_f64() * 1e6;
                        let t = Instant::now();
                        std::hint::black_box(
                            tracer.span("serve.canonical", ctx, |_| job.canonical()),
                        );
                        let canonical_us = t.elapsed().as_secs_f64() * 1e6;
                        let t = Instant::now();
                        let (_, deduped) =
                            tracer.span("serve.submit", ctx, |_| inproc.submit(&job));
                        let submit_us = t.elapsed().as_secs_f64() * 1e6;
                        let role = match (deduped, class) {
                            (false, _) => "leader",
                            (true, Class::Single) => "follower",
                            (true, _) => "memo",
                        };
                        out.push(Replayed {
                            class,
                            role,
                            parse_us,
                            canonical_us,
                            submit_us,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let replayed: Vec<_> = replayed.into_iter().flatten().collect();
    if !replayed.is_empty() {
        report.layer(
            "serve.parse.us",
            median(&replayed.iter().map(|r| r.parse_us).collect::<Vec<_>>()),
        );
        report.layer(
            "serve.canonical.us",
            median(&replayed.iter().map(|r| r.canonical_us).collect::<Vec<_>>()),
        );
    }
    for role in ["memo", "leader", "follower"] {
        let us: Vec<f64> = replayed
            .iter()
            .filter(|r| r.role == role)
            .map(|r| r.submit_us)
            .collect();
        if !us.is_empty() {
            report.layer(&format!("serve.submit.us.{role}"), median(&us));
        }
    }
    for class in [Class::Hot, Class::Warm, Class::Single] {
        let client: Vec<f64> = samples
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.us)
            .collect();
        let inproc: Vec<f64> = replayed
            .iter()
            .filter(|r| r.class == class)
            .map(|r| r.submit_us)
            .collect();
        if !client.is_empty() && !inproc.is_empty() {
            report.layer(
                &format!("serve.transport.us.{}", class.name()),
                median(&client) - median(&inproc),
            );
        }
    }

    // The warm compiles' stages (all cache hits) and, per organization,
    // the artifact exports its compile jobs render: the floorplan SVG
    // always, the flattened CIF where the job asks for it.
    let mut replays = 0;
    for (i, s) in data_plane.iter().enumerate() {
        if s.class == Class::Warm || s.class == Class::Single {
            let text = s.text(run.seed, setup);
            if let Ok(JobSpec::Compile(c) | JobSpec::Characterize(c)) = JobSpec::parse(&text) {
                let ok = params_of(&c).and_then(|params| {
                    traced_stages(
                        &tracer,
                        Ctx::root((2 << 60) | i as u64),
                        &setup.cache,
                        params,
                        false,
                    )
                });
                report.check(ok.is_ok(), || format!("pipeline replay failed: {text}"));
                replays += 1;
            }
        }
    }
    for (i, org) in setup.orgs.iter().enumerate() {
        let Ok(JobSpec::Compile(c)) = JobSpec::parse(&org.job("compile", 0.5, 1.0e-7)) else {
            continue;
        };
        let options = CompileOptions::new().with_cache(Arc::clone(&setup.cache));
        let Ok(ram) =
            params_of(&c).and_then(|p| compile_with(&p, &options).map_err(|e| e.to_string()))
        else {
            report.check(false, || format!("export replay compile failed: {org:?}"));
            continue;
        };
        let ctx = Ctx::root((3 << 60) | i as u64);
        std::hint::black_box(tracer.span("layout.export_svg", ctx, |_| ram.floorplan_svg()));
        if org.renders_cif() {
            std::hint::black_box(tracer.span("layout.export_cif", ctx, |_| ram.to_cif()));
        }
    }
    let mut stages_ms = 0.0;
    for stage in ["control", "leaves", "macrocells", "floorplan", "signoff"] {
        let ms = tracer.total_ms(&format!("pipeline.{stage}"));
        report.layer(&format!("pipeline.{stage}.ms"), ms);
        stages_ms += ms;
    }
    report.note(format!(
        "pipeline: {replays} warm compiles replayed, {:.3} ms of stage time each (every stage a cache hit)",
        stages_ms / f64::from(replays.max(1))
    ));
    for export in ["export_svg", "export_cif"] {
        report.layer(
            &format!("layout.{export}.ms"),
            tracer.total_ms(&format!("layout.{export}")),
        );
    }
    report.note(format!(
        "trace: {} requests traced in {wall:.3} s, {} untraced in {wall_u:.3} s, {} replayed in process",
        samples.len(),
        untraced.len(),
        replayed.len()
    ));
    report.finish_trace(&tracer, run);
}
