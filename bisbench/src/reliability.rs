//! `reliability`: direct engine calls at two jobs, closed loop.
//!
//! Each round runs [`FLEET_CALLS_PER_ROUND`] fleet batches on the lane
//! engine, one rare-event estimate per kernel (pilot → calibrate → MPP
//! search → mixture IS → blockade) and [`CHIPS_PER_ROUND`] 16-macro
//! chip diagnose-and-repair runs.
//! Nothing here touches the compile pipeline, the cache or the
//! service.

use crate::gen::{self, ReliabilityInputs};
use crate::stats::{median, percentile};
use crate::trace::{Ctx, Tracer};
use crate::{Report, Run};
use bisram_field::{
    heterogeneous_chip, simulate_fleet_golden_jobs, simulate_fleet_jobs, ChipConfig, ChipModel,
    DegradationState, FieldConfig, FleetResult,
};
use bisram_mem::ArrayOrg;
use bisram_tech::Process;
use bisram_yield::rare::{RareEngine, TrialKernel};
use std::time::Instant;

/// Worker threads every engine call uses.
const JOBS: usize = 2;
/// Set-up repetitions before the window; one more follows every round,
/// and `setup_s` is the median of all of them, spread over the run so
/// that no single moment of host noise sets it.
const SETUP_REPS: usize = 3;
/// Fleet calls per round.
const FLEET_CALLS_PER_ROUND: u64 = 16;
/// Chip diagnoses per round.
const CHIPS_PER_ROUND: u64 = 4;
/// Rounds every window completes at least (7 × 16 fleet calls leave
/// ≥ 10 calls beyond p90).
const MIN_ROUNDS: u64 = 7;
/// Lifetimes in the ragged lane-versus-golden check (64 + 36).
const GOLDEN_CHECK_LIFETIMES: usize = 100;

/// One kernel's rare-event budget.
struct RarePlan {
    kernel: TrialKernel,
    target_p: f64,
    pilot: usize,
    trials: usize,
    blockade_trials: usize,
}

/// The two kernels: write margin aimed deep into the tail, read delay
/// through the adaptive transient solver on a smaller budget.
fn rare_plans() -> [RarePlan; 2] {
    [
        RarePlan {
            kernel: TrialKernel::WriteMargin,
            target_p: 1e-6,
            pilot: 256,
            trials: 2048,
            blockade_trials: 2048,
        },
        RarePlan {
            kernel: TrialKernel::ReadDelay,
            target_p: 1e-3,
            pilot: 32,
            trials: 64,
            blockade_trials: 64,
        },
    ]
}

/// Everything the timed loop calls, built during set-up.
struct Prepared {
    inputs: ReliabilityInputs,
    config: FieldConfig,
    process: Process,
}

fn prepare(seed: u64) -> Result<Prepared, String> {
    let inputs = gen::reliability(seed);
    let (words, bpw, bpc, spares) = inputs.org;
    let org = ArrayOrg::new(words, bpw, bpc, spares).map_err(|e| e.to_string())?;
    let config = FieldConfig::new(org, inputs.lambda, inputs.period, inputs.horizon);
    let process = Process::by_name(gen::PROCESSES[2]).ok_or("unknown process")?;
    Ok(Prepared {
        inputs,
        config,
        process,
    })
}

/// The fleet guard: rejects a configuration whose survival curve has
/// collapsed — every lifetime dead before its second session (the
/// repository default dies at the first, MTTF = period / 2).
fn guard(result: &FleetResult, period: f64) -> Result<(), String> {
    let alive_at_second = result.curve.survival.get(1).copied().unwrap_or(0.0);
    if alive_at_second <= 0.0 || result.mttf_hours <= 2.0 * period {
        return Err(format!(
            "degenerate fleet: R(t2) = {alive_at_second}, MTTF {} h, {} sessions for {} lifetimes",
            result.mttf_hours, result.sessions_run, result.lifetimes
        ));
    }
    Ok(())
}

fn chip_model(seed: u64, jobs: usize) -> ChipModel {
    let macros = heterogeneous_chip(gen::CHIP_MACROS, seed);
    // Room for two repaired rows per macro.
    let budget = macros.iter().map(|m| 2 * m.row_cost).sum();
    let mut config = ChipConfig::new(macros, budget, seed);
    config.jobs = Some(jobs);
    ChipModel::new(config)
}

/// One kernel's estimate chain; returns its result rendered exactly
/// (floats by bit pattern) and the IS estimate.
fn rare_chain(
    tracer: &Tracer,
    ctx: Ctx,
    process: &Process,
    plan: &RarePlan,
    seed: u64,
    jobs: usize,
) -> (String, f64, usize) {
    let k = plan.kernel.name();
    let span = |stage: &str| format!("rare.{k}.{stage}");
    let mut engine = RareEngine::for_process(process, plan.kernel, 0.0);
    let (mean, std) = tracer.span(&span("pilot"), ctx, |_| {
        engine.metric_stats(seed, plan.pilot, jobs)
    });
    engine.threshold = tracer.span(&span("calibrate"), ctx, |_| {
        engine.calibrate_threshold(seed, plan.pilot, plan.target_p, jobs)
    });
    let shifts = tracer.span(&span("mpp"), ctx, |_| engine.find_shifts());
    let is = tracer.span(&span("is"), ctx, |_| {
        engine.run_is_mixture(seed, plan.trials, jobs, &shifts)
    });
    let blockade = tracer.span(&span("blockade"), ctx, |_| {
        engine.run_blockade(seed, plan.pilot, plan.blockade_trials, 3.0, jobs)
    });
    let bits = |v: f64| v.to_bits();
    let text = format!(
        "{k} {:x} {:x} {:x} {:?} {} {} {:x} {:x} {} {} {} {:x}",
        bits(mean),
        bits(std),
        bits(engine.threshold),
        shifts.iter().map(|s| s.map(bits)).collect::<Vec<_>>(),
        is.trials,
        is.failures,
        bits(is.p_fail),
        bits(is.variance),
        blockade.simulated,
        blockade.blocked,
        blockade.estimate.failures,
        bits(blockade.estimate.p_fail),
    );
    (text, is.rse(), is.trials)
}

/// Output checks outside the timed region.
fn checks(report: &mut Report, p: &Prepared) {
    // Lane engine equals the golden per-trial engine on a ragged batch.
    let seed = gen::mix(&[p.inputs.fleet_seed, u64::MAX]);
    let lane = simulate_fleet_jobs(&p.config, GOLDEN_CHECK_LIFETIMES, seed, JOBS);
    let golden = simulate_fleet_golden_jobs(&p.config, GOLDEN_CHECK_LIFETIMES, seed, JOBS);
    report.check(lane == golden, || {
        "lane fleet differs from the golden engine".to_owned()
    });
    // Rare-event results are byte-identical at one and two jobs.
    let off = Tracer::new(false);
    for plan in rare_plans() {
        let small = RarePlan {
            pilot: 16,
            trials: 32,
            blockade_trials: 32,
            ..plan
        };
        let one = rare_chain(
            &off,
            Ctx::root(0),
            &p.process,
            &small,
            p.inputs.rare_seed,
            1,
        )
        .0;
        let two = rare_chain(
            &off,
            Ctx::root(0),
            &p.process,
            &small,
            p.inputs.rare_seed,
            2,
        )
        .0;
        report.check(one == two, || {
            format!("rare {} differs at 1 and 2 jobs", small.kernel.name())
        });
    }
    // Chip repair is deterministic at one and two jobs and in budget.
    let seed = p.inputs.chips[0];
    let a = chip_model(seed, 1).diagnose_and_repair();
    let b = chip_model(seed, 2).diagnose_and_repair();
    report.check(a == b, || "chip report differs at 1 and 2 jobs".to_owned());
    report.check(a.plan.spent <= a.plan.budget, || {
        "chip allocation over budget".to_owned()
    });
}

/// Timings of one window.
#[derive(Default)]
struct Window {
    rounds: u64,
    lifetimes: usize,
    fleet_s: f64,
    fleet_ms: Vec<f64>,
    sessions: u64,
    repairs: u64,
    chip_ms: Vec<f64>,
    quarantined: usize,
    rare_ms: Vec<f64>,
    round_ms: Vec<f64>,
    rse: [Vec<f64>; 2],
    is_trials: [usize; 2],
}

/// Rounds until `seconds` have passed and at least `min_rounds` ran,
/// calling `between` after each.
fn window(
    report: &mut Report,
    p: &Prepared,
    seconds: f64,
    min_rounds: u64,
    first_round: u64,
    tracer: &Tracer,
    mut between: impl FnMut(),
) -> Window {
    let mut w = Window::default();
    let start = Instant::now();
    let mut round = first_round;
    while w.rounds < min_rounds || start.elapsed().as_secs_f64() < seconds {
        let t_round = Instant::now();
        tracer.span("rel.round", Ctx::root(round), |ctx| {
            // The fleet calls are spread between the chips, so that a
            // slow spell on the host slows a few of them, not a run of
            // them.
            let calls_per_chip = FLEET_CALLS_PER_ROUND / CHIPS_PER_ROUND;
            for c in 0..CHIPS_PER_ROUND {
                for call in c * calls_per_chip..(c + 1) * calls_per_chip {
                    let seed = gen::mix(&[p.inputs.fleet_seed, round, call]);
                    let t = Instant::now();
                    let fleet = tracer.span("fleet.simulate", ctx, |_| {
                        simulate_fleet_jobs(&p.config, p.inputs.fleet_batch, seed, JOBS)
                    });
                    let s = t.elapsed().as_secs_f64();
                    w.fleet_s += s;
                    w.fleet_ms.push(s * 1e3);
                    report.attempted += 1;
                    report.check(guard(&fleet, p.inputs.period).is_ok(), || {
                        guard(&fleet, p.inputs.period).err().unwrap_or_default()
                    });
                    w.lifetimes += fleet.lifetimes;
                    w.sessions += fleet.sessions_run;
                    w.repairs += fleet.rows_repaired;
                }

                let chips = &p.inputs.chips;
                let seed = chips[(round * CHIPS_PER_ROUND + c) as usize % chips.len()];
                let model = chip_model(seed, JOBS);
                let t = Instant::now();
                let chip = tracer.span("chip.diagnose", ctx, |_| model.diagnose_and_repair());
                w.chip_ms.push(t.elapsed().as_secs_f64() * 1e3);
                report.attempted += 1;
                report.check(chip.macros.len() == gen::CHIP_MACROS, || {
                    "chip report lost macros".to_owned()
                });
                w.quarantined += chip.count(DegradationState::Quarantined);
            }

            let t = Instant::now();
            tracer.span("rare.estimate", ctx, |ctx| {
                for (i, plan) in rare_plans().iter().enumerate() {
                    let seed = gen::mix(&[p.inputs.rare_seed, round, i as u64]);
                    let (_, rse, trials) = rare_chain(tracer, ctx, &p.process, plan, seed, JOBS);
                    w.rse[i].push(rse);
                    w.is_trials[i] += trials;
                }
            });
            w.rare_ms.push(t.elapsed().as_secs_f64() * 1e3);
            report.attempted += 1;
        });
        w.round_ms.push(t_round.elapsed().as_secs_f64() * 1e3);
        w.rounds += 1;
        round += 1;
        between();
    }
    w
}

/// One set-up: build the inputs and vet the fleet configuration with
/// the guard on a probe fleet. Returns how long it took.
fn set_up(seed: u64) -> (f64, Result<Prepared, String>) {
    let t = Instant::now();
    let prepared = prepare(seed).and_then(|p| {
        let probe = simulate_fleet_jobs(&p.config, 256, p.inputs.fleet_seed, JOBS);
        guard(&probe, p.inputs.period).map(|()| p)
    });
    (t.elapsed().as_secs_f64(), prepared)
}

pub fn run(run: &Run, report: &mut Report) {
    let mut times = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let (t, p) = set_up(run.seed);
        times.push(t);
        match p {
            Ok(p) => prepared = Some(p),
            Err(e) => {
                report.check(false, || e);
                return;
            }
        }
    }
    let p = prepared.expect("prepared at least once");
    checks(report, &p);

    if run.trace {
        traced(run, report, &p);
        return;
    }
    let off = Tracer::new(false);
    let w = window(report, &p, run.seconds, MIN_ROUNDS, 0, &off, || {
        times.push(set_up(run.seed).0)
    });
    report.setup_s = median(&times);
    let p90 = percentile(&w.fleet_ms, 0.90);
    report.check(p90.is_some(), || "too few fleet calls for p90".to_owned());
    // Per call, not per window: a slow spell on the host slows a few
    // calls, not the figure.
    report.throughput_per_s = p.inputs.fleet_batch as f64 / (median(&w.fleet_ms) / 1e3);
    report.p50_ms = median(&w.chip_ms);
    report.tail_ms = p90.unwrap_or(0.0);
    report.class_ms = median(&w.rare_ms);
    report.note(format!(
        "reliability: {} rounds, {} lifetimes, {} chips, {} rare estimate pairs",
        w.rounds,
        w.lifetimes,
        w.chip_ms.len(),
        w.rare_ms.len()
    ));
    report.note(format!(
        "fleet: {:.2} sessions and {:.3} repairs per lifetime",
        w.sessions as f64 / w.lifetimes as f64,
        w.repairs as f64 / w.lifetimes as f64
    ));
    report.named("fleet_lifetimes_per_s", report.throughput_per_s, "1/s");
    report.named("chip_diagnose_s", report.p50_ms / 1e3, "s");
    report.named("fleet_call_p90_ms", report.tail_ms, "ms");
    report.named("rare_estimate_s", report.class_ms / 1e3, "s");
}

fn traced(run: &Run, report: &mut Report, p: &Prepared) {
    let half = run.seconds / 2.0;
    let untraced = window(report, p, half, 1, 0, &Tracer::new(false), || {});
    let tracer = Tracer::new(true);
    let start = tracer.now();
    let w = window(report, p, half, 1, untraced.rounds, &tracer, || {});
    let end = tracer.now();
    report.layer(
        "trace.overhead",
        median(&w.round_ms) / median(&untraced.round_ms) - 1.0,
    );
    report.layer("trace.coverage", tracer.coverage(start, end, 1));

    // Serial fleet on a sub-fleet, for the parallel efficiency.
    let sub = p.inputs.fleet_batch / 2;
    let t = Instant::now();
    tracer.span("fleet.serial", Ctx::root(u64::MAX), |_| {
        simulate_fleet_jobs(&p.config, sub, p.inputs.fleet_seed, 1)
    });
    let serial_ms = t.elapsed().as_secs_f64() * 1e3;
    let parallel_ms = w.fleet_s * 1e3;
    report.layer("fleet.serial.ms", serial_ms);
    report.layer("fleet.parallel.ms", parallel_ms);
    let per_serial = serial_ms / sub as f64;
    let per_parallel = parallel_ms / w.lifetimes as f64;
    report.layer(
        "fleet.parallel_efficiency",
        per_serial / per_parallel / JOBS as f64,
    );
    report.layer(
        "fleet.sessions_per_lifetime",
        w.sessions as f64 / w.lifetimes as f64,
    );
    report.layer(
        "fleet.repairs_per_lifetime",
        w.repairs as f64 / w.lifetimes as f64,
    );
    report.layer("chip.diagnose.ms", w.chip_ms.iter().sum());
    report.layer("chip.quarantined", w.quarantined as f64);
    for (i, plan) in rare_plans().iter().enumerate() {
        let k = plan.kernel.name();
        for stage in ["pilot", "calibrate", "mpp", "is", "blockade"] {
            let name = format!("rare.{k}.{stage}");
            report.layer(&format!("{name}.ms"), tracer.total_ms(&name));
        }
        let is_ms = tracer.total_ms(&format!("rare.{k}.is"));
        report.layer(
            &format!("rare.{k}.us_per_trial"),
            is_ms * 1e3 / w.is_trials[i].max(1) as f64,
        );
        report.layer(&format!("rare.{k}.is_rse"), median(&w.rse[i]));
    }
    report.note(format!(
        "trace: {} rounds traced, {} untraced; round p50 {:.1} ms traced vs {:.1} ms",
        w.rounds,
        untraced.rounds,
        median(&w.round_ms),
        median(&untraced.round_ms)
    ));
    report.finish_trace(&tracer, run);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The repository's default fleet (1024×32, λ = 1e-7/h, 10 000 h
    /// sessions) loses every lifetime before its first session; the
    /// guard rejects it and passes the benchmark's configuration.
    #[test]
    fn guard_rejects_the_collapsed_default_fleet() {
        let org = ArrayOrg::new(1024, 32, 4, 4).expect("valid organization");
        let collapsed = FieldConfig::new(org, 1.0e-7, 10_000.0, 120_000.0);
        let fleet = simulate_fleet_jobs(&collapsed, 128, 1, JOBS);
        assert_eq!(fleet.sessions_run, fleet.lifetimes as u64);
        assert!(guard(&fleet, 10_000.0).is_err());
        let p = prepare(1).expect("benchmark inputs");
        let fleet = simulate_fleet_jobs(&p.config, 128, 1, JOBS);
        assert!(guard(&fleet, p.inputs.period).is_ok());
    }
}
