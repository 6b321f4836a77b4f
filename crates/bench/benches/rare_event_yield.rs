//! Rare-event yield engine: importance sampling and statistical
//! blockade against brute-force Monte Carlo.
//!
//! Four contracts are checked, each with a grep-able marker for CI:
//!
//! * **Cheap-regime cross-validation** (always asserted): on every
//!   built-in process, the mean-shift importance sampler must agree
//!   with an exhaustive plain-MC run within 3 combined standard errors
//!   at p ≈ 1e-2. CI greps `rare crossval: PASS`.
//! * **Iso-variance trial reduction** (always asserted): in the deep
//!   tail (measured p ≤ 1e-4) the sampler must need at least
//!   [`SPEEDUP_FLOOR`]× fewer trials than plain MC would to reach the
//!   same estimator variance. The MC cost is the analytic
//!   `p(1−p)/var̂` — no billion-trial reference run, no machine-size
//!   gate, so this marker is never SKIPPED. CI greps
//!   `rare tail speedup: PASS`.
//! * **Blockade efficiency** (always asserted): the surrogate must
//!   block most safe candidates while landing within 1σ of plain MC on
//!   the same draws. CI greps `rare blockade: PASS`.
//! * **Determinism** (always asserted): the IS estimate is
//!   byte-identical at 1, 2 and 8 workers. CI greps
//!   `rare determinism: PASS`.

use bisram_bench::harness::{black_box, Harness};
use bisram_bench::{banner, quick_harness};
use bisram_tech::Process;
use bisram_yield::rare::{agreement_sigma, RareEngine, TrialKernel};

/// Minimum iso-variance trial-count reduction over plain MC in the
/// deep tail (ISSUE 9 acceptance floor).
const SPEEDUP_FLOOR: f64 = 50.0;

fn engine(process: &Process, p_target: f64) -> RareEngine {
    let mut e = RareEngine::for_process(process, TrialKernel::WriteMargin, 0.0);
    e.threshold = e.calibrate_threshold(0xBEEF, 400, p_target, 8);
    e
}

fn main() {
    banner(
        "rare_event_yield",
        "importance sampling + statistical blockade vs brute-force Monte Carlo",
    );
    let smoke = std::env::var("BISRAM_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let processes = [Process::cda05(), Process::mosis06(), Process::cda07()];

    // Cheap-regime cross-validation on all three processes: exhaustive
    // MC actually sees the event at p ≈ 1e-2, so the unbiased IS tally
    // has a ground truth to match.
    let (mc_n, is_n) = if smoke { (2000, 500) } else { (8000, 2000) };
    for process in &processes {
        let e = engine(process, 1e-2);
        let mc = e.run_mc(0xAB, mc_n, 8);
        let is = e.run_is_auto(0xCD, is_n, 8);
        let sigma = agreement_sigma(&mc, &is);
        println!(
            "{:<12} MC p={:.3e} (se {:.1e}, {} trials) | IS p={:.3e} (se {:.1e}, {} trials) | {:.2}σ",
            process.name(),
            mc.p_fail,
            mc.std_error(),
            mc.trials,
            is.p_fail,
            is.std_error(),
            is.trials,
            sigma
        );
        assert!(
            mc.failures >= 5,
            "{}: MC must see the cheap-regime event, got {} failures",
            process.name(),
            mc.failures
        );
        assert!(
            sigma <= 3.0,
            "{}: IS and MC disagree by {sigma:.2}σ (> 3σ)",
            process.name()
        );
    }
    println!("rare crossval: PASS (IS within 3σ of exhaustive MC on all 3 processes)");

    // Deep tail: calibrate into measured p ≤ 1e-4 and demand the
    // iso-variance reduction. The equivalent-MC cost is analytic
    // (p(1−p)/var̂), so the assertion runs everywhere — smoke, laptops,
    // single-core CI — with no SKIPPED gate.
    let tail_trials = if smoke { 800 } else { 4000 };
    let e = engine(&Process::cda07(), 1e-7);
    let is = e.run_is_auto(0x7A11, tail_trials, 8);
    let speedup = is.speedup_over_mc();
    println!(
        "deep tail: p={:.3e} (rse {:.1}%, {} trials, shift |s|={:.2}) -> MC needs {:.2e} trials, {speedup:.0}x",
        is.p_fail,
        100.0 * is.rse(),
        is.trials,
        is.shift_norm,
        is.mc_equivalent_trials()
    );
    assert!(
        is.p_fail > 0.0 && is.p_fail <= 1e-4,
        "tail calibration must land at p <= 1e-4, got {:e}",
        is.p_fail
    );
    assert!(
        is.failures >= 100,
        "the shift must land the sampler in the tail, got {} hits",
        is.failures
    );
    assert!(
        speedup >= SPEEDUP_FLOOR,
        "IS must need >= {SPEEDUP_FLOOR}x fewer trials than MC at iso-variance, got {speedup:.1}x"
    );
    println!(
        "rare tail speedup: PASS ({speedup:.0}x >= {SPEEDUP_FLOOR}x fewer trials at iso-variance, p={:.2e})",
        is.p_fail
    );

    // Statistical blockade: same per-trial draws as plain MC, so the
    // estimates may differ only through misclassified failures.
    let e = engine(&Process::cda07(), 0.02);
    let screen = if smoke { 2000 } else { 6000 };
    let mc = e.run_mc(0x1CE, screen, 8);
    let b = e.run_blockade(0x1CE, 200, screen, 3.0, 8);
    let sigma = agreement_sigma(&mc, &b.estimate);
    println!(
        "blockade: simulated {} / blocked {} of {screen}, p={:.3e} vs MC {:.3e} ({sigma:.2}σ)",
        b.simulated, b.blocked, b.estimate.p_fail, mc.p_fail
    );
    assert!(
        b.blocked > screen / 2,
        "surrogate must block most safe candidates, blocked {}",
        b.blocked
    );
    assert!(sigma <= 1.0, "blockade diverged from MC by {sigma:.2}σ");
    println!(
        "rare blockade: PASS ({}% simulated, within 1σ of plain MC)",
        100 * b.simulated / screen
    );

    // Worker-count determinism on the production entry point.
    let e = engine(&Process::cda07(), 1e-3);
    let shifts = e.find_shifts();
    let n = if smoke { 200 } else { 800 };
    let one = e.run_is_mixture(0xF00D, n, 1, &shifts);
    for jobs in [2, 8] {
        let other = e.run_is_mixture(0xF00D, n, jobs, &shifts);
        assert!(
            one == other,
            "IS estimate changed between 1 and {jobs} workers"
        );
    }
    println!("rare determinism: PASS (byte-identical at 1 / 2 / 8 workers, {n} trials)");

    // Timed groups for the summary table.
    let e = engine(&Process::cda07(), 1e-3);
    let shifts = e.find_shifts();
    let mut c: Harness = quick_harness();
    c.bench_function("rare_mc_200_trials", |b| {
        b.iter(|| black_box(e.run_mc(0xAB, 200, 8)))
    });
    c.bench_function("rare_is_200_trials", |b| {
        b.iter(|| black_box(e.run_is_mixture(0xCD, 200, 8, &shifts)))
    });
    c.bench_function("rare_find_shifts", |b| {
        b.iter(|| black_box(e.find_shifts()))
    });
    c.final_summary();
}
