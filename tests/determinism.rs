//! Integration: the whole stochastic surface of the tool is reproducible.
//!
//! The hermetic-build policy (see DESIGN.md) vendors a deterministic RNG
//! so that every randomized flow — fault injection, Monte-Carlo yield,
//! coverage campaigns — produces byte-identical results from the same
//! seed, on any host, forever. These tests pin that contract end to end:
//! each one runs the same experiment twice from independently constructed
//! generators and demands exact equality, not statistical closeness.

use bisram_bist::{coverage, march};
use bisram_mem::{random_faults, ArrayOrg, FaultClass, FaultMix};
use bisram_rng::rngs::StdRng;
use bisram_rng::SeedableRng;
use bisram_tech::Process;
use bisram_yield::montecarlo::{self, MonteCarloYield};
use bisram_yield::rare::{RareEngine, TrialKernel};
use bisramgen::diag::{Transport, TransportFaults};
use bisramgen::field::{
    heterogeneous_chip, simulate_fleet_golden_jobs, simulate_fleet_jobs, ChipConfig, ChipModel,
    FieldConfig,
};
use bisramgen::{compile_with, ChipSheet, CompileOptions, CompiledRam, RamParams, VerifyMode};

/// The four byte-exact textual outputs the cache-transparency contract
/// covers: floorplan SVG, the two PLA personality planes, the itemized
/// area report, and the datasheet.
fn output_bytes(ram: &CompiledRam) -> (String, (String, String), String, String) {
    (
        ram.floorplan_svg(),
        ram.pla_planes(),
        ram.areas().report().to_string(),
        ram.datasheet().to_string(),
    )
}

#[test]
fn same_seed_gives_byte_identical_fault_lists() {
    let org = ArrayOrg::new(256, 8, 4, 2).expect("valid organization");
    let mix = FaultMix::default();
    for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
        let run = || {
            let mut rng = StdRng::seed_from_u64(seed);
            random_faults(&mut rng, &org, 40, &mix)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "seed {seed}: fault lists diverged");
        // Byte-for-byte, not just structurally equal.
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed {seed}");
    }
}

#[test]
fn same_seed_gives_identical_monte_carlo_yield() {
    let org = ArrayOrg::new(256, 8, 4, 4).expect("valid organization");
    for (seed, clustering) in [(7u64, None), (8, Some(2.0))] {
        let run = || -> MonteCarloYield {
            let mut rng = StdRng::seed_from_u64(seed);
            montecarlo::simulate_yield(&mut rng, org, 2.5, 60, clustering)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "seed {seed} clustering {clustering:?}");
        assert_eq!(a.trials, 60);
        assert_eq!(a.already_good + a.repaired + a.unrepairable, a.trials);
    }
}

#[test]
fn same_seed_gives_identical_coverage_report() {
    let org = ArrayOrg::new(64, 8, 4, 0).expect("valid organization");
    let test = march::ifa13();
    let run = || {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        coverage::measure(&mut rng, org, &test, true, 24, false)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "coverage campaigns diverged");
    for class in [FaultClass::Saf, FaultClass::Tf] {
        let ca = a.class(class).expect("class present");
        let cb = b.class(class).expect("class present");
        assert_eq!(ca, cb, "class {class}");
        assert_eq!(ca.injected, 24);
    }
}

#[test]
fn warm_cache_recompiles_are_byte_identical_across_all_processes() {
    // Cache transparency: a warm recompile (every stage artifact served
    // from the cache) must produce byte-identical outputs to the cold
    // compile that populated it, for each built-in process.
    for name in ["CDA.5u3m1p", "mos.6u3m1pHP", "CDA.7u3m1p"] {
        let process = Process::by_name(name).expect("built-in process");
        let params = RamParams::builder()
            .words(512)
            .bits_per_word(8)
            .bits_per_column(4)
            .spare_rows(4)
            .process(process)
            .build()
            .expect("valid parameters");
        let options = CompileOptions::cold();
        let cold = compile_with(&params, &options).expect("cold compile");
        let warm = compile_with(&params, &options).expect("warm compile");
        assert!(
            warm.trace().cache_misses() == 0,
            "{name}: warm recompile rebuilt an artifact"
        );
        assert_eq!(
            output_bytes(&cold),
            output_bytes(&warm),
            "{name}: warm recompile diverged from cold"
        );
    }
}

#[test]
fn parallel_and_cached_compiles_match_the_serial_cold_path() {
    // The parallel executor and the artifact cache must both be
    // invisible in the output: serial cold is the reference, and
    // 2-way / 8-way parallel compiles — cold and cache-warm — must be
    // byte-identical to it.
    let params = RamParams::builder()
        .words(1024)
        .bits_per_word(16)
        .bits_per_column(4)
        .spare_rows(4)
        .build()
        .expect("valid parameters");
    let reference =
        compile_with(&params, &CompileOptions::cold().with_jobs(1)).expect("serial cold compile");
    let reference_bytes = output_bytes(&reference);
    for jobs in [2, 8] {
        let options = CompileOptions::cold().with_jobs(jobs);
        let cold = compile_with(&params, &options).expect("parallel cold compile");
        let warm = compile_with(&params, &options).expect("parallel warm compile");
        assert_eq!(
            output_bytes(&cold),
            reference_bytes,
            "jobs={jobs}: parallel cold diverged from serial"
        );
        assert_eq!(
            output_bytes(&warm),
            reference_bytes,
            "jobs={jobs}: parallel warm diverged from serial"
        );
        assert!(warm.trace().cache_hits() > 0, "jobs={jobs}: no cache hits");
    }
}

#[test]
fn verify_report_is_byte_identical_across_worker_counts() {
    // Physical verification fans out per-macrocell on the executor and
    // caches per-macro results; neither may leak into the report. The
    // serial cold compile is the reference; 2-way and 8-way compiles —
    // cold and cache-warm — must render the identical report.
    let params = RamParams::builder()
        .words(64)
        .bits_per_word(4)
        .bits_per_column(4)
        .spare_rows(4)
        .build()
        .expect("valid parameters");
    let reference = compile_with(
        &params,
        &CompileOptions::cold().with_jobs(1).with_verify(true),
    )
    .expect("serial verified compile");
    let reference_bytes = reference
        .verify_report()
        .expect("verification requested")
        .to_string();
    assert!(reference.verify_report().unwrap().is_clean());
    for jobs in [2, 8] {
        let options = CompileOptions::cold().with_jobs(jobs).with_verify(true);
        let cold = compile_with(&params, &options).expect("parallel verified compile");
        let warm = compile_with(&params, &options).expect("warm verified compile");
        assert_eq!(
            cold.verify_report().unwrap().to_string(),
            reference_bytes,
            "jobs={jobs}: parallel verify report diverged from serial"
        );
        assert_eq!(
            warm.verify_report().unwrap().to_string(),
            reference_bytes,
            "jobs={jobs}: warm verify report diverged from serial"
        );
        assert!(
            warm.trace().cache_misses() == 0,
            "jobs={jobs}: warm verified recompile rebuilt an artifact"
        );
    }
}

#[test]
fn hierarchical_verify_is_byte_identical_to_flat_everywhere() {
    // The hierarchical-mode contract: on a clean design the certificate
    // + boundary-window report must render byte-identically to the flat
    // one — for all twelve macrocells, in every built-in process, at
    // every worker count, from both a cold and a warm certificate
    // cache.
    for name in ["CDA.5u3m1p", "mos.6u3m1pHP", "CDA.7u3m1p"] {
        let process = Process::by_name(name).expect("built-in process");
        let params = RamParams::builder()
            .words(64)
            .bits_per_word(4)
            .bits_per_column(4)
            .spare_rows(4)
            .process(process)
            .build()
            .expect("valid parameters");
        let flat = compile_with(
            &params,
            &CompileOptions::cold().with_jobs(1).with_verify(true),
        )
        .expect("flat verified compile");
        let flat_report = flat.verify_report().expect("flat report");
        assert!(flat_report.is_clean(), "[{name}]\n{flat_report}");
        assert_eq!(flat_report.cells.len(), 12, "{name}");
        let flat_bytes = flat_report.to_string();
        for jobs in [1, 2, 8] {
            let options = CompileOptions::cold()
                .with_jobs(jobs)
                .with_verify(true)
                .with_verify_mode(VerifyMode::Hier);
            let cold = compile_with(&params, &options).expect("hier cold compile");
            let warm = compile_with(&params, &options).expect("hier warm compile");
            assert_eq!(
                cold.verify_report().expect("hier report").to_string(),
                flat_bytes,
                "[{name}] jobs={jobs}: cold hierarchical report diverged from flat"
            );
            assert_eq!(
                warm.verify_report().expect("hier report").to_string(),
                flat_bytes,
                "[{name}] jobs={jobs}: warm hierarchical report diverged from flat"
            );
            assert!(
                warm.trace().cache_misses() == 0,
                "[{name}] jobs={jobs}: warm hierarchical recompile rebuilt an artifact"
            );
        }
    }
}

#[test]
fn signoff_verification_is_clean_for_every_process() {
    // The end-to-end acceptance gate: a small module compiled with
    // verification on must pass DRC and LVS on all twelve macrocells in
    // every built-in process.
    for name in ["CDA.5u3m1p", "mos.6u3m1pHP", "CDA.7u3m1p"] {
        let process = Process::by_name(name).expect("built-in process");
        let params = RamParams::builder()
            .words(64)
            .bits_per_word(4)
            .bits_per_column(4)
            .spare_rows(4)
            .process(process)
            .build()
            .expect("valid parameters");
        let ram = compile_with(&params, &CompileOptions::cold().with_verify(true))
            .expect("verified compile");
        let report = ram.verify_report().expect("verification requested");
        assert_eq!(report.cells.len(), 12, "{name}");
        assert!(report.is_clean(), "[{name}]\n{report}");
        assert_eq!(report.process, name);
    }
}

#[test]
fn chip_repair_report_is_byte_identical_across_workers_and_reruns() {
    // The chip-level diagnose→allocate→repair flow fans out per macro on
    // the executor and draws per-macro RNG streams; neither scheduling
    // nor worker count may leak into the report. A noisy transport makes
    // this a real test: retries and quarantines must land identically.
    let mut base = ChipConfig::new(heterogeneous_chip(12, 0xC41F), 512, 0xC41F);
    base.transport = Transport::with_faults(TransportFaults {
        drop_probability: 0.01,
        duplicate_probability: 0.005,
        timeout_probability: 0.15,
        ..TransportFaults::none()
    });
    let run = |jobs: usize| {
        let mut cfg = base.clone();
        cfg.jobs = Some(jobs);
        ChipModel::new(cfg).diagnose_and_repair()
    };
    // Serial is the reference; a second serial run is the "warm" rerun
    // (freshly constructed chip, same seed — nothing carries over).
    let reference = run(1);
    let rerun = run(1);
    assert_eq!(reference, rerun, "cold/warm serial chip runs diverged");
    let reference_bytes = reference.to_string();
    assert_eq!(rerun.to_string(), reference_bytes);
    for jobs in [2, 8] {
        let parallel = run(jobs);
        assert_eq!(parallel, reference, "jobs={jobs}: chip report diverged");
        assert_eq!(
            parallel.to_string(),
            reference_bytes,
            "jobs={jobs}: chip report bytes diverged"
        );
        let again = run(jobs);
        assert_eq!(
            again.to_string(),
            reference_bytes,
            "jobs={jobs}: rerun diverged"
        );
    }
    // The derived datasheet section is deterministic too, per process.
    for name in ["CDA.5u3m1p", "mos.6u3m1pHP", "CDA.7u3m1p"] {
        let process = Process::by_name(name).expect("built-in process");
        let a = ChipSheet::from_report(&reference, &process).to_string();
        let b = ChipSheet::from_report(&run(8), &process).to_string();
        assert_eq!(a, b, "{name}: chip sheet diverged");
    }
    // The noise actually exercised the retry path somewhere.
    assert!(
        reference.macros.iter().any(|m| m.transport_attempts > 1),
        "transport noise never fired — test lost its teeth"
    );
}

#[test]
fn lane_packed_fleet_is_byte_identical_to_golden_at_every_worker_count() {
    // The lane-packed engine (64 lifetimes per u64 word walk) and the
    // golden per-trial engine must produce byte-identical `FleetResult`s
    // for every worker count and for fleet sizes straddling the lane
    // width. `FleetResult::eq` compares floats via `to_bits`, so this is
    // bit-exactness, not approximate agreement.
    let org = ArrayOrg::new(32, 2, 2, 3).expect("valid organization");
    let mut cfg = FieldConfig::new(org, 2.0e-6, 10_000.0, 120_000.0);
    cfg.transient_upset_probability = 0.05;
    for lifetimes in [63usize, 64, 65, 130] {
        let reference = simulate_fleet_golden_jobs(&cfg, lifetimes, 0xF1EE7, 1);
        for jobs in [1usize, 2, 8] {
            let lane = simulate_fleet_jobs(&cfg, lifetimes, 0xF1EE7, jobs);
            assert_eq!(
                lane, reference,
                "lifetimes={lifetimes} jobs={jobs}: lane engine diverged from golden"
            );
            let golden = simulate_fleet_golden_jobs(&cfg, lifetimes, 0xF1EE7, jobs);
            assert_eq!(
                golden, reference,
                "lifetimes={lifetimes} jobs={jobs}: golden engine depends on worker count"
            );
        }
        // The run exercised real machinery, not a trivially immortal fleet.
        assert!(
            reference.deaths > 0,
            "lifetimes={lifetimes}: no deaths — test lost its teeth"
        );
    }
}

#[test]
fn rare_event_estimates_are_byte_identical_across_worker_counts() {
    // The rare-event engine's full surface — pilot statistics, the
    // deterministic shift pre-search, plain MC, mixture importance
    // sampling and statistical blockade — must not depend on the worker
    // count. `TailEstimate::eq` compares floats via `to_bits`, so the
    // f64 weight sums must merge in chunk order, not completion order.
    let mut engine = RareEngine::for_process(&Process::cda07(), TrialKernel::WriteMargin, 0.0);
    engine.threshold = engine.calibrate_threshold(0xBEEF, 120, 1e-2, 1);
    let shifts = engine.find_shifts();
    assert!(!shifts.is_empty(), "pre-search must find a failure mode");

    let stats = engine.metric_stats(0xBEEF, 120, 1);
    let mc = engine.run_mc(0x5EED, 96, 1);
    let is = engine.run_is_mixture(0x5EED, 96, 1, &shifts);
    let blockade = engine.run_blockade(0x5EED, 64, 96, 3.0, 1);
    for jobs in [2usize, 8] {
        let (mean, std) = engine.metric_stats(0xBEEF, 120, jobs);
        assert_eq!(
            stats.0.to_bits(),
            mean.to_bits(),
            "pilot mean at {jobs} workers"
        );
        assert_eq!(
            stats.1.to_bits(),
            std.to_bits(),
            "pilot std at {jobs} workers"
        );
        assert_eq!(
            mc,
            engine.run_mc(0x5EED, 96, jobs),
            "plain MC diverged at {jobs} workers"
        );
        assert_eq!(
            is,
            engine.run_is_mixture(0x5EED, 96, jobs, &shifts),
            "importance sampling diverged at {jobs} workers"
        );
        assert_eq!(
            blockade,
            engine.run_blockade(0x5EED, 64, 96, 3.0, jobs),
            "blockade diverged at {jobs} workers"
        );
    }
    // The pinned runs saw real failures — the equality had teeth.
    assert!(
        mc.failures > 0,
        "calibrated threshold must produce failures"
    );
    assert!(is.failures > 0, "shifted run must hit the tail");
}

#[test]
fn different_seeds_actually_differ() {
    // Guard against a degenerate generator that ignores its seed: two
    // different seeds must not produce the same 40-fault list.
    let org = ArrayOrg::new(256, 8, 4, 2).expect("valid organization");
    let mix = FaultMix::default();
    let mut a_rng = StdRng::seed_from_u64(1);
    let mut b_rng = StdRng::seed_from_u64(2);
    let a = random_faults(&mut a_rng, &org, 40, &mix);
    let b = random_faults(&mut b_rng, &org, 40, &mix);
    assert_ne!(a, b, "independent seeds produced identical fault lists");
}

#[test]
fn serve_sections_are_byte_identical_across_services_and_worker_counts() {
    use bisram_serve::{JobSpec, Service};

    let spec = "job = characterize\nwords = 256\nbpw = 16\nbpc = 4\nspares = 3\nverify = hier\n";
    let job = JobSpec::parse(spec).expect("spec parses");
    let mut outputs = Vec::new();
    for jobs in [1usize, 2, 8] {
        let service =
            Service::with_cache(std::sync::Arc::new(bisramgen::CellCache::new()), Some(jobs));
        let (outcome, dedup) = service.submit(&job);
        assert!(!dedup);
        let result = outcome.as_ref().as_ref().expect("job succeeds");
        let flat: String = result
            .sections
            .iter()
            .map(|s| format!("== {} ==\n{}", s.name, s.content))
            .collect();
        outputs.push((jobs, flat));
    }
    for (jobs, flat) in &outputs[1..] {
        assert_eq!(
            flat, &outputs[0].1,
            "service sections differ between jobs=1 and jobs={jobs}"
        );
    }
}

#[test]
fn sweep_report_is_byte_identical_across_jobs_and_backends() {
    use bisram_serve::{run_sweep, Daemon, DaemonConfig, Listen, Service, SweepBackend, SweepSpec};
    use std::sync::Arc;

    let spec =
        SweepSpec::parse("words = 128, 256\nbpw = 8\nbpc = 4\nspares = 1, 3\nverify = none\n")
            .expect("sweep spec parses");

    // In-process at several concurrency levels...
    let mut reports = Vec::new();
    for jobs in [1usize, 2, 8] {
        let service = Service::cold();
        let backend = SweepBackend::InProcess(&service);
        let report = run_sweep(&spec, &backend, Some(jobs)).expect("sweep runs");
        reports.push((format!("in-process jobs={jobs}"), report.text));
    }

    // ...and through a live daemon.
    let daemon = Daemon::start_with_service(
        &DaemonConfig {
            listen: Listen::Tcp("127.0.0.1:0".to_owned()),
            jobs: Some(2),
        },
        Arc::new(Service::cold()),
    )
    .expect("daemon binds");
    let backend = SweepBackend::Daemon(daemon.listen().clone());
    let report = run_sweep(&spec, &backend, Some(4)).expect("daemon sweep runs");
    reports.push(("daemon jobs=4".to_owned(), report.text));
    daemon.stop();
    daemon.join();

    for (label, text) in &reports[1..] {
        assert_eq!(
            text, &reports[0].1,
            "sweep report differs: {} vs {label}",
            reports[0].0
        );
    }
    assert!(reports[0].1.contains("sweep points: 4"));
    assert!(reports[0].1.contains("sweep frontier: "));
}
