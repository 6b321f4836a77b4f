//! The compile service: one shared cache, single-flight dedup, typed
//! outcomes.
//!
//! [`Service`] is the daemon's engine and equally usable in-process —
//! the sweep orchestrator calls [`Service::submit`] directly when no
//! daemon is running, so both paths execute *exactly* the same code and
//! produce byte-identical sections.
//!
//! Three properties matter here:
//!
//! * **One cache, two tiers.** Every request compiles through the same
//!   [`CellCache`], and *successful* outcomes are additionally
//!   memoized whole (bounded FIFO, [`MEMO_CAP`] entries) under the
//!   job's canonical key — a repeat of an already-served point costs a
//!   map lookup plus framing. That is where the warm-vs-cold
//!   throughput of the daemon comes from.
//! * **Single-flight.** Identical requests that are in flight
//!   *simultaneously* collapse onto one execution: the first caller
//!   becomes the leader and computes, the rest block on the leader's
//!   slot and share its `Arc`'d outcome. The [`Service::counters`]
//!   triple (requests, executed, dedup hits) makes the collapse
//!   observable and testable; memo hits count as dedup hits, since
//!   both mean "reused another submission's execution".
//! * **Determinism.** Section bytes never contain wall-clock time,
//!   worker counts or anything else host-dependent; a given job spec
//!   produces the same section bytes on every run at any parallelism.
//!   (The [`status`](crate::JobSpec::Status) job reports live counters
//!   and is the deliberate exception — it is diagnostic, not part of
//!   any reduction.)

use crate::job::{ChipJob, CompileJob, FleetJob, JobSpec, RareJob};
use bisram_exec::resolve_jobs;
use bisram_mem::ArrayOrg;
use bisram_tech::Process;
use bisram_yield::montecarlo::simulate_yield_seeded;
use bisram_yield::optimize::optimize_spares_measured;
use bisram_yield::rare::{agreement_sigma, RareEngine, TrialKernel};
use bisram_yield::reliability::ReliabilityModel;
use bisram_yield::repairability::YieldModel;
use bisramgen::diag::{Transport, TransportFaults};
use bisramgen::field::{
    heterogeneous_chip, simulate_fleet_jobs, ChipConfig, ChipModel, FieldConfig,
};
use bisramgen::{
    compile_with, CellCache, ChipSheet, CompileOptions, ParamError, PipelineTrace, RamParams,
};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// One named artifact streamed back to the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Artifact name, e.g. `datasheet.txt` or `metrics.txt`.
    pub name: String,
    /// Artifact bytes (all sections are text).
    pub content: String,
}

impl Section {
    fn new(name: &str, content: impl Into<String>) -> Section {
        Section {
            name: name.to_owned(),
            content: content.into(),
        }
    }
}

/// A completed job: its artifact sections, in streaming order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    /// Artifact sections, in the order they stream.
    pub sections: Vec<Section>,
}

impl JobResult {
    /// The content of the section called `name`, if present.
    pub fn section(&self, name: &str) -> Option<&str> {
        self.sections
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.content.as_str())
    }
}

/// What a job's runner produced: its sections, whether the job passed
/// its own check, and (for compile-family jobs) the pipeline trace.
#[derive(Debug)]
pub struct Ran {
    /// Artifact sections, in streaming order.
    pub sections: Vec<Section>,
    /// `Err(message)` when the job ran to the end but failed its own
    /// check: a dirty verify or a crossval FAIL. The sections are still
    /// complete.
    pub verdict: Result<(), String>,
    /// The compile's per-stage trace, for `bisramgen --timings`.
    pub trace: Option<PipelineTrace>,
}

impl Ran {
    fn passed(sections: Vec<Section>) -> Ran {
        Ran {
            sections,
            verdict: Ok(()),
            trace: None,
        }
    }
}

/// A failed job, with a retry-classified status code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Status code (HTTP-flavoured: 4xx request problems, 5xx server
    /// states).
    pub code: u32,
    /// Whether resending the same request later can succeed.
    pub retryable: bool,
    /// Human-readable message.
    pub message: String,
}

impl JobFailure {
    /// A malformed or invalid request (`400`, not retryable).
    pub fn bad_request(message: impl Into<String>) -> JobFailure {
        JobFailure {
            code: 400,
            retryable: false,
            message: message.into(),
        }
    }

    /// A job that parsed fine but failed to execute (`422`, not
    /// retryable — the same spec will fail the same way).
    pub fn job_failed(message: impl Into<String>) -> JobFailure {
        JobFailure {
            code: 422,
            retryable: false,
            message: message.into(),
        }
    }

    /// The job panicked (`500`, not retryable). The message carries the
    /// panic's.
    pub fn panicked(message: &str) -> JobFailure {
        JobFailure {
            code: 500,
            retryable: false,
            message: format!("job panicked: {message}"),
        }
    }

    /// The server is draining for shutdown (`503`, retryable against a
    /// restarted server).
    pub fn draining() -> JobFailure {
        JobFailure {
            code: 503,
            retryable: true,
            message: "server is draining; resend to a fresh server".to_owned(),
        }
    }
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "error {}: {}", self.code, self.message)
    }
}

/// What a submitted job resolved to.
pub type JobOutcome = Result<JobResult, JobFailure>;

/// Single-flight slot: the leader parks its outcome here and wakes the
/// followers.
struct Slot {
    result: Mutex<Option<Arc<JobOutcome>>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        }
    }
}

/// A leader's claim on an in-flight key. Dropping it clears the key,
/// first publishing a 500 if the leader never published an outcome, so
/// a leader that unwinds cannot strand its followers or
/// [`Service::drain`].
struct Flight<'a> {
    service: &'a Service,
    key: String,
    slot: Arc<Slot>,
}

impl Flight<'_> {
    fn publish(&self, outcome: Arc<JobOutcome>) {
        *self.slot.result.lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
        self.slot.ready.notify_all();
    }
}

impl Drop for Flight<'_> {
    fn drop(&mut self) {
        let published = self
            .slot
            .result
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some();
        if !published {
            let lost = JobFailure::panicked("the leader unwound before publishing an outcome");
            self.publish(Arc::new(Err(lost)));
        }
        self.service
            .in_flight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&self.key);
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// Ceiling on memoized outcomes. Full artifact sets can run to
/// megabytes (CIF layouts), so a long-lived daemon must not hoard them
/// without bound; FIFO eviction keeps the policy deterministic.
pub const MEMO_CAP: usize = 256;

/// Completed-result memo: canonical key -> shared outcome, with FIFO
/// eviction order.
struct Memo {
    map: HashMap<String, Arc<JobOutcome>>,
    order: VecDeque<String>,
}

/// The compile service. Cheap to share behind an `Arc`; all methods
/// take `&self`.
pub struct Service {
    cache: Arc<CellCache>,
    jobs: usize,
    in_flight: Mutex<HashMap<String, Arc<Slot>>>,
    memo: Mutex<Memo>,
    requests: AtomicU64,
    executed: AtomicU64,
    dedup_hits: AtomicU64,
    draining: AtomicBool,
}

impl Default for Service {
    fn default() -> Self {
        Service::new()
    }
}

impl Service {
    /// A service on the process-wide cache with automatic parallelism.
    pub fn new() -> Service {
        Service::with_cache(Arc::clone(CellCache::global()), None)
    }

    /// A service on its own cold cache — for tests and benchmarks that
    /// must observe cold-compile behaviour.
    pub fn cold() -> Service {
        Service::with_cache(Arc::new(CellCache::new()), None)
    }

    /// A service on an explicit cache with an explicit worker count
    /// (`None` = `--jobs`-style automatic resolution).
    pub fn with_cache(cache: Arc<CellCache>, jobs: Option<usize>) -> Service {
        Service {
            cache,
            jobs: resolve_jobs(jobs),
            in_flight: Mutex::new(HashMap::new()),
            memo: Mutex::new(Memo {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            requests: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            draining: AtomicBool::new(false),
        }
    }

    /// `(requests, executed, dedup_hits)` so far. `executed` counts
    /// jobs this service actually ran; `dedup_hits` counts submissions
    /// that reused another submission's execution, whether by
    /// piggybacking on it in flight or by hitting the result memo.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.requests.load(Ordering::Relaxed),
            self.executed.load(Ordering::Relaxed),
            self.dedup_hits.load(Ordering::Relaxed),
        )
    }

    /// Whether [`JobSpec::Shutdown`] has been accepted.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// Submits a job and blocks until its outcome is available.
    /// Returns the (shared) outcome and whether this submission was
    /// deduplicated onto another caller's in-flight execution.
    pub fn submit(&self, job: &JobSpec) -> (Arc<JobOutcome>, bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        // Control-plane jobs answer immediately, bypassing dedup: they
        // are cheap, and status/ping must work on a draining server.
        match job {
            JobSpec::Shutdown => self.draining.store(true, Ordering::SeqCst),
            JobSpec::Ping | JobSpec::Status => {}
            _ if self.draining() => return (Arc::new(Err(JobFailure::draining())), false),
            _ => {
                let key = job.canonical();
                if let Some(outcome) = self.memo_get(&key) {
                    self.dedup_hits.fetch_add(1, Ordering::Relaxed);
                    return (outcome, true);
                }
                return self.single_flight(key, || self.execute(job));
            }
        }
        (Arc::new(self.execute(job)), false)
    }

    /// Runs `run` once for every caller that arrives with `key` while
    /// it is in flight: the first caller leads and computes, the rest
    /// wait on its slot and share its outcome. A panic in `run` becomes
    /// a 500 outcome, and the leader always publishes an outcome and
    /// clears its key, so neither followers nor [`Service::drain`] can
    /// wait forever.
    fn single_flight(
        &self,
        key: String,
        run: impl FnOnce() -> JobOutcome,
    ) -> (Arc<JobOutcome>, bool) {
        let (slot, leader) = {
            let mut map = self.in_flight.lock().unwrap_or_else(|e| e.into_inner());
            match map.get(&key) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Arc::new(Slot::new());
                    map.insert(key.clone(), Arc::clone(&slot));
                    (slot, true)
                }
            }
        };

        if leader {
            self.executed.fetch_add(1, Ordering::Relaxed);
            let flight = Flight {
                service: self,
                key,
                slot,
            };
            let outcome = Arc::new(
                catch_unwind(AssertUnwindSafe(run))
                    .unwrap_or_else(|panic| Err(JobFailure::panicked(&panic_message(&*panic)))),
            );
            flight.publish(Arc::clone(&outcome));
            // Memoize before the claim drops the in-flight entry, so no
            // window exists where a fresh submission finds the key in
            // neither tier and re-executes.
            self.memo_put(&flight.key, &outcome);
            drop(flight);
            (outcome, false)
        } else {
            self.dedup_hits.fetch_add(1, Ordering::Relaxed);
            let mut result = slot.result.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(outcome) = result.as_ref() {
                    return (Arc::clone(outcome), true);
                }
                result = slot.ready.wait(result).unwrap_or_else(|e| e.into_inner());
            }
        }
    }

    fn memo_get(&self, key: &str) -> Option<Arc<JobOutcome>> {
        self.memo
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .get(key)
            .cloned()
    }

    /// Memoizes a *successful* outcome. Failures are never cached:
    /// they keep their retry semantics, and a fixed environment (say,
    /// more disk) should not be haunted by a stale error.
    fn memo_put(&self, key: &str, outcome: &Arc<JobOutcome>) {
        if outcome.is_err() {
            return;
        }
        let mut memo = self.memo.lock().unwrap_or_else(|e| e.into_inner());
        if memo.map.contains_key(key) {
            return;
        }
        if memo.map.len() >= MEMO_CAP {
            if let Some(oldest) = memo.order.pop_front() {
                memo.map.remove(&oldest);
            }
        }
        memo.order.push_back(key.to_owned());
        memo.map.insert(key.to_owned(), Arc::clone(outcome));
    }

    /// Blocks until no job is in flight. The daemon calls this after
    /// the accept loop stops, so shutdown drains instead of aborting.
    pub fn drain(&self) {
        loop {
            let empty = self
                .in_flight
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .is_empty();
            if empty {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }

    fn status_text(&self) -> String {
        let (requests, executed, dedup_hits) = self.counters();
        let guard = self.memo.lock().unwrap_or_else(|e| e.into_inner());
        let memo = guard.map.len();
        drop(guard);
        let cache = &self.cache;
        let mut text = format!(
            "serve requests: {requests}\nserve executed: {executed}\n\
             serve dedup_hits: {dedup_hits}\nserve draining: {}\nserve jobs: {}\n\
             serve memo: {memo}\ncache entries: {}\ncache hits: {}\ncache misses: {}\n",
            u8::from(self.draining()),
            self.jobs,
            cache.len(),
            cache.hits(),
            cache.misses()
        );
        for ks in cache.kind_stats() {
            let (kind, hits, misses) = (&ks.kind, ks.hits, ks.misses);
            let _ = writeln!(text, "cache kind={kind} hits={hits} misses={misses}");
        }
        text
    }

    fn execute(&self, job: &JobSpec) -> JobOutcome {
        let ran = self.run(job)?;
        match ran.verdict {
            Ok(()) => Ok(JobResult {
                sections: ran.sections,
            }),
            Err(message) => Err(JobFailure::job_failed(message)),
        }
    }

    /// Runs `job` once on this service's cache and workers, bypassing
    /// the memo and the single-flight map. This is the one runner per
    /// job kind: [`Service::submit`] executes through it, and so does
    /// every `bisramgen` job command.
    ///
    /// # Errors
    ///
    /// A [`JobFailure`] when the job could not run to the end: `400`
    /// for parameters the engines reject, `422` for a failed compile.
    pub fn run(&self, job: &JobSpec) -> Result<Ran, JobFailure> {
        match job {
            JobSpec::Compile(c) => self.run_compile(c, true, c.verify.mode().is_some()),
            JobSpec::Characterize(c) => self.run_compile(c, false, false),
            JobSpec::Verify(c) => self.run_compile(c, false, true),
            JobSpec::RareYield(r) => self.run_rare(r),
            JobSpec::Fleet(f) => self.run_fleet(f),
            JobSpec::Chip(c) => self.run_chip(c),
            JobSpec::Status => Ok(Ran::passed(vec![Section::new(
                "status.txt",
                self.status_text(),
            )])),
            JobSpec::Ping => Ok(Ran::passed(vec![Section::new("pong.txt", "pong\n")])),
            JobSpec::Shutdown => Ok(Ran::passed(vec![Section::new(
                "shutdown.txt",
                "draining\n",
            )])),
        }
    }

    fn run_compile(
        &self,
        c: &CompileJob,
        artifacts: bool,
        verify: bool,
    ) -> Result<Ran, JobFailure> {
        let process = Process::by_name(&c.process)
            .ok_or_else(|| JobFailure::bad_request(format!("unknown process {:?}", c.process)))?;
        let params = RamParams::builder()
            .words(c.words)
            .bits_per_word(c.bpw)
            .bits_per_column(c.bpc)
            .spare_rows(c.spares)
            .gate_size(c.gate_size)
            .strap(c.strap_every, c.strap_lambda)
            .process(process)
            .build()
            .map_err(|e| JobFailure::bad_request(param_error(&e)))?;

        let mut options = CompileOptions::new()
            .with_cache(Arc::clone(&self.cache))
            .with_jobs(self.jobs)
            .with_verify(verify);
        if let Some(mode) = c.verify.mode() {
            options = options.with_verify_mode(mode);
        }
        let ram =
            compile_with(&params, &options).map_err(|e| JobFailure::job_failed(e.to_string()))?;

        let mut sections = vec![Section::new("params.txt", c.canonical())];
        if artifacts {
            sections.push(Section::new("datasheet.txt", ram.datasheet().to_string()));
            sections.push(Section::new(
                "areas.txt",
                format!(
                    "{}\nBIST+BISR overhead: {:.3}% ({:.3}% counting spare rows)\nmodule: {:.4} mm2, utilization {:.1}%\n",
                    ram.areas().report(),
                    ram.areas().overhead_fraction() * 100.0,
                    ram.areas().overhead_fraction_with_spares() * 100.0,
                    ram.area_mm2(),
                    ram.placement().utilization() * 100.0
                ),
            ));
            sections.push(Section::new("floorplan.svg", ram.floorplan_svg()));
            let (and_plane, or_plane) = ram.pla_planes();
            sections.push(Section::new("trpla_and.plane", and_plane));
            sections.push(Section::new("trpla_or.plane", or_plane));
            sections.push(Section::new("sense_path.sp", ram.sense_path_spice()));
            if c.cif {
                if params.org().cells() > 200_000 {
                    sections.push(Section::new(
                        "layout.cif",
                        "; skipped: module too large for a flattened export\n",
                    ));
                } else {
                    sections.push(Section::new("layout.cif", ram.to_cif()));
                }
            }
        }
        let mut verify_clean = None;
        if let Some(report) = ram.verify_report() {
            verify_clean = Some(report.is_clean());
            sections.push(Section::new("verify.txt", report.to_string()));
        }

        // The metric reduction the sweep orchestrator consumes. Keep
        // the format stable: `metric <key>: <value>`, one per line.
        let org = *params.org();
        let overhead = ram.areas().overhead_fraction();
        let yield_model = YieldModel::new(org, overhead);
        let mttf = ReliabilityModel {
            org,
            lambda_per_hour: c.lambda,
        }
        .mttf_hours();
        let y_bisr = yield_model.yield_with_bisr(c.defects);
        let y_raw = yield_model.yield_without_bisr(c.defects);
        let relative_cost = if y_bisr > 0.0 {
            yield_model.growth_factor / y_bisr
        } else {
            f64::INFINITY
        };
        let mut metrics = String::new();
        metrics.push_str(&format!("metric words: {}\n", c.words));
        metrics.push_str(&format!("metric bpw: {}\n", c.bpw));
        metrics.push_str(&format!("metric bpc: {}\n", c.bpc));
        metrics.push_str(&format!("metric spares: {}\n", c.spares));
        metrics.push_str(&format!("metric process: {}\n", c.process));
        metrics.push_str(&format!("metric verify: {}\n", c.verify.name()));
        metrics.push_str(&format!("metric area_mm2: {:.6}\n", ram.area_mm2()));
        metrics.push_str(&format!(
            "metric access_ns: {:.4}\n",
            ram.datasheet().access_time_s * 1e9
        ));
        metrics.push_str(&format!("metric overhead_fraction: {overhead:.6}\n"));
        metrics.push_str(&format!("metric yield_no_bisr: {y_raw:.6}\n"));
        metrics.push_str(&format!("metric yield_bisr: {y_bisr:.6}\n"));
        metrics.push_str(&format!(
            "metric growth_factor: {:.6}\n",
            yield_model.growth_factor
        ));
        metrics.push_str(&format!("metric relative_cost: {relative_cost:.6}\n"));
        metrics.push_str(&format!("metric mttf_hours: {mttf:.3}\n"));
        metrics.push_str(&format!(
            "metric delay_masked: {}\n",
            u8::from(params.delay_masking_guaranteed())
        ));
        if let Some(clean) = verify_clean {
            metrics.push_str(&format!("metric verify_clean: {}\n", u8::from(clean)));
        }
        sections.push(Section::new("metrics.txt", metrics));

        Ok(Ran {
            sections,
            verdict: match verify_clean {
                Some(false) => Err("physical verification found violations".to_owned()),
                _ => Ok(()),
            },
            trace: Some(ram.trace().clone()),
        })
    }

    fn run_rare(&self, r: &RareJob) -> Result<Ran, JobFailure> {
        let process = Process::by_name(&r.process)
            .ok_or_else(|| JobFailure::bad_request(format!("unknown process {:?}", r.process)))?;
        let kernel = TrialKernel::by_name(&r.kernel)
            .ok_or_else(|| JobFailure::bad_request(format!("unknown kernel {:?}", r.kernel)))?;
        let org = |spares| {
            ArrayOrg::new(r.words, r.bpw, r.bpc, spares)
                .map_err(|e| JobFailure::bad_request(e.to_string()))
        };
        let base = org(0)?;
        let (seed, jobs) = (r.seed, self.jobs);
        let mut text = String::new();
        macro_rules! rare {
            ($($line:tt)*) => {
                let _ = writeln!(text, "rare {}", format_args!($($line)*));
            };
        }

        let mut engine = RareEngine::for_process(&process, kernel, 0.0);
        let (pilot_mean, pilot_std) = engine.metric_stats(seed, r.pilot, jobs);
        engine.threshold = match r.threshold {
            Some(t) => t,
            None => engine.calibrate_threshold(seed, r.pilot, r.target_p, jobs),
        };
        rare!("process: {}", r.process);
        rare!("kernel: {}", kernel.name());
        rare!("pilot_trials: {}", r.pilot);
        rare!("pilot_mean: {pilot_mean:.6e}");
        rare!("pilot_std: {pilot_std:.6e}");
        rare!("threshold: {:.6e}", engine.threshold);

        let shifts = engine.find_shifts();
        rare!("modes: {}", shifts.len());
        for (i, s) in shifts.iter().enumerate() {
            let norm: f64 = s.iter().map(|x| x * x).sum::<f64>().sqrt();
            rare!("shift{i}_norm: {norm:.4}");
        }
        let is = engine.run_is_mixture(seed, r.trials, jobs, &shifts);
        rare!("is_trials: {}", is.trials);
        rare!("is_failures: {}", is.failures);
        rare!("is_p_fail: {:.6e}", is.p_fail);
        rare!("is_std_error: {:.6e}", is.std_error());
        rare!("is_rse: {:.4}", is.rse());
        rare!("mc_equivalent_trials: {:.3e}", is.mc_equivalent_trials());
        rare!("speedup_over_mc: {:.1}", is.speedup_over_mc());

        let mut verdict = Ok(());
        if r.mc_trials > 0 {
            let mc = engine.run_mc(seed.wrapping_add(1), r.mc_trials, jobs);
            rare!("mc_trials: {}", mc.trials);
            rare!("mc_failures: {}", mc.failures);
            rare!("mc_p_fail: {:.6e}", mc.p_fail);
            rare!("mc_std_error: {:.6e}", mc.std_error());
            let sigma = agreement_sigma(&mc, &is);
            rare!("crossval_sigma: {sigma:.2}");
            rare!("crossval: {}", if sigma <= 3.0 { "PASS" } else { "FAIL" });
            if sigma > 3.0 {
                verdict = Err("IS and exhaustive MC disagree by more than 3 sigma".to_owned());
            }
        }

        let blockade = engine.run_blockade(seed, r.pilot, r.trials, r.safety, jobs);
        rare!("blockade_simulated: {}", blockade.simulated);
        rare!("blockade_blocked: {}", blockade.blocked);
        rare!("blockade_p_fail: {:.6e}", blockade.estimate.p_fail);

        // Feed the measured per-cell failure probability into the spare
        // economics: expected defects on the nonredundant array, then
        // the cost-per-good-die optimum over spare counts.
        let p_cell = is.p_fail.clamp(0.0, 1.0);
        let defects = p_cell * base.total_cells() as f64;
        let sweep = optimize_spares_measured(r.words, r.bpw, r.bpc, p_cell, 0.05, r.max_spares);
        rare!("cell_p_fail: {p_cell:.6e}");
        rare!("expected_defects: {defects:.4}");
        rare!("optimal_spares: {}", sweep.optimal_spares);
        let cost = sweep.points[sweep.optimal_spares].relative_cost;
        rare!("optimal_cost: {cost:.6}");

        // Re-check the chosen organization end to end: random defect
        // patterns at the measured defectivity through the real BIST +
        // BISR flow, reported with its variance so the comparison
        // against the analytic sweep is variance-aware. With no spares
        // the flow can only find the array fault-free or unrepairable,
        // which is the no-BISR yield the sweep scored that point by.
        let chosen = org(sweep.optimal_spares)?;
        let mc_yield = simulate_yield_seeded(seed, chosen, defects, 400, None, jobs);
        let (lo, hi) = mc_yield.usable_wilson_interval(1.96);
        rare!("usable_fraction: {:.6}", mc_yield.usable_fraction());
        rare!("usable_std_error: {:.6e}", mc_yield.usable_std_error());
        rare!("usable_wilson95: [{lo:.6}, {hi:.6}]");
        Ok(Ran {
            sections: vec![Section::new("rare.txt", text)],
            verdict,
            trace: None,
        })
    }

    fn run_fleet(&self, f: &FleetJob) -> Result<Ran, JobFailure> {
        let org = ArrayOrg::new(f.words, f.bpw, f.bpc, f.spares)
            .map_err(|e| JobFailure::bad_request(e.to_string()))?;
        let mut config = FieldConfig::new(org, f.lambda, f.period, f.horizon);
        config.max_retries = f.retries;
        config.transient_upset_probability = f.upset_prob;
        config.spare_policy = f.policy;

        let result = simulate_fleet_jobs(&config, f.lifetimes, f.seed, self.jobs);

        let r = &result;
        let mut text = String::new();
        let tallies: [(&str, &dyn std::fmt::Display); 9] = [
            ("lifetimes", &r.lifetimes),
            ("deaths", &r.deaths),
            ("deaths_spare_fault", &r.deaths_spare_fault),
            ("deaths_exhausted", &r.deaths_exhausted),
            ("deaths_persist", &r.deaths_persist),
            ("sessions_run", &r.sessions_run),
            ("sessions_skipped", &r.sessions_skipped),
            ("transients_dismissed", &r.transients_dismissed),
            ("rows_repaired", &r.rows_repaired),
        ];
        for (key, n) in tallies {
            let _ = writeln!(text, "fleet {key}: {n}");
        }
        let _ = writeln!(text, "fleet mttf_hours: {:.3}", r.mttf_hours);
        text.push_str("survival curve (t_hours  R_hat):\n");
        for (t, rr) in r.curve.times_hours.iter().zip(&r.curve.survival) {
            let _ = writeln!(text, "  {t:>12.1}  {rr:.6}");
        }
        Ok(Ran::passed(vec![Section::new("fleet.txt", text)]))
    }

    fn run_chip(&self, c: &ChipJob) -> Result<Ran, JobFailure> {
        let process = Process::by_name(&c.process)
            .ok_or_else(|| JobFailure::bad_request(format!("unknown process {:?}", c.process)))?;
        let chip = heterogeneous_chip(c.macros, c.seed);
        let mut config = ChipConfig::new(chip, c.budget.unwrap_or(u64::MAX), c.seed);
        config.transport = Transport::with_faults(TransportFaults {
            stuck_bit: c.stuck_bit,
            drop_probability: c.drop_prob,
            duplicate_probability: c.dup_prob,
            timeout_probability: c.timeout_prob,
        });
        config.jobs = Some(self.jobs);
        let report = ChipModel::new(config).diagnose_and_repair();
        let text = format!("{report}{}", ChipSheet::from_report(&report, &process));
        Ok(Ran::passed(vec![Section::new("chip.txt", text)]))
    }
}

/// A parameter error as the job spec reads it: a check that judges one
/// spec key names it, like the job table's own value checks do.
fn param_error(e: &ParamError) -> String {
    let key = match e {
        ParamError::GateSizeTooSmall { .. } => "gate-size",
        ParamError::StrapSpaceTooSmall { .. } => "strap-lambda",
        ParamError::Organization(_) | ParamError::Process(_) => return e.to_string(),
    };
    format!("key {key:?}: {e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_compile(words: usize) -> JobSpec {
        JobSpec::parse(&format!(
            "job = characterize\nwords = {words}\nbpw = 8\nbpc = 4\nspares = 2\n"
        ))
        .expect("valid spec")
    }

    #[test]
    fn characterize_produces_stable_metrics() {
        let service = Service::cold();
        let (outcome, deduped) = service.submit(&small_compile(64));
        assert!(!deduped);
        let result = outcome.as_ref().as_ref().expect("job ok");
        let metrics = result.section("metrics.txt").expect("metrics section");
        assert!(metrics.contains("metric words: 64\n"), "{metrics}");
        assert!(metrics.contains("metric area_mm2: "), "{metrics}");
        assert!(metrics.contains("metric yield_bisr: "), "{metrics}");
        assert!(metrics.contains("metric mttf_hours: "), "{metrics}");

        // Identical resubmission hits the result memo: byte-identical,
        // reported as a dedup, and no second execution.
        let (again, deduped) = service.submit(&small_compile(64));
        assert!(deduped, "sequential repeat must hit the memo");
        assert_eq!(
            again.as_ref().as_ref().expect("job ok").sections,
            result.sections
        );
        let (_, executed, dedup_hits) = service.counters();
        assert_eq!(executed, 1, "sequential repeat must not re-execute");
        assert_eq!(dedup_hits, 1);

        // A *different* point is not a memo hit.
        let (_, deduped) = service.submit(&small_compile(128));
        assert!(!deduped);
        let (_, executed, _) = service.counters();
        assert_eq!(executed, 2);
    }

    #[test]
    fn failure_rate_past_f64_range_reports_zero_mttf() {
        // λ·bpc·bpw overflows to ∞; the MTTF is its limit, not a panic.
        let service = Service::cold();
        for (bpw, lambda) in [(32, "1e307"), (4, "1e308")] {
            let spec = JobSpec::parse(&format!(
                "job = characterize\nwords = 64\nbpw = {bpw}\nlambda = {lambda}\n"
            ))
            .expect("valid spec");
            let (outcome, _) = service.submit(&spec);
            let result = outcome.as_ref().as_ref().expect("job ok");
            let metrics = result.section("metrics.txt").expect("metrics section");
            assert!(metrics.contains("metric mttf_hours: 0.000\n"), "{metrics}");
        }
    }

    #[test]
    fn concurrent_identical_requests_single_flight() {
        let service = Arc::new(Service::cold());
        let n = 8;
        let outcomes: Vec<(Arc<JobOutcome>, bool)> = bisram_exec::run_tasks(
            n,
            (0..n)
                .map(|_| {
                    let service = Arc::clone(&service);
                    move || service.submit(&small_compile(128))
                })
                .collect(),
        );
        let first = outcomes[0].0.as_ref().as_ref().expect("job ok");
        for (outcome, _) in &outcomes {
            assert_eq!(outcome.as_ref().as_ref().expect("job ok"), first);
        }
        let (requests, executed, dedup_hits) = service.counters();
        assert_eq!(requests, n as u64);
        assert_eq!(executed + dedup_hits, n as u64);
        assert!(
            executed < n as u64,
            "at least one submission must dedup (executed={executed})"
        );
    }

    #[test]
    fn draining_rejects_new_work_with_retryable_503() {
        let service = Service::cold();
        let (ack, _) = service.submit(&JobSpec::Shutdown);
        assert!(ack.is_ok());
        let (outcome, _) = service.submit(&small_compile(64));
        let failure = outcome.as_ref().as_ref().expect_err("rejected");
        assert_eq!(failure.code, 503);
        assert!(failure.retryable);
        // Control plane still answers while draining.
        let (status, _) = service.submit(&JobSpec::Status);
        let text = status.as_ref().as_ref().expect("status ok").sections[0]
            .content
            .clone();
        assert!(text.contains("serve draining: 1\n"), "{text}");
    }

    #[test]
    fn status_surfaces_per_kind_cache_stats() {
        let service = Service::cold();
        let (_, _) = service.submit(&small_compile(64));
        let (status, _) = service.submit(&JobSpec::Status);
        let text = status.as_ref().as_ref().expect("status ok").sections[0]
            .content
            .clone();
        assert!(text.contains("cache kind=control "), "{text}");
        assert!(text.contains("cache kind=leaf "), "{text}");
    }

    #[test]
    fn panicking_leader_answers_followers_and_clears_its_key() {
        let service = Service::cold();
        let key = "job = panics\n";
        let followers = 3;
        // Parked callers hold the slot's `Arc` alongside the map and
        // the leader.
        let holders = || {
            service
                .in_flight
                .lock()
                .unwrap()
                .get(key)
                .map_or(0, Arc::strong_count)
        };
        let outcomes = std::thread::scope(|s| {
            let leader = s.spawn(|| {
                service.single_flight(key.to_owned(), || {
                    while holders() < 2 + followers {
                        std::thread::yield_now();
                    }
                    panic!("boom")
                })
            });
            while holders() == 0 {
                std::thread::yield_now();
            }
            let parked: Vec<_> = (0..followers)
                .map(|_| {
                    s.spawn(|| {
                        service.single_flight(key.to_owned(), || {
                            Err(JobFailure::bad_request("a follower must not execute"))
                        })
                    })
                })
                .collect();
            let mut outcomes = vec![leader.join().unwrap()];
            outcomes.extend(parked.into_iter().map(|h| h.join().unwrap()));
            outcomes
        });
        for (i, (outcome, deduped)) in outcomes.iter().enumerate() {
            assert_eq!(*deduped, i > 0);
            let failure = outcome.as_ref().as_ref().expect_err("panic is a failure");
            assert_eq!(failure.code, 500);
            assert!(!failure.retryable);
            assert!(failure.message.contains("boom"), "{}", failure.message);
        }
        assert!(service.in_flight.lock().unwrap().is_empty());
        service.drain();
        assert_eq!(service.counters(), (0, 1, followers as u64));
    }

    #[test]
    fn fleet_and_rare_jobs_run_end_to_end() {
        let service = Service::cold();
        let fleet = JobSpec::parse(
            "job = fleet\nwords = 64\nbpw = 8\nbpc = 4\nspares = 2\nlifetimes = 20\n",
        )
        .expect("valid fleet spec");
        let (outcome, _) = service.submit(&fleet);
        let result = outcome.as_ref().as_ref().expect("fleet ok");
        assert!(result.sections[0].content.contains("fleet lifetimes: 20\n"));

        let rare = JobSpec::parse(
            "job = rare-yield\ntrials = 32\npilot = 16\ntarget-p = 0.05\n\
             words = 256\nmax-spares = 4\n",
        )
        .expect("valid rare spec");
        let (outcome, _) = service.submit(&rare);
        let result = outcome.as_ref().as_ref().expect("rare ok");
        assert!(result.sections[0].content.contains("rare is_p_fail: "));
    }

    #[test]
    fn rare_yield_rechecks_a_zero_spare_optimum_without_spares() {
        let rare = JobSpec::parse(
            "job = rare-yield\ntarget-p = 1e-7\ntrials = 200\npilot = 64\nmc-trials = 0\n\
             seed = 7\nwords = 64\n",
        )
        .expect("valid rare spec");
        let outcome = Service::cold().run(&rare).expect("rare ok");
        let text = &outcome.sections[0].content;
        let field = |key: &str| {
            let prefix = format!("rare {key}: ");
            text.lines()
                .find_map(|l| l.strip_prefix(prefix.as_str()))
                .unwrap_or_else(|| panic!("no {key} in {text}"))
                .to_owned()
        };
        assert_eq!(field("optimal_spares"), "0", "{text}");
        // Without spares only a fault-free array is usable: the
        // Poisson probability of no defect at all.
        let defects: f64 = field("expected_defects").parse().unwrap();
        let fault_free = (-defects).exp();
        let interval = field("usable_wilson95");
        let (lo, hi) = interval
            .trim_matches(|c| c == '[' || c == ']')
            .split_once(", ")
            .unwrap();
        let (lo, hi): (f64, f64) = (lo.parse().unwrap(), hi.parse().unwrap());
        assert!(
            lo <= fault_free && fault_free <= hi,
            "{fault_free} outside {interval}"
        );
    }
}
