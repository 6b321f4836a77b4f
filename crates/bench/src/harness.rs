//! A minimal wall-clock benchmark harness.
//!
//! The bench targets used to time their kernels with the external
//! `criterion` crate. To keep the workspace hermetic (buildable offline
//! with zero external dependencies) this module provides the small slice
//! of that API the benches actually use: a [`Harness`] with
//! `bench_function`/`final_summary`, a [`Bencher`] with `iter`, and
//! [`black_box`]. Timing is median-of-N wall clock with a warm-up phase:
//! each sample times a batch of iterations sized from the warm-up
//! estimate, and the reported figure is the median per-iteration time
//! across samples — robust to the occasional scheduler hiccup without
//! criterion's full statistical machinery.

use std::time::{Duration, Instant};

/// Opaque value barrier — re-exported so benches can stop the optimizer
/// from deleting the measured computation.
pub use std::hint::black_box;

/// One recorded measurement, in per-iteration seconds.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark id as passed to [`Harness::bench_function`].
    pub name: String,
    /// Median per-iteration time over all samples.
    pub median: f64,
    /// Fastest sample.
    pub min: f64,
    /// Slowest sample.
    pub max: f64,
    /// Iterations batched into each timed sample.
    pub iters_per_sample: u64,
    /// Number of timed samples.
    pub samples: usize,
    /// Work units processed by one iteration (1 for plain benchmarks;
    /// the sweep-point count for [`Harness::bench_sweep`] groups).
    pub units: u64,
}

impl Measurement {
    /// Work units per second, from the median sample — e.g. compiles/sec
    /// for a compile sweep.
    pub fn per_second(&self) -> f64 {
        if self.median <= 0.0 {
            0.0
        } else {
            self.units as f64 / self.median
        }
    }
}

/// The harness: collects measurements from `bench_function` calls and
/// prints a summary table at the end of the run.
///
/// Setting `BISRAM_BENCH_SMOKE=1` in the environment switches every
/// harness into *smoke mode*: each benchmark body runs exactly once,
/// with no warm-up and no sampling. CI uses this to prove every bench
/// target still executes end to end without paying for real timing.
#[derive(Debug)]
pub struct Harness {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    filter: Option<String>,
    smoke: bool,
    results: Vec<Measurement>,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            sample_size: 50,
            measurement_time: Duration::from_secs(3),
            warm_up_time: Duration::from_millis(500),
            filter: None,
            smoke: std::env::var("BISRAM_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0"),
            results: Vec::new(),
        }
    }
}

impl Harness {
    /// A harness with the default (full-length) timing budget.
    pub fn new() -> Self {
        Harness::default()
    }

    /// Number of timed samples per benchmark (the median is taken over
    /// these).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample size must be positive");
        self.sample_size = n;
        self
    }

    /// Total wall-clock budget for the timed samples of one benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Wall-clock budget for the warm-up phase (also used to estimate the
    /// per-iteration cost that sizes the sample batches).
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Reads a benchmark-name filter from the command line, mirroring the
    /// `cargo bench -- <substring>` convention: the first argument that is
    /// not a flag becomes a substring filter on benchmark ids. Flags
    /// (anything starting with `-`, e.g. `--bench` as passed by cargo)
    /// are ignored.
    pub fn configure_from_args(mut self) -> Self {
        self.filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-') && !a.is_empty());
        self
    }

    /// Times `f` (which must call [`Bencher::iter`] exactly once) and
    /// records the result. Skipped when a command-line filter is set and
    /// `name` does not contain it.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.bench_with_units(name, 1, f)
    }

    /// Like [`Harness::bench_function`] for *sweep* bodies: one iteration
    /// of the routine processes `units` work items (e.g. compiles every
    /// point of a parameter sweep), and the report adds the resulting
    /// throughput in units/sec. This is how cache-aware compile benches
    /// compare cold vs warm sweeps on equal footing.
    ///
    /// # Panics
    ///
    /// Panics if `units` is zero.
    pub fn bench_sweep<F>(&mut self, name: &str, units: u64, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        assert!(units > 0, "a sweep processes at least one unit");
        self.bench_with_units(name, units, f)
    }

    fn bench_with_units<F>(&mut self, name: &str, units: u64, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return self;
            }
        }
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            warm_up_time: self.warm_up_time,
            smoke: self.smoke,
            result: None,
        };
        f(&mut bencher);
        let stats = bencher
            .result
            .unwrap_or_else(|| panic!("bench_function `{name}` never called Bencher::iter"));
        let m = Measurement {
            name: name.to_string(),
            median: stats.median,
            min: stats.min,
            max: stats.max,
            iters_per_sample: stats.iters_per_sample,
            samples: stats.samples,
            units,
        };
        if units > 1 {
            println!(
                "{:<32} time: [{} {} {}]  ({} samples x {} iters, {:.2} units/s)",
                m.name,
                fmt_time(m.min),
                fmt_time(m.median),
                fmt_time(m.max),
                m.samples,
                m.iters_per_sample,
                m.per_second(),
            );
        } else {
            println!(
                "{:<32} time: [{} {} {}]  ({} samples x {} iters)",
                m.name,
                fmt_time(m.min),
                fmt_time(m.median),
                fmt_time(m.max),
                m.samples,
                m.iters_per_sample,
            );
        }
        self.results.push(m);
        self
    }

    /// Measurements recorded so far.
    pub fn measurements(&self) -> &[Measurement] {
        &self.results
    }

    /// Prints the closing summary table over every recorded benchmark.
    pub fn final_summary(&self) {
        if self.results.is_empty() {
            println!("\nno benchmarks matched the filter");
            return;
        }
        println!("\n---- timing summary (median per iteration) ----");
        for m in &self.results {
            if m.units > 1 {
                println!(
                    "{:<32} {}  ({:.2} units/s)",
                    m.name,
                    fmt_time(m.median),
                    m.per_second()
                );
            } else {
                println!("{:<32} {}", m.name, fmt_time(m.median));
            }
        }
    }
}

/// Per-benchmark sample statistics in seconds.
#[derive(Debug, Clone, Copy)]
struct SampleStats {
    median: f64,
    min: f64,
    max: f64,
    iters_per_sample: u64,
    samples: usize,
}

/// Handed to the `bench_function` closure; its [`iter`](Bencher::iter)
/// runs the measurement.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    smoke: bool,
    result: Option<SampleStats>,
}

impl Bencher {
    /// Measures `routine`: warm-up until the warm-up budget elapses (the
    /// iteration count estimates per-call cost), then `sample_size`
    /// batches sized to spread the measurement budget evenly, reporting
    /// the median per-iteration wall-clock time. In smoke mode
    /// (`BISRAM_BENCH_SMOKE=1`) the routine runs exactly once and the
    /// single wall-clock time is recorded as-is.
    pub fn iter<O, F>(&mut self, mut routine: F)
    where
        F: FnMut() -> O,
    {
        if self.smoke {
            let start = Instant::now();
            black_box(routine());
            let t = start.elapsed().as_secs_f64();
            self.result = Some(SampleStats {
                median: t,
                min: t,
                max: t,
                iters_per_sample: 1,
                samples: 1,
            });
            return;
        }
        // Warm-up: run until the budget elapses, estimating cost.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        loop {
            black_box(routine());
            warm_iters += 1;
            if warm_start.elapsed() >= self.warm_up_time {
                break;
            }
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;

        // Size each sample batch so the requested number of samples fills
        // the measurement budget.
        let budget_per_sample = self.measurement_time.as_secs_f64() / self.sample_size as f64;
        let iters_per_sample = ((budget_per_sample / per_iter.max(1e-12)) as u64).max(1);

        let mut samples: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            samples.push(start.elapsed().as_secs_f64() / iters_per_sample as f64);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        let median = if samples.len() % 2 == 1 {
            samples[samples.len() / 2]
        } else {
            (samples[samples.len() / 2 - 1] + samples[samples.len() / 2]) / 2.0
        };
        self.result = Some(SampleStats {
            median,
            min: samples[0],
            max: samples[samples.len() - 1],
            iters_per_sample,
            samples: samples.len(),
        });
    }
}

/// Formats seconds with an auto-selected unit (ns/µs/ms/s).
fn fmt_time(seconds: f64) -> String {
    if seconds < 1e-6 {
        format!("{:.2} ns", seconds * 1e9)
    } else if seconds < 1e-3 {
        format!("{:.2} µs", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{:.2} s", seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Harness {
        Harness::new()
            .sample_size(5)
            .measurement_time(Duration::from_millis(20))
            .warm_up_time(Duration::from_millis(5))
    }

    #[test]
    fn records_a_measurement_with_ordered_stats() {
        let mut h = tiny();
        h.bench_function("spin", |b| b.iter(|| black_box(3u64).pow(7)));
        let m = &h.measurements()[0];
        assert_eq!(m.name, "spin");
        assert!(m.min <= m.median && m.median <= m.max, "{m:?}");
        assert!(m.median > 0.0);
        assert!(m.iters_per_sample >= 1);
        assert_eq!(m.samples, 5);
        h.final_summary();
    }

    #[test]
    fn multiple_benchmarks_accumulate() {
        let mut h = tiny();
        h.bench_function("a", |b| b.iter(|| 1 + 1))
            .bench_function("b", |b| b.iter(|| 2 * 2));
        assert_eq!(h.measurements().len(), 2);
        assert_eq!(h.measurements()[1].name, "b");
    }

    #[test]
    fn filter_skips_non_matching_names() {
        let mut h = tiny();
        h.filter = Some("match-me".into());
        h.bench_function("other", |b| b.iter(|| ()));
        assert!(h.measurements().is_empty());
        h.bench_function("does-match-me-yes", |b| b.iter(|| ()));
        assert_eq!(h.measurements().len(), 1);
        h.final_summary();
    }

    #[test]
    #[should_panic(expected = "never called Bencher::iter")]
    fn forgetting_iter_panics() {
        tiny().bench_function("empty", |_b| {});
    }

    #[test]
    fn smoke_mode_runs_the_routine_exactly_once() {
        let mut h = tiny();
        h.smoke = true; // what BISRAM_BENCH_SMOKE=1 sets at construction
        let mut calls = 0u32;
        h.bench_function("smoke", |b| {
            b.iter(|| {
                calls += 1;
            })
        });
        assert_eq!(calls, 1, "smoke mode must not warm up or sample");
        let m = &h.measurements()[0];
        assert_eq!(m.iters_per_sample, 1);
        assert_eq!(m.samples, 1);
        assert_eq!(m.min, m.max);
    }

    #[test]
    fn sweep_mode_reports_throughput_in_units() {
        let mut h = tiny();
        h.bench_sweep("sweep", 6, |b| {
            b.iter(|| std::thread::sleep(Duration::from_micros(50)))
        });
        let m = &h.measurements()[0];
        assert_eq!(m.units, 6);
        // 6 units over >=50 µs: throughput is finite and positive, and
        // 6x the single-unit rate implied by the median.
        let per_sec = m.per_second();
        assert!(per_sec > 0.0 && per_sec.is_finite());
        assert!((per_sec - 6.0 / m.median).abs() < 1e-6);
        h.final_summary();
    }

    #[test]
    fn plain_benchmarks_count_one_unit() {
        let mut h = tiny();
        h.bench_function("plain", |b| b.iter(|| black_box(1u64 + 1)));
        assert_eq!(h.measurements()[0].units, 1);
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn zero_unit_sweeps_are_rejected() {
        tiny().bench_sweep("empty-sweep", 0, |b| b.iter(|| ()));
    }

    #[test]
    fn time_formatting_picks_units() {
        assert_eq!(fmt_time(5e-9), "5.00 ns");
        assert_eq!(fmt_time(5e-6), "5.00 µs");
        assert_eq!(fmt_time(5e-3), "5.00 ms");
        assert_eq!(fmt_time(5.0), "5.00 s");
    }
}
