//! The declarative sweep orchestrator.
//!
//! A sweep spec is the same flat `key = value` format as a job spec,
//! but axis keys may list several comma-separated values; the
//! orchestrator expands the cartesian matrix (first key varies
//! slowest), drops duplicate points, runs every point as a
//! `characterize` job through the service layer — in-process or
//! against a daemon, whichever backend is given — and reduces the
//! metric sections to a Pareto report over area, yield, MTTF and
//! relative repair cost.
//!
//! **Determinism contract:** the report is assembled from the metric
//! section bytes in expansion order, numbers reprinted verbatim, and
//! contains no wall-clock, worker-count or backend information — so it
//! is byte-identical at any `--jobs` and whether it ran in-process or
//! through a daemon.

use crate::client::Client;
use crate::daemon::Listen;
use crate::service::Service;
use crate::spec::Spec;
use crate::JobSpec;
use bisram_exec::{resolve_jobs, run_tasks};

/// Keys that may carry several values (sweep axes).
const AXIS_KEYS: &[&str] = &[
    "words",
    "bpw",
    "bpc",
    "spares",
    "process",
    "gate-size",
    "verify",
];
/// Keys that must stay single-valued.
const SCALAR_KEYS: &[&str] = &["defects", "lambda", "strap-every", "strap-lambda"];

/// A parsed sweep spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    entries: Vec<(String, Vec<String>)>,
}

impl SweepSpec {
    /// Parses a sweep spec text.
    ///
    /// # Errors
    ///
    /// A message for syntax errors, unknown keys, and multi-valued
    /// scalar keys.
    pub fn parse(text: &str) -> Result<SweepSpec, String> {
        let spec = Spec::parse(text).map_err(|e| e.to_string())?;
        let mut allowed: Vec<&str> = AXIS_KEYS.to_vec();
        allowed.extend_from_slice(SCALAR_KEYS);
        if let Some(key) = spec.unknown_key(&allowed) {
            return Err(format!(
                "unknown sweep key {key:?}; axes: {}; scalars: {}",
                AXIS_KEYS.join(", "),
                SCALAR_KEYS.join(", ")
            ));
        }
        for key in SCALAR_KEYS {
            // scalar_opt errors exactly when the key is multi-valued.
            spec.scalar_opt(key)?;
        }
        Ok(SweepSpec {
            entries: spec.entries().to_vec(),
        })
    }

    /// Expands the cartesian matrix into deduplicated `characterize`
    /// jobs, first key varying slowest. Every point is validated
    /// through the job parser, so a bad process name or out-of-range
    /// value fails the whole sweep up front.
    ///
    /// # Errors
    ///
    /// The first point that fails job validation, naming the point.
    pub fn expand(&self) -> Result<Vec<JobSpec>, String> {
        let mut points: Vec<Vec<(String, String)>> = vec![Vec::new()];
        for (key, values) in &self.entries {
            let mut next = Vec::with_capacity(points.len() * values.len());
            for point in &points {
                for value in values {
                    let mut p = point.clone();
                    p.push((key.clone(), value.clone()));
                    next.push(p);
                }
            }
            points = next;
        }

        let mut jobs = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for point in &points {
            let mut text = String::from("job = characterize\n");
            for (key, value) in point {
                text.push_str(&format!("{key} = {value}\n"));
            }
            let job = JobSpec::parse(&text).map_err(|e| {
                let label: Vec<String> = point.iter().map(|(k, v)| format!("{k}={v}")).collect();
                format!("sweep point [{}]: {e}", label.join(" "))
            })?;
            if seen.insert(job.canonical()) {
                jobs.push(job);
            }
        }
        Ok(jobs)
    }
}

/// Where sweep points execute.
pub enum SweepBackend<'a> {
    /// Directly through a [`Service`] in this process.
    InProcess(&'a Service),
    /// Over the socket against a running daemon; each worker opens its
    /// own connection.
    Daemon(Listen),
}

/// One executed sweep point, with its metric values kept as the exact
/// strings the service printed.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// `key=value` label fields, in metric order.
    pub label: String,
    /// The full `metrics.txt` section.
    pub metrics: String,
    /// Minimized: module area.
    pub area_mm2: f64,
    /// Maximized: yield with BISR.
    pub yield_bisr: f64,
    /// Maximized: mean time to failure.
    pub mttf_hours: f64,
    /// Minimized: growth factor / yield (cost per good die, relative).
    pub relative_cost: f64,
    /// On the Pareto frontier?
    pub pareto: bool,
}

/// The reduced sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Every executed point, in expansion order.
    pub points: Vec<SweepPoint>,
    /// The rendered report text (deterministic).
    pub text: String,
}

fn metric<'a>(metrics: &'a str, key: &str) -> Result<&'a str, String> {
    let prefix = format!("metric {key}: ");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .ok_or_else(|| format!("metrics section missing {key:?}"))
}

fn metric_f64(metrics: &str, key: &str) -> Result<f64, String> {
    let v = metric(metrics, key)?;
    v.parse::<f64>()
        .map_err(|_| format!("metric {key:?} is not a number: {v:?}"))
}

/// `a` dominates `b` when it is at least as good on every objective
/// and strictly better on one.
fn dominates(a: &SweepPoint, b: &SweepPoint) -> bool {
    let ge = a.area_mm2 <= b.area_mm2
        && a.relative_cost <= b.relative_cost
        && a.yield_bisr >= b.yield_bisr
        && a.mttf_hours >= b.mttf_hours;
    let strict = a.area_mm2 < b.area_mm2
        || a.relative_cost < b.relative_cost
        || a.yield_bisr > b.yield_bisr
        || a.mttf_hours > b.mttf_hours;
    ge && strict
}

fn point_from_metrics(metrics: String) -> Result<SweepPoint, String> {
    let label = format!(
        "words={} bpw={} bpc={} spares={} process={} verify={}",
        metric(&metrics, "words")?,
        metric(&metrics, "bpw")?,
        metric(&metrics, "bpc")?,
        metric(&metrics, "spares")?,
        metric(&metrics, "process")?,
        metric(&metrics, "verify")?,
    );
    let area_mm2 = metric_f64(&metrics, "area_mm2")?;
    let yield_bisr = metric_f64(&metrics, "yield_bisr")?;
    let mttf_hours = metric_f64(&metrics, "mttf_hours")?;
    let relative_cost = metric_f64(&metrics, "relative_cost")?;
    Ok(SweepPoint {
        label,
        metrics,
        area_mm2,
        yield_bisr,
        mttf_hours,
        relative_cost,
        pareto: false,
    })
}

fn run_point(backend: &SweepBackend<'_>, job: &JobSpec) -> Result<String, String> {
    let result = match backend {
        SweepBackend::InProcess(service) => {
            let (outcome, _) = service.submit(job);
            match outcome.as_ref() {
                Ok(result) => result.clone(),
                Err(failure) => return Err(failure.to_string()),
            }
        }
        SweepBackend::Daemon(listen) => {
            let mut client =
                Client::connect(listen).map_err(|e| format!("connecting to {listen}: {e}"))?;
            let (result, _) = client.request(job).map_err(|e| e.to_string())?;
            result
        }
    };
    result
        .section("metrics.txt")
        .map(str::to_owned)
        .ok_or_else(|| "response has no metrics.txt section".to_owned())
}

/// Executes a sweep and reduces it to a Pareto report.
///
/// # Errors
///
/// The first failing point, naming it.
pub fn run_sweep(
    sweep: &SweepSpec,
    backend: &SweepBackend<'_>,
    jobs: Option<usize>,
) -> Result<SweepReport, String> {
    let expanded = sweep.expand()?;
    if expanded.is_empty() {
        return Err("sweep expands to zero points".to_owned());
    }
    let workers = resolve_jobs(jobs);
    let tasks: Vec<_> = expanded
        .iter()
        .map(|job| move || run_point(backend, job))
        .collect();
    let outcomes = run_tasks(workers, tasks);

    let mut points = Vec::with_capacity(outcomes.len());
    for (i, outcome) in outcomes.into_iter().enumerate() {
        let metrics = outcome.map_err(|e| format!("sweep point {i}: {e}"))?;
        points.push(point_from_metrics(metrics).map_err(|e| format!("sweep point {i}: {e}"))?);
    }
    for i in 0..points.len() {
        let dominated = points.iter().any(|other| dominates(other, &points[i]));
        points[i].pareto = !dominated;
    }

    let mut text = String::new();
    text.push_str(&format!("sweep points: {}\n", points.len()));
    text.push_str(&format!(
        "sweep frontier: {}\n",
        points.iter().filter(|p| p.pareto).count()
    ));
    for (i, p) in points.iter().enumerate() {
        text.push_str(&format!(
            "sweep point {i}: {} area_mm2={} yield_bisr={} mttf_hours={} relative_cost={} pareto={}\n",
            p.label,
            metric(&p.metrics, "area_mm2")?,
            metric(&p.metrics, "yield_bisr")?,
            metric(&p.metrics, "mttf_hours")?,
            metric(&p.metrics, "relative_cost")?,
            u8::from(p.pareto)
        ));
    }
    text.push_str("\nPareto frontier (expansion order):\n");
    text.push_str(
        "  point  area_mm2      yield_bisr  mttf_hours      relative_cost  configuration\n",
    );
    for (i, p) in points.iter().enumerate().filter(|(_, p)| p.pareto) {
        text.push_str(&format!(
            "  {:>5}  {:>12}  {:>10}  {:>14}  {:>13}  {}\n",
            i,
            metric(&p.metrics, "area_mm2")?,
            metric(&p.metrics, "yield_bisr")?,
            metric(&p.metrics, "mttf_hours")?,
            metric(&p.metrics, "relative_cost")?,
            p.label
        ));
    }
    Ok(SweepReport { points, text })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_ordered_and_deduplicated() {
        let sweep = SweepSpec::parse("words = 64, 128, 64\nspares = 2\n").expect("parses");
        let jobs = sweep.expand().expect("expands");
        // 3 x 1 raw, duplicate words=64 point dropped.
        assert_eq!(jobs.len(), 2);
        assert!(jobs[0].canonical().contains("words = 64\n"));
        assert!(jobs[1].canonical().contains("words = 128\n"));
    }

    #[test]
    fn scalar_keys_reject_axes_and_unknown_keys_fail() {
        assert!(SweepSpec::parse("defects = 0.1, 0.2\n")
            .unwrap_err()
            .contains("one value"));
        assert!(SweepSpec::parse("cif = 1\n")
            .unwrap_err()
            .contains("\"cif\""));
    }

    #[test]
    fn bad_points_name_themselves() {
        let sweep = SweepSpec::parse("process = CDA.7u3m1p, nope\n").expect("parses");
        let err = sweep.expand().unwrap_err();
        assert!(err.contains("process=nope"), "{err}");
    }

    #[test]
    fn pareto_pruning_keeps_nondominated_points() {
        let mk = |area: f64, y: f64, mttf: f64, cost: f64| SweepPoint {
            label: String::new(),
            metrics: String::new(),
            area_mm2: area,
            yield_bisr: y,
            mttf_hours: mttf,
            relative_cost: cost,
            pareto: false,
        };
        let a = mk(1.0, 0.9, 100.0, 1.1); // best area/cost
        let b = mk(2.0, 0.95, 200.0, 1.2); // best yield/mttf
        let c = mk(2.5, 0.9, 100.0, 1.3); // dominated by a
        assert!(!dominates(&a, &b));
        assert!(!dominates(&b, &a));
        assert!(dominates(&a, &c));
    }

    #[test]
    fn sweep_runs_in_process_and_reports() {
        let service = Service::cold();
        let sweep =
            SweepSpec::parse("words = 64, 128\nbpw = 8\nbpc = 4\nspares = 2, 4\ndefects = 0.3\n")
                .expect("parses");
        let report = run_sweep(&sweep, &SweepBackend::InProcess(&service), Some(2)).expect("runs");
        assert_eq!(report.points.len(), 4);
        assert!(
            report.text.starts_with("sweep points: 4\n"),
            "{}",
            report.text
        );
        assert!(report.text.contains("sweep frontier: "), "{}", report.text);
        assert!(report.points.iter().any(|p| p.pareto));
        // More spares always cost area; the smallest config must not be
        // dominated on the area axis.
        assert!(report.points[0].pareto || report.points.iter().all(|p| !p.pareto));
    }
}
