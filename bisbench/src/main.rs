//! The BISRAMGEN benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path bisbench/Cargo.toml -- \
//!     --workload <sweep-explore|serve-mixed|reliability> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! One command runs one workload on inputs generated from the seed,
//! checks the program's outputs, prints every metric by name with its
//! unit, and ends with one JSON line: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The traced run records spans
//! around the benchmark's calls into each layer, keeps them in memory
//! and writes them to `<target dir>/bisbench-traces/` when it ends.
//!
//! The end-to-end metrics in the JSON line are the same six on every
//! workload; each workload states what its throughput, latency and
//! class figures measure (see `WORKLOADS` and the `named` lines).

mod gen;
mod reliability;
mod serve;
mod stats;
mod sweep;
mod trace;

use bisramgen::{CellCache, KindStats};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The workloads, with why each was chosen.
const WORKLOADS: [(&str, &str); 3] = [
    (
        "sweep-explore",
        "cold design-space sweep: compile dominates, write-heavy cache, memo and single-flight \
         bypassed; throughput = points/s and p50 = per-point p50 (medians over batches), \
         tail = per-point p90, class = mean hier point",
    ),
    (
        "serve-mixed",
        "daemon traffic on warm caches: wire, parse, memo, single-flight and artifact rendering \
         dominate; the class shares are an assumption, no record of real traffic exists; \
         throughput = req/s, p50 = non-ping p50, tail = non-ping p99, class = warm memo miss p50, \
         each latency a median over 2 s slices",
    ),
    (
        "reliability",
        "lane fleet engine, rare-event engine and chip diagnosis, no pipeline or cache; \
         throughput = fleet lifetimes/s (median call), p50 = chip diagnose, tail = fleet call p90, \
         class = rare estimate p50",
    ),
];

/// End-to-end metrics of the JSON line, with units.
const END_TO_END: [(&str, &str); 6] = [
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("class_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Cache kinds `CellCache::kind_stats` reports.
pub const CACHE_KINDS: [&str; 9] = [
    "leaf",
    "control",
    "leaves",
    "macro",
    "macrocells",
    "floorplan",
    "signoff",
    "verify",
    "verify-cert",
];

/// Layers whose self time the traced run reports.
const SELF_LAYERS: [&str; 8] = [
    "pipeline", "layout", "verify", "serve", "wire", "fleet", "chip", "rare",
];

/// Every per-layer metric of the traced run, with its unit. A workload
/// reports 0 for a layer it does not call.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| m.push((name, unit));
    for s in ["control", "leaves", "macrocells", "floorplan", "signoff"] {
        add(format!("pipeline.{s}.ms"), "ms");
    }
    add("pipeline.trace_agreement".into(), "ratio");
    for k in CACHE_KINDS {
        add(format!("cache.{k}.hit_ratio"), "ratio");
    }
    add("cache.entries".into(), "count");
    for s in ["place", "route", "assemble", "export_svg", "export_cif"] {
        add(format!("layout.{s}.ms"), "ms");
    }
    add("layout.replay_vs_floorplan".into(), "ratio");
    for s in ["hier", "drc", "extract", "lvs"] {
        add(format!("verify.{s}.ms"), "ms");
    }
    add("verify.cert_reuse_ratio".into(), "ratio");
    add("serve.parse.us".into(), "us");
    add("serve.canonical.us".into(), "us");
    for role in ["memo", "leader", "follower"] {
        add(format!("serve.submit.us.{role}"), "us");
    }
    add("serve.memo_hit_ratio".into(), "ratio");
    add("serve.dedup_ratio".into(), "ratio");
    add("serve.executed".into(), "count");
    for class in ["hot", "warm", "single"] {
        add(format!("serve.transport.us.{class}"), "us");
    }
    add("wire.ping_rtt.us".into(), "us");
    add("wire.resp_bytes".into(), "bytes");
    add("fleet.serial.ms".into(), "ms");
    add("fleet.parallel.ms".into(), "ms");
    add("fleet.parallel_efficiency".into(), "ratio");
    add("fleet.sessions_per_lifetime".into(), "count");
    add("fleet.repairs_per_lifetime".into(), "count");
    add("chip.diagnose.ms".into(), "ms");
    add("chip.quarantined".into(), "count");
    for k in ["write-margin", "read-delay"] {
        for s in ["pilot", "calibrate", "mpp", "is", "blockade"] {
            add(format!("rare.{k}.{s}.ms"), "ms");
        }
        add(format!("rare.{k}.us_per_trial"), "us");
        add(format!("rare.{k}.is_rse"), "ratio");
    }
    for l in SELF_LAYERS {
        add(format!("self.{l}.ms"), "ms");
    }
    add("trace.coverage".into(), "ratio");
    add("trace.overhead".into(), "ratio");
    m
}

/// One invocation's arguments.
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured window, seconds.
    pub seconds: f64,
    /// Traced run?
    pub trace: bool,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Failed operations plus failed output checks.
    pub failed: u64,
    /// Set-up time, s (median of the workload's set-up repetitions).
    pub setup_s: f64,
    /// Work completed per second.
    pub throughput_per_s: f64,
    /// Median operation latency, ms.
    pub p50_ms: f64,
    /// Highest percentile with ≥ 10 samples beyond it, ms.
    pub tail_ms: f64,
    /// Latency of the workload's key class, ms.
    pub class_ms: f64,
    named: Vec<(String, f64, &'static str)>,
    layers: BTreeMap<String, f64>,
    notes: Vec<String>,
}

impl Report {
    /// Counts a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// An end-to-end metric under the name the workload knows it by.
    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push((name.to_owned(), value, unit));
    }

    /// A per-layer metric (must be one of [`per_layer_metrics`]).
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_owned(), value);
    }

    /// A line of context (digests, counts) for the human output.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Reports self time per layer and writes the spans out.
    pub fn finish_trace(&mut self, tracer: &trace::Tracer, run: &Run) {
        for (layer, ms) in tracer.self_ms_by_layer() {
            if SELF_LAYERS.contains(&layer.as_str()) {
                self.layer(&format!("self.{layer}.ms"), ms);
            }
            self.note(format!("self time {layer}: {ms:.3} ms"));
        }
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| std::path::PathBuf::from("bisbench/target"), Into::into);
        let path = dir
            .join("bisbench-traces")
            .join(format!("{}-{}.tsv", run.workload, run.seed));
        match tracer.write_tsv(&path) {
            Ok(()) => self.note(format!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(e) => self.check(false, || {
                format!("writing spans to {}: {e}", path.display())
            }),
        }
    }
}

/// Per-kind hit ratios of `cache` since the `before` snapshot, and
/// its entry count.
pub fn cache_layers(report: &mut Report, cache: &CellCache, before: &[KindStats]) {
    for ks in cache.kind_stats() {
        let (h0, m0) = before
            .iter()
            .find(|b| b.kind == ks.kind)
            .map_or((0, 0), |b| (b.hits, b.misses));
        let hits = ks.hits - h0;
        let total = hits + ks.misses - m0;
        let ratio = if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        };
        report.layer(&format!("cache.{}.hit_ratio", ks.kind), ratio);
        report.note(format!("cache {}: {hits} hits / {total} lookups", ks.kind));
    }
    report.layer("cache.entries", cache.len() as f64);
}

/// Fails the run unless the per-kind cache tallies add up to the
/// cache's totals.
pub fn reconcile_cache(report: &mut Report, cache: &CellCache) {
    let (hits, misses) = cache
        .kind_stats()
        .iter()
        .fold((0, 0), |(h, m), k| (h + k.hits, m + k.misses));
    report.check(hits == cache.hits() && misses == cache.misses(), || {
        format!(
            "cache kind totals {hits}/{misses} != {}/{}",
            cache.hits(),
            cache.misses()
        )
    });
}

fn parse_args() -> Result<Run, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Run {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A JSON number; non-finite values are reported as a failed check.
fn json_number(report: &mut Report, name: &str, value: f64) -> String {
    report.check(value.is_finite(), || {
        format!("metric {name} is not finite: {value}")
    });
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

fn main() -> ExitCode {
    let run = match parse_args() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("bisbench: {e}");
            eprintln!(
                "usage: bisbench --workload <sweep-explore|serve-mixed|reliability> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let why = WORKLOADS
        .iter()
        .find(|(w, _)| *w == run.workload)
        .map_or("", |(_, why)| why);
    println!("workload {} (seed {}): {why}", run.workload, run.seed);
    println!(
        "inputs digest: {:016x}; cores: {}",
        gen::inputs_digest(run.seed),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let mut report = Report::default();
    match run.workload.as_str() {
        "sweep-explore" => sweep::run(&run, &mut report),
        "serve-mixed" => serve::run(&run, &mut report),
        _ => reliability::run(&run, &mut report),
    }
    let rss = stats::peak_rss_mb().unwrap_or(0.0);
    report.check(rss > 0.0, || "peak RSS unreadable".to_owned());
    if report.attempted == 0 {
        report.attempted = 1;
        report.failed = report.failed.max(1);
    }
    let error_rate = report.failed as f64 / report.attempted as f64;

    for line in &report.notes {
        println!("{line}");
    }
    let mut metrics = Vec::new();
    if run.trace {
        let known = per_layer_metrics();
        for name in report.layers.keys() {
            assert!(
                known.iter().any(|(k, _)| k == name),
                "unregistered per-layer metric {name}"
            );
        }
        for (name, unit) in known {
            let value = report.layers.get(&name).copied().unwrap_or(0.0);
            println!("layer {name}: {value} {unit}");
            metrics.push((name, value, unit));
        }
    } else {
        let named = std::mem::take(&mut report.named);
        for (name, value, unit) in &named {
            println!("metric {name}: {value} {unit}");
        }
        println!("metric setup_s: {} s", report.setup_s);
        println!("metric peak_rss_mb: {rss} MB");
        println!("metric error_rate: {error_rate} ratio");
        let values = [
            report.throughput_per_s,
            report.p50_ms,
            report.tail_ms,
            report.class_ms,
            report.setup_s,
            rss,
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push(((*name).to_owned(), value, *unit));
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = json_number(&mut report, name, *value);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark manifest at the repository root lists exactly the
    /// workloads and metrics this program reports.
    #[test]
    fn manifest_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let names_in = |section: &str| -> Vec<String> {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let end = text[start..].find(']').expect("closing bracket") + start;
            text[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s.split('"').next().expect("name").to_owned())
                .collect()
        };
        let workloads: Vec<String> = WORKLOADS.iter().map(|(w, _)| (*w).to_owned()).collect();
        assert_eq!(names_in("workloads"), workloads);
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| (*n).to_owned()).collect();
        assert_eq!(names_in("end_to_end"), e2e);
        let layers: Vec<String> = per_layer_metrics().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names_in("per_layer"), layers);
    }
}
