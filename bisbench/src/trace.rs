//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the
//! program's layers — nothing inside the program is instrumented. A
//! span has a name (`<layer>.<what>`), a start and end on one clock, a
//! parent span and a request id shared by every span of one operation.
//! Spans stay in memory until the run ends; [`Tracer::write_tsv`] then
//! writes them out. With tracing off [`Tracer::span`] is a plain call.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Where a new span hangs: the request it belongs to and its parent
/// span (`0` for a root).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ctx {
    /// Request (operation) id shared by every span of one operation.
    pub req: u64,
    /// Parent span id, `0` at the root.
    pub parent: u64,
}

impl Ctx {
    /// The root context of request `req`.
    pub fn root(req: u64) -> Ctx {
        Ctx { req, parent: 0 }
    }
}

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (from 1).
    pub id: u64,
    /// Parent span id, `0` at the root.
    pub parent: u64,
    /// Request id.
    pub req: u64,
    /// `<layer>.<what>`.
    pub name: String,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

impl Span {
    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }

    fn ms(&self) -> f64 {
        (self.end - self.start) as f64 / 1e6
    }
}

/// The recorder. Shareable across worker threads.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; with `on == false` nothing is recorded.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`; `f` receives the context
    /// its own child spans hang from.
    pub fn span<T>(&self, name: &str, ctx: Ctx, f: impl FnOnce(Ctx) -> T) -> T {
        if !self.on {
            return f(ctx);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let out = f(Ctx {
            req: ctx.req,
            parent: id,
        });
        let end = self.now();
        self.record(Span {
            id,
            parent: ctx.parent,
            req: ctx.req,
            name: name.to_owned(),
            start,
            end,
        });
        out
    }

    fn record(&self, span: Span) {
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// A snapshot of every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Summed duration of the spans called exactly `name`, ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .lock()
            .expect("span list poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// Self time per layer, ms: each span's duration minus the part of
    /// it its children cover, summed by layer.
    pub fn self_ms_by_layer(&self) -> BTreeMap<String, f64> {
        let spans = self.spans();
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &spans {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
        let mut out = BTreeMap::new();
        for s in &spans {
            let covered = children
                .get(&s.id)
                .map_or(0, |kids| union_len(kids, s.start, s.end));
            *out.entry(s.layer().to_owned()).or_insert(0.0) +=
                (s.end - s.start - covered) as f64 / 1e6;
        }
        out
    }

    /// Share of `lanes × (end − start)` that the direct children of
    /// root spans cover — the wall time of the measured window that
    /// the trace attributes to a named layer call.
    pub fn coverage(&self, start: u64, end: u64, lanes: usize) -> f64 {
        let spans = self.spans();
        let roots: Vec<&Span> = spans
            .iter()
            .filter(|s| s.parent == 0 && s.start >= start && s.end <= end)
            .collect();
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &spans {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
        let covered: u64 = roots
            .iter()
            .map(|r| {
                children
                    .get(&r.id)
                    .map_or(0, |kids| union_len(kids, r.start, r.end))
            })
            .sum();
        covered as f64 / (lanes as f64 * (end - start).max(1) as f64)
    }

    /// Writes every span as a tab-separated line:
    /// `id parent req name start_ns end_ns`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for s in self.spans() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.req, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_len(&[(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(union_len(&[(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(union_len(&[], 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_children_and_requests_share_ids() {
        let t = Tracer::new(true);
        t.span("sweep.point", Ctx::root(7), |ctx| {
            t.span("pipeline.control", ctx, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.req == 7));
        let child = spans
            .iter()
            .find(|s| s.name == "pipeline.control")
            .expect("child");
        let root = spans
            .iter()
            .find(|s| s.name == "sweep.point")
            .expect("root");
        assert_eq!(child.parent, root.id);
        let by_layer = t.self_ms_by_layer();
        assert!(by_layer["pipeline"] >= 5.0);
        assert!(by_layer["sweep"] >= 2.0 && by_layer["sweep"] < by_layer["pipeline"] + 2.0);
        let cov = t.coverage(root.start, root.end, 1);
        assert!(cov > 0.5 && cov <= 1.0, "{cov}");
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("a.b", Ctx::root(1), |_| 3), 3);
        assert!(t.spans().is_empty());
    }
}
