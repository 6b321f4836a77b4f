//! Seeded workload inputs. Every job spec, fleet seed and chip the
//! program sees is generated here; the same seed always yields the
//! same inputs. What sets the work per operation — the sweep's strata,
//! the mix's organizations, the chip pool — is fixed, and the seed
//! draws the rest (spare counts, keys, classes, order, RNG streams), so
//! runs on different seeds cost alike.

use bisram_field::heterogeneous_chip;
use bisram_rng::rngs::StdRng;
use bisram_rng::seq::SliceRandom;
use bisram_rng::{Rng, SeedableRng};
use bisram_wire::fnv1a64_bytes;

/// The three built-in processes.
pub const PROCESSES: [&str; 3] = ["CDA.5u3m1p", "mos.6u3m1pHP", "CDA.7u3m1p"];

/// Word counts of the sweep's design space.
pub const SWEEP_WORDS: [usize; 7] = [256, 512, 1024, 2048, 4096, 8192, 16384];
/// Word widths of the sweep's design space.
pub const SWEEP_BPW: [usize; 3] = [8, 16, 32];
/// Points per `(words, bpw)` cell of a sweep batch.
pub const SWEEP_PER_CELL: usize = 4;
/// The spare-row stratum `[lowest, extra]` of each point of a cell: the
/// seed draws `lowest..=lowest + extra` spares, so together the strata
/// cover 2–16.
const SPARE_STRATA: [[usize; 2]; SWEEP_PER_CELL] = [[2, 3], [6, 3], [10, 3], [14, 2]];

/// A deterministic 64-bit mix of `parts` (SplitMix64 finalizer).
pub fn mix(parts: &[u64]) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64;
    for &p in parts {
        h ^= p;
        h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    }
    h
}

/// One design point of `sweep-explore`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPoint {
    /// Words.
    pub words: usize,
    /// Bits per word.
    pub bpw: usize,
    /// Bits per column.
    pub bpc: usize,
    /// Spare rows.
    pub spares: usize,
    /// Process name.
    pub process: &'static str,
    /// Hierarchical verification requested.
    pub hier: bool,
}

impl SweepPoint {
    fn body(&self) -> String {
        format!(
            "words = {}\nbpw = {}\nbpc = {}\nspares = {}\nprocess = {}\nverify = {}\n",
            self.words,
            self.bpw,
            self.bpc,
            self.spares,
            self.process,
            if self.hier { "hier" } else { "none" }
        )
    }

    /// A one-point sweep spec, for `run_sweep`.
    pub fn sweep_spec(&self) -> String {
        self.body()
    }

    /// A `verify` job spec. The sweep expands every point into a
    /// `characterize` job, which never runs verification, so a
    /// hierarchically verified point is submitted as a `verify` job.
    pub fn verify_job(&self) -> String {
        format!("job = verify\n{}", self.body())
    }
}

/// Batch `batch` of the sweep: every `(words, bpw)` cell of the design
/// space gets [`SWEEP_PER_CELL`] points, alternating 4 and 8 bits per
/// column over a rotation of the processes, one of them hierarchically
/// verified (on alternating column widths from cell to cell); the seed
/// draws every point's spare count within its stratum
/// ([`SPARE_STRATA`]). Points run in cartesian order,
/// words slowest, as `run_sweep` expands a multi-valued spec. The
/// stratification keeps the batch's work the same from seed to seed
/// while every point differs.
pub fn sweep_batch(seed: u64, batch: u64) -> Vec<SweepPoint> {
    let mut rng = StdRng::seed_from_u64(mix(&[seed, 0x5EE9, batch]));
    let mut points = Vec::new();
    let mut cell = 0;
    for words in SWEEP_WORDS {
        for bpw in SWEEP_BPW {
            for i in 0..SWEEP_PER_CELL {
                points.push(SweepPoint {
                    words,
                    bpw,
                    bpc: if i % 2 == 0 { 4 } else { 8 },
                    spares: SPARE_STRATA[i][0] + rng.gen_range(0..=SPARE_STRATA[i][1]),
                    process: PROCESSES[(i + cell) % PROCESSES.len()],
                    hier: i == cell % 2,
                });
            }
            cell += 1;
        }
    }
    points
}

/// Request classes of the `serve-mixed` traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// A memo hit on the small hot set.
    Hot,
    /// A warm memo miss: every pipeline stage hits the cache, but the
    /// canonical key (fresh `defects`/`lambda`) is new.
    Warm,
    /// A fresh key issued on both connections at the same step.
    Single,
    /// Liveness probe.
    Ping,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 4] = [Class::Hot, Class::Warm, Class::Single, Class::Ping];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Class::Hot => "hot",
            Class::Warm => "warm",
            Class::Single => "single",
            Class::Ping => "ping",
        }
    }

    /// Steps of this class in every [`MIX_BLOCK`]-step block.
    ///
    /// These shares — like the hot-set size, the organizations and the
    /// characterize/compile split of fresh keys — are an assumption:
    /// no record of the service's real traffic exists to take them
    /// from. Warm misses are the majority because they are the tier a
    /// sweep lives in. `serve_rps`, `serve_p50_ms` and `serve_p99_ms`
    /// depend on them; `serve_warm_miss_p50_ms` depends only on the
    /// warm class itself.
    pub fn per_block(self) -> usize {
        match self {
            Class::Hot => 6,
            Class::Warm => 10,
            Class::Single => 2,
            Class::Ping => 2,
        }
    }
}

/// Steps per stratified block of the mix.
pub const MIX_BLOCK: usize = 20;
/// Hot-set size.
pub const HOT_SET: usize = 8;
/// Largest organization, in bits, whose compile jobs also ask for the
/// flattened CIF — like the CLI's `--cif`, meant for small modules.
pub const CIF_MAX_BITS: usize = 4096;

/// One organization the mix compiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Org {
    /// Words.
    pub words: usize,
    /// Bits per word.
    pub bpw: usize,
    /// Bits per column.
    pub bpc: usize,
    /// Spare rows.
    pub spares: usize,
    /// Process name.
    pub process: &'static str,
}

impl Org {
    /// A compile-family job on this organization.
    pub fn job(&self, kind: &str, defects: f64, lambda: f64) -> String {
        format!(
            "job = {kind}\nwords = {}\nbpw = {}\nbpc = {}\nspares = {}\nprocess = {}\n\
             defects = {defects}\nlambda = {lambda}\n",
            self.words, self.bpw, self.bpc, self.spares, self.process
        )
    }

    /// Whether fresh compile jobs on this organization ask for the
    /// flattened CIF ([`CIF_MAX_BITS`]).
    pub fn renders_cif(&self) -> bool {
        self.words * self.bpw <= CIF_MAX_BITS
    }
}

/// The mix's organizations: a fixed spread of shapes over the three
/// processes. They set the work per request, so they do not depend on
/// the seed; the seed draws which of them every request uses, its kind
/// and its key.
pub fn serve_orgs() -> Vec<Org> {
    [
        (256, 8, 4, 2),
        (256, 32, 8, 4),
        (512, 16, 4, 6),
        (1024, 8, 8, 8),
        (1024, 32, 4, 4),
        (2048, 16, 8, 2),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (words, bpw, bpc, spares))| Org {
        words,
        bpw,
        bpc,
        spares,
        process: PROCESSES[i % PROCESSES.len()],
    })
    .collect()
}

/// The hot set: characterize and compile jobs over the organizations
/// at the default defect density and failure rate.
pub fn hot_set(orgs: &[Org]) -> Vec<String> {
    (0..HOT_SET)
        .map(|i| {
            let kind = if i % 2 == 0 {
                "characterize"
            } else {
                "compile"
            };
            orgs[i % orgs.len()].job(kind, 0.5, 1.0e-7)
        })
        .collect()
}

/// The class of step `step` (the same on every connection, so
/// [`Class::Single`] steps line up).
pub fn step_class(seed: u64, step: u64) -> Class {
    let block = step / MIX_BLOCK as u64;
    let mut classes: Vec<Class> = Class::ALL
        .iter()
        .flat_map(|&c| std::iter::repeat_n(c, c.per_block()))
        .collect();
    classes.shuffle(&mut StdRng::seed_from_u64(mix(&[seed, 0xB10C, block])));
    classes[(step % MIX_BLOCK as u64) as usize]
}

/// The spec text connection `conn` sends at `step`, with its class.
/// Fresh keys take their `defects`/`lambda` from a counter unique to
/// `(conn, step)` — or to `step` alone for [`Class::Single`], which
/// both connections send.
pub fn step_job(seed: u64, conn: u64, step: u64, orgs: &[Org], hot: &[String]) -> (Class, String) {
    let class = step_class(seed, step);
    let stream = if class == Class::Single {
        u64::MAX
    } else {
        conn
    };
    let mut rng = StdRng::seed_from_u64(mix(&[seed, 0x57E9, stream, step]));
    let fresh = |rng: &mut StdRng, unique: u64| {
        let org = &orgs[rng.gen_range(0..orgs.len())];
        // Three in five fresh keys characterize; the rest stream every
        // artifact (datasheet, floorplan SVG, PLA planes, SPICE, and
        // on small organizations the flattened CIF).
        let kind = if rng.gen_range(0..5u32) < 3 {
            "characterize"
        } else {
            "compile"
        };
        let defects = 0.25 + unique as f64 * 1e-7;
        let lambda = 1.0e-7 * (1.0 + (seed % 997) as f64 * 1e-4);
        let mut text = org.job(kind, defects, lambda);
        if kind == "compile" && org.renders_cif() {
            text.push_str("cif = 1\n");
        }
        text
    };
    let text = match class {
        Class::Hot => hot[rng.gen_range(0..hot.len())].clone(),
        Class::Warm => fresh(&mut rng, (conn + 1) * 100_000_000 + step),
        Class::Single => fresh(&mut rng, step),
        Class::Ping => "job = ping\n".to_owned(),
    };
    (class, text)
}

/// The `reliability` inputs: a fleet configuration whose survival
/// curve does not collapse at the first session, and seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityInputs {
    /// Fleet organization `(words, bpw, bpc, spares)`.
    pub org: (usize, usize, usize, usize),
    /// Per-bit failure rate, per hour.
    pub lambda: f64,
    /// Maintenance period, hours.
    pub period: f64,
    /// Horizon, hours.
    pub horizon: f64,
    /// Lifetimes per fleet call.
    pub fleet_batch: usize,
    /// Base seed of the fleet calls (call `i` uses `mix(seed, i)`).
    pub fleet_seed: u64,
    /// Base seed of the rare-event runs.
    pub rare_seed: u64,
    /// Chip seeds: the [`CHIP_POOL`] pool in a seeded order.
    pub chips: Vec<u64>,
}

/// Macros per chip in the diagnose-and-repair call.
pub const CHIP_MACROS: usize = 16;
/// Manufacturing defects on every pool chip.
pub const CHIP_DEFECTS: usize = 24;
/// Chips in the pool. Diagnosis time varies twofold from chip to chip
/// with the fault kinds, so every run diagnoses the same pool — in its
/// own order — and `chip_diagnose_s` compares like with like.
pub const CHIP_POOL: u64 = 28;

/// The seed of pool chip `index`: the first seed derived from `index`
/// whose chip carries exactly [`CHIP_DEFECTS`] defects.
pub fn chip_seed(index: u64) -> u64 {
    (0u64..)
        .map(|k| mix(&[0xC419, index, k]))
        .find(|&s| {
            heterogeneous_chip(CHIP_MACROS, s)
                .iter()
                .map(|m| m.fault_count)
                .sum::<usize>()
                == CHIP_DEFECTS
        })
        .expect("an unbounded search ends")
}

/// The seeded reliability inputs.
pub fn reliability(seed: u64) -> ReliabilityInputs {
    ReliabilityInputs {
        // 256×16 with 4 spares, λ = 1.2e-8/h, 2000 h sessions over a
        // 100 000 h horizon: ~0.1 arrivals per session, so lifetimes
        // survive tens of sessions and die of exhaustion or spare
        // faults spread over the horizon.
        org: (256, 16, 4, 4),
        lambda: 1.2e-8,
        period: 2_000.0,
        horizon: 100_000.0,
        fleet_batch: 128,
        fleet_seed: mix(&[seed, 0xF1EE]),
        rare_seed: mix(&[seed, 0x4A4E]),
        chips: {
            let mut chips: Vec<u64> = (0..CHIP_POOL).map(chip_seed).collect();
            chips.shuffle(&mut StdRng::seed_from_u64(mix(&[seed, 0xC419])));
            chips
        },
    }
}

/// A digest over a sample of the inputs `seed` generates for every
/// workload — equal for equal seeds.
pub fn inputs_digest(seed: u64) -> u64 {
    let mut text = String::new();
    for p in sweep_batch(seed, 0) {
        text.push_str(&p.verify_job());
    }
    let orgs = serve_orgs();
    let hot = hot_set(&orgs);
    for step in 0..200 {
        for conn in 0..2 {
            text.push_str(&step_job(seed, conn, step, &orgs, &hot).1);
        }
    }
    text.push_str(&format!("{:?}", reliability(seed)));
    fnv1a64_bytes(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(inputs_digest(1), inputs_digest(1));
        assert_ne!(inputs_digest(1), inputs_digest(2));
        assert_eq!(sweep_batch(9, 0), sweep_batch(9, 0));
        assert_ne!(sweep_batch(9, 0), sweep_batch(9, 1));
    }

    #[test]
    fn sweep_batches_are_distinct_stratified_and_a_quarter_hier() {
        let batch = sweep_batch(3, 0);
        let n = SWEEP_WORDS.len() * SWEEP_BPW.len() * SWEEP_PER_CELL;
        assert_eq!(batch.len(), n);
        let distinct: std::collections::HashSet<String> =
            batch.iter().map(SweepPoint::verify_job).collect();
        assert_eq!(distinct.len(), n);
        let hier = batch.iter().filter(|p| p.hier).count();
        assert_eq!(hier * 4, n);
        for words in SWEEP_WORDS {
            assert_eq!(
                batch.iter().filter(|p| p.words == words).count(),
                SWEEP_BPW.len() * SWEEP_PER_CELL
            );
        }
        // Every point is a valid job for the service's parser.
        for p in &batch {
            bisram_serve::JobSpec::parse(&p.verify_job()).expect("valid verify job");
            bisram_serve::SweepSpec::parse(&p.sweep_spec()).expect("valid sweep spec");
        }
    }

    #[test]
    fn mix_class_shares_match_their_targets() {
        let orgs = serve_orgs();
        let hot = hot_set(&orgs);
        let steps = 50 * MIX_BLOCK as u64;
        for conn in 0..2 {
            for class in Class::ALL {
                let got = (0..steps)
                    .filter(|&s| step_job(5, conn, s, &orgs, &hot).0 == class)
                    .count();
                assert_eq!(got, 50 * class.per_block(), "{class:?}");
            }
        }
        // Single-flight steps line up across connections with one key.
        for s in 0..steps {
            let a = step_job(5, 0, s, &orgs, &hot);
            let b = step_job(5, 1, s, &orgs, &hot);
            assert_eq!(a.0, b.0);
            if a.0 == Class::Single {
                assert_eq!(a.1, b.1);
            }
        }
    }

    #[test]
    fn chips_carry_the_fixed_defect_count_and_differ() {
        let a = heterogeneous_chip(CHIP_MACROS, chip_seed(0));
        let b = heterogeneous_chip(CHIP_MACROS, chip_seed(1));
        for chip in [&a, &b] {
            assert_eq!(
                chip.iter().map(|m| m.fault_count).sum::<usize>(),
                CHIP_DEFECTS
            );
        }
        assert_ne!(a, b);
        // Every run diagnoses the whole pool, each seed in its own order.
        let (mut x, mut y) = (reliability(1).chips, reliability(2).chips);
        assert_ne!(x, y);
        x.sort_unstable();
        y.sort_unstable();
        assert_eq!(x, y);
        assert_eq!(x.len() as u64, CHIP_POOL);
    }

    #[test]
    fn fresh_keys_never_repeat_and_jobs_parse() {
        let orgs = serve_orgs();
        let hot = hot_set(&orgs);
        let mut seen = std::collections::HashSet::new();
        let mut cif = 0;
        for s in 0..2000 {
            for conn in 0..2 {
                let (class, text) = step_job(11, conn, s, &orgs, &hot);
                let job = bisram_serve::JobSpec::parse(&text).expect("valid job");
                if class == Class::Warm {
                    assert!(seen.insert(job.canonical()), "repeated warm key");
                }
                if let bisram_serve::JobSpec::Compile(c) = &job {
                    cif += usize::from(c.cif);
                }
            }
        }
        // Some fresh compile jobs stream the CIF, and only small ones.
        assert!(cif > 0);
        assert!(orgs.iter().any(Org::renders_cif));
        assert!(!orgs.iter().all(Org::renders_cif));
    }
}
