//! Typed job requests: one parameter table per job kind.
//!
//! A request arrives as a [`Spec`] text whose `job` key
//! selects the kind; the remaining keys are typed parameters. Each kind
//! declares its parameters once, as rows of one table — field, type,
//! default, spec key, value check and help line — and everything that
//! reads parameters comes from that table:
//!
//! * [`JobSpec::parse`], for spec texts and daemon requests;
//! * [`JobSpec::from_args`], for `bisramgen` command lines, where
//!   `--key value` is the spec line `key = value` (plus a few older
//!   spellings kept as aliases);
//! * [`options_help`], each job command's `--help` OPTIONS lines;
//! * [`JobSpec::canonical`], the text with every field spelled out in
//!   table order.
//!
//! Parsing is strict — an unknown key is an error, not a silent
//! ignore. Two requests that differ only in spelling (key order,
//! omitted defaults, quoting) canonicalize to the same string, which is
//! exactly the property the single-flight dedup map keys on.

use crate::spec::Spec;
use bisram_mem::ArrayOrg;
use bisram_tech::Process;
use bisram_yield::rare::TrialKernel;
use bisramgen::field::SparePolicy;
use bisramgen::VerifyMode;
use std::fmt::Write as _;

/// Physical-verification choice for a compile-family job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyChoice {
    /// Skip verification.
    None,
    /// Flat DRC/LVS over the assembled module.
    Flat,
    /// Hierarchical verification with verified-clean certificates.
    Hier,
}

impl VerifyChoice {
    /// The spec-file spelling.
    pub fn name(self) -> &'static str {
        match self {
            VerifyChoice::None => "none",
            VerifyChoice::Flat => "flat",
            VerifyChoice::Hier => "hier",
        }
    }

    /// Parses a spec-file spelling.
    pub fn by_name(name: &str) -> Option<VerifyChoice> {
        match name {
            "none" => Some(VerifyChoice::None),
            "flat" => Some(VerifyChoice::Flat),
            "hier" => Some(VerifyChoice::Hier),
            _ => None,
        }
    }

    /// The pipeline mode, when verification is requested at all.
    pub fn mode(self) -> Option<VerifyMode> {
        match self {
            VerifyChoice::None => None,
            VerifyChoice::Flat => Some(VerifyMode::Flat),
            VerifyChoice::Hier => Some(VerifyMode::Hier),
        }
    }
}

/// One settable parameter of a job kind.
struct Param<J> {
    /// The spec key; on the command line, the flag `--key`.
    key: &'static str,
    /// The value placeholder shown in `--help`.
    arg: &'static str,
    /// The one-line `--help` description.
    help: &'static str,
    /// Parses and checks a value into the job. The message need not
    /// name the key; the caller prefixes it.
    set: fn(&mut J, &str) -> Result<(), String>,
    /// Appends the field's canonical spelling, which `set` parses back.
    show: fn(&J, &mut String),
}

/// A command-line spelling that is not `--key value`.
struct Alias {
    /// The flag, e.g. `--strap`.
    flag: &'static str,
    /// The value placeholder; empty for a flag that takes no value.
    arg: &'static str,
    /// The one-line `--help` description.
    help: &'static str,
    /// Appends the `(key, value)` pairs the flag stands for.
    expand: fn(&mut Pairs, &str) -> Result<(), String>,
}

/// The `(key, value)` pairs a command line spells, in order.
type Pairs = Vec<(&'static str, String)>;

/// A job kind's parameter table.
trait Table: Default + 'static {
    /// Every parameter, in canonical order.
    const PARAMS: &'static [Param<Self>];
    /// Older command-line spellings. A `--key` that an alias spells
    /// the same way is reachable only through the alias.
    const ALIASES: &'static [Alias] = &[];

    /// Checks that span several keys, run after every key is set.
    fn check(&self) -> Result<(), String> {
        Ok(())
    }
}

/// A field's canonical spelling, which its row's check parses back.
trait Canonical {
    fn write(&self, s: &mut String);
}

macro_rules! canonical_display {
    ($($ty:ty),*) => {$(
        impl Canonical for $ty {
            fn write(&self, s: &mut String) {
                let _ = write!(s, "{self}");
            }
        }
    )*};
}
canonical_display!(usize, u32, u64, i64, f64, String);

impl Canonical for bool {
    fn write(&self, s: &mut String) {
        s.push(if *self { '1' } else { '0' });
    }
}

impl Canonical for VerifyChoice {
    fn write(&self, s: &mut String) {
        s.push_str(self.name());
    }
}

impl Canonical for SparePolicy {
    fn write(&self, s: &mut String) {
        s.push_str(match self {
            SparePolicy::Pessimistic => "pessimistic",
            SparePolicy::Opportunistic => "opportunistic",
        });
    }
}

/// A stuck scan-link bit, `B:V`.
impl Canonical for (u8, bool) {
    fn write(&self, s: &mut String) {
        let _ = write!(s, "{}:{}", self.0, u8::from(self.1));
    }
}

impl<T: Canonical> Canonical for Option<T> {
    fn write(&self, s: &mut String) {
        match self {
            Some(v) => v.write(s),
            None => s.push_str("none"),
        }
    }
}

/// Declares a job kind from one table: its struct, its `Default` and
/// its [`Table`] impl. Each row reads
/// `field: Type = default, "key" "ARG" check, "help";` where `check`
/// parses and vets a value; any further items join the `Table` impl.
macro_rules! job_table {
    (
        $(#[$meta:meta])*
        $name:ident {
            $($field:ident: $ty:ty = $default:expr,
                $key:literal $arg:literal $check:expr, $help:literal;)*
        }
        $($extra:item)*
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name {
            $(#[doc = $help] pub $field: $ty,)*
        }

        impl Default for $name {
            fn default() -> Self {
                $name { $($field: $default,)* }
            }
        }

        impl Table for $name {
            const PARAMS: &'static [Param<Self>] = &[$(Param {
                key: $key,
                arg: $arg,
                help: $help,
                set: |j, v| {
                    j.$field = $check(v)?;
                    Ok(())
                },
                show: |j, s| j.$field.write(s),
            }),*];
            $($extra)*
        }
    };
}

/// An integer, checked against the range of its field. Parsed as an
/// `i128`, wide enough for every field type, so a negative value gets
/// the range message (or, for a signed field, the parameter check).
fn int<T: TryFrom<i128>>(v: &str) -> Result<T, String> {
    let n: i128 = v
        .parse()
        .map_err(|_| format!("expected a number, got {v:?}"))?;
    T::try_from(n).map_err(|_| format!("{n} is out of range"))
}

fn at_least<const MIN: usize>(v: &str) -> Result<usize, String> {
    let n = int(v)?;
    if n < MIN {
        return Err(format!("must be at least {MIN}, got {n}"));
    }
    Ok(n)
}

fn finite(v: &str) -> Result<f64, String> {
    v.parse::<f64>()
        .ok()
        .filter(|x| x.is_finite())
        .ok_or_else(|| format!("expected a finite number, got {v:?}"))
}

/// A finite number accepted by `ok`, which `rule` describes.
fn ranged(v: &str, ok: impl Fn(f64) -> bool, rule: &str) -> Result<f64, String> {
    let x = finite(v)?;
    if !ok(x) {
        return Err(format!("{x} must be {rule}"));
    }
    Ok(x)
}

fn non_negative(v: &str) -> Result<f64, String> {
    ranged(v, |x| x >= 0.0, ">= 0")
}

fn positive(v: &str) -> Result<f64, String> {
    ranged(v, |x| x > 0.0, "> 0")
}

fn probability(v: &str) -> Result<f64, String> {
    ranged(v, |p| (0.0..=1.0).contains(&p), "a probability in [0, 1]")
}

/// `none`, or a value `check` accepts.
fn optional<T>(v: &str, check: fn(&str) -> Result<T, String>) -> Result<Option<T>, String> {
    match v {
        "none" => Ok(None),
        _ => check(v).map(Some),
    }
}

fn process(v: &str) -> Result<String, String> {
    match Process::by_name(v) {
        Some(_) => Ok(v.to_owned()),
        None => Err(format!(
            "unknown process {v:?}; built-ins: CDA.5u3m1p, mos.6u3m1pHP, CDA.7u3m1p"
        )),
    }
}

fn one_of<T: Copy>(v: &str, choices: &[(&str, T)]) -> Result<T, String> {
    match choices.iter().find(|(name, _)| *name == v) {
        Some((_, choice)) => Ok(*choice),
        None => {
            let names: Vec<&str> = choices.iter().map(|(name, _)| *name).collect();
            Err(format!("expected {}, got {v:?}", names.join("|")))
        }
    }
}

fn stuck_bit(v: &str) -> Result<(u8, bool), String> {
    let (b, value) = v
        .split_once(':')
        .ok_or_else(|| format!("expected B:V, got {v:?}"))?;
    let bit: u8 = int(b)?;
    if bit >= 64 {
        return Err(format!("bit {bit} outside 0..64"));
    }
    Ok((bit, one_of(value, &[("0", false), ("1", true)])?))
}

job_table! {
    /// Parameters for `compile`, `characterize` and `verify` jobs — the
    /// compiler's knobs plus the defect density and failure rate the
    /// metric reduction needs.
    CompileJob {
        words: usize = 1024, "words" "N" int, "addressable words";
        bpw: usize = 32, "bpw" "N" int, "bits per word";
        bpc: usize = 4, "bpc" "N" int, "bits per column, power of two";
        spares: usize = 4, "spares" "N" int,
            "spare rows; 4/8/16 keep the delay-masking guarantee";
        process: String = "CDA.7u3m1p".to_owned(), "process" "NAME" process,
            "CDA.5u3m1p | mos.6u3m1pHP | CDA.7u3m1p";
        gate_size: i64 = 2, "gate-size" "N" int, "critical-gate size factor >= 1";
        strap_every: usize = 32, "strap-every" "N" int,
            "substrate strap every N columns; 0 disables";
        strap_lambda: i64 = 12, "strap-lambda" "L" int, "strap gap width in lambda";
        verify: VerifyChoice = VerifyChoice::None, "verify" "MODE"
            |v| VerifyChoice::by_name(v).ok_or_else(|| format!("expected none|flat|hier, got {v:?}")),
            "none | flat | hier physical verification";
        cif: bool = false, "cif" "0|1"
            |v| one_of(v, &[("0", false), ("1", true), ("false", false), ("true", true)]),
            "also stream the flattened CIF (small modules only)";
        defects: f64 = 0.5, "defects" "D" non_negative,
            "average defects per chip, for the yield metrics";
        lambda: f64 = 1.0e-7, "lambda" "R" non_negative,
            "per-bit failure rate per hour, for the MTTF metric";
    }

    const ALIASES: &'static [Alias] = &[
        Alias {
            flag: "--strap",
            arg: "E:L",
            help: "strap-every E and strap-lambda L in one flag; 0:0 disables straps",
            expand: |pairs, v| {
                let (e, l) = v
                    .split_once(':')
                    .ok_or_else(|| format!("--strap expects E:L, got {v:?}"))?;
                pairs.push(("strap-every", e.to_owned()));
                pairs.push(("strap-lambda", l.to_owned()));
                Ok(())
            },
        },
        Alias {
            flag: "--cif",
            arg: "",
            help: "also write the flattened CIF (small modules only)",
            expand: |pairs, _| {
                pairs.push(("cif", "1".to_owned()));
                Ok(())
            },
        },
        // `--verify-mode` matters only with `--verify`, in either
        // order: it rewrites an earlier `verify` pair and leaves a
        // `verify-mode` pair, which names no parameter, for a later one.
        Alias {
            flag: "--verify",
            arg: "",
            help: "run DRC + extraction + LVS on every macrocell; exit 1 on violations",
            expand: |pairs, _| {
                let mode = pairs.iter().rev().find(|(k, _)| *k == "verify-mode");
                let mode = mode.map_or("flat".to_owned(), |(_, m)| m.clone());
                pairs.push(("verify", mode));
                Ok(())
            },
        },
        Alias {
            flag: "--verify-mode",
            arg: "M",
            help: "with --verify: flat (default) | hier, same report from cached cells",
            expand: |pairs, v| {
                one_of(v, &[("flat", ()), ("hier", ())])
                    .map_err(|e| format!("--verify-mode {e}"))?;
                for (_, value) in pairs.iter_mut().filter(|(k, _)| *k == "verify") {
                    v.clone_into(value);
                }
                pairs.push(("verify-mode", v.to_owned()));
                Ok(())
            },
        },
    ];
}

job_table! {
    /// Parameters for a `rare-yield` job: an importance-sampling tail
    /// estimate of the bitcell failure probability, fed into the
    /// spare-count economics and re-checked by a defect-pattern Monte
    /// Carlo.
    RareJob {
        process: String = "CDA.7u3m1p".to_owned(), "process" "NAME" process,
            "CDA.5u3m1p | mos.6u3m1pHP | CDA.7u3m1p";
        kernel: String = "write-margin".to_owned(), "kernel" "K"
            |v: &str| match TrialKernel::by_name(v) {
                Some(_) => Ok(v.to_owned()),
                None => Err(format!(
                    "expected write-margin|read-snm|hold-snm|read-delay, got {v:?}"
                )),
            },
            "write-margin | read-snm | hold-snm | read-delay";
        target_p: f64 = 1e-6, "target-p" "P" |v| ranged(v, |p| p > 0.0 && p < 1.0, "in (0, 1)"),
            "calibrate the threshold at this tail probability";
        threshold: Option<f64> = None, "threshold" "V" |v| optional(v, finite),
            "explicit threshold, volts (read-delay: -seconds); overrides target-p";
        trials: usize = 2000, "trials" "N" at_least::<2>, "importance-sampling trials";
        mc_trials: usize = 0, "mc-trials" "N" int,
            "plain-MC crossval trials; 0 skips the crossval";
        pilot: usize = 400, "pilot" "N" at_least::<8>,
            "pilot trials for calibration and the blockade surrogate";
        safety: f64 = 3.0, "safety" "S" finite, "blockade guard band in residual sigmas";
        seed: u64 = 1, "seed" "N" int, "base seed; per-trial streams derive from it";
        words: usize = 4096, "words" "N" int, "spare-sweep array words";
        bpw: usize = 4, "bpw" "N" int, "spare-sweep bits per word";
        bpc: usize = 4, "bpc" "N" int, "spare-sweep bits per column";
        max_spares: usize = 16, "max-spares" "N" int, "spare-sweep upper bound";
    }

    fn check(&self) -> Result<(), String> {
        ArrayOrg::new(self.words, self.bpw, self.bpc, 0)
            .map(|_| ())
            .map_err(|e| format!("keys \"words\"/\"bpw\"/\"bpc\": {e}"))
    }
}

job_table! {
    /// Parameters for a `fleet` job (lane-packed lifetime simulation).
    FleetJob {
        words: usize = 1024, "words" "N" int, "addressable words";
        bpw: usize = 32, "bpw" "N" int, "bits per word";
        bpc: usize = 4, "bpc" "N" int, "bits per column, power of two";
        spares: usize = 4, "spares" "N" int, "spare rows";
        lifetimes: usize = 10_000, "lifetimes" "N" at_least::<1>,
            "device lifetimes to simulate";
        seed: u64 = 1, "seed" "N" int, "fleet base seed; each lifetime's seed derives from it";
        lambda: f64 = 1.0e-7, "lambda" "R" non_negative, "per-bit failure rate, failures/hour";
        period: f64 = 10_000.0, "period" "H" positive, "hours between maintenance sessions";
        horizon: f64 = 120_000.0, "horizon" "H" positive, "simulated service life, hours";
        retries: u32 = 2, "retries" "N" int,
            "alarm re-screens before hard-fault classification";
        upset_prob: f64 = 0.0, "upset-prob" "P" probability,
            "per-session soft-upset probability";
        policy: SparePolicy = SparePolicy::Pessimistic, "policy" "NAME"
            |v| one_of(v, &[("pessimistic", SparePolicy::Pessimistic),
                            ("opportunistic", SparePolicy::Opportunistic)]),
            "pessimistic | opportunistic spare accounting";
    }
}

job_table! {
    /// Parameters for a `chip` job: diagnose, allocate spares and
    /// repair a heterogeneous multi-macro chip behind a shared,
    /// possibly faulty BIST transport.
    ChipJob {
        macros: usize = 16, "macros" "N" int, "macro instances on the chip";
        seed: u64 = 1, "seed" "N" int, "chip seed: organizations, faults, transport noise";
        budget: Option<u64> = None, "budget" "N" |v| optional(v, int),
            "chip spare-row area budget in cell units; none is unlimited";
        process: String = "CDA.7u3m1p".to_owned(), "process" "NAME" process,
            "process the spare area is priced in";
        stuck_bit: Option<(u8, bool)> = None, "stuck-bit" "B:V" |v| optional(v, stuck_bit),
            "scan-link bit B (0..64) stuck at V (0|1)";
        drop_prob: f64 = 0.0, "drop-prob" "P" probability, "per-word drop probability";
        dup_prob: f64 = 0.0, "dup-prob" "P" probability, "per-word duplication probability";
        timeout_prob: f64 = 0.0, "timeout-prob" "P" probability,
            "per-attempt session timeout probability";
    }
}

/// A fully-parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// Compile and stream every artifact section.
    Compile(CompileJob),
    /// Compile and reduce to the metric section only.
    Characterize(CompileJob),
    /// Compile with verification forced on; stream the verify report.
    Verify(CompileJob),
    /// Rare-event yield estimate.
    RareYield(RareJob),
    /// Fleet lifetime simulation.
    Fleet(FleetJob),
    /// Chip-level diagnosis, spare allocation and repair.
    Chip(ChipJob),
    /// Server counters and cache statistics.
    Status,
    /// Liveness probe.
    Ping,
    /// Graceful shutdown: drain in-flight work, then exit.
    Shutdown,
}

fn keyed<J>(p: &Param<J>) -> impl Fn(String) -> String + '_ {
    move |e| format!("key {:?}: {e}", p.key)
}

/// A job of kind `J` from a parsed spec.
fn from_spec<J: Table>(spec: &Spec, kind: &str) -> Result<J, String> {
    let mut job = J::default();
    for p in J::PARAMS {
        if let Some(v) = spec.scalar_opt(p.key)? {
            (p.set)(&mut job, v).map_err(keyed(p))?;
        }
    }
    let unknown = spec
        .entries()
        .iter()
        .map(|(k, _)| k.as_str())
        .find(|k| *k != "job" && !J::PARAMS.iter().any(|p| p.key == *k));
    if let Some(key) = unknown {
        return Err(format!("unknown key {key:?} for job {kind:?}"));
    }
    job.check()?;
    Ok(job)
}

/// A job of kind `J` from command-line flags.
fn from_args<J: Table>(args: &[String]) -> Result<J, String> {
    let mut pairs = Pairs::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |arg: &str| match arg {
            "" => Ok(String::new()),
            _ => it
                .next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value")),
        };
        if let Some(alias) = J::ALIASES.iter().find(|a| a.flag == flag) {
            let v = value(alias.arg)?;
            (alias.expand)(&mut pairs, &v)?;
        } else if let Some(p) = flag
            .strip_prefix("--")
            .and_then(|key| J::PARAMS.iter().find(|p| p.key == key))
        {
            pairs.push((p.key, value(p.arg)?));
        } else {
            return Err(format!("unknown option {flag:?}"));
        }
    }
    let mut job = J::default();
    for (key, v) in &pairs {
        if let Some(p) = J::PARAMS.iter().find(|p| p.key == *key) {
            (p.set)(&mut job, v).map_err(keyed(p))?;
        }
    }
    job.check()?;
    Ok(job)
}

fn canonical_of<J: Table>(kind: &str, job: &J) -> String {
    let mut s = String::with_capacity(256);
    s.push_str("job = ");
    s.push_str(kind);
    s.push('\n');
    for p in J::PARAMS {
        s.push_str(p.key);
        s.push_str(" = ");
        (p.show)(job, &mut s);
        s.push('\n');
    }
    s
}

fn help_of<J: Table>() -> String {
    let defaults = J::default();
    let mut text = String::new();
    let shadowed = |key: &str| J::ALIASES.iter().any(|a| a.flag[2..] == *key);
    for p in J::PARAMS.iter().filter(|p| !shadowed(p.key)) {
        let flag = format!("--{} {}", p.key, p.arg);
        let mut default = String::new();
        (p.show)(&defaults, &mut default);
        let _ = writeln!(text, "  {flag:<18} {} (default {default})", p.help);
    }
    for a in J::ALIASES {
        let flag = format!("{} {}", a.flag, a.arg);
        let _ = writeln!(text, "  {:<18} {}", flag.trim_end(), a.help);
    }
    text
}

/// The `--help` OPTIONS lines for the job parameters of a `bisramgen`
/// job command (`compile`, `rare-yield`, `fleet` or `chip`), one line
/// per flag; `None` for any other kind.
pub fn options_help(kind: &str) -> Option<String> {
    match kind {
        "compile" => Some(help_of::<CompileJob>()),
        "rare-yield" => Some(help_of::<RareJob>()),
        "fleet" => Some(help_of::<FleetJob>()),
        "chip" => Some(help_of::<ChipJob>()),
        _ => None,
    }
}

impl JobSpec {
    /// Parses a request spec text.
    ///
    /// # Errors
    ///
    /// A human-readable message for syntax errors, unknown keys,
    /// unknown job kinds and out-of-range values.
    pub fn parse(text: &str) -> Result<JobSpec, String> {
        let spec = Spec::parse(text).map_err(|e| e.to_string())?;
        let kind = spec.scalar("job")?;
        let job = match kind {
            "compile" => JobSpec::Compile(from_spec(&spec, kind)?),
            "characterize" => JobSpec::Characterize(from_spec(&spec, kind)?),
            "verify" => {
                let mut c: CompileJob = from_spec(&spec, kind)?;
                // A verify job that doesn't say which mode defaults to
                // flat; `verify = none` makes no sense here.
                if c.verify == VerifyChoice::None {
                    c.verify = VerifyChoice::Flat;
                }
                JobSpec::Verify(c)
            }
            "rare-yield" => JobSpec::RareYield(from_spec(&spec, kind)?),
            "fleet" => JobSpec::Fleet(from_spec(&spec, kind)?),
            "chip" => JobSpec::Chip(from_spec(&spec, kind)?),
            "status" | "ping" | "shutdown" => {
                if let Some(key) = spec.unknown_key(&["job"]) {
                    return Err(format!("unknown key {key:?} for job {kind:?}"));
                }
                match kind {
                    "status" => JobSpec::Status,
                    "ping" => JobSpec::Ping,
                    _ => JobSpec::Shutdown,
                }
            }
            other => {
                return Err(format!(
                    "unknown job {other:?}; expected compile|characterize|verify|\
                     rare-yield|fleet|chip|status|ping|shutdown"
                ))
            }
        };
        Ok(job)
    }

    /// Builds a job of `kind` (`compile`, `rare-yield`, `fleet` or
    /// `chip`) from command-line flags: `--key value` is the spec line
    /// `key = value`, and the kind's aliases cover the older
    /// spellings. A repeated flag keeps its last value.
    ///
    /// # Errors
    ///
    /// A message naming the unknown flag, the flag missing its value,
    /// or the key whose value is invalid.
    pub fn from_args(kind: &str, args: &[String]) -> Result<JobSpec, String> {
        match kind {
            "compile" => from_args(args).map(JobSpec::Compile),
            "rare-yield" => from_args(args).map(JobSpec::RareYield),
            "fleet" => from_args(args).map(JobSpec::Fleet),
            "chip" => from_args(args).map(JobSpec::Chip),
            other => Err(format!("no command line for job {other:?}")),
        }
    }

    /// The job kind, as spelled in the spec.
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Compile(_) => "compile",
            JobSpec::Characterize(_) => "characterize",
            JobSpec::Verify(_) => "verify",
            JobSpec::RareYield(_) => "rare-yield",
            JobSpec::Fleet(_) => "fleet",
            JobSpec::Chip(_) => "chip",
            JobSpec::Status => "status",
            JobSpec::Ping => "ping",
            JobSpec::Shutdown => "shutdown",
        }
    }

    /// The canonical text form: every field spelled out, in table
    /// order. Equal canonical texts mean equal work — the single-flight
    /// map keys on this string.
    pub fn canonical(&self) -> String {
        let kind = self.kind();
        match self {
            JobSpec::Compile(c) | JobSpec::Characterize(c) | JobSpec::Verify(c) => {
                canonical_of(kind, c)
            }
            JobSpec::RareYield(r) => canonical_of(kind, r),
            JobSpec::Fleet(f) => canonical_of(kind, f),
            JobSpec::Chip(c) => canonical_of(kind, c),
            JobSpec::Status | JobSpec::Ping | JobSpec::Shutdown => format!("job = {kind}\n"),
        }
    }
}

impl CompileJob {
    /// The canonical text of this job as a `compile` job — the
    /// `params.txt` section every compile-family job streams.
    pub(crate) fn canonical(&self) -> String {
        canonical_of("compile", self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_fill_omitted_keys() {
        let job = JobSpec::parse("job = compile\nwords = 256\n").unwrap();
        let JobSpec::Compile(c) = job else {
            panic!("kind")
        };
        assert_eq!(c.words, 256);
        assert_eq!(c.bpw, 32);
        assert_eq!(c.process, "CDA.7u3m1p");
        assert_eq!(c.verify, VerifyChoice::None);
    }

    #[test]
    fn canonical_is_spelling_invariant() {
        let a = JobSpec::parse("job = compile\nwords = 256\n").unwrap();
        let b =
            JobSpec::parse("# comment\nbpw = 32\nwords = 256\njob = \"compile\"\nverify = none\n")
                .unwrap();
        assert_eq!(a.canonical(), b.canonical());
        // And the canonical text round-trips through the parser.
        assert_eq!(JobSpec::parse(&a.canonical()).unwrap(), a);
    }

    #[test]
    fn canonical_round_trips_every_kind() {
        for text in [
            "job = compile\ncif = 1\nverify = hier\n",
            "job = characterize\ndefects = 0.25\n",
            "job = verify\n",
            "job = rare-yield\nkernel = read-snm\ntrials = 16\npilot = 8\n",
            "job = rare-yield\nthreshold = 0.75\nmc-trials = 100\nmax-spares = 8\n",
            "job = fleet\nlifetimes = 10\npolicy = opportunistic\n",
            "job = chip\nmacros = 4\nseed = 7\ntimeout-prob = 0.15\n",
            "job = chip\nbudget = 2048\nstuck-bit = 3:1\nprocess = CDA.5u3m1p\n",
            "job = status\n",
            "job = ping\n",
            "job = shutdown\n",
        ] {
            let job = JobSpec::parse(text).unwrap();
            assert_eq!(JobSpec::parse(&job.canonical()).unwrap(), job, "{text}");
        }
    }

    #[test]
    fn compile_canonical_text_is_pinned() {
        // The memo key and the `params.txt` section; keep it byte-stable.
        let job = JobSpec::parse("job = characterize\nwords = 256\ncif = true\n").unwrap();
        assert_eq!(
            job.canonical(),
            "job = characterize\nwords = 256\nbpw = 32\nbpc = 4\nspares = 4\n\
             process = CDA.7u3m1p\ngate-size = 2\nstrap-every = 32\nstrap-lambda = 12\n\
             verify = none\ncif = 1\ndefects = 0.5\nlambda = 0.0000001\n"
        );
    }

    #[test]
    fn verify_job_defaults_to_flat_mode() {
        let JobSpec::Verify(c) = JobSpec::parse("job = verify\n").unwrap() else {
            panic!("kind")
        };
        assert_eq!(c.verify, VerifyChoice::Flat);
    }

    #[test]
    fn strict_errors_name_the_problem() {
        let unknown_key = JobSpec::parse("job = ping\nwords = 1\n").unwrap_err();
        assert!(unknown_key.contains("\"words\""), "{unknown_key}");
        let unknown_job = JobSpec::parse("job = dance\n").unwrap_err();
        assert!(unknown_job.contains("\"dance\""), "{unknown_job}");
        let bad_process = JobSpec::parse("job = compile\nprocess = x\n").unwrap_err();
        assert!(bad_process.contains("unknown process"), "{bad_process}");
        let bad_kernel = JobSpec::parse("job = rare-yield\nkernel = x\n").unwrap_err();
        assert!(bad_kernel.contains("kernel"), "{bad_kernel}");
        let bad_policy = JobSpec::parse("job = fleet\npolicy = x\n").unwrap_err();
        assert!(bad_policy.contains("policy"), "{bad_policy}");
        let axis = JobSpec::parse("job = compile\nwords = 1, 2\n").unwrap_err();
        assert!(axis.contains("one value"), "{axis}");
    }

    #[test]
    fn narrowing_is_checked_and_names_the_key() {
        for (text, key) in [
            ("job = fleet\nretries = 4294967296\n", "retries"),
            (
                "job = compile\ngate-size = 9223372036854775809\n",
                "gate-size",
            ),
            (
                "job = compile\nstrap-lambda = 9223372036854775808\n",
                "strap-lambda",
            ),
            ("job = chip\nstuck-bit = 256:1\n", "stuck-bit"),
        ] {
            let err = JobSpec::parse(text).unwrap_err();
            assert!(err.contains(&format!("{key:?}")), "{text}: {err}");
            assert!(err.contains("out of range"), "{text}: {err}");
        }
        let JobSpec::Fleet(f) = JobSpec::parse("job = fleet\nretries = 4294967295\n").unwrap()
        else {
            panic!("kind")
        };
        assert_eq!(f.retries, u32::MAX);
    }

    #[test]
    fn negative_integers_reach_the_range_and_parameter_checks() {
        // Unsigned rows report the range and name the key.
        let err = JobSpec::parse("job = compile\nwords = -3\n").unwrap_err();
        assert!(err.contains("\"words\": -3 is out of range"), "{err}");
        // Signed rows take the value; the compiler's parameter check
        // judges it.
        let JobSpec::Compile(c) =
            JobSpec::parse("job = compile\ngate-size = -1\nstrap-lambda = -3\n").unwrap()
        else {
            panic!("kind")
        };
        assert_eq!((c.gate_size, c.strap_lambda), (-1, -3));
    }

    #[test]
    fn command_lines_are_spec_lines() {
        let args = |a: &[&str]| a.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        let cli = JobSpec::from_args(
            "fleet",
            &args(&[
                "--lifetimes",
                "5",
                "--policy",
                "opportunistic",
                "--lifetimes",
                "6",
            ]),
        )
        .unwrap();
        let spec = JobSpec::parse("job = fleet\nlifetimes = 6\npolicy = opportunistic\n").unwrap();
        assert_eq!(cli, spec);

        // The compile aliases, in either order of --verify/--verify-mode.
        let spec = JobSpec::parse(
            "job = compile\nstrap-every = 16\nstrap-lambda = 8\ncif = 1\nverify = hier\n",
        )
        .unwrap();
        for a in [
            &[
                "--strap",
                "16:8",
                "--cif",
                "--verify",
                "--verify-mode",
                "hier",
            ][..],
            &[
                "--verify-mode",
                "hier",
                "--cif",
                "--strap",
                "16:8",
                "--verify",
            ][..],
        ] {
            assert_eq!(JobSpec::from_args("compile", &args(a)).unwrap(), spec);
        }
        // --verify-mode alone is checked but does not turn verification on.
        let JobSpec::Compile(c) =
            JobSpec::from_args("compile", &args(&["--verify-mode", "hier"])).unwrap()
        else {
            panic!("kind")
        };
        assert_eq!(c.verify, VerifyChoice::None);
        assert!(JobSpec::from_args("compile", &args(&["--verify-mode", "x"])).is_err());
        // A key an alias shadows is not a flag of its own.
        assert!(JobSpec::from_args("compile", &args(&["--cif", "1"])).is_err());
        assert!(JobSpec::from_args("fleet", &args(&["--engine", "lanes"])).is_err());
    }

    #[test]
    fn help_lists_one_flag_per_line() {
        for kind in ["compile", "rare-yield", "fleet", "chip"] {
            let help = options_help(kind).unwrap();
            for line in help.lines() {
                assert!(line.trim_start().starts_with("--"), "{kind}: {line}");
            }
        }
        let compile = options_help("compile").unwrap();
        assert!(compile.contains("--verify-mode M"), "{compile}");
        assert!(!compile.contains("--verify MODE"), "{compile}");
        assert!(!compile.contains("--cif 0|1"), "{compile}");
        let rare = options_help("rare-yield").unwrap();
        assert!(rare.contains("--target-p P"), "{rare}");
        assert!(rare.contains("(default 2000)"), "{rare}");
    }
}
