//! The `bisramgen` command-line tool: compile a BISR RAM and write its
//! outputs, the way the original tool was invoked from the CAD flow:
//!
//! ```sh
//! bisramgen --words 4096 --bpw 32 --bpc 8 --spares 4 --strap 32:12 --out build/myram
//! ```
//!
//! The default command and `rare-yield`, `fleet` and `chip-diagnose`
//! are job commands: each parses its flags into a [`JobSpec`]
//! (`--key value` is the spec line `key = value`), runs it once through
//! [`Service::run`], the runner the daemon executes too, and writes or
//! prints the job's sections. `serve`, `request` and `sweep` run the
//! compile daemon, send it job spec files, and expand a parameter
//! sweep into a Pareto report. Exit codes are uniform across
//! subcommands: 0 success, 1 execution failure, 2 usage or spec error.

use bisram_serve::job::options_help;
use bisram_serve::{
    run_sweep, Client, ClientError, Daemon, DaemonConfig, JobSpec, Listen, Section, Service,
    SweepBackend, SweepSpec,
};
use bisramgen::CellCache;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// A classified CLI error: the exit code (see EXIT CODES) and the
/// message.
struct CliError(u8, String);

impl CliError {
    /// Exit 2: the invocation or an input spec is wrong; rerunning the
    /// same command cannot succeed.
    fn usage(message: impl Into<String>) -> CliError {
        CliError(2, message.into())
    }

    /// Exit 1: the tool ran and the work failed (compile error, dirty
    /// verification, crossval FAIL, I/O, daemon errors).
    fn failure(message: impl Into<String>) -> CliError {
        CliError(1, message.into())
    }
}

// Bare `String` errors come from argument/spec validation, so `?`
// classifies them as usage errors; execution-time sites wrap
// explicitly with `CliError::failure`.
impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError::usage(message)
    }
}

const EXIT_CODES: &str = "
EXIT CODES:
  0  success
  1  execution failure (compile error, verification violations,
     crossval FAIL, I/O or daemon errors)
  2  usage or spec error (unknown flags, invalid parameters)
";

fn parse_num(s: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .map_err(|_| format!("expected a number, got {s:?}"))
}

/// A job command: the subcommand, its job kind and its `--help` prose;
/// the OPTIONS lines come from the kind's parameter table.
struct JobCommand {
    /// The subcommand; empty for the default compile command.
    name: &'static str,
    /// The job kind its flags build.
    kind: &'static str,
    /// The one-line title.
    about: &'static str,
    /// Text after the OPTIONS block.
    tail: &'static str,
}

impl JobCommand {
    /// The compile command writes its sections to `--out`; the others
    /// print them to stdout.
    fn writes_files(&self) -> bool {
        self.name.is_empty()
    }

    fn usage(&self) -> String {
        let command = format!("bisramgen {}", self.name);
        let command = command.trim_end();
        let settings = if self.writes_files() {
            "  --out DIR          output directory (default bisramgen_out)\n  \
             --timings          print the per-stage pipeline trace (wall time, cache hits)\n"
        } else {
            ""
        };
        format!(
            "{command} - {}\n\nUSAGE:\n  {command} [OPTIONS]\n\nOPTIONS:\n{}{settings}  \
             --jobs N           worker threads (default: BISRAM_JOBS, then all cores)\n  \
             --help             show this text\n\n\
             Every other option is a `job = {}` spec key: `--key value` is the spec\n\
             line `key = value`.\n\n{}",
            self.about,
            options_help(self.kind).unwrap_or_default(),
            self.kind,
            self.tail
        )
    }
}

const COMMANDS: &[JobCommand] = &[
    JobCommand {
        name: "",
        kind: "compile",
        about: "compile a built-in self-repairable static RAM",
        tail: "\
Writes one file per section to --out: params.txt, datasheet.txt, areas.txt,
floorplan.svg, trpla_and.plane, trpla_or.plane, sense_path.sp, layout.cif
(with --cif; a one-line note for modules too large to flatten), verify.txt
(with --verify) and metrics.txt. Hierarchical verification checks each
distinct cell once behind a cached certificate: the same report, much
faster on large arrays.

SUBCOMMANDS:
  chip-diagnose    diagnose and repair a heterogeneous multi-macro chip over a
                   shared BIST transport
  fleet            simulate a fleet of device lifetimes on the lane-packed engine
  rare-yield       estimate a bitcell tail failure probability by importance
                   sampling and feed it into the spare-count economics
  serve            run the long-lived compile service on a Unix or TCP socket
  request          send job spec files to a running daemon and stream the
                   artifact sections back
  sweep            expand a declarative sweep spec, run every point through
                   the service layer and print the Pareto report
Each takes --help.
",
    },
    JobCommand {
        name: "chip-diagnose",
        kind: "chip",
        about: "chip-level diagnosis, spare allocation and repair",
        tail: "\
Prints the per-macro repair report and the chip datasheet section.
Degraded macros (detect-only / quarantined / failed) are an explicitly
reported outcome, not a tool failure.
",
    },
    JobCommand {
        name: "fleet",
        kind: "fleet",
        about: "simulate a fleet of in-field device lifetimes",
        tail: "\
Runs the lane-packed engine, 64 lifetimes per machine word, and prints one
`fleet <key>: <value>` line per aggregate tally, then the survival curve on
the session grid; the wall time goes to stderr.
",
    },
    JobCommand {
        name: "rare-yield",
        kind: "rare-yield",
        about: "rare-event bitcell failure estimation and spare economics",
        tail: "\
Prints one `rare <key>: <value>` line per result. The threshold comes from
a Gaussian pilot fit; the margin tail is left-skewed, so the measured p
lands above the target. The measured per-cell failure probability feeds
the spare-count cost optimizer, and a defect-pattern Monte Carlo re-checks
the chosen organization. Exits 1 on a crossval FAIL. Every line is
byte-identical at any --jobs.
",
    },
];

/// Parses a job command's flags into a job, runs it once and writes or
/// prints its sections. A failed verdict exits 1 after every section is
/// out.
fn job_command(command: &JobCommand, args: Vec<String>) -> Result<(), CliError> {
    let mut out = PathBuf::from("bisramgen_out");
    let mut jobs = None;
    let mut timings = false;
    let mut job_args = Vec::new();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--help" | "-h" => {
                print_stdout(&format!("{}{EXIT_CODES}", command.usage()))?;
                std::process::exit(0);
            }
            "--jobs" => jobs = Some(parse_num(&value()?)?),
            "--out" if command.writes_files() => out = PathBuf::from(value()?),
            "--timings" if command.writes_files() => timings = true,
            _ => job_args.push(flag),
        }
    }
    let job = JobSpec::from_args(command.kind, &job_args).map_err(|e| {
        let name = format!("{} --help", command.name);
        CliError::usage(format!("{e} (try {})", name.trim_start()))
    })?;
    eprintln!("{} ...", job.canonical().trim_end().replace('\n', ", "));

    let service = Service::with_cache(Arc::clone(CellCache::global()), jobs);
    let start = Instant::now();
    let ran = service.run(&job).map_err(|f| match f.code {
        400 => CliError::usage(f.message),
        _ => CliError::failure(f.message),
    })?;
    let seconds = start.elapsed().as_secs_f64();
    let dir = command.writes_files().then_some(out.as_path());
    emit(&ran.sections, dir, "")?;

    if let (true, Some(trace)) = (timings, &ran.trace) {
        eprintln!("{trace}");
    }
    if ran.sections.iter().any(|s| s.name == "verify.txt") {
        match ran.verdict {
            Ok(()) => eprintln!("  verify: clean"),
            Err(_) => eprintln!("  verify: DIRTY, see verify.txt"),
        }
    }
    if let JobSpec::Fleet(f) = &job {
        eprintln!("fleet wall_seconds: {seconds:.3}");
        let rate = f.lifetimes as f64 / seconds.max(f64::MIN_POSITIVE);
        eprintln!("fleet lifetimes_per_second: {rate:.1}");
    }
    if let JobSpec::Chip(_) = &job {
        eprintln!("chip-diagnose done: every macro in an explicit state");
    }
    eprintln!("{} job done in {seconds:.2}s", job.kind());
    ran.verdict.map_err(CliError::failure)
}

const SERVE_USAGE: &str = "\
bisramgen serve - long-lived compile service over a socket

USAGE:
  bisramgen serve (--socket PATH | --tcp ADDR) [OPTIONS]

OPTIONS:
  --socket PATH    listen on a Unix domain socket at PATH (a stale one is replaced)
  --tcp ADDR       listen on a TCP address; 127.0.0.1:0 picks an ephemeral port
  --jobs N         worker threads per job (default: BISRAM_JOBS, then all cores)
  --help           show this text

A request frame carries a job spec text (job = compile | characterize |
verify | rare-yield | fleet | chip | status | ping | shutdown); a job
command's `--key value` is its spec line `key = value`. Identical in-flight
requests run once. Prints `serve listening: <addr>`, then serves until a
`job = shutdown` request, and drains in-flight work before exiting.
";

const REQUEST_USAGE: &str = "\
bisramgen request - send job specs to a running daemon

USAGE:
  bisramgen request (--socket PATH | --tcp ADDR) [OPTIONS] [SPEC...]

OPTIONS:
  --socket PATH    connect to the daemon's Unix domain socket
  --tcp ADDR       connect to the daemon's TCP address
  --out DIR        write each returned section to DIR/r<i>_<name>
  --ping           prepend a liveness probe
  --status         append a status request (server counters, cache stats)
  --shutdown       append a shutdown request (daemon drains and exits)
  --help           show this text

Each SPEC file is one request; all requests in the invocation are batched
back-to-back over a single connection and answered in order. Without
--out, every returned section's content prints to stdout verbatim (one
request's sections after another); progress goes to stderr.
";

const SWEEP_USAGE: &str = "\
bisramgen sweep - declarative parameter sweep with a Pareto report

USAGE:
  bisramgen sweep --spec FILE [OPTIONS]

OPTIONS:
  --spec FILE      sweep spec of `key = v1, v2, ...` lines (see below)
  --socket PATH    execute points against the daemon on this Unix socket
  --tcp ADDR       execute points against the daemon on this TCP address
  --jobs N         concurrent sweep points (default: BISRAM_JOBS, then all cores)
  --out FILE       also write the report to FILE
  --help           show this text

Axis keys (words, bpw, bpc, spares, process, gate-size, verify) may list
several values, scalar keys (defects, lambda, strap-every, strap-lambda)
one. Every point of the cartesian matrix runs once as a `characterize` job,
in-process unless --socket or --tcp names a daemon; the report lists the
metrics and the Pareto frontier over area, yield, MTTF and repair cost, and
is byte-identical at any --jobs and on either backend.
";

/// Writes `text` to stdout. A reader that closed stdout early
/// (`bisramgen --help | head`) is not an error: the rest of the output
/// is dropped and the command ends with the exit code it would have had.
fn print_stdout(text: &str) -> Result<(), CliError> {
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(CliError::failure(format!("writing to stdout: {e}")))
        }
        _ => Ok(()),
    }
}

/// Writes each section to `dir/<prefix><name>` when `dir` is given
/// (creating it), else prints the contents to stdout in order.
fn emit(sections: &[Section], dir: Option<&Path>, prefix: &str) -> Result<(), CliError> {
    let Some(dir) = dir else {
        return sections.iter().try_for_each(|s| print_stdout(&s.content));
    };
    std::fs::create_dir_all(dir)
        .map_err(|e| CliError::failure(format!("creating {dir:?}: {e}")))?;
    for section in sections {
        let path = dir.join(format!("{prefix}{}", section.name));
        std::fs::write(&path, &section.content)
            .map_err(|e| CliError::failure(format!("writing {path:?}: {e}")))?;
        eprintln!("  wrote {}", path.display());
    }
    Ok(())
}

/// A service command's flags: `--flag value` settings, bare switches
/// and positional arguments.
struct Flags {
    values: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Flags {
    /// Parses `args` for `bisramgen <command>`: flags in `valued` take a
    /// value, flags in `switches` do not, and `--help` prints `usage`
    /// and exits 0. Positional arguments are accepted only when
    /// `positional` is set.
    fn parse(
        args: Vec<String>,
        command: &str,
        usage: &str,
        valued: &[&str],
        switches: &[&str],
        positional: bool,
    ) -> Result<Flags, CliError> {
        let mut flags = Flags {
            values: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            if flag == "--help" || flag == "-h" {
                print_stdout(&format!("{usage}{EXIT_CODES}"))?;
                std::process::exit(0);
            } else if valued.contains(&flag.as_str()) {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                flags.values.push((flag, value));
            } else if switches.contains(&flag.as_str()) {
                flags.switches.push(flag);
            } else if positional && !flag.starts_with('-') {
                flags.positional.push(flag);
            } else {
                return Err(CliError::usage(format!(
                    "unknown option {flag:?} (try {command} --help)"
                )));
            }
        }
        Ok(flags)
    }

    /// The last value given for `flag`.
    fn get(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn jobs(&self) -> Result<Option<usize>, String> {
        self.get("--jobs").map(parse_num).transpose()
    }

    /// The `--socket PATH | --tcp ADDR` pair, at most one of them.
    fn listen(&self, command: &str) -> Result<Option<Listen>, CliError> {
        match (self.get("--socket"), self.get("--tcp")) {
            (Some(_), Some(_)) => Err(CliError::usage(format!(
                "--socket and --tcp are mutually exclusive (try {command} --help)"
            ))),
            (Some(path), None) => Ok(Some(Listen::Unix(PathBuf::from(path)))),
            (None, Some(addr)) => Ok(Some(Listen::Tcp(addr.to_owned()))),
            (None, None) => Ok(None),
        }
    }

    /// Like [`Flags::listen`], but one of the pair is required.
    fn require_listen(&self, command: &str) -> Result<Listen, CliError> {
        self.listen(command)?.ok_or_else(|| {
            CliError::usage(format!(
                "need --socket PATH or --tcp ADDR (try {command} --help)"
            ))
        })
    }
}

fn serve(args: Vec<String>) -> Result<(), CliError> {
    let valued = ["--socket", "--tcp", "--jobs"];
    let flags = Flags::parse(args, "serve", SERVE_USAGE, &valued, &[], false)?;
    let jobs = flags.jobs()?;
    let listen = flags.require_listen("serve")?;
    let daemon = Daemon::start(&DaemonConfig { listen, jobs })
        .map_err(|e| CliError::failure(format!("binding listener: {e}")))?;
    // A parent process polls stdout for this line; it is flushed
    // before we block.
    print_stdout(&format!("serve listening: {}\n", daemon.listen()))?;
    eprintln!("serve: ready (send a `job = shutdown` request to stop)");
    daemon.join();
    print_stdout("serve done: drained\n")?;
    Ok(())
}

fn request(args: Vec<String>) -> Result<(), CliError> {
    let flags = Flags::parse(
        args,
        "request",
        REQUEST_USAGE,
        &["--socket", "--tcp", "--out"],
        &["--ping", "--status", "--shutdown"],
        true,
    )?;
    let listen = flags.require_listen("request")?;
    let out = flags.get("--out").map(PathBuf::from);
    let [ping, status, shutdown] = ["--ping", "--status", "--shutdown"].map(|s| flags.has(s));
    let specs = &flags.positional;
    if specs.is_empty() && !ping && !status && !shutdown {
        return Err(CliError::usage(
            "nothing to send: give SPEC files and/or --ping/--status/--shutdown".to_owned(),
        ));
    }

    // Build the batched request texts: probe first, then the spec
    // files in order, then status/shutdown.
    let probe = |on: bool, job: &str| on.then(|| (format!("--{job}"), format!("job = {job}\n")));
    let mut texts: Vec<(String, String)> = probe(ping, "ping").into_iter().collect();
    for path in specs {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::usage(format!("reading {path:?}: {e}")))?;
        texts.push((path.clone(), text));
    }
    texts.extend(probe(status, "status"));
    texts.extend(probe(shutdown, "shutdown"));

    let mut client = Client::connect(&listen)
        .map_err(|e| CliError::failure(format!("connecting to {listen}: {e}")))?;
    for (i, (label, text)) in texts.iter().enumerate() {
        let (result, dedup) = client.request_text(text).map_err(|e| match e {
            // The server judged the request malformed: that is a spec
            // problem on our side, exit 2 like any other usage error.
            ClientError::Server(ref f) if f.code == 400 => {
                CliError::usage(format!("request {i} ({label}): {e}"))
            }
            other => CliError::failure(format!("request {i} ({label}): {other}")),
        })?;
        eprintln!(
            "request {i} ({label}): {} sections (dedup={})",
            result.sections.len(),
            u8::from(dedup)
        );
        emit(&result.sections, out.as_deref(), &format!("r{i}_"))?;
    }
    Ok(())
}

fn sweep(args: Vec<String>) -> Result<(), CliError> {
    let valued = ["--spec", "--socket", "--tcp", "--jobs", "--out"];
    let flags = Flags::parse(args, "sweep", SWEEP_USAGE, &valued, &[], false)?;
    let spec_path = flags
        .get("--spec")
        .ok_or_else(|| CliError::usage("sweep needs --spec FILE (try sweep --help)"))?;
    let listen = flags.listen("sweep")?;
    let jobs = flags.jobs()?;
    let out = flags.get("--out");

    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| CliError::usage(format!("reading {spec_path:?}: {e}")))?;
    let sweep_spec =
        SweepSpec::parse(&text).map_err(|e| CliError::usage(format!("{spec_path}: {e}")))?;
    // Validate every point up front so spec problems exit 2, leaving
    // exit 1 for genuine execution failures.
    let points = sweep_spec.expand().map_err(CliError::usage)?;

    let start = Instant::now();
    let service;
    let backend = match &listen {
        Some(listen) => SweepBackend::Daemon(listen.clone()),
        None => {
            service = Service::with_cache(Arc::clone(CellCache::global()), None);
            SweepBackend::InProcess(&service)
        }
    };
    eprintln!(
        "sweep: {} points via {} ...",
        points.len(),
        listen
            .as_ref()
            .map_or_else(|| "in-process service".to_owned(), Listen::to_string)
    );
    let report = run_sweep(&sweep_spec, &backend, jobs).map_err(CliError::failure)?;
    eprintln!(
        "sweep done: {} points, {} on the frontier, {:.2}s",
        report.points.len(),
        report.points.iter().filter(|p| p.pareto).count(),
        start.elapsed().as_secs_f64()
    );
    print_stdout(&report.text)?;
    if let Some(path) = &out {
        std::fs::write(path, &report.text)
            .map_err(|e| CliError::failure(format!("writing {path:?}: {e}")))?;
        eprintln!("  wrote {path}");
    }
    Ok(())
}

fn run() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (first, rest) = match args.split_first() {
        Some((first, rest)) => (first.as_str(), rest.to_vec()),
        None => ("", Vec::new()),
    };
    match first {
        "serve" => serve(rest),
        "request" => request(rest),
        "sweep" => sweep(rest),
        _ => match COMMANDS[1..].iter().find(|c| c.name == first) {
            Some(command) => job_command(command, rest),
            None => job_command(&COMMANDS[0], args.clone()),
        },
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError(code, message)) => {
            eprintln!("bisramgen: {message}");
            ExitCode::from(code)
        }
    }
}
