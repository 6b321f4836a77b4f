//! End-to-end CLI behaviour of the relocated `bisramgen` binary:
//! uniform exit codes, documented help, and a full daemon lifecycle
//! driven through the real executable.

use bisram_serve::{Client, Listen};
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

fn bisramgen() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bisramgen"))
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = bisramgen().arg("--no-such-flag").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
}

#[test]
fn sweep_without_spec_is_a_usage_error() {
    let out = bisramgen().arg("sweep").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--spec"),
        "error names the missing flag: {err}"
    );
}

#[test]
fn request_against_dead_socket_is_an_execution_failure() {
    // Port 1 on localhost is essentially never listening.
    let out = bisramgen()
        .args(["request", "--tcp", "127.0.0.1:1", "--ping"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1), "I/O failures exit 1");
}

#[test]
fn invalid_fleet_policy_is_a_usage_error() {
    let out = bisramgen()
        .args(["fleet", "--policy", "wishful"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn help_exits_zero_and_documents_exit_codes() {
    for args in [
        vec!["--help"],
        vec!["serve", "--help"],
        vec!["chip-diagnose", "--help"],
        vec!["request", "--help"],
        vec!["sweep", "--help"],
        vec!["rare-yield", "--help"],
        vec!["fleet", "--help"],
    ] {
        let out = bisramgen().args(&args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(0), "{args:?} help exits 0");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.contains("EXIT CODES"),
            "{args:?} help documents exit codes"
        );
        let options: Vec<&str> = text
            .lines()
            .skip_while(|l| *l != "OPTIONS:")
            .skip(1)
            .take_while(|l| !l.is_empty())
            .collect();
        assert!(!options.is_empty(), "{args:?} help has an OPTIONS block");
        for line in options {
            assert!(
                line.trim_start().starts_with("--"),
                "{args:?} OPTIONS line is not a flag: {line:?}"
            );
        }
    }
}

#[test]
fn closed_stdout_ends_quietly_with_the_commands_exit_code() {
    let smoke = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/specs/smoke.sweep"
    )
    .to_owned();
    for (args, code) in [
        (vec!["--help"], 0),
        (vec!["sweep", "--help"], 0),
        (
            vec![
                "fleet",
                "--lifetimes",
                "20",
                "--words",
                "64",
                "--bpw",
                "4",
                "--bpc",
                "2",
            ],
            0,
        ),
        (vec!["sweep", "--spec", &smoke], 0),
        (vec!["fleet", "--policy", "wishful"], 2),
    ] {
        // A pipe whose reader is already gone: every write to it fails
        // with a broken pipe, as under `bisramgen ... | head`.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = bisramgen()
            .args(&args)
            .stdout(writer)
            .output()
            .expect("spawn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn out_of_range_integers_are_usage_errors_naming_the_key() {
    for (args, key) in [
        (
            &["fleet", "--lifetimes", "1", "--retries", "4294967296"][..],
            "retries",
        ),
        (&["--gate-size", "9223372036854775809"][..], "gate-size"),
    ] {
        let out = bisramgen().args(args).output().expect("spawn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(key), "{args:?}: error names the key: {err}");
    }
}

#[test]
fn negative_signed_integers_report_their_range() {
    for (args, rule) in [
        (
            ["--gate-size", "-1"],
            "key \"gate-size\": critical-gate size factor -1 is below minimum size 1",
        ),
        (
            ["--strap-lambda", "-3"],
            "key \"strap-lambda\": strap space -3 lambda is below the 12 lambda",
        ),
    ] {
        let out = bisramgen().args(args).output().expect("spawn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(rule), "{args:?}: {err}");
        assert!(!err.contains("expected a number"), "{args:?}: {err}");
    }
}

#[test]
fn failure_rate_past_f64_range_reports_zero_mttf() {
    // λ·bpc·bpw overflows to ∞ here; the tool used to panic (exit 101).
    for (case, args) in [
        ("default", &["--lambda", "1e307"][..]),
        (
            "small",
            &["--words", "64", "--bpw", "4", "--lambda", "1e308"][..],
        ),
    ] {
        let dir = std::env::temp_dir().join(format!("bisram-lambda-{case}-{}", std::process::id()));
        let out = bisramgen()
            .args(args)
            .arg("--out")
            .arg(&dir)
            .output()
            .expect("spawn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {err}");
        let metrics = std::fs::read_to_string(dir.join("metrics.txt")).expect("metrics.txt");
        assert!(
            metrics.contains("metric mttf_hours: 0.000\n"),
            "{args:?}: {metrics}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn one_row_organization_compiles_and_sweeps() {
    // words == bpc: a single row and no row-address bit.
    let dir = std::env::temp_dir().join(format!("bisram-one-row-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = bisramgen()
        .args(["--words", "4", "--bpw", "4", "--bpc", "4", "--out"])
        .arg(dir.join("compile"))
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let spec = dir.join("one_row.sweep");
    std::fs::write(&spec, "words = 4, 8\nbpw = 4\nbpc = 4\nverify = none\n").expect("write spec");
    let out = bisramgen()
        .arg("sweep")
        .arg("--spec")
        .arg(&spec)
        .arg("--out")
        .arg(dir.join("sweep.txt"))
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = std::fs::read_to_string(dir.join("sweep.txt")).expect("sweep report");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(report.contains("sweep frontier: "), "{report}");
}

#[test]
fn daemon_lifecycle_through_the_real_binary() {
    let mut child = bisramgen()
        .args(["serve", "--tcp", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("daemon prints a banner")
        .expect("banner reads");
    let addr = banner
        .strip_prefix("serve listening: tcp:")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_owned();

    let listen = Listen::Tcp(addr);
    let mut client = Client::connect(&listen).expect("connect to daemon");
    client.ping().expect("ping");
    let (result, dedup) = client
        .request_text("job = characterize\nwords = 128\nbpw = 8\nbpc = 4\nspares = 2\n")
        .expect("characterize");
    assert!(!dedup, "first request is never a dedup hit");
    assert!(result.section("metrics.txt").is_some());
    let status = client.status().expect("status");
    assert!(status.contains("cache entries: "), "{status}");
    client.shutdown().expect("shutdown");

    let code = child.wait().expect("daemon exits").code();
    assert_eq!(code, Some(0), "clean shutdown exits 0");
}

// ---------------------------------------------------------------------
// Output digests. Each case below runs the real binary (or, for the
// checked-in job specs, the in-process service) and reduces what it
// produced to rows `case <TAB> file <TAB> value`: the exit code, an
// FNV-1a digest of stdout with wall-clock lines removed, and a digest
// of every file the run wrote. `tests/golden/cli.tsv` holds the
// expected rows; a mismatch prints the replacement rows.
// ---------------------------------------------------------------------

const GOLDEN: &str = include_str!("golden/cli.tsv");

/// Stdout lines that carry wall-clock time and never repeat.
const TIMING_LINES: &[&str] = &["fleet wall_seconds:", "fleet lifetimes_per_second:"];

fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", bisram_wire::fnv1a64_bytes(bytes))
}

/// The mismatch report for `case`, or `None` when its rows match.
fn golden_diff(case: &str, mut rows: Vec<(String, String)>) -> Option<String> {
    rows.sort();
    let expected: Vec<(String, String)> = GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .filter_map(|l| {
            let mut f = l.split('\t');
            (f.next() == Some(case)).then(|| {
                (
                    f.next().unwrap_or("").to_owned(),
                    f.next().unwrap_or("").to_owned(),
                )
            })
        })
        .collect();
    if rows == expected {
        return None;
    }
    let replacement: String = rows
        .iter()
        .map(|(file, value)| format!("{case}\t{file}\t{value}\n"))
        .collect();
    let changed: Vec<&str> = rows
        .iter()
        .filter(|r| !expected.contains(r))
        .chain(expected.iter().filter(|r| !rows.contains(r)))
        .map(|(file, _)| file.as_str())
        .collect();
    Some(format!(
        "case {case}: outputs differ from tests/golden/cli.tsv in {changed:?}; \
         replacement rows:\n{replacement}"
    ))
}

fn check_golden(case: &str, rows: Vec<(String, String)>) {
    if let Some(diff) = golden_diff(case, rows) {
        panic!("{diff}");
    }
}

/// Runs `bisramgen <args>` (plus `--out DIR` when `out` is set) and
/// returns its digest rows.
fn cli_rows(case: &str, args: &[&str], out: bool) -> Vec<(String, String)> {
    let dir = std::env::temp_dir().join(format!("bisram-golden-{case}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cmd = bisramgen();
    cmd.args(args);
    if out {
        cmd.arg("--out").arg(&dir);
    }
    let run = cmd.output().expect("spawn");
    let stdout: String = String::from_utf8_lossy(&run.stdout)
        .lines()
        .filter(|l| !TIMING_LINES.iter().any(|t| l.starts_with(t)))
        .map(|l| format!("{l}\n"))
        .collect();
    let mut rows = vec![
        (
            "exit".to_owned(),
            run.status
                .code()
                .map_or("signal".to_owned(), |c| c.to_string()),
        ),
        ("stdout".to_owned(), digest(stdout.as_bytes())),
    ];
    if let Ok(entries) = std::fs::read_dir(&dir) {
        for entry in entries {
            let path = entry.expect("dir entry").path();
            let bytes = std::fs::read(&path).expect("read output");
            let name = path
                .file_name()
                .expect("name")
                .to_string_lossy()
                .into_owned();
            rows.push((name, digest(&bytes)));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    rows
}

const SMALL: &[&str] = &[
    "--words", "64", "--bpw", "4", "--bpc", "4", "--verify", "--cif",
];

#[test]
fn golden_compile_flat() {
    check_golden("compile-flat", cli_rows("compile-flat", SMALL, true));
}

#[test]
fn golden_compile_hier() {
    let args = [SMALL, &["--verify-mode", "hier"]].concat();
    check_golden("compile-hier", cli_rows("compile-hier", &args, true));
}

#[test]
fn golden_fleet() {
    let args = [
        "fleet",
        "--lifetimes",
        "500",
        "--seed",
        "7",
        "--words",
        "64",
        "--bpw",
        "4",
        "--bpc",
        "2",
        "--lambda",
        "9e-7",
    ];
    check_golden("fleet", cli_rows("fleet", &args, false));
}

#[test]
fn golden_rare_yield() {
    let args = [
        "rare-yield",
        "--target-p",
        "1e-2",
        "--trials",
        "100",
        "--pilot",
        "32",
        "--mc-trials",
        "200",
        "--seed",
        "7",
        "--words",
        "256",
        "--max-spares",
        "4",
    ];
    check_golden("rare-yield", cli_rows("rare-yield", &args, false));
}

#[test]
fn golden_chip_diagnose() {
    let args = [
        "chip-diagnose",
        "--macros",
        "4",
        "--seed",
        "7",
        "--timeout-prob",
        "0.15",
    ];
    check_golden("chip-diagnose", cli_rows("chip-diagnose", &args, false));
}

#[test]
fn golden_chip_diagnose_16_macros_at_1_and_2_jobs() {
    // Seed 7 gives macros with more classified than exact suspects and
    // two detect-only macros. Both worker counts must match one row set.
    let mut rows = Vec::new();
    for jobs in ["1", "2"] {
        let args = [
            "chip-diagnose",
            "--macros",
            "16",
            "--seed",
            "7",
            "--jobs",
            jobs,
        ];
        rows.extend(cli_rows(&format!("chip-diagnose-16-j{jobs}"), &args, false));
    }
    rows.sort();
    rows.dedup();
    check_golden("chip-diagnose-16", rows);
}

#[test]
fn golden_example_specs() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    let mut specs: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/specs")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "job"))
        .collect();
    specs.sort();
    assert!(!specs.is_empty(), "no job specs in {}", dir.display());
    let service = bisram_serve::Service::cold();
    let mut diffs = Vec::new();
    for path in specs {
        let name = path
            .file_name()
            .expect("name")
            .to_string_lossy()
            .into_owned();
        let text = std::fs::read_to_string(&path).expect("read spec");
        let job = bisram_serve::JobSpec::parse(&text).expect("spec parses");
        let (outcome, _) = service.submit(&job);
        let mut rows = Vec::new();
        match outcome.as_ref() {
            Ok(result) => {
                rows.push(("outcome".to_owned(), "ok".to_owned()));
                for s in &result.sections {
                    rows.push((s.name.clone(), digest(s.content.as_bytes())));
                }
            }
            Err(failure) => rows.push(("outcome".to_owned(), format!("error {}", failure.code))),
        }
        diffs.extend(golden_diff(&format!("spec:{name}"), rows));
    }
    assert!(diffs.is_empty(), "{}", diffs.join("\n"));
}

#[test]
fn golden_smoke_sweep_report() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs/smoke.sweep");
    let text = std::fs::read_to_string(&path).expect("read smoke.sweep");
    let sweep = bisram_serve::SweepSpec::parse(&text).expect("sweep spec parses");
    let service = bisram_serve::Service::cold();
    let backend = bisram_serve::SweepBackend::InProcess(&service);
    let report = bisram_serve::run_sweep(&sweep, &backend, Some(2)).expect("sweep runs");
    let rows = vec![("report".to_owned(), digest(report.text.as_bytes()))];
    check_golden("sweep:smoke.sweep", rows);
}

#[test]
fn golden_cif_of_a_warm_floorplan() {
    // Two compile jobs on one organization through one service: the
    // second misses the result memo (its defects differ) and hits every
    // stage cache, so its CIF comes from the cached floorplan. Both
    // must match the one manifest row.
    let service = bisram_serve::Service::cold();
    let mut rows = Vec::new();
    for defects in ["0.5", "2"] {
        let text =
            format!("job = compile\nwords = 64\nbpw = 4\nbpc = 4\ncif = 1\ndefects = {defects}\n");
        let job = bisram_serve::JobSpec::parse(&text).expect("spec parses");
        let (outcome, _) = service.submit(&job);
        let result = outcome.as_ref().as_ref().expect("compile succeeds");
        let cif = result.section("layout.cif").expect("layout.cif section");
        rows.push(("layout.cif".to_owned(), digest(cif.as_bytes())));
    }
    rows.dedup();
    check_golden("cif-warm", rows);
}
