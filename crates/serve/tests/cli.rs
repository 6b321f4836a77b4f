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
    assert!(err.contains("--spec"), "error names the missing flag: {err}");
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
