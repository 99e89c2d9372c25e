//! The `repro` binary checks its arguments before it runs anything: input
//! it cannot run exits with status 2 and prints no table, so a misspelled
//! or renamed experiment id cannot pass as a successful run.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro starts")
}

fn assert_rejected(args: &[&str]) {
    let out = repro(args);
    assert_eq!(out.status.code(), Some(2), "repro {args:?}");
    assert!(
        out.stdout.is_empty(),
        "repro {args:?} printed {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: repro"));
}

#[test]
fn unknown_experiment_exits_2_before_any_table() {
    assert_rejected(&["e99"]);
    assert_rejected(&["e2", "e99"]);
}

#[test]
fn invalid_thread_count_exits_2_before_any_table() {
    assert_rejected(&["--threads", "0", "e2"]);
    assert_rejected(&["--threads=many", "e2"]);
    assert_rejected(&["e2", "--threads"]);
}

#[test]
fn known_experiment_prints_its_table() {
    let out = repro(&["e2"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("== E2:"));
}

/// A failed `trace.json` write fails the run once every table is printed.
#[test]
fn failed_trace_write_exits_1() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_cli_unwritable");
    // A directory where the trace file should go makes the write fail.
    std::fs::create_dir_all(dir.join("trace.json")).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("e16")
        .current_dir(&dir)
        .output()
        .expect("repro starts");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("== E16b:"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("could not write trace.json"));
}
