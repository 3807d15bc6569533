//! Pins the `t-dat-monitor` command-line validation: nonsensical
//! `--jobs 0` and `--stale 0` values must be rejected up front with a
//! usage error (exit code 2), not silently accepted into behaviour
//! that only breaks later (a zero stale valve marks every source
//! permanently stale, which disables the multi-source merge). The one
//! stream schema is pinned from the outside too: the option that picked
//! a schema is gone, and `--resume` will not append to a file that is
//! not that stream.

use std::process::Command;

fn monitor() -> Command {
    Command::new(env!("CARGO_BIN_EXE_t-dat-monitor"))
}

fn run_expecting_usage_error(args: &[&str], needle: &str) {
    let output = monitor().args(args).output().expect("spawn t-dat-monitor");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(2),
        "{args:?} should exit 2; stderr: {stderr}"
    );
    assert!(
        stderr.contains(needle),
        "{args:?} stderr should mention {needle:?}; got: {stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "{args:?} should print usage; got: {stderr}"
    );
}

#[test]
fn jobs_zero_is_rejected() {
    run_expecting_usage_error(&["--sim", "clean", "--jobs", "0"], "--jobs");
}

#[test]
fn stale_zero_is_rejected() {
    run_expecting_usage_error(&["--sim", "clean", "--stale", "0"], "--stale");
}

#[test]
fn stale_negative_and_non_finite_are_rejected() {
    run_expecting_usage_error(&["--sim", "clean", "--stale", "-1"], "--stale");
    run_expecting_usage_error(&["--sim", "clean", "--stale", "nan"], "--stale");
}

#[test]
fn positive_jobs_and_stale_still_work() {
    // A tiny sim run with valid values must exit cleanly — the new
    // validation must not reject the values it documents as accepted.
    let output = monitor()
        .args([
            "--sim",
            "clean",
            "--stale",
            "5",
            "--routes",
            "40",
            "--exit-idle",
            "1",
            "--events",
            "/dev/null",
        ])
        .output()
        .expect("spawn t-dat-monitor");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
}

#[test]
fn schema_is_an_unknown_option() {
    run_expecting_usage_error(
        &["--sim", "clean", "--schema", "2"],
        "unknown option --schema",
    );
}

#[test]
fn resume_refuses_a_file_without_a_meta_line_and_leaves_it_alone() {
    // What a single-source watch wrote before the stream had one
    // schema: no preamble, no `source` fields — and, to show the file
    // is not even tidied, a torn trailing line.
    let old_stream = "{\"type\":\"connection\",\"at_s\":1.000000,\
                      \"session\":\"10.0.0.1:179->10.0.0.2:40000\",\"report\":{}}\n\
                      {\"type\":\"alert\",\"at_s\":2.0";
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let events = dir.join(format!("cli-resume-{}.jsonl", std::process::id()));
    let ckpt = dir.join(format!("cli-resume-{}.ckpt", std::process::id()));
    std::fs::write(&events, old_stream).expect("write the old stream");
    let output = monitor()
        .args(["--sim", "clean", "--routes", "40", "--resume", "--events"])
        .arg(&events)
        .arg("--checkpoint")
        .arg(&ckpt)
        .output()
        .expect("spawn t-dat-monitor");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("not a tdat-monitor-events/2 meta line") && stderr.contains("refusing"),
        "the refusal says why: {stderr}"
    );
    let after = std::fs::read_to_string(&events).expect("events file still there");
    assert_eq!(after, old_stream, "the refused file is left byte-for-byte");
    assert!(!ckpt.exists(), "a refused resume writes no checkpoint");
    let _ = std::fs::remove_file(&events);
}
