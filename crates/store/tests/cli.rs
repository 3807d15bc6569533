//! End-to-end coverage of the `t-dat-store` CLI: synth, ingest from a
//! file, query (stable JSONL on stdout), compact, stats, and the
//! usage-error paths, among them a sweep's `--window` or `--interval`,
//! or a query's bucket width, that no span of trace time holds, and an
//! event whose time no record holds.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_t-dat-store")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("spawn t-dat-store")
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tdat-store-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn synth_query_compact_stats_round_trip() {
    let dir = tempdir("flow");
    let dir_s = dir.to_str().expect("utf-8 temp dir");

    let out = run(&["synth", dir_s, "--records", "500", "--seed", "9"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Rollup output is stable JSONL: two identical invocations agree.
    let q = ["query", dir_s, "group", "by", "verdict", "agg", "count"];
    let first = run(&q);
    let second = run(&q);
    assert!(first.status.success());
    assert_eq!(first.stdout, second.stdout, "query output must be stable");
    let total: u64 = String::from_utf8_lossy(&first.stdout)
        .lines()
        .map(|line| {
            tdat::json::parse(line)
                .expect("row is JSON")
                .get("count")
                .and_then(|v| v.as_u64())
                .expect("row has a count")
        })
        .sum();
    assert_eq!(total, 500);

    // A second synth segment, compacted away, leaves one segment.
    let out = run(&["synth", dir_s, "--records", "250", "--seed", "10"]);
    assert!(out.status.success());
    let out = run(&["compact", dir_s]);
    assert!(out.status.success());
    let out = run(&["stats", dir_s]);
    assert!(out.status.success());
    let stats =
        tdat::json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("stats is JSON");
    assert_eq!(stats.get("segments").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(stats.get("records").and_then(|v| v.as_u64()), Some(750));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ingest_from_file_tags_source_and_applies_as_map() {
    let dir = tempdir("ingest");
    let dir_s = dir.to_str().expect("utf-8 temp dir");
    let scratch = tempdir("ingest-input");
    std::fs::create_dir_all(&scratch).expect("scratch dir");

    let reports = scratch.join("reports.jsonl");
    let lines: String = tdat_store::synth::synth_records(20, 2)
        .iter()
        .map(|r| format!("{}\n", r.report.to_json()))
        .collect();
    std::fs::write(&reports, lines).expect("write reports");
    let as_map = scratch.join("peers.asmap");
    std::fs::write(&as_map, "# test map\n10.0.0.0/8 64500\n").expect("write as map");

    let out = run(&[
        "ingest",
        dir_s,
        reports.to_str().expect("utf-8 path"),
        "--source",
        "fixture",
        "--as-map",
        as_map.to_str().expect("utf-8 path"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = run(&[
        "query",
        dir_s,
        "where source = fixture group by peer_as agg count",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rows: Vec<_> = stdout.lines().collect();
    assert_eq!(
        rows.len(),
        1,
        "every synth peer maps into 10.0.0.0/8: {stdout}"
    );
    assert!(rows[0].contains("\"peer_as\":64500"), "{stdout}");
    assert!(rows[0].contains("\"count\":20"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn ingest_refuses_a_time_no_record_holds() {
    let report = tdat_store::synth::synth_records(1, 3)[0].report.to_json();
    for (tag, at_s) in [("late", "1e300"), ("early", "-1e300")] {
        let dir = tempdir(&format!("time-{tag}"));
        let dir_s = dir.to_str().expect("utf-8 temp dir");
        let scratch = tempdir(&format!("time-{tag}-input"));
        std::fs::create_dir_all(&scratch).expect("scratch dir");
        let events = scratch.join("events.jsonl");
        let line = format!(
            r#"{{"type":"connection","source":"tap","at_s":{at_s},"session":"a->b","report":{report}}}"#
        );
        std::fs::write(&events, format!("{line}\n")).expect("write events");

        let out = run(&["ingest", dir_s, events.to_str().expect("utf-8 path")]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "at_s {at_s}: {stderr}");
        assert!(stderr.contains("at_s"), "at_s {at_s}: {stderr}");

        // Nothing was sealed, so the store still reads.
        let out = run(&["stats", dir_s]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stats =
            tdat::json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("stats is JSON");
        assert_eq!(stats.get("records").and_then(|v| v.as_u64()), Some(0));

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&scratch).ok();
    }
}

#[test]
fn usage_errors_exit_two() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));

    let out = run(&["frobnicate", "/tmp/nope"]);
    assert_eq!(out.status.code(), Some(2));

    let dir = tempdir("usage");
    let dir_s = dir.to_str().expect("utf-8 temp dir");
    let out = run(&["ingest", dir_s, "--sweep", "/tmp/nope", "--jobs", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--jobs"));

    let out = run(&["query", dir_s, "group by nonsense"]);
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_sweep_window_or_interval_no_trace_time_holds_is_refused() {
    let captures = tempdir("captures");
    std::fs::create_dir_all(&captures).expect("make the capture directory");
    let captures_s = captures.to_str().expect("utf-8 temp dir");
    // Non-finite, overflowing (as a `Duration`, or as trace time's
    // microseconds), not positive, or rounding to no microsecond.
    for flag in ["--window", "--interval"] {
        for value in ["inf", "1e300", "nan", "9223372036855", "-1", "0", "1e-7"] {
            let dir = tempdir("refused");
            let dir_s = dir.to_str().expect("utf-8 temp dir");
            let out = run(&["ingest", dir_s, "--sweep", captures_s, flag, value]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
            assert!(
                stderr.contains(flag) && stderr.contains("usage:"),
                "{flag} {value}: {stderr}"
            );
            assert!(!dir.exists(), "{flag} {value}: no store is made");
        }
    }
    std::fs::remove_dir_all(&captures).ok();
}

/// A query bucket width that rounds to no microsecond, or to more than
/// trace time holds, is the query-parse error every malformed query
/// gets (exit 2, naming the width), not a division by zero (exit 101)
/// or a saturated width answered in silence; `1s` answers.
#[test]
fn a_bucket_width_no_trace_time_holds_is_refused() {
    let dir = tempdir("bucket");
    let dir_s = dir.to_str().expect("utf-8 temp dir");
    let out = run(&["synth", dir_s, "--records", "50", "--seed", "1"]);
    assert!(out.status.success());
    let query = |width: &str| {
        let text = format!("group by bucket bucket {width} agg count");
        run(&["query", dir_s, &text])
    };
    for width in ["1e-9s", "1e300d"] {
        let out = query(width);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{width}: {stderr}");
        assert!(stderr.contains("bad bucket width"), "{width}: {stderr}");
        assert!(out.stdout.is_empty(), "{width}: no rows");
    }
    let out = query("1s");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
