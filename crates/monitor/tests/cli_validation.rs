//! Pins the `t-dat-monitor` command-line validation: nonsensical
//! `--jobs 0` and `--stale 0` values must be rejected up front with a
//! usage error (exit code 2), not silently accepted into behaviour
//! that only breaks later (a zero stale valve marks every source
//! permanently stale, which disables the multi-source merge), and so
//! must a duration no `Duration` can hold, rather than panic mid-watch,
//! and a `--window` or `--interval` that no span of trace time holds,
//! rather than saturate.
//! The one stream schema is pinned from the outside too: the option
//! that picked a schema is gone, and `--resume` will not append to a
//! file that is not that stream, or is the stream of other sources.
//! There is one data plane, too: `--shards`, which picked worker lanes,
//! is an unknown option; and resume reads only the events file, so
//! `--checkpoint` is unknown as well. A sweep beside live sources is
//! one stream with one `meta` line, whose sources all have distinct
//! names, and is not resumed. A swept file whose source goes down keeps
//! its `source_down` line and fails the sweep.

use std::net::Ipv4Addr;
use std::process::Command;

use tdat_bgp::BgpMessage;
use tdat_packet::{write_pcap_file, FrameBuilder, TcpFlags};
use tdat_timeset::Micros;

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
    // Every flag read as seconds refuses what no `Duration` holds, here
    // or mid-watch: `--stale` and `--pace` must also be positive (a pace
    // that rounds to no time would stretch each step's sleep past any
    // duration), `--exit-idle` may be 0.
    for (flag, value) in [
        ("--stale", "-1"),
        ("--stale", "nan"),
        ("--stale", "1e300"),
        ("--exit-idle", "-1"),
        ("--exit-idle", "inf"),
        ("--pace", "1e-30"),
        ("--pace", "-3"),
        ("--pace", "0"),
        ("--pace", "nan"),
    ] {
        run_expecting_usage_error(&["--sim", "clean", flag, value], flag);
    }
}

#[test]
fn positive_jobs_and_stale_still_work() {
    // A tiny sim run with valid values must exit cleanly — the new
    // validation must not reject the values it documents as accepted.
    for extra in [
        ["--stale", "5", "--exit-idle", "1"],
        ["--exit-idle", "0", "--pace", "1000"],
    ] {
        let output = monitor()
            .args(["--sim", "clean", "--routes", "40", "--events", "/dev/null"])
            .args(extra)
            .output()
            .expect("spawn t-dat-monitor");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(0), "{extra:?}: stderr: {stderr}");
    }
}

#[test]
fn window_and_interval_that_no_trace_time_holds_are_refused() {
    // Non-finite, overflowing (as a `Duration`, or as trace time's
    // microseconds), not positive, or rounding to no microsecond.
    for flag in ["--window", "--interval"] {
        for value in ["1e300", "inf", "nan", "9223372036855", "-1", "0", "1e-7"] {
            run_expecting_usage_error(&["--sim", "clean", "--routes", "40", flag, value], flag);
        }
    }
}

/// `--window` and `--interval` as long as trace time holds, on a
/// capture stamped in this century: the first tick would fall past
/// representable trace time, the tick schedule's addition overflows
/// there, so the watch never ticks, as at the default interval on a
/// capture shorter than one interval, and still reports its connection.
#[test]
fn an_interval_past_representable_time_never_ticks() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let capture = dir.join(format!("cli-long-interval-{}.pcap", std::process::id()));
    let (router, collector) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    let t0 = Micros::from_secs(1_300_000_000);
    let out = FrameBuilder::new(router, collector).ports(179, 40_000);
    let frames = [
        out.clone().at(t0).seq(0).flags(TcpFlags::SYN).build(),
        FrameBuilder::new(collector, router)
            .ports(40_000, 179)
            .at(t0 + Micros(100))
            .seq(0)
            .ack_to(1)
            .flags(TcpFlags::SYN | TcpFlags::ACK)
            .build(),
        out.at(t0 + Micros(200))
            .seq(1)
            .ack_to(1)
            .flags(TcpFlags::ACK)
            .payload(BgpMessage::Keepalive.to_bytes())
            .build(),
    ];
    write_pcap_file(&capture, &frames).expect("write the capture");
    let longest = (i64::MAX / 1_000_000).to_string();
    let output = monitor()
        .arg("--follow")
        .arg(&capture)
        .args(["--exit-idle", "0", "--events", "/dev/null"])
        .args(["--window", &longest, "--interval", &longest])
        .output()
        .expect("spawn t-dat-monitor");
    let _ = std::fs::remove_file(&capture);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    let count = |name: &str| {
        stderr
            .lines()
            .find_map(|line| line.strip_prefix(name))
            .and_then(|rest| rest.trim().parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no {name:?} line in: {stderr}"))
    };
    assert_eq!(count("analysis ticks"), 0, "{stderr}");
    assert_eq!(count("finalized"), 1, "{stderr}");
}

#[test]
fn schema_is_an_unknown_option() {
    run_expecting_usage_error(
        &["--sim", "clean", "--schema", "2"],
        "unknown option --schema",
    );
    run_expecting_usage_error(
        &["--sim", "clean", "--shards", "2"],
        "unknown option --shards",
    );
    run_expecting_usage_error(
        &["--sim", "clean", "--checkpoint", "watch.ckpt"],
        "unknown option --checkpoint",
    );
}

/// Resumes a one-sim watch into an events file holding `contents`,
/// which must be refused (exit 1, every one of `needles` on stderr)
/// with the file left byte-for-byte, torn tail included.
fn resume_is_refused(name: &str, contents: &str, needles: &[&str]) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let events = dir.join(format!("cli-{name}-{}.jsonl", std::process::id()));
    std::fs::write(&events, contents).expect("write the events file");
    let output = monitor()
        .args(["--sim", "clean", "--routes", "40", "--resume", "--events"])
        .arg(&events)
        .output()
        .expect("spawn t-dat-monitor");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    for needle in needles {
        assert!(
            stderr.contains(needle),
            "the refusal says {needle:?}: {stderr}"
        );
    }
    let after = std::fs::read_to_string(&events).expect("events file still there");
    assert_eq!(after, contents, "the refused file is left byte-for-byte");
    let _ = std::fs::remove_file(&events);
}

#[test]
fn resume_refuses_a_file_without_a_meta_line_and_leaves_it_alone() {
    // What a single-source watch wrote before the stream had one
    // schema: no preamble, no `source` fields — and, to show the file
    // is not even tidied, a torn trailing line.
    resume_is_refused(
        "resume-v1",
        "{\"type\":\"connection\",\"at_s\":1.000000,\
         \"session\":\"10.0.0.1:179->10.0.0.2:40000\",\"report\":{}}\n\
         {\"type\":\"alert\",\"at_s\":2.0",
        &["not a tdat-monitor-events/2 meta line", "refusing"],
    );
}

#[test]
fn resume_refuses_the_stream_of_other_sources_and_leaves_it_alone() {
    // A watch over two captures crashed mid-line; resuming it as a
    // different watch would splice two streams into one file.
    resume_is_refused(
        "resume-other",
        "{\"type\":\"meta\",\"schema\":\"tdat-monitor-events/2\",\
         \"sources\":[\"a.pcap\",\"b.pcap\"]}\n\
         {\"type\":\"alert\",\"source\":\"a.pcap\",\"at_s\":2.0",
        &[r#"["a.pcap", "b.pcap"]"#, r#"["sim:clean"]"#, "refusing"],
    );
}

#[test]
fn a_sweep_beside_a_live_source_writes_one_meta_line_and_is_not_resumed() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("cli-sweep-{}", std::process::id()));
    let corpus = dir.join("corpus");
    std::fs::create_dir_all(&corpus).expect("make the corpus directory");
    let (router, collector) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    let out = FrameBuilder::new(router, collector).ports(179, 40_000);
    let frames = [
        out.clone().seq(0).flags(TcpFlags::SYN).build(),
        FrameBuilder::new(collector, router)
            .ports(40_000, 179)
            .seq(0)
            .ack_to(1)
            .flags(TcpFlags::SYN | TcpFlags::ACK)
            .build(),
        out.seq(1).ack_to(1).payload(vec![0xff; 19]).build(),
    ];
    write_pcap_file(corpus.join("a.pcap"), &frames).expect("write the swept capture");
    let events = dir.join("events.jsonl");
    let sweep_beside = |live: &[&str], extra: &[&str]| {
        monitor()
            .arg("--sweep")
            .arg(&corpus)
            .args(live)
            .arg("--events")
            .arg(&events)
            .args(extra)
            .output()
            .expect("spawn t-dat-monitor")
    };
    let sim = ["--sim", "clean", "--routes", "40"];
    let swept = corpus.join("a.pcap");
    let follow = [
        "--follow",
        swept.to_str().expect("a UTF-8 path"),
        "--exit-idle",
        "0",
    ];
    // The live source named like the swept file is named apart from it,
    // as the set names its own sources apart.
    let mut stream = String::new();
    for (live, names) in [
        (&follow[..], ["a.pcap", "a.pcap#2"]),
        (&sim[..], ["a.pcap", "sim:clean"]),
    ] {
        let output = sweep_beside(live, &[]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
        stream = std::fs::read_to_string(&events).expect("the events file");
        let metas: Vec<&str> = stream
            .lines()
            .filter(|line| line.contains(r#""type":"meta""#))
            .collect();
        let meta = format!(
            r#"{{"type":"meta","schema":"tdat-monitor-events/2","sources":["{}"]}}"#,
            names.join(r#"",""#)
        );
        assert_eq!(
            metas,
            [meta.as_str()],
            "one meta line, naming the swept file and then the live source:\n{stream}"
        );
        assert!(
            stream.starts_with(metas[0]),
            "and it comes first:\n{stream}"
        );
        for source in names {
            let attributed = format!(r#""source":"{source}""#);
            assert!(
                stream.contains(&attributed),
                "{source} has events:\n{stream}"
            );
        }
    }

    let output = sweep_beside(&sim, &["--resume"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("--resume supervises live watches, not --sweep")
            && stderr.contains("usage:"),
        "{stderr}"
    );
    let after = std::fs::read_to_string(&events).expect("the events file");
    assert_eq!(after, stream, "the refused resume leaves the stream alone");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_swept_file_whose_source_goes_down_fails_the_sweep() {
    let corpus = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("cli-sweep-down-{}", std::process::id()));
    std::fs::create_dir_all(&corpus).expect("make the corpus directory");
    let (router, collector) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    let frames = [FrameBuilder::new(router, collector)
        .ports(179, 40_000)
        .seq(0)
        .flags(TcpFlags::SYN)
        .build()];
    write_pcap_file(corpus.join("ok.pcap"), &frames).expect("write the good capture");
    std::fs::write(
        corpus.join("text.pcap"),
        "this is plain text, not a pcap capture\n",
    )
    .expect("write the text");
    let output = monitor()
        .arg("--sweep")
        .arg(&corpus)
        .args(["--events", "-"])
        .output()
        .expect("spawn t-dat-monitor");
    let _ = std::fs::remove_dir_all(&corpus);
    let stream = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    let down: Vec<&str> = stream
        .lines()
        .filter(|line| line.contains(r#""type":"source_down""#))
        .collect();
    assert_eq!(down.len(), 1, "{stream}");
    assert!(
        down[0].contains(r#""source":"text.pcap""#)
            && down[0].contains("unrecognized pcap magic number"),
        "{stream}"
    );
    assert!(stream.contains(r#""source":"ok.pcap""#), "{stream}");
    assert!(stderr.contains("swept 2 file(s), 1 failed"), "{stderr}");
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
}

/// A `--sim` scenario parameter out of its range is refused as a
/// malformed one is, before any watch starts.
fn sim_parameter_is_refused(scenario: &str, what: &str) {
    run_expecting_usage_error(&["--sim", scenario], &format!("bad {what} "));
}

#[test]
fn sim_zero_timer_is_refused() {
    sim_parameter_is_refused("timer:0", "interval");
}

#[test]
fn sim_negative_timer_is_refused() {
    sim_parameter_is_refused("timer:-5", "interval");
}

#[test]
fn sim_timer_that_is_not_a_number_is_refused() {
    sim_parameter_is_refused("timer:nan", "interval");
}

#[test]
fn sim_loss_probability_past_one_is_refused() {
    sim_parameter_is_refused("uploss:2", "loss probability");
}

#[test]
fn sim_negative_rate_is_refused() {
    sim_parameter_is_refused("slow:-1", "rate");
}
