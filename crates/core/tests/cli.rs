//! Pins the `t-dat` command line: the text report's warning lines read
//! as one sentence (two of them once carried 18 stray spaces from a
//! lost line continuation), and an unknown flag is a usage error
//! (exit code 2) wherever it appears — not taken for the capture path
//! when it happens to come first; a reader that closes the pipe early
//! (`t-dat … | head`) ends the run quietly, not with a panic; and a
//! SYN-less capture reads the same through `t-dat`, the engine and
//! `pcap2bgp`'s extraction.

use std::io::Read;
use std::net::Ipv4Addr;
use std::process::{Command, Output, Stdio};

use tdat::StreamAnalyzer;
use tdat_packet::{write_pcap_file, FrameBuilder, TcpFrame};
use tdat_pcap2bgp::extract_all;
use tdat_tcpsim::scenario::{
    build_scenario, monitoring_topology, transfer_spec, ScenarioOptions, TopologyOptions,
};
use tdat_tcpsim::Simulation;
use tdat_timeset::Micros;

fn t_dat(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_t-dat"))
        .args(args)
        .output()
        .expect("spawn t-dat")
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let output = t_dat(args);
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
}

#[test]
fn warning_lines_read_as_one_sentence() {
    let opts = ScenarioOptions {
        routes: 4000,
        ..ScenarioOptions::default()
    };
    let mut built = build_scenario("peergroup", &opts).expect("peergroup builds");
    built.sim.run(built.horizon);
    let out = built.sim.into_output();
    let path = std::env::temp_dir().join(format!("tdat-cli-peergroup-{}.pcap", std::process::id()));
    write_pcap_file(&path, out.taps[0].1.iter()).expect("write capture");

    let output = t_dat(&[path.to_str().expect("utf-8 temp path")]);
    std::fs::remove_file(&path).ok();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(0), "stdout: {stdout}");

    let warnings: Vec<&str> = stdout.lines().filter(|l| l.contains("WARNING")).collect();
    assert!(
        warnings
            .iter()
            .any(|l| l.ends_with(" was failing (peer-group blocking signature)")),
        "no peer-group blocking warning in: {stdout}"
    );
    // Other report lines align columns with double spaces on purpose;
    // a warning is a sentence.
    for line in warnings {
        assert!(
            !line.trim_start().contains("  "),
            "run of spaces inside a warning: {line:?}"
        );
    }
}

#[test]
fn unknown_flag_is_a_usage_error_in_any_position() {
    assert_usage_error(&["--bogus"], "usage:");
    assert_usage_error(&["x.pcap", "--bogus"], "usage:");
    assert_usage_error(&["x.pcap", "--shards", "2"], "usage:");
}

#[test]
fn threshold_zero_is_rejected_by_the_config_builder() {
    assert_usage_error(&["x.pcap", "--threshold", "0"], "threshold");
}

/// `t-dat --json … | head -c 1`: the report is several times a pipe
/// buffer, so the writer is still writing when the reader goes away.
/// That is the reader's choice, not a failure: success status, nothing
/// on stderr about a panic.
#[test]
fn closed_stdout_ends_the_run_quietly() {
    const SESSIONS: usize = 400;
    let stream = tdat_bgp::TableGenerator::new(3)
        .routes(60)
        .generate()
        .to_update_stream();
    let mut topo = monitoring_topology(SESSIONS, TopologyOptions::default());
    let mut sim = Simulation::new(topo.take_net());
    for i in 0..SESSIONS {
        let mut spec = transfer_spec(&topo, i, stream.clone());
        spec.open_at = Micros(i as i64 * 1_750);
        sim.add_connection(spec);
    }
    sim.run(Micros::from_secs(30));
    let out = sim.into_output();
    let path = std::env::temp_dir().join(format!("tdat-cli-pipe-{}.pcap", std::process::id()));
    write_pcap_file(&path, out.taps[0].1.iter()).expect("write capture");

    let whole = t_dat(&["--json", path.to_str().expect("utf-8 temp path")]);
    assert!(
        whole.stdout.len() > 128 << 10,
        "report of {} bytes would fit a pipe buffer",
        whole.stdout.len()
    );

    let mut child = Command::new(env!("CARGO_BIN_EXE_t-dat"))
        .args(["--json", path.to_str().expect("utf-8 temp path")])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn t-dat");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut first = [0u8; 1];
    stdout.read_exact(&mut first).expect("one byte of report");
    drop(stdout);
    let output = child.wait_with_output().expect("t-dat exits");
    std::fs::remove_file(&path).ok();

    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(first, *b"[");
    assert!(
        output.status.success(),
        "{:?}; stderr: {stderr}",
        output.status
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

/// A capture that starts mid-connection (no SYN) and whose lowest
/// sequence arrives late: a 10 000-route table in 127 segments, segment
/// 0 captured 71st. The one anchoring rule — the lowest sequence among
/// the first 64 payload segments — anchors at segment 1, so segment 0
/// comes in behind the stream head and the messages it starts are
/// lost. `t-dat --json`, the engine over the frames and the `pcap2bgp`
/// extraction must lose the same ones.
#[test]
fn synless_capture_with_a_late_first_segment_reads_the_same_everywhere() {
    const SEGMENTS: usize = 127;
    let stream = tdat_bgp::TableGenerator::new(1)
        .routes(10_000)
        .generate()
        .to_update_stream();
    let size = stream.len().div_ceil(SEGMENTS);
    let chunks: Vec<&[u8]> = stream.chunks(size).collect();
    assert_eq!(chunks.len(), SEGMENTS);
    let (router, collector) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    let order = (1..=70).chain([0]).chain(71..SEGMENTS);
    let frames: Vec<TcpFrame> = order
        .enumerate()
        .map(|(at, k)| {
            FrameBuilder::new(router, collector)
                .at(Micros::from_millis(at as i64))
                .ports(179, 40000)
                .seq(5_000_000 + (k * size) as u32)
                .ack_to(1)
                .payload(chunks[k].to_vec())
                .build()
        })
        .collect();
    let path = std::env::temp_dir().join(format!("tdat-cli-synless-{}.pcap", std::process::id()));
    write_pcap_file(&path, frames.iter()).expect("write capture");
    let output = t_dat(&["--json", path.to_str().expect("utf-8 temp path")]);
    std::fs::remove_file(&path).ok();
    let stdout = String::from_utf8_lossy(&output.stdout);
    let cli: usize = stdout
        .split("\"prefixes\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no prefix count in: {stdout}"));

    let engine = StreamAnalyzer::default().analyze_frames(&frames);
    let analyzed = engine[0].transfer.as_ref().map_or(0, |t| t.prefix_count);
    let extracted = extract_all(&frames)[0].1.announced_prefixes();
    assert_eq!((analyzed, extracted), (cli, cli));
    assert!(cli < 10_000, "segment 0 lies behind the anchor: {cli}");
}
