//! Golden outputs of the batch pass: the regression net for every
//! analysis the oracle scores that does not depend on a second
//! implementation of it.
//!
//! Each file under `tests/golden/` is what one run says, byte for byte,
//! for base seed 1:
//!
//! * `oracle.txt` — what `t-dat-oracle --seed 1` prints;
//! * `oracle-chaos.txt` — what `t-dat-oracle --seed 1 --filter clean
//!   --chaos` prints;
//! * `reports.jsonl` — one line per analysis of every scenario capture
//!   of the matrix and of a three-router interleaved capture: the
//!   report JSON and an FNV-1a digest of the analysis's full `Debug`,
//!   so a change to any field (trace, labels, series, vector) shows,
//!   not only to those a report carries.
//!
//! The interleaved capture also checks that the streaming tracker
//! policy, which finalizes on close or idle, delivers the same sessions
//! with the same dominant factors as the default, which holds every
//! connection to the end.
//!
//! On a mismatch the test writes the actual output under
//! `CARGO_TARGET_TMPDIR/golden/oracle/` and names the first differing
//! line. A golden changes only by copying that file over it, in a
//! commit that says why the output had to change.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use tdat::{Analysis, AnalyzerConfig, Report, StreamAnalyzer, StreamOptions, TrackerConfig};
use tdat_bgp::TableGenerator;
use tdat_oracle::{scenario_capture, scenario_matrix};
use tdat_packet::TcpFrame;
use tdat_tcpsim::scenario::{monitoring_topology, transfer_spec, TopologyOptions};
use tdat_tcpsim::{BgpReceiverConfig, SenderTimer, Simulation};
use tdat_timeset::Micros;

/// Simulates three concurrent table transfers (one fast, one
/// timer-paced, one with a slow collector) through the shared
/// monitoring topology and returns the sniffer's interleaved capture.
fn interleaved_trace() -> Vec<TcpFrame> {
    let mut topo = monitoring_topology(3, TopologyOptions::default());
    let mut sim = Simulation::new(topo.take_net());
    for i in 0..3 {
        let stream = TableGenerator::new(1000 + i as u64)
            .routes(2500 + 500 * i)
            .generate()
            .to_update_stream();
        let mut spec = transfer_spec(&topo, i, stream);
        spec.open_at = Micros::from_millis(40 * i as i64);
        if i == 1 {
            spec.sender_app.timer = Some(SenderTimer {
                interval: Micros::from_millis(150),
                quota: 16_384,
            });
        } else if i == 2 {
            spec.receiver_app = BgpReceiverConfig {
                processing_rate: 120_000.0,
                ..BgpReceiverConfig::default()
            };
        }
        sim.add_connection(spec);
    }
    sim.run(Micros::from_secs(600));
    sim.into_output().taps.remove(0).1
}

fn analyze(frames: &[TcpFrame], tracker: TrackerConfig) -> Vec<Analysis> {
    let options = StreamOptions {
        tracker,
        ..Default::default()
    };
    StreamAnalyzer::with_options(AnalyzerConfig::default(), options).analyze_frames(frames)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Compares `actual` with the golden `name`, byte for byte; on a
/// mismatch, writes `actual` out and fails naming the first differing
/// line.
fn assert_golden(name: &str, actual: &str) {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let expected = std::fs::read_to_string(golden.join(name)).unwrap_or_default();
    if actual == expected {
        return;
    }
    let written = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden/oracle");
    std::fs::create_dir_all(&written).expect("create the actual-output directory");
    let written = written.join(name);
    std::fs::write(&written, actual).expect("write the actual output");
    let (want, got): (Vec<_>, Vec<_>) = (expected.lines().collect(), actual.lines().collect());
    let line = (0..want.len().max(got.len()))
        .find(|&i| want.get(i) != got.get(i))
        .unwrap_or(want.len());
    panic!(
        "{name}: first difference at line {}\n  golden: {:?}\n  actual: {:?}\n  \
         actual output written to {}",
        line + 1,
        want.get(line),
        got.get(line),
        written.display()
    );
}

#[test]
fn oracle_sweeps_replay_their_goldens() {
    for (name, args) in [
        ("oracle.txt", &["--seed", "1"][..]),
        (
            "oracle-chaos.txt",
            &["--seed", "1", "--filter", "clean", "--chaos"][..],
        ),
    ] {
        let run = Command::new(env!("CARGO_BIN_EXE_t-dat-oracle"))
            .args(args)
            .output()
            .expect("spawn t-dat-oracle");
        let stdout = String::from_utf8(run.stdout).expect("utf-8 summary");
        assert!(
            run.status.success(),
            "t-dat-oracle {args:?} failed:\n{stdout}"
        );
        assert_golden(name, &stdout);
    }
}

#[test]
fn analyses_replay_their_golden() {
    let mut captures: Vec<(String, Vec<TcpFrame>)> = scenario_matrix(1)
        .iter()
        .map(|sc| (sc.name.clone(), scenario_capture(sc)))
        .collect();
    captures.push(("interleaved-3".to_string(), interleaved_trace()));
    let config = AnalyzerConfig::default();
    let mut out = String::new();
    for (name, frames) in &captures {
        for analysis in analyze(frames, TrackerConfig::batch()) {
            let _ = writeln!(
                out,
                "{{\"capture\":\"{name}\",\"debug_fnv1a\":\"{:016x}\",\"report\":{}}}",
                fnv1a(format!("{analysis:?}").as_bytes()),
                Report::from_analysis(&analysis, &config).to_json()
            );
        }
    }
    assert_golden("reports.jsonl", &out);
}

#[test]
fn streaming_finalization_policy_still_covers_every_connection() {
    // With the streaming tracker (close/idle finalization) the engine
    // must still deliver one analysis per session, each attributing the
    // same dominant factor as under the default policy, which holds
    // every connection to the end of the capture.
    let frames = interleaved_trace();
    let held = analyze(&frames, TrackerConfig::batch());
    let streamed = analyze(&frames, TrackerConfig::streaming());
    assert_eq!(held.len(), 3, "one analysis per router session");
    assert_eq!(streamed.len(), held.len());
    for h in &held {
        let s = streamed
            .iter()
            .find(|s| (s.sender, s.receiver) == (h.sender, h.receiver))
            .expect("every connection appears under both policies");
        let (a, b) = (h.sender.0, h.receiver.0);
        assert_eq!(
            s.vector.dominant_factor(),
            h.vector.dominant_factor(),
            "{a} -> {b}"
        );
    }
}
