//! Observational identity of the saturated batch path against its
//! serial equivalents, layer by layer:
//!
//! 1. **mmap vs buffered** — [`MmapReader`] (mapped or owned backing)
//!    decodes the same frames as the classic [`PcapReader`], across the
//!    31-scenario oracle matrix and under arbitrary truncation (same
//!    frames, then the *same rendered error*).
//! 2. **block decode vs per-frame decode** — `next_views_into` yields
//!    the same frame sequence and the same error at the same position
//!    as the `PcapReader::next_view` loop.
//! 3. **sharded batch analyzer vs serial** — `StreamAnalyzer` with
//!    `shards: N` renders byte-identical reports to the serial driver
//!    over the oracle matrix, and under both chaos presets the lossy
//!    sharded run matches the serial one report-for-report and
//!    anomaly-count-for-anomaly-count; a source that fails mid-capture
//!    delivers the same reports and the same error at every lane count;
//!    and on a clean capture the lossy source reads what the strict one
//!    does.

use proptest::prelude::*;
use std::path::PathBuf;
use tdat::{Analysis, AnalyzerConfig, Report, StreamAnalyzer, StreamOptions, TrackerConfig};
use tdat_oracle::{scenario_capture, scenario_matrix};
use tdat_packet::{
    FrameBlock, FrameBuilder, LossyReader, MmapReader, PcapReader, PcapWriter, TcpFlags, TcpFrame,
    TcpOption,
};
use tdat_tcpsim::chaos::{apply_chaos, ChaosSpec};
use tdat_timeset::Micros;

fn pcap_of(frames: &[TcpFrame]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut writer = PcapWriter::new(&mut bytes).expect("in-memory pcap");
    for frame in frames {
        writer.write_frame(frame).expect("in-memory pcap");
    }
    bytes
}

fn temp_pcap(name: &str, bytes: &[u8]) -> PathBuf {
    let dir = std::env::temp_dir().join("tdat_batch_shard_identity");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, bytes).expect("temp pcap");
    path
}

fn engine(shards: usize, tracker: TrackerConfig) -> StreamAnalyzer {
    StreamAnalyzer::with_options(
        AnalyzerConfig::default(),
        StreamOptions {
            tracker,
            shards,
            ..Default::default()
        },
    )
}

fn rendered(engine: &StreamAnalyzer, analyses: &[Analysis]) -> Vec<String> {
    analyses
        .iter()
        .map(|a| Report::from_analysis(a, engine.analyzer().config()).to_json())
        .collect()
}

/// Decodes with the classic buffered reader's `next_view` until end or
/// error; errors are rendered so "same failure" means the same
/// *user-visible* failure.
fn buffered_outcome(bytes: &[u8]) -> Result<(Vec<TcpFrame>, Option<String>), String> {
    let mut reader = PcapReader::new(bytes).map_err(|e| e.to_string())?;
    let mut frames = Vec::new();
    loop {
        match reader.next_view() {
            Ok(Some(view)) => frames.push(view.to_frame()),
            Ok(None) => return Ok((frames, None)),
            Err(err) => return Ok((frames, Some(err.to_string()))),
        }
    }
}

/// Same, through the mmap reader's block decoder.
fn block_outcome(reader: &mut MmapReader) -> (Vec<TcpFrame>, Option<String>) {
    let mut frames = Vec::new();
    let mut block = FrameBlock::new();
    loop {
        match reader.next_views_into(&mut block) {
            Ok(views) => {
                if views.is_empty() {
                    return (frames, None);
                }
                for frame in &views {
                    frames.push(frame.to_frame());
                }
            }
            Err(err) => return (frames, Some(err.to_string())),
        }
    }
}

#[test]
fn mmap_and_block_decode_match_buffered_over_oracle_matrix() {
    for sc in scenario_matrix(0xBA5E) {
        let frames = scenario_capture(&sc);
        let bytes = pcap_of(&frames);
        let (want, err) = buffered_outcome(&bytes).expect("oracle captures have valid headers");
        assert_eq!(err, None, "{}: clean capture must decode fully", sc.name);
        let (block_frames, block_err) =
            block_outcome(&mut MmapReader::from_vec(bytes.clone()).expect("valid header"));
        assert_eq!(block_err, None, "{}", sc.name);
        assert_eq!(block_frames, want, "{}: block decode diverged", sc.name);
        // The real mapping (through a file) must agree with the owned
        // backing too.
        let path = temp_pcap(&format!("{}.pcap", sc.name), &bytes);
        let (file_frames, file_err) =
            block_outcome(&mut MmapReader::open(&path).expect("valid header"));
        assert_eq!((file_frames, file_err), (want, None), "{}", sc.name);
    }
}

#[test]
fn sharded_batch_reports_match_serial_over_oracle_matrix() {
    for sc in scenario_matrix(0xBA5E) {
        let frames = scenario_capture(&sc);
        let serial = engine(0, TrackerConfig::batch());
        let mut want = Vec::new();
        serial
            .analyze_stream(frames.iter().cloned().map(Ok), |a| want.push(a))
            .expect("serial analysis succeeds");
        let want = rendered(&serial, &want);
        assert!(!want.is_empty(), "{}: no connections analyzed", sc.name);
        for shards in [2, 5] {
            let sharded = engine(shards, TrackerConfig::batch());
            let mut got = Vec::new();
            sharded
                .analyze_stream(frames.iter().cloned().map(Ok), |a| got.push(a))
                .expect("sharded analysis succeeds");
            assert_eq!(
                rendered(&sharded, &got),
                want,
                "{}: {shards}-shard reports diverged from serial",
                sc.name
            );
        }
        // The strict sources are the lossy source with nothing to
        // charge: on a clean capture the two read the same reports.
        let path = temp_pcap(&format!("{}-clean.pcap", sc.name), &pcap_of(&frames));
        let strict = serial.analyze_pcap(&path).expect("clean capture");
        let (lossy, report) = serial.analyze_pcap_lossy(&path).expect("clean capture");
        assert_eq!(report.counts.total(), 0, "{}: clean capture", sc.name);
        assert_eq!(report.connections, lossy.len(), "{}", sc.name);
        assert_eq!(
            rendered(&serial, &lossy),
            rendered(&serial, &strict),
            "{}: lossy reports diverged from strict on a clean capture",
            sc.name
        );
    }
}

/// `sessions` short sessions from distinct routers to one collector,
/// `gap` apart: far enough that the streaming tracker idles the early
/// ones out while later ones are still arriving.
fn short_sessions(sessions: u8, gap: Micros) -> Vec<TcpFrame> {
    let collector = std::net::Ipv4Addr::new(10, 9, 0, 200);
    let mut frames = Vec::new();
    for i in 0..sessions {
        let router = std::net::Ipv4Addr::new(10, 9, i, 1);
        let at = |us: i64| Micros(i as i64 * gap.0 + us);
        frames.push(
            FrameBuilder::new(router, collector)
                .at(at(0))
                .ports(179, 40000)
                .seq(100)
                .flags(TcpFlags::SYN)
                .build(),
        );
        frames.push(
            FrameBuilder::new(collector, router)
                .at(at(100))
                .ports(40000, 179)
                .seq(900)
                .ack_to(101)
                .flags(TcpFlags::SYN | TcpFlags::ACK)
                .build(),
        );
        frames.push(
            FrameBuilder::new(router, collector)
                .at(at(200))
                .ports(179, 40000)
                .seq(101)
                .ack_to(901)
                .payload(vec![0xCA; 700])
                .build(),
        );
        frames.push(
            FrameBuilder::new(collector, router)
                .at(at(400))
                .ports(40000, 179)
                .seq(901)
                .ack_to(801)
                .build(),
        );
    }
    frames
}

#[test]
fn read_error_delivers_the_same_reports_at_every_lane_count() {
    // 40 sessions 9 s apart under the 60 s idle timeout: most have
    // finalized by the time the reader hits the cut in the last record.
    let bytes = pcap_of(&short_sessions(40, Micros::from_secs(9)));
    let path = temp_pcap("cut-short.pcap", &bytes[..bytes.len() - 20]);
    let outcome = |shards: usize| {
        let engine = engine(shards, TrackerConfig::streaming());
        let mut got = Vec::new();
        let err = engine
            .analyze_pcap_with(&path, |a| got.push(a))
            .expect_err("the last record is cut short");
        (rendered(&engine, &got), err.to_string())
    };
    let (want, want_err) = outcome(0);
    assert!(
        (1..40).contains(&want.len()),
        "finalized before the failure, and only those: {}",
        want.len()
    );
    for shards in [2, 5] {
        let (got, err) = outcome(shards);
        assert_eq!(got, want, "{shards} lanes: delivered set diverged");
        assert_eq!(err, want_err, "{shards} lanes");
    }
}

#[test]
fn sharded_lossy_runs_match_serial_under_chaos() {
    for sc in scenario_matrix(0xBA5E) {
        let frames = scenario_capture(&sc);
        for (mode, spec) in [
            ("survivable", ChaosSpec::survivable(sc.seed)),
            ("poison", ChaosSpec::poison(sc.seed)),
        ] {
            let (bytes, _) = apply_chaos(&frames, &spec);
            let serial = engine(0, TrackerConfig::streaming());
            let mut want = Vec::new();
            let want_report = serial
                .analyze_lossy_with(
                    LossyReader::new(&bytes[..]).expect("chaos keeps the header"),
                    |a| want.push(a),
                )
                .expect("lossy runs never abort on damage");
            let want = rendered(&serial, &want);
            let sharded = engine(3, TrackerConfig::streaming());
            let mut got = Vec::new();
            let got_report = sharded
                .analyze_lossy_with(
                    LossyReader::new(&bytes[..]).expect("chaos keeps the header"),
                    |a| got.push(a),
                )
                .expect("lossy runs never abort on damage");
            assert_eq!(
                rendered(&sharded, &got),
                want,
                "{}+{mode}: sharded lossy reports diverged",
                sc.name
            );
            assert_eq!(
                format!("{got_report:?}"),
                format!("{want_report:?}"),
                "{}+{mode}: run reports (anomaly counts) diverged",
                sc.name
            );
        }
    }
}

/// A small synthetic capture parameterized for the proptests: `n`
/// data frames between two hosts, exercising the SWAR option layouts
/// (all-NOP padding, timestamps, SACK) and plain headers.
fn synthetic_frames(n: usize, opt_mix: u8, payload: usize) -> Vec<TcpFrame> {
    let a = std::net::Ipv4Addr::new(10, 7, 0, 1);
    let b = std::net::Ipv4Addr::new(10, 7, 0, 2);
    let mut frames = Vec::new();
    let mut seq = 1u32;
    for i in 0..n {
        let mut builder = FrameBuilder::new(a, b)
            .at(Micros(i as i64 * 250))
            .ports(179, 40000)
            .seq(seq)
            .ack_to(1)
            .flags(TcpFlags::ACK)
            .payload(vec![0x5A; payload]);
        match (i as u8).wrapping_add(opt_mix) % 4 {
            0 => {}
            1 => builder = builder.option(TcpOption::Timestamps(i as u32, i as u32 / 2)),
            2 => builder = builder.option(TcpOption::Sack(vec![(seq, seq + 100)])),
            _ => {
                builder = builder
                    .option(TcpOption::Timestamps(i as u32, 0))
                    .option(TcpOption::SackPermitted)
            }
        }
        frames.push(builder.build());
        seq = seq.wrapping_add(payload as u32);
    }
    frames
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncating a capture anywhere yields the same decoded prefix and
    /// the same rendered error from the buffered reader and the mmap
    /// reader's block decoder.
    #[test]
    fn truncation_identity_mmap_vs_buffered_vs_block(
        n in 1usize..24,
        opt_mix in any::<u8>(),
        payload in 0usize..600,
        cut_ppm in 0u32..=1_000_000,
    ) {
        let bytes = pcap_of(&synthetic_frames(n, opt_mix, payload));
        let cut = (bytes.len() as u64 * cut_ppm as u64 / 1_000_000) as usize;
        let bytes = &bytes[..cut];
        let want = buffered_outcome(bytes);
        let mmap = MmapReader::from_vec(bytes.to_vec());
        match (want, mmap) {
            (Err(want_err), Err(mmap_err)) => {
                prop_assert_eq!(want_err, mmap_err.to_string());
            }
            (Ok((want_frames, want_err)), Ok(mut reader)) => {
                let (block_frames, block_err) = block_outcome(&mut reader);
                prop_assert_eq!(block_frames, want_frames);
                prop_assert_eq!(block_err, want_err);
            }
            (want, mmap) => {
                return Err(TestCaseError::fail(format!(
                    "readers disagree on header validity: buffered {want:?} vs mmap {:?}",
                    mmap.map(|_| ())
                )));
            }
        }
    }

    /// Sharded batch analysis equals serial for arbitrary small
    /// captures at an arbitrary shard count.
    #[test]
    fn sharded_reports_equal_serial_for_synthetic_captures(
        n in 1usize..32,
        opt_mix in any::<u8>(),
        payload in 0usize..600,
        shards in 1usize..6,
    ) {
        let frames = synthetic_frames(n, opt_mix, payload);
        let serial = engine(0, TrackerConfig::batch());
        let mut want = Vec::new();
        serial
            .analyze_stream(frames.iter().cloned().map(Ok), |a| want.push(a))
            .expect("serial analysis succeeds");
        let sharded = engine(shards, TrackerConfig::batch());
        let mut got = Vec::new();
        sharded
            .analyze_stream(frames.iter().cloned().map(Ok), |a| got.push(a))
            .expect("sharded analysis succeeds");
        prop_assert_eq!(rendered(&sharded, &got), rendered(&serial, &want));
    }
}
