//! Observational identity of the batch pass's readers and sources:
//!
//! 1. **mmap vs buffered** — [`MmapReader`] (mapped or owned backing)
//!    decodes the same frames as the classic [`PcapReader`], across the
//!    31-scenario oracle matrix and under arbitrary truncation (same
//!    frames, then the *same rendered error*).
//! 2. **block decode vs per-frame decode** — `next_views_into` yields
//!    the same frame sequence and the same error at the same position
//!    as the `PcapReader::next_view` loop.
//! 3. **the batch pass's sources** — a pcap source that fails
//!    mid-capture delivers exactly the connections that finalized
//!    before the failing record, then the reader's error; and on a
//!    clean capture the lossy source reads what the strict one does.

use proptest::prelude::*;
use std::path::PathBuf;
use tdat::{Analysis, AnalyzerConfig, Report, StreamAnalyzer, StreamOptions, TrackerConfig};
use tdat_oracle::{scenario_capture, scenario_matrix};
use tdat_packet::{
    FrameBlock, FrameBuilder, MmapReader, PcapReader, PcapWriter, TcpFlags, TcpFrame, TcpOption,
};
use tdat_timeset::Micros;
use tdat_trace::ConnectionTracker;

fn pcap_of(frames: &[TcpFrame]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut writer = PcapWriter::new(&mut bytes).expect("in-memory pcap");
    for frame in frames {
        writer.write_frame(frame).expect("in-memory pcap");
    }
    bytes
}

fn temp_pcap(name: &str, bytes: &[u8]) -> PathBuf {
    let dir = std::env::temp_dir().join("tdat_batch_identity");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, bytes).expect("temp pcap");
    path
}

fn engine(tracker: TrackerConfig) -> StreamAnalyzer {
    StreamAnalyzer::with_options(
        AnalyzerConfig::default(),
        StreamOptions {
            tracker,
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

/// The strict sources are the lossy source with nothing to charge: on
/// a clean capture the two read the same reports.
#[test]
fn lossy_reports_match_strict_on_clean_captures_over_oracle_matrix() {
    let engine = engine(TrackerConfig::batch());
    for sc in scenario_matrix(0xBA5E) {
        let path = temp_pcap(
            &format!("{}-clean.pcap", sc.name),
            &pcap_of(&scenario_capture(&sc)),
        );
        let strict = engine.analyze_pcap(&path).expect("clean capture");
        assert!(!strict.is_empty(), "{}: no connections analyzed", sc.name);
        let (lossy, report) = engine.analyze_pcap_lossy(&path).expect("clean capture");
        assert_eq!(report.counts.total(), 0, "{}: clean capture", sc.name);
        assert_eq!(report.connections, lossy.len(), "{}", sc.name);
        assert_eq!(
            rendered(&engine, &lossy),
            rendered(&engine, &strict),
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
fn read_error_delivers_what_finalized_before_the_cut() {
    // 40 sessions 9 s apart under the 60 s idle timeout: most have
    // finalized by the time the reader hits the cut in the last record.
    let bytes = pcap_of(&short_sessions(40, Micros::from_secs(9)));
    let cut = &bytes[..bytes.len() - 20];
    let (read, read_err) = buffered_outcome(cut).expect("the header is whole");
    let read_err = read_err.expect("the last record is cut short");

    let engine = engine(TrackerConfig::streaming());
    let mut got = Vec::new();
    let err = engine
        .analyze_pcap_with(temp_pcap("cut-short.pcap", cut), |a| got.push(a))
        .expect_err("the last record is cut short");

    // What finalized while the frames ahead of the cut were ingested, in
    // that order: the start of a whole analysis of those frames, whose
    // end-of-input sweep the failed read never reaches.
    let mut tracker = ConnectionTracker::new(TrackerConfig::streaming());
    let finalized: usize = read.iter().map(|f| tracker.ingest(f).len()).sum();
    assert!(
        (1..40).contains(&finalized),
        "finalized before the failure: {finalized}"
    );
    let whole = engine.analyze_frames(&read);
    assert_eq!(
        rendered(&engine, &got),
        rendered(&engine, &whole[..finalized])
    );
    assert_eq!(err.to_string(), format!("packet trace error: {read_err}"));
}

/// A small synthetic capture parameterized for the proptest: `n`
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
}
