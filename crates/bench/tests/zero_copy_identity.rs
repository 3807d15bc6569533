//! Byte-identity of the zero-copy hot path against the allocating
//! batch path, across the oracle scenario matrix.
//!
//! Two layers are proven equal:
//!
//! 1. **Frame level** — `next_view().to_frame()` reproduces exactly
//!    what `read_all` parses from the same capture.
//! 2. **Analysis level** — the streaming engine fed borrowed frame
//!    views from a pcap file emits reports byte-identical (as JSON) to
//!    the batch analyzer over the materialized frame vector.

use tdat::{Analyzer, AnalyzerConfig, Report, StreamAnalyzer, StreamOptions, TrackerConfig};
use tdat_bench::{generate_transfer, Dataset, Scenario};
use tdat_packet::{PcapReader, PcapWriter, TcpFrame};
use tdat_timeset::Micros;

fn scenario_matrix() -> Vec<(&'static str, Scenario)> {
    vec![
        ("clean", Scenario::Clean),
        (
            "timer_paced",
            Scenario::TimerPaced {
                interval: Micros::from_millis(50),
                quota: 8_192,
            },
        ),
        ("slow_receiver", Scenario::SlowReceiver { rate: 200_000.0 }),
        ("upstream_loss", Scenario::UpstreamLoss { p: 0.01 }),
        (
            "downstream_burst",
            Scenario::DownstreamBurst { at: 0.3, len: 0.1 },
        ),
        ("zero_window_bug", Scenario::ZeroWindowBug),
    ]
}

fn pcap_of(frames: &[TcpFrame]) -> Vec<u8> {
    let mut pcap = Vec::new();
    let mut writer = PcapWriter::new(&mut pcap).expect("in-memory pcap");
    for f in frames {
        writer.write_frame(f).expect("in-memory pcap");
    }
    pcap
}

#[test]
fn view_decode_is_bit_identical_to_owned_decode() {
    for (name, scenario) in scenario_matrix() {
        let frames = generate_transfer(Dataset::IspAQuagga, 0, scenario, 3_000, 11).frames;
        let pcap = pcap_of(&frames);

        let owned = PcapReader::new(&pcap[..])
            .expect("valid pcap")
            .read_all()
            .expect("valid records");
        let mut reader = PcapReader::new(&pcap[..]).expect("valid pcap");
        let mut viewed = Vec::new();
        while let Some(view) = reader.next_view().expect("valid record") {
            viewed.push(view.to_frame());
        }
        assert_eq!(owned.len(), viewed.len(), "{name}: frame count");
        for (i, (a, b)) in owned.iter().zip(&viewed).enumerate() {
            assert_eq!(a, b, "{name}: frame {i} differs between paths");
        }
    }
}

#[test]
fn streaming_zero_copy_reports_match_batch_reports() {
    let config = AnalyzerConfig::default();
    let analyzer = Analyzer::new(config.clone());
    let engine = StreamAnalyzer::with_options(
        config.clone(),
        StreamOptions {
            tracker: TrackerConfig::streaming(),
            shards: 0,
            ..Default::default()
        },
    );
    let dir = std::env::temp_dir();
    for (name, scenario) in scenario_matrix() {
        let frames = generate_transfer(Dataset::IspAQuagga, 0, scenario, 3_000, 11).frames;
        let pcap = pcap_of(&frames);
        let path = dir.join(format!("tdat_zero_copy_identity_{name}.pcap"));
        std::fs::write(&path, &pcap).expect("write temp pcap");

        let batch: Vec<String> = analyzer
            .analyze_frames(&frames)
            .iter()
            .map(|a| Report::from_analysis(a, &config).to_json())
            .collect();
        let streamed: Vec<String> = engine
            .analyze_pcap(&path)
            .expect("streaming analysis")
            .iter()
            .map(|a| Report::from_analysis(a, &config).to_json())
            .collect();
        std::fs::remove_file(&path).ok();

        assert_eq!(batch.len(), streamed.len(), "{name}: connection count");
        // Both paths order single-connection results identically; for
        // robustness compare as sorted multisets of report lines.
        let mut batch = batch;
        let mut streamed = streamed;
        batch.sort();
        streamed.sort();
        assert_eq!(batch, streamed, "{name}: reports differ between paths");
    }
}
