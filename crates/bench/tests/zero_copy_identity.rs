//! Byte-identity of the zero-copy hot path against owned frames, across
//! a scenario matrix.
//!
//! Two layers are proven equal:
//!
//! 1. **Frame level** — `next_view().to_frame()` reproduces exactly
//!    what `read_all` parses from the same capture.
//! 2. **Analysis level** — the one engine fed borrowed frame views from
//!    a pcap file emits reports byte-identical (as JSON), in the same
//!    order, to the same engine over the materialized frame slice.

use tdat::{Analysis, Report, StreamAnalyzer};
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
    let engine = StreamAnalyzer::default();
    let config = engine.analyzer().config();
    let dir = std::env::temp_dir();
    for (name, scenario) in scenario_matrix() {
        let frames = generate_transfer(Dataset::IspAQuagga, 0, scenario, 3_000, 11).frames;
        let path = dir.join(format!("tdat_zero_copy_identity_{name}.pcap"));
        std::fs::write(&path, pcap_of(&frames)).expect("write temp pcap");

        let render = |analyses: Vec<Analysis>| -> Vec<String> {
            analyses
                .iter()
                .map(|a| Report::from_analysis(a, config).to_json())
                .collect()
        };
        let owned = render(engine.analyze_frames(&frames));
        let viewed = render(engine.analyze_pcap(&path).expect("pcap views"));
        std::fs::remove_file(&path).ok();
        assert!(!owned.is_empty(), "{name}: no connection analyzed");
        assert_eq!(
            viewed, owned,
            "{name}: reports differ between views and owned frames"
        );
    }
}
