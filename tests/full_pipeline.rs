//! Cross-crate integration: the complete paper pipeline, disk formats
//! included — simulate → pcap file → tcptrace'/pcap2bgp/MCT → T-DAT →
//! factors and detectors.

use tdat::{Factor, StreamAnalyzer};
use tdat_bgp::{read_mrt, BgpMessage, TableGenerator};
use tdat_packet::{read_pcap_file, write_pcap_file};
use tdat_pcap2bgp::{extract_all, to_mrt_records};
use tdat_tcpsim::scenario::{monitoring_topology, transfer_spec, TopologyOptions};
use tdat_tcpsim::{SenderTimer, Simulation};
use tdat_timeset::Micros;

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("tdat_integration");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

#[test]
fn simulate_to_pcap_to_analysis_round_trip() {
    // Simulate a timer-paced transfer.
    let table = TableGenerator::new(11).routes(8_000).generate();
    let mut topo = monitoring_topology(1, TopologyOptions::default());
    let mut spec = transfer_spec(&topo, 0, table.to_update_stream());
    spec.sender_app.timer = Some(SenderTimer {
        interval: Micros::from_millis(200),
        quota: 8192,
    });
    let mut sim = Simulation::new(topo.take_net());
    sim.add_connection(spec);
    sim.run(Micros::from_secs(600));
    let out = sim.into_output();

    // Through the disk format.
    let path = temp_path("pipeline.pcap");
    write_pcap_file(&path, out.taps[0].1.iter()).expect("write pcap");
    let frames = read_pcap_file(&path).expect("read pcap");
    assert_eq!(frames.len(), out.taps[0].1.len());

    // Analyze from the file via the streaming engine.
    let analyses = StreamAnalyzer::new(Default::default())
        .analyze_pcap(&path)
        .expect("analyze");
    assert_eq!(analyses.len(), 1);
    let analysis = &analyses[0];

    // The transfer is sender-app limited and the timer is inferable.
    assert_eq!(analysis.vector.dominant_factor(), Factor::BgpSenderApp);
    let timer = analysis.infer_timer(8).expect("timer");
    assert!((150.0..250.0).contains(&timer.period.as_millis_f64()));

    // MCT sees exactly the full table.
    let transfer = analysis.transfer.as_ref().expect("transfer detected");
    assert_eq!(transfer.prefix_count, 8_000);
}

#[test]
fn pcap2bgp_to_mrt_file_round_trip() {
    let table = TableGenerator::new(12).routes(2_000).generate();
    let mut topo = monitoring_topology(1, TopologyOptions::default());
    let spec = transfer_spec(&topo, 0, table.to_update_stream());
    let mut sim = Simulation::new(topo.take_net());
    sim.add_connection(spec);
    sim.run(Micros::from_secs(600));
    let out = sim.into_output();

    let results = extract_all(&out.taps[0].1);
    assert_eq!(results.len(), 1);
    let (conn, extraction) = &results[0];
    assert_eq!(extraction.announced_prefixes(), 2_000);

    // To MRT on disk and back.
    let path = temp_path("archive.mrt");
    let records = to_mrt_records(conn, extraction, 65_001, 65_535);
    let file = std::fs::File::create(&path).expect("create mrt");
    tdat_bgp::write_mrt(std::io::BufWriter::new(file), &records).expect("write mrt");
    let back = read_mrt(std::fs::File::open(&path).expect("open")).expect("read mrt");
    assert_eq!(back.len(), records.len());
    let announced: usize = back
        .iter()
        .filter_map(|r| match r.bgp_message().ok()? {
            BgpMessage::Update(u) => Some(u.announced.len()),
            _ => None,
        })
        .sum();
    assert_eq!(announced, 2_000);
}

#[test]
fn collector_archive_matches_pcap2bgp_reconstruction() {
    // The collector's own archive (what Quagga would log) and the
    // pcap2bgp reconstruction from the sniffer must agree on content.
    let table = TableGenerator::new(13).routes(3_000).generate();
    let mut topo = monitoring_topology(1, TopologyOptions::default());
    let spec = transfer_spec(&topo, 0, table.to_update_stream());
    let mut sim = Simulation::new(topo.take_net());
    sim.add_connection(spec);
    sim.run(Micros::from_secs(600));
    let out = sim.into_output();

    let archive_updates: Vec<_> = out.connections[0]
        .archive
        .iter()
        .filter_map(|(_, m)| match m {
            BgpMessage::Update(u) => Some(u),
            _ => None,
        })
        .collect();
    let results = extract_all(&out.taps[0].1);
    let reconstructed: Vec<_> = results[0]
        .1
        .messages
        .iter()
        .filter_map(|(_, m)| match m {
            BgpMessage::Update(u) => Some(u.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(archive_updates, reconstructed);
}

#[test]
fn analyzer_handles_multiple_connections_in_one_capture() {
    let mut topo = monitoring_topology(3, TopologyOptions::default());
    let mut sim = Simulation::new(topo.take_net());
    for i in 0..3 {
        let table = TableGenerator::new(20 + i as u64).routes(1_500).generate();
        sim.add_connection(transfer_spec(&topo, i, table.to_update_stream()));
    }
    sim.run(Micros::from_secs(600));
    let out = sim.into_output();
    let analyses = StreamAnalyzer::default().analyze_frames(&out.taps[0].1);
    assert_eq!(analyses.len(), 3);
    for a in &analyses {
        let transfer = a.transfer.as_ref().expect("transfer per connection");
        assert_eq!(transfer.prefix_count, 1_500);
        assert!(a.period.duration() > Micros::ZERO);
    }
}

#[test]
fn empty_and_degenerate_captures_do_not_panic() {
    let analyses = StreamAnalyzer::default().analyze_frames(&[]);
    assert!(analyses.is_empty());

    // A single stray ACK.
    let frame =
        tdat_packet::FrameBuilder::new("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
            .ports(179, 40000)
            .ack_to(1)
            .build();
    let analyses = StreamAnalyzer::default().analyze_frames(&[frame]);
    assert_eq!(analyses.len(), 1);
    assert!(analyses[0].transfer.is_none());
    assert!(analyses[0].series.all_loss().is_empty());
}
