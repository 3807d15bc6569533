//! API-redesign contract: the streaming engine ([`StreamAnalyzer`])
//! must produce *byte-identical* analyses to the batch path
//! ([`Analyzer::analyze_frames`]) on a multi-connection interleaved
//! capture — from owned frames and through the pcap file entry point.
//! (Identity under parallelism is `batch_shard_identity`'s.)

use tdat::{Analyzer, AnalyzerConfig, StreamAnalyzer, StreamOptions, TrackerConfig};
use tdat_bgp::TableGenerator;
use tdat_packet::TcpFrame;
use tdat_tcpsim::scenario::{monitoring_topology, transfer_spec, TopologyOptions};
use tdat_tcpsim::{BgpReceiverConfig, SenderTimer, Simulation};
use tdat_timeset::Micros;

const ROUTERS: usize = 3;

/// Simulates three concurrent table transfers (one fast, one
/// timer-paced, one with a slow collector) through the shared
/// monitoring topology and returns the sniffer's interleaved frame
/// trace.
fn interleaved_trace() -> Vec<TcpFrame> {
    let mut topo = monitoring_topology(ROUTERS, TopologyOptions::default());
    let mut sim_specs = Vec::new();
    for i in 0..ROUTERS {
        let stream = TableGenerator::new(1000 + i as u64)
            .routes(2500 + 500 * i)
            .generate()
            .to_update_stream();
        let mut spec = transfer_spec(&topo, i, stream);
        spec.open_at = Micros::from_millis(40 * i as i64);
        match i {
            1 => {
                spec.sender_app.timer = Some(SenderTimer {
                    interval: Micros::from_millis(150),
                    quota: 16_384,
                });
            }
            2 => {
                spec.receiver_app = BgpReceiverConfig {
                    processing_rate: 120_000.0,
                    ..BgpReceiverConfig::default()
                };
            }
            _ => {}
        }
        sim_specs.push(spec);
    }
    let mut sim = Simulation::new(topo.take_net());
    for spec in sim_specs {
        sim.add_connection(spec);
    }
    sim.run(Micros::from_secs(600));
    sim.into_output().taps.remove(0).1
}

/// The full analysis rendered for comparison. `Debug` covers every
/// public field (profile, period, trace, labels, series, vector,
/// transfer), so equal strings mean equal results.
fn fingerprints(analyses: &[tdat::Analysis]) -> Vec<String> {
    analyses.iter().map(|a| format!("{a:?}")).collect()
}

fn batch_options() -> StreamOptions {
    StreamOptions {
        tracker: TrackerConfig::batch(),
        shards: 0,
        ..Default::default()
    }
}

#[test]
fn streaming_matches_batch_single_threaded() {
    let frames = interleaved_trace();
    let batch = fingerprints(&Analyzer::default().analyze_frames(&frames));
    assert_eq!(batch.len(), ROUTERS, "one analysis per router session");

    let engine = StreamAnalyzer::with_options(AnalyzerConfig::default(), batch_options());
    let mut streamed = Vec::new();
    engine
        .analyze_stream(frames.iter().cloned().map(Ok), |a| {
            streamed.push(format!("{a:?}"))
        })
        .expect("in-memory stream cannot fail");
    assert_eq!(streamed, batch);
}

#[test]
fn streaming_pcap_entry_point_matches_batch_pcap() {
    let frames = interleaved_trace();
    let path = std::env::temp_dir().join("tdat_streaming_vs_batch.pcap");
    tdat_packet::write_pcap_file(&path, &frames).expect("write temp pcap");

    let batch = fingerprints(&Analyzer::default().analyze_pcap(&path).expect("batch read"));
    let engine = StreamAnalyzer::with_options(AnalyzerConfig::default(), batch_options());
    let streamed = fingerprints(&engine.analyze_pcap(&path).expect("streaming read"));
    std::fs::remove_file(&path).ok();
    assert_eq!(streamed, batch);
}

#[test]
fn streaming_finalization_policy_still_covers_every_connection() {
    // With the streaming tracker (close/idle finalization) the engine
    // must still deliver one analysis per session, each attributing the
    // same dominant factor as the batch path, even though connections
    // may finalize before end-of-capture.
    let frames = interleaved_trace();
    let batch = Analyzer::default().analyze_frames(&frames);

    let engine = StreamAnalyzer::with_options(
        AnalyzerConfig::default(),
        StreamOptions {
            tracker: TrackerConfig::streaming(),
            shards: 0,
            ..Default::default()
        },
    );
    let mut streamed = Vec::new();
    engine
        .analyze_stream(frames.iter().cloned().map(Ok), |a| streamed.push(a))
        .expect("in-memory stream cannot fail");
    assert_eq!(streamed.len(), batch.len());
    for b in &batch {
        let s = streamed
            .iter()
            .find(|s| s.sender == b.sender && s.receiver == b.receiver)
            .expect("every batch connection appears in the stream output");
        assert_eq!(
            s.vector.dominant_factor(),
            b.vector.dominant_factor(),
            "{} -> {}",
            b.sender.0,
            b.receiver.0
        );
    }
}
