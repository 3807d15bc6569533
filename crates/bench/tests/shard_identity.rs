//! Observational identity of the sharded monitor against the serial
//! engine: the same input must produce byte-identical JSONL events
//! (alerts, reports, verdicts) and snapshot rows at any shard count.
//!
//! Three input classes are proven equal at 2 and 4 shards:
//!
//! 1. The full 31-scenario oracle matrix, clean.
//! 2. The same matrix under both chaos presets (`survivable`,
//!    `poison`), including the attributed-anomaly side channel.
//! 3. A property check that the connection-hash partition can never
//!    split one connection across shards (direction symmetry).

use proptest::prelude::*;
use tdat_monitor::shard_of;
use tdat_monitor::AttributedAnomaly;
use tdat_monitor::{Monitor, MonitorConfig};
use tdat_oracle::{scenario_capture, scenario_matrix};
use tdat_packet::{LossyReader, TcpFrame};
use tdat_tcpsim::chaos::{apply_chaos, ChaosSpec};
use tdat_timeset::Micros;
use tdat_trace::ConnKey;

fn config(shards: usize) -> MonitorConfig {
    MonitorConfig::builder()
        .window(Micros::from_secs(60))
        .interval(Micros::from_secs(10))
        .shards(shards)
        .build()
        .expect("valid config")
}

/// Everything the engine observably produces for one run: the full
/// rendered event stream plus a mid-run and final snapshot.
#[derive(Debug, PartialEq)]
struct Observed {
    events: Vec<String>,
    snapshot: Vec<(String, String, String)>,
}

/// Runs clean frames through an engine at the given shard count.
fn observe_frames(frames: &[TcpFrame], shards: usize) -> Observed {
    let mut monitor = Monitor::new(config(shards));
    let id = monitor.register_source("capture");
    let mut last = Micros::ZERO;
    for frame in frames {
        last = last.max(frame.timestamp);
        monitor.ingest_owned(id, frame.clone());
    }
    monitor.advance_to(last + Micros::from_secs(30));
    let snapshot = monitor.snapshot_reports();
    monitor.finish();
    let events = monitor.drain_events().iter().map(|e| e.to_json()).collect();
    Observed { events, snapshot }
}

/// Runs a damaged capture (pcap bytes) through the lossy reader into
/// an engine, anomalies attributed the way `FollowSource` does it.
fn observe_lossy(bytes: &[u8], shards: usize) -> Observed {
    let mut monitor = Monitor::new(config(shards));
    let id = monitor.register_source("capture");
    let mut reader = LossyReader::new(bytes).expect("chaos output has a valid header");
    let mut last = Micros::ZERO;
    while let Some(lossy) = reader.next_lossy().expect("lossy reader survives damage") {
        let key = match &lossy.frame {
            Some(frame) => Some(ConnKey::of(frame)),
            None => lossy.endpoints.map(|(x, y)| ConnKey::of_endpoints(x, y)),
        };
        for anomaly in lossy.anomalies {
            monitor.note_anomaly_from(id, AttributedAnomaly { key, anomaly });
        }
        if let Some(frame) = lossy.frame {
            last = last.max(frame.timestamp);
            monitor.ingest_owned(id, frame);
        }
    }
    monitor.advance_to(last + Micros::from_secs(30));
    let snapshot = monitor.snapshot_reports();
    monitor.finish();
    let events = monitor.drain_events().iter().map(|e| e.to_json()).collect();
    Observed { events, snapshot }
}

#[test]
fn oracle_matrix_is_byte_identical_across_shard_counts() {
    for sc in scenario_matrix(0xBA5E) {
        let frames = scenario_capture(&sc);
        let serial = observe_frames(&frames, 1);
        assert!(
            !serial.events.is_empty(),
            "{}: scenario produced no events",
            sc.name
        );
        for shards in [2, 4] {
            let sharded = observe_frames(&frames, shards);
            assert_eq!(
                serial, sharded,
                "{}: {shards}-shard output diverged from serial",
                sc.name
            );
        }
    }
}

#[test]
fn chaos_presets_are_byte_identical_across_shard_counts() {
    for sc in scenario_matrix(0xBA5E) {
        let frames = scenario_capture(&sc);
        for (mode, spec) in [
            ("survivable", ChaosSpec::survivable(sc.seed)),
            ("poison", ChaosSpec::poison(sc.seed)),
        ] {
            let (bytes, _) = apply_chaos(&frames, &spec);
            let serial = observe_lossy(&bytes, 1);
            for shards in [2, 4] {
                let sharded = observe_lossy(&bytes, shards);
                assert_eq!(
                    serial, sharded,
                    "{}+{mode}: {shards}-shard output diverged from serial",
                    sc.name
                );
            }
        }
    }
}

proptest! {
    /// Hash partitioning can never split one connection: both frame
    /// directions normalize to the same key and the same shard, and
    /// the shard index is always in range.
    #[test]
    fn hash_partition_never_splits_a_connection(
        a_ip in any::<u32>(),
        a_port in any::<u16>(),
        b_ip in any::<u32>(),
        b_port in any::<u16>(),
        shards in 1usize..=16,
    ) {
        let a = (std::net::Ipv4Addr::from(a_ip), a_port);
        let b = (std::net::Ipv4Addr::from(b_ip), b_port);
        let fwd = ConnKey::of_endpoints(a, b);
        let rev = ConnKey::of_endpoints(b, a);
        prop_assert_eq!(fwd, rev, "key normalization is direction-symmetric");
        let shard = shard_of(&fwd, shards);
        prop_assert_eq!(shard, shard_of(&rev, shards));
        prop_assert!(shard < shards);
    }
}
