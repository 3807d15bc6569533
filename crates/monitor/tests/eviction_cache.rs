//! Regression tests: LRU eviction mid-watch must finalize the
//! monitor's cached per-connection tick state and clear every alert it
//! raised for the evicted session — the cache can neither leak nor go
//! stale when `max_connections` forces connections out.

use std::net::Ipv4Addr;

use tdat_monitor::{AlertAction, AlertConfig, Monitor, MonitorConfig, MonitorEvent, TrackerConfig};
use tdat_packet::{FrameBuilder, TcpFlags, TcpFrame, TcpOption};
use tdat_timeset::Micros;

const CAP: usize = 4;
const SESSIONS: usize = 12;

fn config(shards: usize) -> MonitorConfig {
    MonitorConfig::builder()
        .window(Micros::from_secs(120))
        .interval(Micros::from_secs(5))
        .tracker(TrackerConfig {
            idle_timeout: None,
            max_connections: Some(CAP),
            ..TrackerConfig::default()
        })
        .alerts(AlertConfig {
            stall_after: Micros::from_secs(20),
            ..AlertConfig::default()
        })
        .shards(shards)
        .build()
        .expect("valid config")
}

/// Handshake plus a short data burst between dedicated endpoints, then
/// silence — the session stays open (no FIN) and stalls.
fn session_frames(i: usize, t0: i64) -> Vec<TcpFrame> {
    let a = Ipv4Addr::new(10, 1, i as u8, 1);
    let b = Ipv4Addr::new(10, 1, i as u8, 2);
    let mut t = t0;
    let mut frames = vec![
        FrameBuilder::new(a, b)
            .at(Micros(t))
            .ports(179, 40000)
            .seq(0)
            .flags(TcpFlags::SYN)
            .option(TcpOption::Mss(1448))
            .window(65535)
            .build(),
        FrameBuilder::new(b, a)
            .at(Micros(t + 100))
            .ports(40000, 179)
            .seq(0)
            .ack_to(1)
            .flags(TcpFlags::SYN | TcpFlags::ACK)
            .option(TcpOption::Mss(1448))
            .window(65535)
            .build(),
    ];
    t += 1_000;
    let mut seq = 1u32;
    for _ in 0..3 {
        frames.push(
            FrameBuilder::new(a, b)
                .at(Micros(t))
                .ports(179, 40000)
                .seq(seq)
                .ack_to(1)
                .payload(vec![0xab; 1448])
                .build(),
        );
        seq = seq.wrapping_add(1448);
        frames.push(
            FrameBuilder::new(b, a)
                .at(Micros(t + 500))
                .ports(40000, 179)
                .seq(1)
                .ack_to(seq)
                .window(65535)
                .build(),
        );
        t += 1_000;
    }
    frames
}

/// Drives 12 staggered stalling sessions through a cap-4 watch and
/// returns the rendered event stream.
fn run_eviction_watch(shards: usize) -> Vec<String> {
    let mut monitor = Monitor::new(config(shards));
    let id = monitor.register_source("capture");
    for i in 0..SESSIONS {
        // 15 s apart: each new session finds the tracker full and
        // LRU-evicts the oldest one, which by then has a raised
        // stalled-transfer alert (stall_after = 20 s).
        for frame in session_frames(i, i as i64 * 15_000_000) {
            monitor.ingest_owned(id, frame);
        }
        assert!(
            monitor.open_connections() <= CAP,
            "cap must hold after every ingest (open = {})",
            monitor.open_connections()
        );
    }
    monitor.advance_to(Micros::from_secs(300));

    // Mid-watch (before finish): evictions already finalized most
    // sessions, and their cached tick state must be gone — only live
    // connections may have snapshot rows.
    let finalized_mid_watch = monitor.metrics().connections_finalized();
    assert!(
        finalized_mid_watch >= (SESSIONS - CAP) as u64,
        "evictions must finalize mid-watch (finalized = {finalized_mid_watch})"
    );
    let snapshot = monitor.snapshot_reports();
    assert!(
        snapshot.len() <= CAP,
        "evicted connections left stale cache entries: {} rows",
        snapshot.len()
    );

    monitor.finish();
    assert_eq!(monitor.metrics().connections_finalized(), SESSIONS as u64);
    assert!(
        monitor.snapshot_reports().is_empty(),
        "finish must clear every cached analysis"
    );
    monitor.drain_events().iter().map(|e| e.to_json()).collect()
}

#[test]
fn eviction_mid_watch_clears_cache_and_balances_alerts() {
    let events = run_eviction_watch(1);

    // Re-parse the stream: every raise must be matched by a clear for
    // the same (session, kind) — an evicted session whose alert never
    // clears is exactly the leak this test pins.
    let mut raised: Vec<(&str, &str)> = Vec::new();
    let mut cleared: Vec<(&str, &str)> = Vec::new();
    let mut connections = 0usize;
    for line in &events {
        let session = field(line, "session");
        if line.contains("\"type\":\"connection\"") {
            connections += 1;
            continue;
        }
        if line.contains("\"type\":\"alert\"") {
            let kind = field(line, "kind");
            match field(line, "action") {
                "raise" => raised.push((session, kind)),
                "clear" => cleared.push((session, kind)),
                other => panic!("unknown action {other}"),
            }
        }
    }
    assert_eq!(connections, SESSIONS, "one report per session");
    assert!(
        raised.len() >= SESSIONS - CAP,
        "stalled sessions must raise before eviction ({} raises)",
        raised.len()
    );
    raised.sort_unstable();
    cleared.sort_unstable();
    assert_eq!(raised, cleared, "every raised alert needs a matching clear");
}

#[test]
fn eviction_watch_is_identical_under_sharding() {
    // The lifecycle router must reproduce the serial engine's eviction
    // decisions exactly — byte-identical JSONL at 2 and 4 shards.
    let serial = run_eviction_watch(1);
    assert_eq!(serial, run_eviction_watch(2));
    assert_eq!(serial, run_eviction_watch(4));
}

/// Raised-then-finalized alerts must clear even when the finalization
/// re-elects the data sender: alerts raised under the tick-cached
/// session id (early byte majority) are cleared under that same id,
/// not leaked when the final session id flips.
#[test]
fn sender_flip_between_tick_and_finalize_still_clears_alerts() {
    let x = Ipv4Addr::new(10, 9, 0, 1);
    let y = Ipv4Addr::new(10, 9, 0, 2);
    let config = MonitorConfig::builder()
        .window(Micros::from_secs(120))
        .interval(Micros::from_secs(5))
        .tracker(TrackerConfig {
            idle_timeout: None,
            ..TrackerConfig::default()
        })
        .alerts(AlertConfig {
            stall_after: Micros::from_secs(10),
            ..AlertConfig::default()
        })
        .build()
        .expect("valid config");
    let mut monitor = Monitor::new(config);
    let id = monitor.register_source("capture");

    // Mid-stream capture (no SYN): Y sends the only data early, so the
    // partial analyses the ticks cache elect Y as the sender.
    let mut seq = 1u32;
    for i in 0..3 {
        let frame = FrameBuilder::new(y, x)
            .at(Micros(i * 1_000))
            .ports(40000, 179)
            .seq(seq)
            .ack_to(1)
            .payload(vec![0xcd; 1448])
            .build();
        seq = seq.wrapping_add(1448);
        monitor.ingest_owned(id, frame);
    }
    // Silence long enough for the stalled-transfer alert to raise
    // under the Y-elected session id.
    monitor.advance_to(Micros::from_secs(30));
    let raised: Vec<String> = monitor
        .drain_events()
        .iter()
        .filter_map(|e| match e {
            MonitorEvent::Alert(a) if a.action == AlertAction::Raise => Some(a.session.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(raised.len(), 1, "the stall must raise: {raised:?}");
    let cached_session = raised[0].clone();
    assert!(
        cached_session.starts_with("10.9.0.2:"),
        "early byte majority elects Y: {cached_session}"
    );

    // X overtakes before the next tick boundary, then the watch ends:
    // the finalization's full analysis re-elects X as the sender.
    let mut seq = 1u32;
    for i in 0..6 {
        let frame = FrameBuilder::new(x, y)
            .at(Micros(30_000_100 + i * 100))
            .ports(179, 40000)
            .seq(seq)
            .ack_to(1)
            .payload(vec![0xef; 1448])
            .build();
        seq = seq.wrapping_add(1448);
        monitor.ingest_owned(id, frame);
    }
    monitor.finish();

    let events = monitor.drain_events();
    let final_session = events
        .iter()
        .find_map(|e| match e {
            MonitorEvent::Connection(c) => Some(c.session.clone()),
            _ => None,
        })
        .expect("a connection report");
    assert_ne!(
        final_session, cached_session,
        "test needs the sender election to flip"
    );
    let clears: Vec<&String> = events
        .iter()
        .filter_map(|e| match e {
            MonitorEvent::Alert(a) if a.action == AlertAction::Clear => Some(&a.session),
            _ => None,
        })
        .collect();
    assert!(
        clears.contains(&&cached_session),
        "the alert raised under the cached session must clear under it: {clears:?}"
    );
}

/// Pulls a `"key":"value"` string field out of a JSONL line.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let tag = format!("\"{key}\":\"");
    let Some(start) = line.find(&tag).map(|i| i + tag.len()) else {
        return "";
    };
    let rest = &line[start..];
    let end = rest.find('"').unwrap_or(rest.len());
    &rest[..end]
}
