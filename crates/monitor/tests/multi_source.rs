//! Multi-source monitoring end to end: interleaved follow files plus a
//! simulator tap must merge into a byte-stable, fully-attributed event
//! stream, and a quarantined source must never suppress alerts on its
//! siblings — on the inline data plane and, byte for byte, on 2 and 4
//! worker lanes.

use std::net::Ipv4Addr;

use tdat_monitor::{
    AlertAction, AlertKind, AttributedAnomaly, EventSchema, Monitor, MonitorConfig, MonitorEvent,
    PacketSource, SourceEvent, SourceSet, SourceSpec, Step,
};
use tdat_packet::{write_pcap_file, CaptureAnomaly, FrameBuilder, TcpFlags, TcpFrame, TcpOption};
use tdat_tcpsim::scenario::ScenarioOptions;
use tdat_timeset::Micros;
use tdat_trace::ConnKey;

/// Handshake then `n` MSS data/ACK exchanges between `a` and `b`,
/// starting at `base` and spaced 1.5 ms apart.
fn transfer(a: Ipv4Addr, b: Ipv4Addr, base: i64, n: usize) -> Vec<TcpFrame> {
    let mut frames = Vec::new();
    let mut t = base;
    frames.push(
        FrameBuilder::new(a, b)
            .at(Micros(t))
            .ports(179, 40000)
            .seq(0)
            .flags(TcpFlags::SYN)
            .option(TcpOption::Mss(1448))
            .window(65535)
            .build(),
    );
    t += 100;
    frames.push(
        FrameBuilder::new(b, a)
            .at(Micros(t))
            .ports(40000, 179)
            .seq(0)
            .ack_to(1)
            .flags(TcpFlags::SYN | TcpFlags::ACK)
            .option(TcpOption::Mss(1448))
            .window(65535)
            .build(),
    );
    let mut seq = 1u32;
    for _ in 0..n {
        t += 1_000;
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
        t += 500;
        frames.push(
            FrameBuilder::new(b, a)
                .at(Micros(t))
                .ports(40000, 179)
                .seq(1)
                .ack_to(seq)
                .window(65535)
                .build(),
        );
    }
    frames
}

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tdat-multi-{tag}-{}.pcap", std::process::id()))
}

fn follow_static(path: &std::path::Path) -> SourceSpec {
    SourceSpec::follow(path)
        .with_exit_idle(std::time::Duration::ZERO)
        .with_idle_from_open()
}

fn config(shards: usize) -> MonitorConfig {
    MonitorConfig::builder()
        .window(Micros::from_secs(60))
        .interval(Micros::from_secs(1))
        .shards(shards)
        .build()
        .expect("valid config")
}

fn zwbug_tap(config: &MonitorConfig) -> SourceSpec {
    let opts = ScenarioOptions {
        routes: 6_000,
        ..ScenarioOptions::default()
    };
    SourceSpec::sim("zwbug", opts, config.interval).expect("known scenario")
}

/// Two follow files and one sim tap.
fn fleet_set(a: &std::path::Path, b: &std::path::Path, config: &MonitorConfig) -> SourceSet {
    SourceSet::builder()
        .source(follow_static(a))
        .source(follow_static(b))
        .source(zwbug_tap(config))
        .build()
        .expect("all sources open")
}

fn render(sources: &SourceSet, events: &[MonitorEvent]) -> String {
    let mut out = String::new();
    if let Some(preamble) = EventSchema::V2.preamble(&sources.names()) {
        out.push_str(&preamble);
        out.push('\n');
    }
    for event in events {
        out.push_str(&event.to_json());
        out.push('\n');
    }
    out
}

/// One full v2 run over [`fleet_set`].
fn run_once(
    a: &std::path::Path,
    b: &std::path::Path,
    shards: usize,
) -> (String, Vec<MonitorEvent>) {
    let config = config(shards);
    let mut set = fleet_set(a, b, &config);
    let events = Monitor::new(config).run_set(&mut set);
    (render(&set, &events), events)
}

/// The same watch driven one [`Monitor::step`] at a time with a drain
/// after every step — the CLI's shape, a flush boundary per poll.
fn run_stepwise(a: &std::path::Path, b: &std::path::Path, shards: usize) -> String {
    let config = config(shards);
    let mut set = fleet_set(a, b, &config);
    let mut monitor = Monitor::new(config);
    let ids = monitor.register_set(&set);
    let mut events = Vec::new();
    loop {
        let step = monitor.step(&mut set, &ids);
        events.extend(monitor.drain_events());
        match step {
            Step::Finished => break,
            Step::Pending => std::thread::sleep(monitor.pending_backoff()),
            Step::Progress | Step::Notice(_) => {}
        }
    }
    monitor.finish();
    events.extend(monitor.drain_events());
    render(&set, &events)
}

#[test]
fn interleaved_sources_merge_into_a_byte_stable_attributed_stream() {
    let a_path = scratch("a");
    let b_path = scratch("b");
    // The two captures interleave in trace time: b's frames sit 700 µs
    // after a's throughout.
    write_pcap_file(
        &a_path,
        &transfer(
            Ipv4Addr::new(10, 5, 0, 1),
            Ipv4Addr::new(10, 5, 0, 2),
            0,
            40,
        ),
    )
    .expect("scratch pcap");
    write_pcap_file(
        &b_path,
        &transfer(
            Ipv4Addr::new(10, 6, 0, 1),
            Ipv4Addr::new(10, 6, 0, 2),
            700,
            40,
        ),
    )
    .expect("scratch pcap");

    let (first, events) = run_once(&a_path, &b_path, 1);
    let (second, _) = run_once(&a_path, &b_path, 1);
    let sharded = [2, 4].map(|shards| run_once(&a_path, &b_path, shards).0);
    let stepwise = [1, 2].map(|shards| run_stepwise(&a_path, &b_path, shards));
    let _ = std::fs::remove_file(&a_path);
    let _ = std::fs::remove_file(&b_path);
    assert_eq!(first, second, "merged stream must be byte-stable");
    for stream in &sharded {
        assert_eq!(stream, &first, "worker lanes must not change the stream");
    }
    for stream in &stepwise {
        assert_eq!(
            stream, &first,
            "per-step drains must concatenate to run_set"
        );
    }

    // The preamble names every source, in registration order.
    let mut lines = first.lines();
    let meta = lines.next().expect("a preamble line");
    for name in [
        a_path.file_name().map(|n| n.to_string_lossy().into_owned()),
        b_path.file_name().map(|n| n.to_string_lossy().into_owned()),
        Some("sim:zwbug".to_string()),
    ] {
        let name = name.expect("scratch paths have file names");
        assert!(meta.contains(&format!("\"{name}\"")), "{meta}");
    }
    // Every event line carries its source right after the type.
    for line in lines {
        assert!(line.contains("\"source\":\""), "unattributed event: {line}");
    }

    // Each capture's connection reports under its own source; the sim
    // session reports under the tap's.
    let attributed: Vec<(String, String)> = events
        .iter()
        .filter_map(|e| match e {
            MonitorEvent::Connection(c) => Some((c.source.to_string(), c.session.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(attributed.len(), 3, "{attributed:?}");
    for (source, session) in &attributed {
        let expected = if session.starts_with("10.5.") {
            a_path.file_name().map(|n| n.to_string_lossy().into_owned())
        } else if session.starts_with("10.6.") {
            b_path.file_name().map(|n| n.to_string_lossy().into_owned())
        } else {
            Some("sim:zwbug".to_string())
        };
        assert_eq!(Some(source.clone()), expected, "session {session}");
    }
    // The injected zwbug alert is attributed to the sim tap.
    let zwbug = events
        .iter()
        .find_map(|e| match e {
            MonitorEvent::Alert(a)
                if a.kind == AlertKind::ZeroWindowBug && a.action == AlertAction::Raise =>
            {
                Some(a)
            }
            _ => None,
        })
        .expect("the injected bug is alerted");
    assert_eq!(zwbug.source.as_ref(), "sim:zwbug");
}

/// A fixed batch of frames plus pre-attributed capture damage.
struct Poisoned {
    frames: Option<Vec<TcpFrame>>,
    anomalies: Vec<AttributedAnomaly>,
}

impl PacketSource for Poisoned {
    fn poll(&mut self) -> tdat_packet::Result<SourceEvent> {
        match self.frames.take() {
            Some(frames) => Ok(SourceEvent::Batch { frames, now: None }),
            None => Ok(SourceEvent::Finished),
        }
    }

    fn drain_anomalies(&mut self) -> Vec<AttributedAnomaly> {
        std::mem::take(&mut self.anomalies)
    }
}

/// A poisoned custom source next to a healthy sim tap.
fn quarantined_watch(shards: usize) -> Vec<MonitorEvent> {
    let config = config(shards);
    let frames = transfer(
        Ipv4Addr::new(10, 7, 0, 1),
        Ipv4Addr::new(10, 7, 0, 2),
        0,
        40,
    );
    let key = ConnKey::of(&frames[0]);
    // Damage the poisoned source's one connection far past the default
    // quarantine budget of 16 anomalies.
    let anomalies = (0..32)
        .map(|_| AttributedAnomaly {
            key: Some(key),
            anomaly: CaptureAnomaly::TruncatedRecord {
                detail: "poisoned collector".into(),
            },
        })
        .collect();
    let poisoned = Poisoned {
        frames: Some(frames),
        anomalies,
    };
    let mut set = SourceSet::builder()
        .custom("poisoned", Box::new(poisoned))
        .source(zwbug_tap(&config))
        .build()
        .expect("sources open");
    Monitor::new(config).run_set(&mut set)
}

#[test]
fn a_quarantined_source_never_suppresses_its_siblings_alerts() {
    let events = quarantined_watch(1);
    for shards in [2, 4] {
        assert_eq!(
            quarantined_watch(shards),
            events,
            "{shards} worker lanes must not change the stream"
        );
    }

    // The sibling's injected bug still raises, on the sim tap.
    let raised_on_sim: Vec<AlertKind> = events
        .iter()
        .filter_map(|e| match e {
            MonitorEvent::Alert(a)
                if a.action == AlertAction::Raise && a.source.as_ref() == "sim:zwbug" =>
            {
                Some(a.kind)
            }
            _ => None,
        })
        .collect();
    assert!(
        raised_on_sim.contains(&AlertKind::ZeroWindowBug),
        "sibling alert suppressed: {raised_on_sim:?}"
    );
    // The poisoned source raises only capture-quality, never verdicts
    // from untrustworthy evidence.
    let raised_on_poisoned: Vec<AlertKind> = events
        .iter()
        .filter_map(|e| match e {
            MonitorEvent::Alert(a)
                if a.action == AlertAction::Raise && a.source.as_ref() == "poisoned" =>
            {
                Some(a.kind)
            }
            _ => None,
        })
        .collect();
    assert_eq!(raised_on_poisoned, vec![AlertKind::CaptureQuality]);
    // Verdicts stay per source: the poisoned connection quarantines,
    // the sim connection reports normally.
    let verdicts: Vec<(String, String)> = events
        .iter()
        .filter_map(|e| match e {
            MonitorEvent::Connection(c) => {
                Some((c.source.to_string(), c.report.verdict.to_string()))
            }
            _ => None,
        })
        .collect();
    assert!(
        verdicts.contains(&("poisoned".to_string(), "quarantined".to_string())),
        "{verdicts:?}"
    );
    assert!(
        verdicts
            .iter()
            .any(|(s, v)| s == "sim:zwbug" && v != "quarantined"),
        "{verdicts:?}"
    );
}
