//! Golden event streams: the monitor's regression net that does not
//! depend on a second implementation of it.
//!
//! Each file under `tests/golden/` is what one watch says, byte for
//! byte:
//!
//! * `ticks-<scenario>.jsonl` — a simulator scenario (8 000 routes,
//!   about ten ticks) materialized and fed through [`Monitor::ingest`]:
//!   the [`Monitor::snapshot_reports`] after every tick boundary, then
//!   the final v2 event stream. `ticks-damaged.jsonl` is the `clean`
//!   transfer with capture damage noted against its session once it has
//!   gone idle, so only the quarantine bookkeeping can make the tick
//!   re-analyse it.
//! * `watch-<scenario>.jsonl` — the v2 stream of a
//!   [`Monitor::run_set`] watch over one simulated source (the watches
//!   of `monitor_alerts.rs`); byte-identical to what `t-dat-monitor
//!   --sim <scenario>` prints with the same `--routes`, `--window` and
//!   `--interval` (CI job `monitor-identity` `cmp`s the two).
//!
//! On a mismatch the test writes the actual stream under
//! `CARGO_TARGET_TMPDIR/golden/` and names the first differing line. A golden changes only by copying that file over it, in a
//! commit that says why the stream had to change.

use std::path::Path;

use tdat_monitor::{
    AttributedAnomaly, EventSchema, Monitor, MonitorConfig, MonitorEvent, PacketSource, SimSource,
    SourceEvent, SourceSet, SourceSpec,
};
use tdat_packet::{CaptureAnomaly, TcpFrame};
use tdat_tcpsim::scenario::ScenarioOptions;
use tdat_timeset::Micros;
use tdat_trace::ConnKey;

/// Materializes a scenario's capture, plus the simulator's final clock.
fn collect(spec: &str, routes: usize) -> (Vec<TcpFrame>, Micros) {
    let opts = ScenarioOptions {
        routes,
        ..ScenarioOptions::default()
    };
    let mut source =
        SimSource::scenario(spec, &opts, Micros::from_millis(250)).expect("known scenario");
    let (mut frames, mut now) = (Vec::new(), Micros::ZERO);
    loop {
        match source.poll().expect("simulated sources do not fail") {
            SourceEvent::Batch {
                frames: batch,
                now: at,
            } => {
                frames.extend(batch);
                now = now.max(at.unwrap_or(now));
            }
            SourceEvent::Pending => {}
            SourceEvent::Finished => return (frames, now),
        }
    }
}

fn push_events(out: &mut String, monitor: &Monitor, events: &[MonitorEvent]) {
    let preamble = EventSchema::V2
        .preamble(&monitor.source_names())
        .expect("v2 has a preamble");
    out.push_str(&preamble);
    out.push('\n');
    for event in events {
        out.push_str(&event.to_json());
        out.push('\n');
    }
}

fn push_snapshot(out: &mut String, monitor: &mut Monitor, tick: usize) {
    out.push_str(&format!("{{\"type\":\"tick\",\"index\":{tick}}}\n"));
    for (source, session, report) in monitor.snapshot_reports() {
        out.push_str(&format!(
            "{{\"type\":\"snapshot\",\"source\":\"{source}\",\"session\":\"{session}\",\
             \"report\":{report}}}\n"
        ));
    }
}

/// A tick golden: `frames` through [`Monitor::ingest`], a snapshot at
/// every tick boundary the ingest crossed and one at `end`. With
/// `damage > 0`, that many truncated records are then noted against
/// the first frame's session, with a snapshot after each of the next
/// two intervals, before the finish.
fn ticks(frames: &[TcpFrame], end: Micros, damage: usize) -> String {
    // Scenario durations span 0.2 s to minutes; pick the interval so
    // every run crosses about ten tick boundaries.
    let interval = Micros((end.0 / 10).max(1));
    let mut monitor = Monitor::new(MonitorConfig {
        interval,
        window: Micros::from_secs(60),
        ..MonitorConfig::default()
    });
    let mut out = String::new();
    let mut tick = 0;
    let mut boundary = interval;
    for frame in frames {
        monitor.ingest(frame);
        while frame.timestamp >= boundary {
            push_snapshot(&mut out, &mut monitor, tick);
            tick += 1;
            boundary += interval;
        }
    }
    monitor.advance_to(end);
    push_snapshot(&mut out, &mut monitor, tick);
    if damage > 0 {
        let key = ConnKey::of(&frames[0]);
        for _ in 0..damage {
            monitor.note_anomaly(AttributedAnomaly {
                key: Some(key),
                anomaly: CaptureAnomaly::TruncatedRecord {
                    detail: "golden damage".into(),
                },
            });
        }
        for later in 1..=2 {
            monitor.advance_to(end + Micros(interval.0 * later as i64));
            push_snapshot(&mut out, &mut monitor, tick + later);
        }
    }
    monitor.finish();
    let events = monitor.drain_events();
    push_events(&mut out, &monitor, &events);
    out
}

/// A watch golden: one simulated source through [`Monitor::run_set`].
fn watch(spec: &str, routes: usize, window_s: i64, interval_s: i64) -> String {
    let config = MonitorConfig::builder()
        .window(Micros::from_secs(window_s))
        .interval(Micros::from_secs(interval_s))
        .build()
        .expect("valid monitor config");
    let opts = ScenarioOptions {
        routes,
        ..ScenarioOptions::default()
    };
    let sim = SourceSpec::sim(spec, opts, config.interval).expect("known scenario");
    let mut set = SourceSet::builder()
        .source(sim)
        .build()
        .expect("single-sim sets always build");
    let mut monitor = Monitor::new(config);
    let events = monitor.run_set(&mut set);
    let mut out = String::new();
    push_events(&mut out, &monitor, &events);
    out
}

/// Compares `actual` with the golden `name`, byte for byte; on a
/// mismatch, writes `actual` out and describes the first differing
/// line.
fn check(name: &str, actual: &str) -> Option<String> {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let expected = std::fs::read(golden.join(name)).unwrap_or_default();
    if actual.as_bytes() == expected {
        return None;
    }
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden");
    let written = dir.join(name);
    std::fs::create_dir_all(&dir).expect("create the actual-stream directory");
    std::fs::write(&written, actual).expect("write the actual stream");
    fn lines(bytes: &[u8]) -> Vec<&[u8]> {
        bytes.split_inclusive(|&b| b == b'\n').collect()
    }
    let (want, got) = (lines(&expected), lines(actual.as_bytes()));
    let line = (0..)
        .find(|&i| want.get(i) != got.get(i))
        .expect("streams differ");
    let (want, got) = (want.get(line).copied(), got.get(line).copied());
    // Show each side from just before the first differing byte.
    let column = match (want, got) {
        (Some(a), Some(b)) => a.iter().zip(b).take_while(|(x, y)| x == y).count(),
        _ => 0,
    };
    let show = |side: Option<&[u8]>| match side {
        Some(bytes) => {
            let from = column.saturating_sub(40).min(bytes.len());
            let to = (from + 160).min(bytes.len());
            format!("{:?}", String::from_utf8_lossy(&bytes[from..to]))
        }
        None => "<end of stream>".to_string(),
    };
    Some(format!(
        "{name}: first difference at line {}, byte {}\n  \
         golden: {}\n  actual: {}\n  actual stream written to {}",
        line + 1,
        column + 1,
        show(want),
        show(got),
        written.display()
    ))
}

fn assert_goldens(mismatches: Vec<String>) {
    assert!(
        mismatches.is_empty(),
        "{} golden stream(s) differ:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

#[test]
fn tick_goldens_replay_at_every_lane_count() {
    let mut mismatches = Vec::new();
    let matrix = ["clean", "uploss", "timer", "slow", "zwbug", "peergroup"].map(|s| (s, s, 0));
    for (name, spec, damage) in matrix.into_iter().chain([("damaged", "clean", 20)]) {
        let (frames, end) = collect(spec, 8_000);
        let name = format!("ticks-{name}.jsonl");
        mismatches.extend(check(&name, &ticks(&frames, end, damage)));
    }
    assert_goldens(mismatches);
}

#[test]
fn watch_goldens_replay_at_every_lane_count() {
    let mut mismatches = Vec::new();
    for (spec, routes, window, interval) in [
        ("zwbug", 12_000, 60, 1),
        ("peergroup", 10_000, 300, 10),
        ("clean", 10_000, 120, 10),
    ] {
        let name = format!("watch-{spec}.jsonl");
        let actual = watch(spec, routes, window, interval);
        mismatches.extend(check(&name, &actual));
    }
    assert_goldens(mismatches);
}
