//! The one path from captures to the store: the monitor's event stream.
//!
//! `t-dat-monitor --sweep DIR --events - | t-dat-store ingest STORE -`
//! is how a capture corpus reaches the store. This test runs both ends
//! of that pipe in process over three oracle captures, one of which
//! raises alerts: the sweep's `tdat-monitor-events/2` stream, preamble
//! and all, goes through [`JsonlIngester`], and every record must carry
//! what the monitor said about its session. The stream writes floats to
//! six decimals, so no ratio the store then holds differs from its own
//! print.

use std::collections::HashMap;

use tdat_monitor::{sweep_directory, AlertAction, EventSchema, MonitorConfig, MonitorEvent};
use tdat_oracle::{scenario_capture, scenario_matrix};
use tdat_store::{JsonlIngester, RecordKind, Store};
use tdat_timeset::{Micros, Span};

#[test]
fn a_swept_corpus_ingests_as_the_monitor_reported_it() {
    let root = std::env::temp_dir().join(format!("tdat-store-stream-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let captures = root.join("captures");
    std::fs::create_dir_all(&captures).expect("make the capture directory");
    let matrix = scenario_matrix(1);
    for prefix in ["clean-", "timer-", "zwbug-"] {
        let sc = matrix
            .iter()
            .find(|sc| sc.name.starts_with(prefix))
            .expect("the oracle matrix has the scenario");
        let path = captures.join(format!("{}.pcap", sc.name));
        tdat_packet::write_pcap_file(&path, &scenario_capture(sc)).expect("write a capture");
    }
    let config = MonitorConfig::builder()
        .window(Micros::from_secs(60))
        .interval(Micros::from_secs(1))
        .build()
        .expect("a valid monitor config");
    let sweep = sweep_directory(&captures, &config, 2).expect("sweep the captures");

    // What `t-dat-monitor --sweep DIR --events -` writes, and each
    // connection with the alert kinds raised against its session.
    let names: Vec<&str> = sweep.outcomes.iter().map(|o| o.source.as_str()).collect();
    let mut stream = EventSchema::V2.preamble(&names).expect("v2 has a preamble");
    stream.push('\n');
    let mut raised: HashMap<(&str, &str), Vec<&str>> = HashMap::new();
    let mut connections = Vec::new();
    for outcome in &sweep.outcomes {
        let file = outcome.file.file_name().and_then(|name| name.to_str());
        assert_eq!(Some(outcome.source.as_str()), file, "a source is its file");
        assert_eq!(outcome.error, None, "every capture sweeps");
        for event in &outcome.events {
            stream.push_str(&event.to_json());
            stream.push('\n');
            match event {
                MonitorEvent::Alert(alert) if alert.action == AlertAction::Raise => raised
                    .entry((outcome.source.as_str(), alert.session.as_str()))
                    .or_default()
                    .push(alert.kind.as_str()),
                MonitorEvent::Connection(connection) => connections.push(connection),
                _ => {}
            }
        }
    }
    let records = JsonlIngester::new("batch")
        .text(&stream)
        .expect("the stream ingests");

    assert_eq!(records.len(), 3, "one session per capture");
    assert_eq!(records.len(), connections.len());
    for (record, connection) in records.iter().zip(&connections) {
        let mut alerts = raised
            .remove(&(&*connection.source, &*connection.session))
            .unwrap_or_default();
        alerts.sort_unstable();
        alerts.dedup();
        let duration = Micros::from_secs_f64(connection.report.duration_s);
        assert_eq!(record.source, &*connection.source);
        assert_eq!(record.kind, RecordKind::MonitorV2);
        assert_eq!(record.at, connection.at);
        let span = Span::new(connection.at - duration, connection.at);
        assert_eq!(record.span, span);
        assert_eq!(record.alerts, alerts, "{}", record.source);
        assert_eq!(record.report.to_json(), connection.report.to_json());
    }
    assert!(raised.is_empty(), "every raise is a finalized session's");
    assert!(
        records.iter().any(|r| !r.alerts.is_empty()),
        "alerts raised"
    );

    let store = Store::create(root.join("store")).expect("create the store");
    store.ingest(records).expect("seal the records");
    for segment in &store.snapshot().segments {
        for record in &segment.records {
            let report = &record.report;
            let groups = [
                report.sender_ratio,
                report.receiver_ratio,
                report.network_ratio,
            ];
            let factors = report.factors.iter().map(|(_, ratio)| *ratio);
            for ratio in groups.into_iter().chain(factors) {
                let printed: f64 = format!("{ratio:.6}").parse().expect("a print parses");
                assert_eq!(ratio.to_bits(), printed.to_bits(), "{}", record.source);
            }
        }
    }
    std::fs::remove_dir_all(&root).ok();
}
