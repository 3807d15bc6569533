//! Deterministic end-to-end monitoring runs over simulated scenarios:
//! injected faults must raise exactly the expected alert kinds, and a
//! clean transfer must raise none. The byte-exact streams of these
//! three watches are golden files (`golden_streams.rs`).

use std::collections::BTreeSet;

use tdat_monitor::{
    AlertAction, AlertKind, Monitor, MonitorConfig, MonitorEvent, SourceSet, SourceSpec,
};
use tdat_tcpsim::scenario::ScenarioOptions;
use tdat_timeset::Micros;

/// Runs a scenario under the monitor and returns every event.
fn run_scenario(spec: &str, routes: usize, window_s: i64, interval_s: i64) -> Vec<MonitorEvent> {
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
    monitor.run_set(&mut set)
}

fn raised(events: &[MonitorEvent]) -> Vec<&tdat_monitor::Alert> {
    events
        .iter()
        .filter_map(|e| match e {
            MonitorEvent::Alert(a) if a.action == AlertAction::Raise => Some(a),
            _ => None,
        })
        .collect()
}

fn raised_kinds(events: &[MonitorEvent]) -> BTreeSet<AlertKind> {
    raised(events).iter().map(|a| a.kind).collect()
}

fn connections(events: &[MonitorEvent]) -> Vec<&tdat_monitor::ConnectionSummary> {
    events
        .iter()
        .filter_map(|e| match e {
            MonitorEvent::Connection(c) => Some(c),
            _ => None,
        })
        .collect()
}

fn jsonl(events: &[MonitorEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_json());
        out.push('\n');
    }
    out
}

#[test]
fn clean_transfer_raises_no_alerts() {
    let events = run_scenario("clean", 10_000, 120, 10);
    assert!(
        raised_kinds(&events).is_empty(),
        "no alerts on a clean transfer: {}",
        jsonl(&events)
    );
    let conns = connections(&events);
    assert_eq!(conns.len(), 1, "one session watched and reported");
    let report = &conns[0].report;
    assert_eq!(report.prefixes, 10_000);
    assert!(!report.zero_ack_bug);
    assert!(report.loss_episodes.is_empty());
}

#[test]
fn zero_window_bug_scenario_raises_the_critical_alert() {
    // The zwbug pathology plays out in a few virtual seconds, so this
    // watch ticks every second.
    let events = run_scenario("zwbug", 12_000, 60, 1);
    let kinds = raised_kinds(&events);
    assert!(
        kinds.contains(&AlertKind::ZeroWindowBug),
        "the injected bug must be alerted: {}",
        jsonl(&events)
    );
    // The bug's signature *includes* apparent upstream losses (that is
    // the series conflict), so the loss detector fires alongside —
    // and nothing else does.
    let expected: BTreeSet<AlertKind> = [
        AlertKind::ZeroWindowBug,
        AlertKind::ConsecutiveRetransmissions,
    ]
    .into_iter()
    .collect();
    assert_eq!(kinds, expected, "{}", jsonl(&events));
    // Both alerts target the one monitored session and clear when it
    // ends.
    for alert in raised(&events) {
        assert_eq!(alert.session, "10.0.0.1:179->10.0.255.2:40000");
    }
    let clears = events
        .iter()
        .filter(|e| matches!(e, MonitorEvent::Alert(a) if a.action == AlertAction::Clear))
        .count();
    assert_eq!(clears, 2, "every raised alert clears at session end");
    assert_eq!(connections(&events).len(), 1);
    assert!(connections(&events)[0].report.zero_ack_bug);
}

#[test]
fn peer_group_blocking_scenario_raises_on_the_blocked_session() {
    // Fig. 9: vendor collector fails at t=1 s; the healthy quagga
    // session pauses behind it until the hold timer expires (~180 s).
    let events = run_scenario("peergroup", 10_000, 300, 10);
    let expected: BTreeSet<AlertKind> = [
        AlertKind::PeerGroupBlocking,
        AlertKind::ConsecutiveRetransmissions,
    ]
    .into_iter()
    .collect();
    assert_eq!(raised_kinds(&events), expected, "{}", jsonl(&events));
    for alert in raised(&events) {
        match alert.kind {
            // The blocking alert lands on the *healthy* (blocked)
            // session and names the faulty one.
            AlertKind::PeerGroupBlocking => {
                assert_eq!(alert.session, "10.1.0.1:50000->10.1.255.1:179");
                assert!(
                    alert.detail.contains("10.1.0.1:50001->10.1.255.2:179"),
                    "detail names the faulty member: {}",
                    alert.detail
                );
                assert!(
                    alert.evidence.duration() >= Micros::from_secs(30),
                    "pause evidence is substantial"
                );
            }
            // The faulty session retransmits into the dead collector.
            AlertKind::ConsecutiveRetransmissions => {
                assert_eq!(alert.session, "10.1.0.1:50001->10.1.255.2:179");
            }
            other => panic!("unexpected alert kind {other}"),
        }
    }
    assert_eq!(
        connections(&events).len(),
        2,
        "both group sessions reported"
    );
}
