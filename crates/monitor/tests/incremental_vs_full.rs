//! Differential proof of the incremental tick cache: a monitor that
//! only re-analyzes *dirty* connections must be observationally
//! identical to one that re-analyzes every open connection at every
//! tick (`recompute_all`, the pre-caching behavior kept as a
//! validation mode).
//!
//! Identity is checked at the finest observable granularity:
//! per-connection snapshot reports after every tick boundary, the full
//! JSONL event stream, and the finalization summaries — across the
//! simulator scenario matrix, on the inline data plane and on 2 and 4
//! worker lanes (where `recompute_all` travels inside the context
//! shipped with every shard).

use tdat_monitor::{Monitor, MonitorConfig, PacketSource, SimSource, SourceEvent};
use tdat_packet::TcpFrame;
use tdat_tcpsim::scenario::ScenarioOptions;
use tdat_timeset::Micros;

/// Materializes a scenario's capture so both monitors see the exact
/// same frame sequence, plus the simulator's final clock.
fn collect(spec: &str, routes: usize) -> (Vec<TcpFrame>, Micros) {
    let opts = ScenarioOptions {
        routes,
        ..ScenarioOptions::default()
    };
    let mut source =
        SimSource::scenario(spec, &opts, Micros::from_millis(250)).expect("known scenario");
    let mut frames = Vec::new();
    let mut now = Micros::ZERO;
    loop {
        match source.poll().expect("simulated sources do not fail") {
            SourceEvent::Batch {
                frames: mut batch,
                now: batch_now,
            } => {
                frames.append(&mut batch);
                if let Some(n) = batch_now {
                    now = now.max(n);
                }
            }
            SourceEvent::Pending => {}
            SourceEvent::Finished => break,
        }
    }
    (frames, now)
}

/// Everything one monitor run observes: snapshot reports after each
/// tick boundary, then the final event stream as JSONL.
#[derive(PartialEq)]
struct Observed {
    snapshots: Vec<Vec<(String, String, String)>>,
    events: String,
}

fn run(
    frames: &[TcpFrame],
    end: Micros,
    interval: Micros,
    recompute_all: bool,
    shards: usize,
) -> Observed {
    let mut monitor = Monitor::new(MonitorConfig {
        interval,
        window: Micros::from_secs(60),
        recompute_all,
        shards,
        ..MonitorConfig::default()
    });
    let mut snapshots = Vec::new();
    let mut boundary = interval;
    for frame in frames {
        monitor.ingest(frame);
        // Snapshot at every tick boundary the ingest crossed — the
        // same schedule for both modes, since the frames are shared.
        while frame.timestamp >= boundary {
            snapshots.push(monitor.snapshot_reports());
            boundary += interval;
        }
    }
    monitor.advance_to(end);
    snapshots.push(monitor.snapshot_reports());
    monitor.finish();
    let mut events = String::new();
    for event in monitor.drain_events() {
        events.push_str(&event.to_json());
        events.push('\n');
    }
    Observed { snapshots, events }
}

#[test]
fn incremental_ticks_match_full_recompute_everywhere() {
    for spec in ["clean", "uploss", "timer", "slow", "zwbug", "peergroup"] {
        let (frames, end) = collect(spec, 8_000);
        assert!(!frames.is_empty(), "{spec}: scenario produced frames");
        // Scenario durations span 0.2 s to minutes; pick the interval
        // so every run crosses ~10 tick boundaries.
        let interval = Micros((end.0 / 10).max(1));
        let incremental = run(&frames, end, interval, false, 1);
        let full = run(&frames, end, interval, true, 1);

        assert!(
            incremental.snapshots.len() >= 5,
            "{spec}: expected several ticks, got {}",
            incremental.snapshots.len()
        );
        assert!(
            incremental.snapshots.iter().any(|s| !s.is_empty()),
            "{spec}: every snapshot empty — test is vacuous"
        );

        assert_eq!(
            incremental.snapshots.len(),
            full.snapshots.len(),
            "{spec}: tick count"
        );
        for (tick, (a, b)) in incremental
            .snapshots
            .iter()
            .zip(&full.snapshots)
            .enumerate()
        {
            assert_eq!(a, b, "{spec}: snapshot reports diverge at tick {tick}");
        }
        assert_eq!(
            incremental.events, full.events,
            "{spec}: event streams diverge"
        );
        for shards in [2, 4] {
            for recompute_all in [false, true] {
                assert!(
                    run(&frames, end, interval, recompute_all, shards) == incremental,
                    "{spec}: {shards} lanes (recompute_all = {recompute_all}) diverge from inline"
                );
            }
        }
    }
}
