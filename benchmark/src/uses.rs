//! The two uses of a capture, each one pass of fixed work: *batch*
//! (`t-dat --workers 1 --json` per file) and *watch* (`t-dat-monitor`
//! draining complete files through one source set).

use std::time::Duration;

use tdat::{AnalyzerConfig, Report, StreamAnalyzer, StreamOptions, TrackerConfig};
use tdat_monitor::{
    EventSchema, Monitor, MonitorConfig, MonitorEvent, ShardedMonitor, SourceSet, SourceSpec,
};
use tdat_timeset::Micros;

use crate::corpus::{Manifest, Workload};

/// Checks one pass's reports against the manifest. One operation per
/// generated session: a missing, duplicated, unexpected or wrong report
/// is a failed operation.
pub struct Check<'a> {
    manifest: &'a Manifest,
    seen: Vec<bool>,
    failed: u64,
}

impl<'a> Check<'a> {
    pub fn new(manifest: &'a Manifest) -> Check<'a> {
        Check {
            manifest,
            seen: vec![false; manifest.sessions.len()],
            failed: 0,
        }
    }

    pub fn see(&mut self, report: &Report) {
        let Some(&index) = self.manifest.by_receiver.get(&report.receiver) else {
            self.failed += 1;
            return;
        };
        let session = &self.manifest.sessions[index];
        let prefixes_ok = if self.manifest.files[session.file].damaged {
            report.prefixes <= session.routes
        } else {
            report.prefixes == session.routes
        };
        if std::mem::replace(&mut self.seen[index], true)
            || report.sender != session.sender
            || !prefixes_ok
        {
            self.failed += 1;
        }
    }

    /// Failed operations of the pass, counting sessions never reported.
    pub fn finish(self) -> u64 {
        let missing = self.seen.iter().filter(|seen| !**seen).count() as u64;
        (self.failed + missing).min(self.manifest.sessions.len() as u64)
    }
}

pub fn batch_options(workers: usize, shards: usize) -> StreamOptions {
    StreamOptions {
        workers,
        tracker: TrackerConfig::batch(),
        shards,
    }
}

/// One batch pass: per file, collect every analysis, render each report
/// into `out`, drop everything. Returns the failed operations.
pub fn batch_pass(manifest: &Manifest, options: StreamOptions, out: &mut String) -> u64 {
    let engine = StreamAnalyzer::with_options(AnalyzerConfig::default(), options);
    let mut check = Check::new(manifest);
    for file in &manifest.files {
        // A file the generator damaged is read lossily, as an operator
        // must.
        let analyses = if file.damaged {
            engine
                .analyze_pcap_lossy(&file.path)
                .map(|(analyses, _)| analyses)
        } else {
            engine.analyze_pcap(&file.path)
        }
        .expect("generated captures are readable");
        for analysis in &analyses {
            let report = Report::from_analysis(analysis, engine.analyzer().config());
            check.see(&report);
            out.push_str(&report.to_json());
            out.push('\n');
        }
    }
    check.finish()
}

pub fn watch_config(workload: &Workload, shards: usize) -> MonitorConfig {
    MonitorConfig::builder()
        .interval(Micros::from_secs(workload.interval_s))
        .window(Micros::from_secs(workload.window_s))
        .pending_backoff(Duration::from_millis(1))
        .shards(shards)
        .build()
        .expect("valid monitor configuration")
}

/// One follow-mode source per file, finishing at end of file.
pub fn source_set(manifest: &Manifest) -> SourceSet {
    manifest
        .files
        .iter()
        .fold(SourceSet::builder(), |builder, file| {
            builder.source(
                SourceSpec::follow(&file.path)
                    .with_exit_idle(Duration::ZERO)
                    .with_idle_from_open(),
            )
        })
        .build()
        .expect("generated captures open")
}

/// Renders a watch's events as the v2 JSONL stream, preamble included,
/// checking the connection reports on the way.
pub fn render_events(
    manifest: &Manifest,
    sources: &[std::sync::Arc<str>],
    events: &[MonitorEvent],
    out: &mut String,
) -> u64 {
    let mut check = Check::new(manifest);
    out.push_str(
        &EventSchema::V2
            .preamble(sources)
            .expect("v2 has a preamble"),
    );
    out.push('\n');
    for event in events {
        if let MonitorEvent::Connection(summary) = event {
            check.see(&summary.report);
        }
        out.push_str(&EventSchema::V2.render(event));
        out.push('\n');
    }
    check.finish()
}

/// What one watch pass reports besides its output.
pub struct WatchStats {
    pub failed: u64,
    pub ticks: u64,
    /// The monitor's own per-tick clock (`analysis_latency` mean).
    pub tick_mean_ms: f64,
}

/// One watch pass: every file drained through `Monitor::run_set` (or,
/// with `shards > 1`, `ShardedMonitor::run_set`).
pub fn watch_pass(
    workload: &Workload,
    manifest: &Manifest,
    shards: usize,
    out: &mut String,
) -> WatchStats {
    let config = watch_config(workload, shards);
    let mut set = source_set(manifest);
    let (events, metrics) = if shards > 1 {
        let mut monitor = ShardedMonitor::new(config);
        (monitor.run_set(&mut set), monitor.metrics().clone())
    } else {
        let mut monitor = Monitor::new(config);
        (monitor.run_set(&mut set), monitor.metrics().clone())
    };
    WatchStats {
        failed: render_events(manifest, &set.names(), &events, out),
        ticks: metrics.ticks(),
        tick_mean_ms: metrics.analysis_latency().mean_us() as f64 / 1e3,
    }
}

/// FNV-1a 64 of a pass's output, compared with round 0's.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
