//! In-process monitoring counters.
//!
//! [`MonitorMetrics`] is the monitor's own health surface: how much it
//! ingested, how many sessions it watches, what it alerted on, and how
//! long the analysis ticks take (wall clock). Wall-clock readings live
//! *only* here — the JSONL event stream carries exclusively trace
//! (virtual) time, so the same input always produces byte-identical
//! output.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

use crate::alerts::{Alert, AlertAction, AlertKind};
use tdat::SettleCount;

/// Upper bucket bounds of the analysis-latency histogram, in
/// microseconds; a final unbounded bucket catches the rest.
const LATENCY_BOUNDS_US: [u64; 9] = [
    100, 300, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000,
];

/// Wall-clock latency histogram with fixed logarithmic-ish buckets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; LATENCY_BOUNDS_US.len() + 1],
    samples: u64,
    sum_us: u64,
    max_us: u64,
}

impl LatencyHistogram {
    /// Records one measurement.
    pub fn observe(&mut self, latency: Duration) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let bucket = LATENCY_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BOUNDS_US.len());
        self.counts[bucket] += 1;
        self.samples += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Number of recorded measurements.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Mean latency in microseconds (0 with no samples).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.samples).unwrap_or(0)
    }

    /// Largest recorded latency in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// `(upper bound in µs, count)` per bucket; the final entry's bound
    /// is `u64::MAX` (overflow bucket).
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        LATENCY_BOUNDS_US
            .iter()
            .copied()
            .chain(std::iter::once(u64::MAX))
            .zip(self.counts.iter().copied())
    }
}

/// Counters exposed by a running [`Monitor`](crate::Monitor).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MonitorMetrics {
    frames: u64,
    frames_by_source: BTreeMap<String, u64>,
    sources: usize,
    source_failures: u64,
    source_flaps: u64,
    source_resurrections: u64,
    ticks: u64,
    open_connections: usize,
    connections_finalized: u64,
    transfers_settled: u64,
    settle_queue_visits: u64,
    peer_pairs_checked: u64,
    tick_visits: u64,
    capture_anomalies: u64,
    raised: BTreeMap<AlertKind, u64>,
    cleared: BTreeMap<AlertKind, u64>,
    latency: LatencyHistogram,
}

impl MonitorMetrics {
    /// Records one frame ingested from a named source.
    pub(crate) fn record_frame_from(&mut self, source: &str) {
        self.frames += 1;
        // Fast path: the per-source counter usually exists already, so
        // the per-frame cost is one short-string map lookup.
        match self.frames_by_source.get_mut(source) {
            Some(count) => *count += 1,
            None => {
                self.frames_by_source.insert(source.to_string(), 1);
            }
        }
    }

    /// Records the registered-source gauge.
    pub(crate) fn record_sources(&mut self, sources: usize) {
        self.sources = self.sources.max(sources);
    }

    /// Records one source dying mid-watch.
    pub(crate) fn record_source_failure(&mut self) {
        self.source_failures += 1;
    }

    /// Records one source going down transiently (entering backoff).
    pub(crate) fn record_source_flap(&mut self) {
        self.source_flaps += 1;
    }

    /// Records one transiently-down source coming back.
    pub(crate) fn record_source_resurrection(&mut self) {
        self.source_resurrections += 1;
    }

    /// Records one analysis tick: the open-connection gauge and the
    /// tick's wall-clock duration.
    pub(crate) fn record_tick(&mut self, open_connections: usize, latency: Duration) {
        self.ticks += 1;
        self.open_connections = open_connections;
        self.latency.observe(latency);
    }

    /// Records a finalized connection (and updates the open gauge).
    pub(crate) fn record_finalized(&mut self, open_connections: usize) {
        self.connections_finalized += 1;
        self.open_connections = open_connections;
    }

    /// Records what one scope's settle queue run after a tick did: the
    /// logs whose table transfer settled, and the entries it visited.
    pub(crate) fn record_settled(&mut self, count: SettleCount) {
        self.transfers_settled += count.settled as u64;
        self.settle_queue_visits += count.visited as u64;
    }

    /// Records the session pairs a tick's peer-group correlation
    /// compared.
    pub(crate) fn record_peer_pairs(&mut self, pairs: usize) {
        self.peer_pairs_checked += pairs as u64;
    }

    /// Records what one tick visited: dirty connections, stall
    /// deadlines, peer-group members and alert keys.
    pub(crate) fn record_tick_visits(&mut self, visits: u64) {
        self.tick_visits += visits;
    }

    /// Records one capture anomaly survived by the source.
    pub(crate) fn record_anomaly(&mut self) {
        self.capture_anomalies += 1;
    }

    /// Records an alert transition.
    pub(crate) fn record_alert(&mut self, alert: &Alert) {
        let by_kind = match alert.action {
            AlertAction::Raise => &mut self.raised,
            AlertAction::Clear => &mut self.cleared,
        };
        *by_kind.entry(alert.kind).or_insert(0) += 1;
    }

    /// Total frames ingested.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Sources ever registered with the monitor.
    pub fn sources(&self) -> usize {
        self.sources
    }

    /// Sources that died mid-watch (I/O error or unrecoverable capture
    /// damage).
    pub fn source_failures(&self) -> u64 {
        self.source_failures
    }

    /// Analysis ticks run.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Open connections at the last tick/finalization.
    pub fn open_connections(&self) -> usize {
        self.open_connections
    }

    /// Connections finalized (closed or idle-expired).
    pub fn connections_finalized(&self) -> u64 {
        self.connections_finalized
    }

    /// Table transfers settled: message logs whose MCT answer became
    /// final while their connection was open, and which since hold the
    /// answer in place of their table.
    pub fn transfers_settled(&self) -> u64 {
        self.transfers_settled
    }

    /// Settle queue entries the runs after the ticks visited: those
    /// more than `max_gap` behind the clock — an entry of logs that were
    /// due, of logs that have logged a counted UPDATE since they were
    /// queued (they go back in), or of a connection finalized since. A
    /// tick at which no entry is due visits none, however many logs are
    /// open.
    pub fn settle_queue_visits(&self) -> u64 {
        self.settle_queue_visits
    }

    /// Ordered session pairs the ticks' peer-group correlation
    /// compared: within each sender group, every member that paused for
    /// at least 30 s against each other member, at each tick that
    /// refreshed or finalized a member of a group that can pair. A group
    /// of one member, or none of whose members paused that long, costs
    /// none, and neither does a tick at which no such group changed.
    pub fn peer_pairs_checked(&self) -> u64 {
        self.peer_pairs_checked
    }

    /// What the ticks visited: each dirty connection they re-analysed,
    /// each stall deadline that came up, each member of a peer-group
    /// pass that re-ran, and each alert key whose conditions changed or
    /// whose next transition fell due. A tick at which nothing changed
    /// and nothing fell due visits none, however many sessions are open
    /// and whatever alerts they hold.
    pub fn tick_visits(&self) -> u64 {
        self.tick_visits
    }

    /// Capture anomalies survived by the source.
    pub fn capture_anomalies(&self) -> u64 {
        self.capture_anomalies
    }

    /// Alerts raised, by kind.
    pub fn alerts_raised(&self, kind: AlertKind) -> u64 {
        self.raised.get(&kind).copied().unwrap_or(0)
    }

    /// Alerts cleared, by kind.
    pub fn alerts_cleared(&self, kind: AlertKind) -> u64 {
        self.cleared.get(&kind).copied().unwrap_or(0)
    }

    /// Total alerts raised across all kinds.
    pub fn total_alerts_raised(&self) -> u64 {
        self.raised.values().sum()
    }

    /// The analysis-tick wall-clock latency histogram: one sample per
    /// tick, the whole tick — dirty re-analysis, detectors, peer-group
    /// correlation, alert update — but not the settle queue run after it.
    pub fn analysis_latency(&self) -> &LatencyHistogram {
        &self.latency
    }
}

impl fmt::Display for MonitorMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "frames ingested      {:>10}\n\
             analysis ticks       {:>10}\n\
             open connections     {:>10}\n\
             finalized            {:>10}\n\
             settled transfers    {:>10}\n\
             settle queue visits  {:>10}\n\
             peer pairs checked   {:>10}\n\
             tick visits          {:>10}\n\
             capture anomalies    {:>10}",
            self.frames,
            self.ticks,
            self.open_connections,
            self.connections_finalized,
            self.transfers_settled,
            self.settle_queue_visits,
            self.peer_pairs_checked,
            self.tick_visits,
            self.capture_anomalies
        )?;
        // Per-source breakdown only when there is something to break
        // down — single-source output stays as it always was.
        if self.frames_by_source.len() > 1 {
            for (source, count) in &self.frames_by_source {
                writeln!(f, "  from {:<24} {count:>10}", source)?;
            }
        }
        if self.source_failures > 0 {
            writeln!(f, "source failures      {:>10}", self.source_failures)?;
        }
        if self.source_flaps > 0 {
            writeln!(
                f,
                "source flaps         {:>10} ({} resurrected)",
                self.source_flaps, self.source_resurrections
            )?;
        }
        for kind in AlertKind::ALL {
            let raised = self.alerts_raised(kind);
            let cleared = self.alerts_cleared(kind);
            if raised > 0 || cleared > 0 {
                writeln!(f, "alerts {:<28} {raised} raised / {cleared} cleared", kind)?;
            }
        }
        writeln!(
            f,
            "analysis latency     mean {} µs, max {} µs over {} ticks",
            self.latency.mean_us(),
            self.latency.max_us(),
            self.latency.samples()
        )?;
        for (bound, count) in self.latency.buckets() {
            if count == 0 {
                continue;
            }
            if bound == u64::MAX {
                writeln!(f, "  > 1 s               {count:>10}")?;
            } else {
                writeln!(f, "  ≤ {:>7} µs         {count:>10}", bound)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdat_timeset::{Micros, Span};

    #[test]
    fn histogram_buckets_and_summary() {
        let mut h = LatencyHistogram::default();
        h.observe(Duration::from_micros(50));
        h.observe(Duration::from_micros(250));
        h.observe(Duration::from_millis(2));
        h.observe(Duration::from_secs(5));
        assert_eq!(h.samples(), 4);
        assert_eq!(h.max_us(), 5_000_000);
        let buckets: Vec<(u64, u64)> = h.buckets().collect();
        assert_eq!(buckets[0], (100, 1));
        assert_eq!(buckets[1], (300, 1));
        assert_eq!(buckets[3], (3_000, 1));
        assert_eq!(buckets.last().copied(), Some((u64::MAX, 1)));
        assert_eq!(buckets.iter().map(|(_, c)| c).sum::<u64>(), 4);
    }

    #[test]
    fn counters_accumulate_and_render() {
        let mut m = MonitorMetrics::default();
        m.record_frame_from("capture");
        m.record_frame_from("capture");
        m.record_tick(3, Duration::from_micros(500));
        m.record_finalized(2);
        let alert = Alert {
            at: Micros::ZERO,
            source: std::sync::Arc::from("capture"),
            action: AlertAction::Raise,
            kind: AlertKind::ZeroWindowBug,
            severity: AlertKind::ZeroWindowBug.severity(),
            session: "s".into(),
            since: Micros::ZERO,
            evidence: Span::new(Micros::ZERO, Micros::ZERO),
            detail: String::new(),
        };
        m.record_alert(&alert);
        assert_eq!(m.frames(), 2);
        assert_eq!(m.ticks(), 1);
        assert_eq!(m.open_connections(), 2);
        assert_eq!(m.connections_finalized(), 1);
        assert_eq!(m.alerts_raised(AlertKind::ZeroWindowBug), 1);
        assert_eq!(m.total_alerts_raised(), 1);
        let text = m.to_string();
        assert!(text.contains("zero_window_bug"));
        assert!(text.contains("frames ingested"));
        assert!(
            !text.contains("from capture"),
            "no per-source breakdown with a single source:\n{text}"
        );
    }

    #[test]
    fn multi_source_render_breaks_down_frames() {
        let mut m = MonitorMetrics::default();
        m.record_frame_from("a.pcap");
        m.record_frame_from("b.pcap");
        m.record_frame_from("b.pcap");
        m.record_sources(2);
        m.record_source_failure();
        assert_eq!(m.frames(), 3);
        assert_eq!(m.sources(), 2);
        assert_eq!(m.source_failures(), 1);
        let text = m.to_string();
        assert!(
            text.contains(&format!("  from {:<24} {:>10}\n", "a.pcap", 1)),
            "{text}"
        );
        assert!(
            text.contains(&format!("  from {:<24} {:>10}\n", "b.pcap", 2)),
            "{text}"
        );
        assert!(text.contains("source failures"), "{text}");
    }
}
