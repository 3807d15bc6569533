//! The monitoring engine: frames in, JSONL events out.
//!
//! [`Monitor`] glues the suite's streaming pieces into a long-running
//! watcher:
//!
//! * frames arrive from one or more packet sources, each registered as
//!   a named *scope* ([`register_source`](Monitor::register_source));
//!   every scope gets its own [`ConnectionTracker`] (per-connection
//!   state) and [`BgpDemux`] (incremental BGP reassembly for both
//!   directions), so one damaged collector degrades only its own view;
//! * every `interval` of *trace* time it re-analyzes the connections
//!   that saw traffic (or new capture damage) since their last
//!   analysis over a trailing `window` via
//!   [`Analyzer::analyze_partial`], reusing cached analyses for idle
//!   connections — steady-state tick cost follows new traffic, not the
//!   open-connection count;
//! * the detector outcomes become [`Condition`]s fed to an
//!   [`AlertEngine`] keyed per (source, session, kind); peer-group
//!   blocking correlates across the whole fleet of scopes, but
//!   quarantined connections are excluded, so a poisoned source never
//!   contaminates its siblings' correlation;
//! * alert raise/clear transitions — plus a final report for every
//!   connection that closes and a notice for every source that dies —
//!   surface as [`MonitorEvent`]s, each carrying its originating
//!   source;
//! * events encode to JSON Lines using only trace (virtual) time, so a
//!   given input always produces byte-identical output; wall-clock
//!   readings go to [`MonitorMetrics`] instead. Two wire schemas
//!   exist: [`EventSchema::V1`] (the historical single-source lines,
//!   byte-identical to pre-source-set releases) and
//!   [`EventSchema::V2`] (adds a `source` field and a `meta`
//!   preamble).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use tdat::{
    find_peer_group_blocking_all, report::json, Analysis, Analyzer, BgpDemux, QuarantineConfig,
    Report,
};
use tdat_packet::{AnomalyCounts, TcpFrame};
use tdat_timeset::{Micros, Span};
use tdat_trace::{ConnKey, ConnectionTracker, FinalizedConnection, TrackerConfig};

use crate::alerts::{Alert, AlertConfig, AlertEngine, AlertKind, Condition};
use crate::metrics::MonitorMetrics;
use crate::set::{SetEvent, SourceId, SourceSet};
use crate::source::AttributedAnomaly;

/// The scope name the single-source convenience APIs
/// ([`Monitor::ingest`], [`Monitor::note_anomaly`]) register on first
/// use.
pub const DEFAULT_SOURCE: &str = "capture";

/// Monitor tuning. Build one with [`MonitorConfig::builder`] for
/// validation, or use `Default` / struct update syntax for the
/// historical permissive path.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Trailing analysis window each tick looks at.
    pub window: Micros,
    /// Trace time between analysis ticks.
    pub interval: Micros,
    /// The per-connection analysis pipeline configuration.
    pub analyzer: tdat::AnalyzerConfig,
    /// When connections are finalized. The default keeps sessions for
    /// 10 idle minutes — a live monitor must ride out long stalls
    /// (precisely the interesting part) without splitting a session in
    /// two.
    pub tracker: TrackerConfig,
    /// Alerting thresholds.
    pub alerts: AlertConfig,
    /// When per-connection capture damage tips into quarantine.
    pub quarantine: QuarantineConfig,
    /// Validation mode: re-analyze *every* open connection at each tick
    /// instead of only the dirty ones. Results are identical to the
    /// incremental default by construction (each connection is analyzed
    /// at its last-dirty anchor either way); the flag exists so
    /// differential tests can prove that, at the cost of tick time
    /// proportional to the open-connection count.
    pub recompute_all: bool,
    /// Worker shards for the engine. `1` (the default) is the serial
    /// [`Monitor`]; larger values partition connections by key hash
    /// across that many per-shard trackers/demuxes/tick caches (see
    /// [`ShardedMonitor`](crate::shard::ShardedMonitor)), producing
    /// byte-identical output.
    pub shards: usize,
    /// Wall-clock wait between polls while every source is
    /// [`Pending`](crate::source::SourceEvent::Pending). One knob for
    /// every driver (serial engine, sharded engine, and the CLI's idle
    /// loop); wall-clock only, so it never affects the event stream.
    pub pending_backoff: std::time::Duration,
}

impl Default for MonitorConfig {
    fn default() -> MonitorConfig {
        MonitorConfig {
            window: Micros::from_secs(120),
            interval: Micros::from_secs(10),
            analyzer: tdat::AnalyzerConfig::default(),
            tracker: TrackerConfig {
                idle_timeout: Some(Micros::from_secs(600)),
                close_grace: Some(Micros::from_secs(5)),
                ..TrackerConfig::streaming()
            },
            alerts: AlertConfig::default(),
            quarantine: QuarantineConfig::default(),
            recompute_all: false,
            shards: 1,
            pending_backoff: std::time::Duration::from_millis(50),
        }
    }
}

impl MonitorConfig {
    /// Starts a builder seeded with the defaults;
    /// [`build`](MonitorConfigBuilder::build) validates the window, interval,
    /// alert hysteresis, tracker timeouts, and quarantine budgets.
    pub fn builder() -> MonitorConfigBuilder {
        MonitorConfigBuilder {
            config: MonitorConfig::default(),
        }
    }
}

/// Validating builder for [`MonitorConfig`]; created by
/// [`MonitorConfig::builder`]. Mirrors
/// [`AnalyzerConfig::builder`](tdat::AnalyzerConfig::builder).
#[derive(Debug, Clone)]
pub struct MonitorConfigBuilder {
    config: MonitorConfig,
}

impl MonitorConfigBuilder {
    /// Sets the trailing analysis window.
    pub fn window(mut self, window: Micros) -> MonitorConfigBuilder {
        self.config.window = window;
        self
    }

    /// Sets the trace time between analysis ticks.
    pub fn interval(mut self, interval: Micros) -> MonitorConfigBuilder {
        self.config.interval = interval;
        self
    }

    /// Sets the analysis pipeline configuration.
    pub fn analyzer(mut self, analyzer: tdat::AnalyzerConfig) -> MonitorConfigBuilder {
        self.config.analyzer = analyzer;
        self
    }

    /// Sets the connection-finalization policy.
    pub fn tracker(mut self, tracker: TrackerConfig) -> MonitorConfigBuilder {
        self.config.tracker = tracker;
        self
    }

    /// Sets the alerting thresholds.
    pub fn alerts(mut self, alerts: AlertConfig) -> MonitorConfigBuilder {
        self.config.alerts = alerts;
        self
    }

    /// Sets the quarantine budgets.
    pub fn quarantine(mut self, quarantine: QuarantineConfig) -> MonitorConfigBuilder {
        self.config.quarantine = quarantine;
        self
    }

    /// Sets the recompute-all validation mode.
    pub fn recompute_all(mut self, recompute_all: bool) -> MonitorConfigBuilder {
        self.config.recompute_all = recompute_all;
        self
    }

    /// Sets the worker shard count (1 = the serial engine).
    pub fn shards(mut self, shards: usize) -> MonitorConfigBuilder {
        self.config.shards = shards;
        self
    }

    /// Sets the wall-clock wait between polls while every source is
    /// pending.
    pub fn pending_backoff(mut self, backoff: std::time::Duration) -> MonitorConfigBuilder {
        self.config.pending_backoff = backoff;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`tdat::Error::Config`] when the window or interval is
    /// non-positive, the interval exceeds the window (traffic between
    /// consecutive windows would never be analyzed), a hysteresis or
    /// detector threshold is zero, a tracker timeout is set to zero, or
    /// a quarantine budget is zero (which would quarantine every
    /// connection on its first anomaly byte).
    pub fn build(self) -> tdat::Result<MonitorConfig> {
        let fail = |reason: String| Err(tdat::Error::Config(reason));
        let c = &self.config;
        if c.window <= Micros::ZERO {
            return fail(format!(
                "analysis window must be positive, got {} µs",
                c.window.0
            ));
        }
        if c.interval <= Micros::ZERO {
            return fail(format!(
                "tick interval must be positive, got {} µs",
                c.interval.0
            ));
        }
        if c.interval > c.window {
            return fail(format!(
                "tick interval ({:.1} s) exceeds the analysis window ({:.1} s): traffic \
                 between consecutive windows would never be analyzed",
                c.interval.as_secs_f64(),
                c.window.as_secs_f64()
            ));
        }
        if c.alerts.raise_after == 0 {
            return fail("alert raise_after must be at least 1 tick".to_string());
        }
        if c.alerts.clear_after == 0 {
            return fail("alert clear_after must be at least 1 tick".to_string());
        }
        if c.alerts.stall_after <= Micros::ZERO {
            return fail("stall_after must be positive".to_string());
        }
        if c.alerts.min_pause <= Micros::ZERO {
            return fail("min_pause must be positive".to_string());
        }
        for (name, timeout) in [
            ("tracker idle_timeout", c.tracker.idle_timeout),
            ("tracker close_grace", c.tracker.close_grace),
        ] {
            if timeout.is_some_and(|t| t <= Micros::ZERO) {
                return fail(format!("{name}, when set, must be positive"));
            }
        }
        if c.tracker.max_connections == Some(0) {
            return fail("tracker max_connections, when set, must be at least 1".to_string());
        }
        if c.shards == 0 {
            return fail("shards must be at least 1 (1 is the serial engine)".to_string());
        }
        if c.pending_backoff.is_zero() {
            return fail(
                "pending backoff must be positive (a zero backoff busy-spins the poll loop)"
                    .to_string(),
            );
        }
        if c.quarantine.max_anomalies == 0
            || c.quarantine.max_unparsed_bytes == 0
            || c.quarantine.max_overflow_bytes == 0
        {
            return fail(
                "quarantine budgets must be at least 1 (a zero budget would quarantine \
                 every connection immediately)"
                    .to_string(),
            );
        }
        Ok(self.config)
    }
}

/// A line of the monitor's event stream.
// Connection summaries dwarf alerts, but events are produced rarely
// (finalization/transition) and drained immediately — not worth the
// indirection of boxing the large variant.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum MonitorEvent {
    /// An alert raise/clear transition.
    Alert(Alert),
    /// A connection finalized (closed or idle-expired): its full
    /// whole-lifetime analysis report.
    Connection(ConnectionSummary),
    /// A source died mid-watch (I/O error or unrecoverable capture
    /// damage); its siblings keep running.
    SourceDown(SourceDown),
    /// A source that went down transiently came back: its supervising
    /// set reopened it and resumed at the released watermark.
    SourceUp(SourceUp),
}

/// The final report of a finalized connection.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectionSummary {
    /// Trace time of finalization.
    pub at: Micros,
    /// The packet source whose capture carried the connection.
    pub source: Arc<str>,
    /// The session (`ip:port->ip:port`, data sender first).
    pub session: String,
    /// The whole-lifetime analysis report.
    pub report: Report,
}

/// Notice that a source died mid-watch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceDown {
    /// Trace time the failure was observed at.
    pub at: Micros,
    /// The failed source.
    pub source: Arc<str>,
    /// The terminal error.
    pub detail: String,
}

/// Notice that a transiently-down source was resurrected; always
/// paired with an earlier [`SourceDown`] for the same source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceUp {
    /// Trace time the recovery was observed at.
    pub at: Micros,
    /// The recovered source.
    pub source: Arc<str>,
    /// Reopen attempts it took (1 = first retry succeeded).
    pub attempts: u32,
    /// Human-readable recovery summary.
    pub detail: String,
}

impl MonitorEvent {
    /// Encodes the event as one `tdat-monitor-events/1` JSON object
    /// (one JSONL line, no trailing newline) — the historical
    /// single-source wire format, kept byte-identical: alert and
    /// connection lines carry no `source` field. All times are trace
    /// time in seconds.
    pub fn to_json(&self) -> String {
        self.encode(false)
    }

    /// Encodes the event as one `tdat-monitor-events/2` JSON object:
    /// identical to [`to_json`](Self::to_json) except every line gains
    /// a `source` field right after `type`.
    pub fn to_json_v2(&self) -> String {
        self.encode(true)
    }

    fn encode(&self, with_source: bool) -> String {
        let mut out = String::with_capacity(256);
        out.push('{');
        match self {
            MonitorEvent::Alert(a) => {
                json::push_str_field(&mut out, "type", "alert", false);
                if with_source {
                    json::push_str_field(&mut out, "source", &a.source, true);
                }
                json::push_num_field(&mut out, "at_s", a.at.as_secs_f64(), true);
                json::push_str_field(&mut out, "action", a.action.as_str(), true);
                json::push_str_field(&mut out, "kind", a.kind.as_str(), true);
                json::push_str_field(&mut out, "severity", a.severity.as_str(), true);
                json::push_str_field(&mut out, "session", &a.session, true);
                json::push_num_field(&mut out, "since_s", a.since.as_secs_f64(), true);
                json::push_num_field(
                    &mut out,
                    "evidence_start_s",
                    a.evidence.start.as_secs_f64(),
                    true,
                );
                json::push_num_field(
                    &mut out,
                    "evidence_end_s",
                    a.evidence.end.as_secs_f64(),
                    true,
                );
                json::push_str_field(&mut out, "detail", &a.detail, true);
            }
            MonitorEvent::Connection(c) => {
                json::push_str_field(&mut out, "type", "connection", false);
                if with_source {
                    json::push_str_field(&mut out, "source", &c.source, true);
                }
                json::push_num_field(&mut out, "at_s", c.at.as_secs_f64(), true);
                json::push_str_field(&mut out, "session", &c.session, true);
                json::push_raw_field(&mut out, "report", &c.report.to_json(), true);
            }
            MonitorEvent::SourceDown(d) => {
                json::push_str_field(&mut out, "type", "source_down", false);
                json::push_str_field(&mut out, "source", &d.source, true);
                json::push_num_field(&mut out, "at_s", d.at.as_secs_f64(), true);
                json::push_str_field(&mut out, "detail", &d.detail, true);
            }
            MonitorEvent::SourceUp(u) => {
                json::push_str_field(&mut out, "type", "source_up", false);
                json::push_str_field(&mut out, "source", &u.source, true);
                json::push_num_field(&mut out, "at_s", u.at.as_secs_f64(), true);
                json::push_raw_field(&mut out, "attempts", &u.attempts.to_string(), true);
                json::push_str_field(&mut out, "detail", &u.detail, true);
            }
        }
        out.push('}');
        out
    }
}

/// The JSONL wire schema for the monitor's event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EventSchema {
    /// `tdat-monitor-events/1`: the historical single-source lines,
    /// byte-identical to pre-source-set releases (no `source` field, no
    /// preamble).
    #[default]
    V1,
    /// `tdat-monitor-events/2`: every line carries a `source` field,
    /// and the stream opens with a `meta` preamble listing the
    /// registered sources.
    V2,
}

impl EventSchema {
    /// The schema identifier written in the v2 preamble.
    pub const fn name(self) -> &'static str {
        match self {
            EventSchema::V1 => "tdat-monitor-events/1",
            EventSchema::V2 => "tdat-monitor-events/2",
        }
    }

    /// Renders one event in this schema (one JSONL line, no trailing
    /// newline).
    pub fn render(self, event: &MonitorEvent) -> String {
        match self {
            EventSchema::V1 => event.to_json(),
            EventSchema::V2 => event.to_json_v2(),
        }
    }

    /// The stream preamble, if this schema has one: v2 emits a `meta`
    /// line declaring the schema and the source names (in [`SourceId`]
    /// order); v1 has no preamble.
    pub fn preamble<S: AsRef<str>>(self, sources: &[S]) -> Option<String> {
        match self {
            EventSchema::V1 => None,
            EventSchema::V2 => {
                let mut out = String::with_capacity(128);
                out.push('{');
                json::push_str_field(&mut out, "type", "meta", false);
                json::push_str_field(&mut out, "schema", self.name(), true);
                json::push_str_array_field(&mut out, "sources", sources, true);
                out.push('}');
                Some(out)
            }
        }
    }
}

/// The session identifier used in events and alert keys.
pub(crate) fn session_id(analysis: &Analysis) -> String {
    format!(
        "{}:{}->{}:{}",
        analysis.sender.0, analysis.sender.1, analysis.receiver.0, analysis.receiver.1
    )
}

/// One connection's cached tick analysis.
#[derive(Debug)]
pub(crate) struct CachedAnalysis {
    /// The tracker's insertion ordinal — deterministic iteration order
    /// for condition evaluation regardless of hash-map layout.
    pub(crate) ordinal: u64,
    /// The tick time this analysis was computed at (the connection's
    /// last-dirty tick); its window is `[anchor - window, anchor]`.
    pub(crate) anchor: Micros,
    /// The session id, formatted once per refresh instead of per tick.
    pub(crate) session: String,
    /// Conditions derived purely from the analysis (timer gaps, loss
    /// episodes, zero-window bug, quarantine). Computed at refresh
    /// time: a clean connection contributes *zero* detector work to
    /// subsequent ticks. Stall and peer-group-blocking conditions
    /// depend on the current tick time or on other connections, so
    /// they stay in the per-tick sweep.
    pub(crate) conditions: Vec<Condition>,
    pub(crate) analysis: Analysis,
}

/// Evaluates the detectors whose outcome depends only on the analysis
/// itself, producing the cacheable subset of a connection's alert
/// conditions.
pub(crate) fn analysis_conditions(
    analysis: &Analysis,
    source: &Arc<str>,
    session: &str,
    timer_min_gaps: usize,
    config: &tdat::AnalyzerConfig,
) -> Vec<Condition> {
    let mut conditions = Vec::new();
    // A quarantined connection's detector outcomes are built on
    // untrustworthy evidence: surface only the capture-quality alert.
    if let Some(reason) = analysis.verdict.reason() {
        conditions.push(Condition {
            source: source.clone(),
            session: session.to_string(),
            kind: AlertKind::CaptureQuality,
            evidence: analysis.period,
            detail: format!("connection quarantined: {reason}"),
        });
        return conditions;
    }
    if let Some(timer) = analysis.infer_timer(timer_min_gaps) {
        conditions.push(Condition {
            source: source.clone(),
            session: session.to_string(),
            kind: AlertKind::TimerGap,
            evidence: analysis.period,
            detail: format!(
                "pacing timer ~{:.1} ms over {} gaps",
                timer.period.as_millis_f64(),
                timer.gap_count
            ),
        });
    }
    let episodes = analysis.consecutive_losses(config);
    if let Some(worst) = episodes.iter().max_by_key(|e| e.retransmissions) {
        let evidence = episodes
            .iter()
            .fold(worst.span, |hull, e| hull.hull(e.span));
        conditions.push(Condition {
            source: source.clone(),
            session: session.to_string(),
            kind: AlertKind::ConsecutiveRetransmissions,
            evidence,
            detail: format!(
                "{} episode(s), worst {} retransmissions",
                episodes.len(),
                worst.retransmissions
            ),
        });
    }
    if let Some(bug) = analysis.zero_ack_bug() {
        conditions.push(Condition {
            source: source.clone(),
            session: session.to_string(),
            kind: AlertKind::ZeroWindowBug,
            evidence: bug.spans.hull().unwrap_or(analysis.period),
            detail: format!(
                "zero-window and upstream-loss series conflict for {:.1} s",
                bug.spans.size().as_secs_f64()
            ),
        });
    }
    conditions
}

/// Per-source isolation unit: everything whose damage must stay
/// confined to the source that produced it. The serial [`Monitor`]
/// holds one per source; the sharded engine holds one per
/// (shard, source) pair — the methods below are the shared
/// data-plane logic both drive.
#[derive(Debug)]
pub(crate) struct SourceScope {
    pub(crate) name: Arc<str>,
    pub(crate) tracker: ConnectionTracker,
    pub(crate) demux: BgpDemux,
    /// Per-connection data-progress watermarks for stall detection:
    /// `(data bytes at last progress, tick time of last progress)`.
    pub(crate) progress: HashMap<ConnKey, (u64, Micros)>,
    /// Capture anomalies attributed to each open connection; consumed
    /// by the quarantine verdict at every tick and at finalization.
    pub(crate) quality: HashMap<ConnKey, AnomalyCounts>,
    /// Connections whose `quality` entry changed since their last
    /// analysis — they must be re-analyzed even without new traffic.
    pub(crate) quality_dirty: HashSet<ConnKey>,
    /// Capture damage this source could not tie to any connection.
    pub(crate) unattributed: AnomalyCounts,
    /// Cached per-connection analyses from previous ticks; entries are
    /// refreshed only when their connection is dirty.
    pub(crate) cache: HashMap<ConnKey, CachedAnalysis>,
}

/// What [`SourceScope::finalize_connection`] produced: the data-plane
/// half of finalization. The caller (serial monitor or shard
/// coordinator) owns the control-plane half — alert clearing, metrics,
/// and the event itself.
#[derive(Debug)]
pub(crate) struct FinalizeOutcome {
    /// The finalized session id.
    pub(crate) session: String,
    /// The session id the tick cache last published for this
    /// connection, when it differs from the final one (late traffic
    /// re-elected the data sender): alerts raised under it must be
    /// cleared too, or they leak past the connection's lifetime.
    pub(crate) stale_session: Option<String>,
    /// The whole-lifetime report.
    pub(crate) report: Report,
    /// The analysis profile's end time (event timestamps never run
    /// behind the traffic they describe).
    pub(crate) profile_end: Micros,
}

impl SourceScope {
    pub(crate) fn new(name: Arc<str>, tracker: ConnectionTracker) -> SourceScope {
        SourceScope {
            name,
            tracker,
            demux: BgpDemux::new(),
            progress: HashMap::new(),
            quality: HashMap::new(),
            quality_dirty: HashSet::new(),
            unattributed: AnomalyCounts::default(),
            cache: HashMap::new(),
        }
    }

    /// The tick's analysis work list: tracker-dirty (saw frames) plus
    /// quality-dirty (new capture damage), deduplicated, still-open
    /// only, each with the anchor its window hangs from. Computed
    /// identically in incremental and recompute-all modes so both
    /// assign the same anchors.
    pub(crate) fn dirty_work(&mut self, at: Micros, recompute_all: bool) -> Vec<(ConnKey, Micros)> {
        let mut dirty = self.tracker.take_dirty();
        if !self.quality_dirty.is_empty() {
            let seen: HashSet<ConnKey> = dirty.iter().copied().collect();
            let mut extra: Vec<(u64, ConnKey)> = Vec::new();
            for key in self.quality_dirty.drain() {
                if seen.contains(&key) {
                    continue;
                }
                // A key the tracker does not know (damage attributed
                // to a connection that never produced a decodable
                // frame, or one that already finalized) has nothing
                // to analyze.
                if let Some(ordinal) = self.tracker.ordinal_of(key) {
                    extra.push((ordinal, key));
                }
            }
            extra.sort_unstable();
            dirty.extend(extra.into_iter().map(|(_, key)| key));
        }

        if recompute_all {
            let dirty_set: HashSet<ConnKey> = dirty.iter().copied().collect();
            self.tracker
                .open_keys()
                .into_iter()
                .map(|key| {
                    let anchor = if dirty_set.contains(&key) {
                        at
                    } else {
                        self.cache.get(&key).map(|c| c.anchor).unwrap_or(at)
                    };
                    (key, anchor)
                })
                .collect()
        } else {
            dirty.into_iter().map(|key| (key, at)).collect()
        }
    }

    /// Refreshes the cached analyses for `work` (tick phase 1).
    pub(crate) fn refresh(
        &mut self,
        work: Vec<(ConnKey, Micros)>,
        analyzer: &Analyzer,
        window: Micros,
        timer_min_gaps: usize,
    ) {
        for (key, anchor) in work {
            let (Some(fin), Some(ordinal)) =
                (self.tracker.snapshot_of(key), self.tracker.ordinal_of(key))
            else {
                continue;
            };
            let span = Span::new(anchor.saturating_sub(window), anchor);
            let extraction = self.demux.snapshot(key, fin.connection.sender);
            let counts = self.quality.get(&key).copied().unwrap_or_default();
            let analysis =
                analyzer.analyze_partial_lossy(fin.connection, &extraction, span, counts);
            let session = session_id(&analysis);
            let conditions = analysis_conditions(
                &analysis,
                &self.name,
                &session,
                timer_min_gaps,
                analyzer.config(),
            );
            self.cache.insert(
                key,
                CachedAnalysis {
                    ordinal,
                    anchor,
                    session,
                    conditions,
                    analysis,
                },
            );
        }
    }

    /// Tick phase 2 over this scope's cache, in tracker-insertion
    /// order: one `(ordinal, conditions)` entry per cached connection
    /// (cached analysis-derived conditions plus the stall watermark
    /// check, which mutates `progress` against the current tick time).
    pub(crate) fn entry_conditions(
        &mut self,
        at: Micros,
        stall_after: Micros,
    ) -> Vec<(u64, Vec<Condition>)> {
        let SourceScope {
            name,
            progress,
            cache,
            ..
        } = self;
        let mut entries: Vec<(&ConnKey, &CachedAnalysis)> = cache.iter().collect();
        entries.sort_unstable_by_key(|(_, cached)| cached.ordinal);
        let mut out: Vec<(u64, Vec<Condition>)> = Vec::with_capacity(entries.len());
        for (key, cached) in entries {
            let analysis = &cached.analysis;
            // Analysis-derived conditions were evaluated once at the
            // entry's last refresh; a clean, idle connection costs
            // nothing here beyond the stall watermark check below.
            let mut conditions: Vec<Condition> = cached.conditions.clone();
            // Stall detection: trace-time watermark on data
            // progress. Independent of analysis caching — an idle
            // connection's byte count cannot have changed, and the
            // comparison runs against the *current* tick time.
            // Quarantined connections only surface the
            // capture-quality condition.
            if !analysis.verdict.is_quarantined() {
                let bytes = analysis.profile.data_bytes;
                let mark = progress.entry(*key).or_insert((bytes, at));
                if bytes > mark.0 {
                    *mark = (bytes, at);
                } else if bytes > 0 && at - mark.1 >= stall_after {
                    conditions.push(Condition {
                        source: name.clone(),
                        session: cached.session.clone(),
                        kind: AlertKind::StalledTransfer,
                        evidence: Span::new(mark.1, at),
                        detail: format!(
                            "no data progress for {:.0} s ({} bytes transferred)",
                            (at - mark.1).as_secs_f64(),
                            bytes
                        ),
                    });
                }
            }
            out.push((cached.ordinal, conditions));
        }
        out
    }

    /// The cached analyses in tracker-insertion order (for the
    /// peer-group fleet and report snapshots).
    pub(crate) fn ordered_cache(&self) -> Vec<&CachedAnalysis> {
        let mut entries: Vec<&CachedAnalysis> = self.cache.values().collect();
        entries.sort_unstable_by_key(|cached| cached.ordinal);
        entries
    }

    /// The data-plane half of finalizing a connection that left this
    /// scope's tracker: clear its per-connection state, drain its BGP
    /// extraction, and build the whole-lifetime analysis.
    pub(crate) fn finalize_connection(
        &mut self,
        fin: FinalizedConnection,
        analyzer: &Analyzer,
    ) -> FinalizeOutcome {
        self.progress.remove(&fin.key);
        let cached_session = self.cache.remove(&fin.key).map(|cached| cached.session);
        self.quality_dirty.remove(&fin.key);
        let counts = self.quality.remove(&fin.key).unwrap_or_default();
        let extraction = self.demux.take(fin.key, fin.connection.sender);
        let analysis = analyzer.analyze_extracted_lossy(fin.connection, &extraction, counts);
        let session = session_id(&analysis);
        let stale_session = cached_session.filter(|cached| cached != &session);
        let report = Report::from_analysis(&analysis, analyzer.config());
        FinalizeOutcome {
            session,
            stale_session,
            report,
            profile_end: analysis.profile.end,
        }
    }
}

/// Tick phase 3, shared by the serial and sharded engines: peer-group
/// blocking correlates across the whole fleet — a BGP sender paces
/// *all* its group members, wherever each one was captured.
/// Quarantined connections are excluded, so a poisoned source cannot
/// contaminate the correlation. `fleet` must be in (scope,
/// tracker-insertion) order for deterministic output.
pub(crate) fn peer_group_conditions(
    fleet: &[(&Arc<str>, &CachedAnalysis)],
    min_pause: Micros,
    conditions: &mut Vec<Condition>,
) {
    let analyses: Vec<&Analysis> = fleet.iter().map(|(_, c)| &c.analysis).collect();
    for (blocked, faulty, incidents) in find_peer_group_blocking_all(&analyses, min_pause) {
        if analyses[blocked].verdict.is_quarantined() || analyses[faulty].verdict.is_quarantined() {
            continue;
        }
        let Some(last) = incidents.last() else {
            continue;
        };
        let (blocked_src, blocked_cached) = fleet[blocked];
        let (faulty_src, faulty_cached) = fleet[faulty];
        // Name the faulty member's source only when it differs —
        // single-source detail stays byte-identical.
        let cross = if blocked_src == faulty_src {
            String::new()
        } else {
            format!(" [source {faulty_src}]")
        };
        conditions.push(Condition {
            source: blocked_src.clone(),
            session: blocked_cached.session.clone(),
            kind: AlertKind::PeerGroupBlocking,
            evidence: last.pause,
            detail: format!(
                "paused behind faulty group member {}{} ({:.0} s overlap with its losses)",
                faulty_cached.session,
                cross,
                last.overlap.duration().as_secs_f64()
            ),
        });
    }
}

/// The long-running monitoring engine; see the module docs.
#[derive(Debug)]
pub struct Monitor {
    analyzer: Analyzer,
    tracker_config: TrackerConfig,
    alerts: AlertEngine,
    metrics: MonitorMetrics,
    window: Micros,
    interval: Micros,
    /// Trace time the monitor has advanced to.
    now: Micros,
    /// Next tick boundary; set by the first time advance.
    next_tick: Option<Micros>,
    /// Per-source isolation units, indexed by [`SourceId`].
    scopes: Vec<SourceScope>,
    /// Name → scope index, for idempotent registration.
    index: HashMap<Arc<str>, SourceId>,
    recompute_all: bool,
    pending_backoff: std::time::Duration,
    events: Vec<MonitorEvent>,
}

impl Monitor {
    /// Creates a monitor.
    pub fn new(config: MonitorConfig) -> Monitor {
        Monitor {
            analyzer: Analyzer::new(config.analyzer).with_quarantine(config.quarantine),
            tracker_config: config.tracker,
            alerts: AlertEngine::new(config.alerts),
            metrics: MonitorMetrics::default(),
            window: config.window.max(Micros(1)),
            interval: config.interval.max(Micros(1)),
            now: Micros::ZERO,
            next_tick: None,
            scopes: Vec::new(),
            index: HashMap::new(),
            recompute_all: config.recompute_all,
            pending_backoff: config.pending_backoff,
            events: Vec::new(),
        }
    }

    /// The monitor's health counters.
    pub fn metrics(&self) -> &MonitorMetrics {
        &self.metrics
    }

    /// Trace time the monitor has advanced to.
    pub fn now(&self) -> Micros {
        self.now
    }

    /// The configured wall-clock wait between polls while every source
    /// is pending.
    pub fn pending_backoff(&self) -> std::time::Duration {
        self.pending_backoff
    }

    /// A deterministic fingerprint of the alert engine's hysteresis
    /// state (see [`AlertEngine::fingerprint`]); checkpoints record it
    /// so a resumed watch can be validated against the state the
    /// original would have had.
    pub fn alert_fingerprint(&self) -> u64 {
        self.alerts.fingerprint()
    }

    /// Registers a named source scope (idempotent: a known name returns
    /// its existing id). Everything ingested under the returned
    /// [`SourceId`] — connections, capture damage, alerts, reports —
    /// stays attributed to this source.
    pub fn register_source(&mut self, name: &str) -> SourceId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = SourceId(self.scopes.len() as u32);
        let name: Arc<str> = Arc::from(name);
        self.index.insert(name.clone(), id);
        // The tracker stamps the scope index into everything it
        // finalizes, so a finalized connection routes back to its
        // source without a lookup.
        self.scopes.push(SourceScope::new(
            name,
            ConnectionTracker::scoped(self.tracker_config, id.index() as u64),
        ));
        self.metrics.record_sources(self.scopes.len());
        id
    }

    /// The registered source names, in [`SourceId`] order.
    pub fn source_names(&self) -> Vec<Arc<str>> {
        self.scopes.iter().map(|s| s.name.clone()).collect()
    }

    /// Ingests one captured frame (capture order) under the default
    /// [`DEFAULT_SOURCE`] scope. Runs any analysis ticks that became
    /// due *before* this frame's timestamp.
    pub fn ingest(&mut self, frame: &TcpFrame) {
        let id = self.register_source(DEFAULT_SOURCE);
        self.ingest_from(id, frame);
    }

    /// Ingests one captured frame under a registered source scope.
    /// Frames must arrive in capture order *per source*; the caller (or
    /// a [`SourceSet`]) is responsible for a sensible global
    /// interleaving. Runs any analysis ticks that became due before
    /// this frame's timestamp.
    pub fn ingest_from(&mut self, source: SourceId, frame: &TcpFrame) {
        self.advance_to(frame.timestamp);
        let Some(scope) = self.scopes.get_mut(source.index()) else {
            debug_assert!(false, "unregistered source {source}");
            return;
        };
        let name = scope.name.clone();
        self.metrics.record_frame_from(&name);
        scope.demux.feed(frame);
        let finalized = scope.tracker.ingest(frame);
        for fin in finalized {
            self.finalize(fin);
        }
    }

    /// Advances trace time without a frame (a source whose clock runs
    /// ahead of its captures, or silence on the wire), running any
    /// analysis ticks that became due.
    pub fn advance_to(&mut self, now: Micros) {
        if now <= self.now && self.next_tick.is_some() {
            return;
        }
        self.now = self.now.max(now);
        let mut boundary = match self.next_tick {
            Some(t) => t,
            // First sign of time: schedule the first tick one interval in.
            None => {
                self.next_tick = Some(now + self.interval);
                return;
            }
        };
        while boundary <= self.now {
            self.tick(boundary);
            boundary += self.interval;
        }
        self.next_tick = Some(boundary);
    }

    /// Notes one capture anomaly under the default [`DEFAULT_SOURCE`]
    /// scope.
    pub fn note_anomaly(&mut self, anomaly: AttributedAnomaly) {
        let id = self.register_source(DEFAULT_SOURCE);
        self.note_anomaly_from(id, anomaly);
    }

    /// Notes one capture anomaly a source survived. Attributed
    /// anomalies count against their connection's quarantine budget
    /// *within that source's scope*; unattributable damage is tallied
    /// per source.
    pub fn note_anomaly_from(&mut self, source: SourceId, anomaly: AttributedAnomaly) {
        self.metrics.record_anomaly();
        let Some(scope) = self.scopes.get_mut(source.index()) else {
            debug_assert!(false, "unregistered source {source}");
            return;
        };
        match anomaly.key {
            Some(key) => {
                scope.quality.entry(key).or_default().note(&anomaly.anomaly);
                // New damage changes the quarantine verdict; the
                // connection must be re-analyzed at the next tick even
                // if it saw no traffic.
                scope.quality_dirty.insert(key);
            }
            None => scope.unattributed.note(&anomaly.anomaly),
        }
    }

    /// Notes that a source died mid-watch, emitting a
    /// [`MonitorEvent::SourceDown`]. Its scope's accumulated state
    /// stays: already-tracked connections finalize and report normally.
    pub fn note_source_failure(&mut self, source: SourceId, detail: String) {
        self.metrics.record_source_failure();
        let Some(scope) = self.scopes.get(source.index()) else {
            debug_assert!(false, "unregistered source {source}");
            return;
        };
        self.events.push(MonitorEvent::SourceDown(SourceDown {
            at: self.now,
            source: scope.name.clone(),
            detail,
        }));
    }

    /// Notes that a source went down *transiently* — its supervising
    /// set is backing off and will try to resurrect it. Emits the same
    /// [`MonitorEvent::SourceDown`] line a terminal failure would (the
    /// pairing `source_up` distinguishes the outcomes) but counts it as
    /// a flap, not a failure, in the metrics.
    pub fn note_source_down(&mut self, source: SourceId, detail: String) {
        self.metrics.record_source_flap();
        let Some(scope) = self.scopes.get(source.index()) else {
            debug_assert!(false, "unregistered source {source}");
            return;
        };
        self.events.push(MonitorEvent::SourceDown(SourceDown {
            at: self.now,
            source: scope.name.clone(),
            detail,
        }));
    }

    /// Notes that a transiently-down source was resurrected, emitting
    /// the [`MonitorEvent::SourceUp`] paired with its earlier
    /// `source_down`.
    pub fn note_source_up(&mut self, source: SourceId, attempts: u32) {
        self.metrics.record_source_resurrection();
        let Some(scope) = self.scopes.get(source.index()) else {
            debug_assert!(false, "unregistered source {source}");
            return;
        };
        self.events.push(MonitorEvent::SourceUp(SourceUp {
            at: self.now,
            source: scope.name.clone(),
            attempts,
            detail: format!("recovered after {attempts} reopen attempt(s)"),
        }));
    }

    /// Capture damage no source could tie to any connection, summed
    /// across sources.
    pub fn unattributed_anomalies(&self) -> AnomalyCounts {
        let mut total = AnomalyCounts::default();
        for scope in &self.scopes {
            total.merge(&scope.unattributed);
        }
        total
    }

    /// Open connections across every source scope.
    pub fn open_connections(&self) -> usize {
        self.scopes
            .iter()
            .map(|s| s.tracker.open_connections())
            .sum()
    }

    /// Takes the events accumulated since the last drain.
    pub fn drain_events(&mut self) -> Vec<MonitorEvent> {
        std::mem::take(&mut self.events)
    }

    /// The per-connection analyses as of the last tick, rendered as
    /// `(source, session, report JSON)` in (source, tracker-insertion)
    /// order — a point-in-time view of the monitor's working state,
    /// used by the differential tests proving incremental ticks equal
    /// full recomputation.
    pub fn snapshot_reports(&self) -> Vec<(String, String, String)> {
        let mut out = Vec::new();
        for scope in &self.scopes {
            out.extend(scope.ordered_cache().into_iter().map(|cached| {
                (
                    scope.name.to_string(),
                    cached.session.clone(),
                    Report::from_analysis(&cached.analysis, self.analyzer.config()).to_json(),
                )
            }));
        }
        out
    }

    /// Ends the watch: finalizes every still-open connection in every
    /// scope (emitting its report and clearing its alerts). The monitor
    /// is reusable afterwards, fresh.
    pub fn finish(&mut self) {
        for idx in 0..self.scopes.len() {
            let fresh = ConnectionTracker::scoped(self.tracker_config, idx as u64);
            let Some(scope) = self.scopes.get_mut(idx) else {
                continue;
            };
            let tracker = std::mem::replace(&mut scope.tracker, fresh);
            for fin in tracker.finish() {
                self.finalize(fin);
            }
        }
        self.next_tick = None;
    }

    /// Drives a [`SourceSet`] to exhaustion: registers one scope per
    /// source, polls the set's watermark merge, ingests each released
    /// run under its source's scope, sleeps briefly while the set is
    /// pending, finalizes at the end. Per-source failures surface as
    /// [`MonitorEvent::SourceDown`] while the siblings keep running —
    /// the run itself never fails. Returns every event of the run
    /// (including any already accumulated but not yet drained).
    ///
    /// Long-running drivers that want to stream events out as they
    /// happen should run this loop themselves with
    /// [`drain_events`](Self::drain_events) between polls.
    pub fn run_set(&mut self, set: &mut SourceSet) -> Vec<MonitorEvent> {
        let ids: Vec<SourceId> = set
            .names()
            .iter()
            .map(|name| self.register_source(name))
            .collect();
        loop {
            let event = set.poll();
            for (sid, anomaly) in set.drain_anomalies() {
                if let Some(&id) = ids.get(sid.index()) {
                    self.note_anomaly_from(id, anomaly);
                }
            }
            match event {
                SetEvent::Batch { runs, now } => {
                    for run in runs {
                        let Some(&id) = ids.get(run.source.index()) else {
                            continue;
                        };
                        for frame in &run.frames {
                            self.ingest_from(id, frame);
                        }
                    }
                    if let Some(now) = now {
                        self.advance_to(now);
                    }
                }
                SetEvent::Pending => std::thread::sleep(self.pending_backoff),
                SetEvent::SourceFailed { source, error } => {
                    if let Some(&id) = ids.get(source.index()) {
                        self.note_source_failure(id, error);
                    }
                }
                SetEvent::SourceDown { source, error } => {
                    if let Some(&id) = ids.get(source.index()) {
                        self.note_source_down(id, error);
                    }
                }
                SetEvent::SourceUp { source, attempts } => {
                    if let Some(&id) = ids.get(source.index()) {
                        self.note_source_up(id, attempts);
                    }
                }
                SetEvent::Finished => break,
            }
        }
        self.finish();
        self.drain_events()
    }

    /// One analysis tick at trace time `at`: per scope, re-analyze the
    /// *dirty* connections (new traffic or new capture damage since
    /// their last analysis), reuse cached analyses for the rest;
    /// evaluate detectors over every scope's cache; correlate
    /// peer-group blocking across the whole fleet; update alerts.
    ///
    /// Each connection's analysis window is anchored at its last-dirty
    /// tick (`[anchor - window, anchor]`), so a cached entry is exactly
    /// what re-analysis would produce — steady-state tick cost scales
    /// with new traffic, not with the open-connection count.
    fn tick(&mut self, at: Micros) {
        let started = Instant::now();
        let timer_min_gaps = self.alerts.config().timer_min_gaps;
        let (stall_after, min_pause) = {
            let cfg = self.alerts.config();
            (cfg.stall_after, cfg.min_pause)
        };
        let window = self.window;
        let recompute_all = self.recompute_all;

        // Phase 1, per scope: refresh the dirty analyses. The dirty
        // set is tracker-dirty (saw frames) plus quality-dirty (new
        // capture damage), deduplicated, still-open only. This is
        // computed identically in incremental and recompute-all modes
        // so both assign the same anchors.
        for scope in &mut self.scopes {
            let work = scope.dirty_work(at, recompute_all);
            scope.refresh(work, &self.analyzer, window, timer_min_gaps);
        }

        // Phase 2, per scope: condition evaluation over the whole cache
        // (cheap: no re-analysis), in tracker-insertion order for
        // determinism.
        let mut conditions: Vec<Condition> = Vec::new();
        let mut open = 0usize;
        for scope in &mut self.scopes {
            let entries = scope.entry_conditions(at, stall_after);
            open += entries.len();
            for (_, entry) in entries {
                conditions.extend(entry);
            }
        }

        // Phase 3: peer-group blocking correlates across the whole
        // fleet.
        let mut fleet: Vec<(&Arc<str>, &CachedAnalysis)> = Vec::new();
        for scope in &self.scopes {
            let entries = scope.ordered_cache();
            fleet.extend(entries.into_iter().map(|cached| (&scope.name, cached)));
        }
        peer_group_conditions(&fleet, min_pause, &mut conditions);
        drop(fleet);

        for alert in self.alerts.observe(at, &conditions) {
            self.metrics.record_alert(&alert);
            self.events.push(MonitorEvent::Alert(alert));
        }
        self.metrics.record_tick(open, started.elapsed());
    }

    /// A connection left its scope's tracker: emit its whole-lifetime
    /// report (attributed to its source) and clear its alerts. The
    /// tracker stamped the scope index into `fin.scope`.
    fn finalize(&mut self, fin: FinalizedConnection) {
        let Some(scope) = self.scopes.get_mut(fin.scope as usize) else {
            debug_assert!(
                false,
                "finalized connection from unknown scope {}",
                fin.scope
            );
            return;
        };
        let source = scope.name.clone();
        let outcome = scope.finalize_connection(fin, &self.analyzer);
        let at = self.now.max(outcome.profile_end);
        // Alerts are keyed by the session id the tick cache last
        // published; if late traffic re-elected the data sender (an
        // LRU-evicted connection captured mid-stream, say), the final
        // session differs and the cached session's alerts would
        // otherwise survive their connection.
        if let Some(stale) = &outcome.stale_session {
            for alert in self.alerts.clear_session(&source, stale, at) {
                self.metrics.record_alert(&alert);
                self.events.push(MonitorEvent::Alert(alert));
            }
        }
        for alert in self.alerts.clear_session(&source, &outcome.session, at) {
            self.metrics.record_alert(&alert);
            self.events.push(MonitorEvent::Alert(alert));
        }
        let open = self.open_connections();
        self.metrics.record_finalized(open);
        self.events
            .push(MonitorEvent::Connection(ConnectionSummary {
                at,
                source,
                session: outcome.session,
                report: outcome.report,
            }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use tdat_packet::{FrameBuilder, TcpFlags, TcpOption};

    /// Handshake then `n` MSS data/ACK exchanges, 1.5 ms apart — below
    /// the idle-gap threshold, so no `SendAppLimited` (timer) events.
    fn transfer_frames(n: usize) -> Vec<TcpFrame> {
        transfer_frames_between(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), n)
    }

    fn transfer_frames_between(a: Ipv4Addr, b: Ipv4Addr, n: usize) -> Vec<TcpFrame> {
        let mut frames = Vec::new();
        let mut t = 0i64;
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

    fn config(window_s: i64, interval_s: i64) -> MonitorConfig {
        MonitorConfig {
            window: Micros::from_secs(window_s),
            interval: Micros::from_secs(interval_s),
            ..MonitorConfig::default()
        }
    }

    #[test]
    fn ticks_fire_on_interval_boundaries() {
        let mut monitor = Monitor::new(config(30, 10));
        for frame in transfer_frames(50) {
            monitor.ingest(&frame);
        }
        assert_eq!(
            monitor.metrics().ticks(),
            0,
            "capture is shorter than one interval"
        );
        // Jumping trace time far ahead runs every intermediate tick.
        monitor.advance_to(Micros::from_secs(35));
        assert_eq!(monitor.metrics().ticks(), 3, "boundaries at ~10/20/30 s");
        assert_eq!(monitor.metrics().frames(), 102);
        assert_eq!(monitor.metrics().frames_from(DEFAULT_SOURCE), 102);
    }

    #[test]
    fn stalled_transfer_raises_and_clears_on_close() {
        let mut monitor = Monitor::new(config(60, 10));
        let frames = transfer_frames(20);
        for frame in &frames {
            monitor.ingest(frame);
        }
        // Silence: trace time keeps advancing with no data progress.
        monitor.advance_to(Micros::from_secs(200));
        let events = monitor.drain_events();
        let raised: Vec<&Alert> = events
            .iter()
            .filter_map(|e| match e {
                MonitorEvent::Alert(a) if a.action == crate::alerts::AlertAction::Raise => Some(a),
                _ => None,
            })
            .collect();
        assert_eq!(raised.len(), 1, "exactly one alert: {events:?}");
        assert_eq!(raised[0].kind, AlertKind::StalledTransfer);
        assert_eq!(raised[0].session, "10.0.0.1:179->10.0.0.2:40000");
        assert_eq!(raised[0].source.as_ref(), DEFAULT_SOURCE);
        // Finalization clears the alert and reports the connection.
        monitor.finish();
        let events = monitor.drain_events();
        assert_eq!(events.len(), 2);
        match &events[0] {
            MonitorEvent::Alert(a) => {
                assert_eq!(a.action, crate::alerts::AlertAction::Clear);
                assert_eq!(a.kind, AlertKind::StalledTransfer);
                assert_eq!(a.detail, "session ended");
            }
            other => panic!("expected the clear, got {other:?}"),
        }
        match &events[1] {
            MonitorEvent::Connection(c) => {
                assert_eq!(c.session, "10.0.0.1:179->10.0.0.2:40000");
                assert_eq!(c.report.sender, "10.0.0.1:179");
                assert_eq!(c.source.as_ref(), DEFAULT_SOURCE);
            }
            other => panic!("expected the report, got {other:?}"),
        }
        assert_eq!(monitor.metrics().connections_finalized(), 1);
        assert_eq!(
            monitor.metrics().alerts_raised(AlertKind::StalledTransfer),
            1
        );
    }

    #[test]
    fn quarantined_connection_alerts_and_is_never_reported_clean() {
        let mut monitor = Monitor::new(config(60, 10));
        let frames = transfer_frames(20);
        let key = ConnKey::of(&frames[0]);
        // Damage well past the default budget, attributed to the
        // session before any frames arrive (sniffer-side corruption).
        for _ in 0..32 {
            monitor.note_anomaly(AttributedAnomaly {
                key: Some(key),
                anomaly: tdat_packet::CaptureAnomaly::TruncatedRecord {
                    detail: "test damage".into(),
                },
            });
        }
        monitor.note_anomaly(AttributedAnomaly {
            key: None,
            anomaly: tdat_packet::CaptureAnomaly::Desynchronized { skipped: 9 },
        });
        for frame in &frames {
            monitor.ingest(frame);
        }
        monitor.advance_to(Micros::from_secs(200));
        let events = monitor.drain_events();
        let raised: Vec<&Alert> = events
            .iter()
            .filter_map(|e| match e {
                MonitorEvent::Alert(a) if a.action == crate::alerts::AlertAction::Raise => Some(a),
                _ => None,
            })
            .collect();
        assert_eq!(raised.len(), 1, "only capture_quality fires: {events:?}");
        assert_eq!(raised[0].kind, AlertKind::CaptureQuality);
        assert!(
            raised[0].detail.contains("quarantined"),
            "{}",
            raised[0].detail
        );
        monitor.finish();
        let events = monitor.drain_events();
        let report = events
            .iter()
            .find_map(|e| match e {
                MonitorEvent::Connection(c) => Some(&c.report),
                _ => None,
            })
            .expect("finalization reports the connection");
        assert_eq!(report.verdict, "quarantined");
        assert!(report.quarantine_reason.is_some());
        assert_eq!(report.capture_anomalies, 32);
        assert_eq!(monitor.metrics().capture_anomalies(), 33);
        assert_eq!(monitor.unattributed_anomalies().total(), 1);
        assert_eq!(
            monitor.metrics().alerts_raised(AlertKind::CaptureQuality),
            1
        );
    }

    #[test]
    fn anomalies_under_budget_degrade_without_alerting() {
        let mut monitor = Monitor::new(config(60, 10));
        let frames = transfer_frames(20);
        let key = ConnKey::of(&frames[0]);
        for _ in 0..3 {
            monitor.note_anomaly(AttributedAnomaly {
                key: Some(key),
                anomaly: tdat_packet::CaptureAnomaly::SnapClipped {
                    captured: 40,
                    orig_len: 1500,
                },
            });
        }
        for frame in &frames {
            monitor.ingest(frame);
        }
        monitor.finish();
        let events = monitor.drain_events();
        assert!(events.iter().all(|e| !matches!(
            e,
            MonitorEvent::Alert(a) if a.kind == AlertKind::CaptureQuality
        )));
        let report = events
            .iter()
            .find_map(|e| match e {
                MonitorEvent::Connection(c) => Some(&c.report),
                _ => None,
            })
            .expect("finalization reports the connection");
        assert_eq!(report.verdict, "degraded");
        assert_eq!(report.capture_anomalies, 3);
    }

    #[test]
    fn event_json_is_single_line_and_balanced() {
        let mut monitor = Monitor::new(config(60, 10));
        for frame in transfer_frames(20) {
            monitor.ingest(&frame);
        }
        monitor.advance_to(Micros::from_secs(200));
        monitor.finish();
        let events = monitor.drain_events();
        assert!(!events.is_empty());
        for event in &events {
            for line in [event.to_json(), event.to_json_v2()] {
                assert!(!line.contains('\n'));
                assert!(line.starts_with('{') && line.ends_with('}'));
                assert_eq!(line.matches('{').count(), line.matches('}').count());
                assert!(line.contains("\"type\":"));
                assert!(line.contains("\"at_s\":"));
            }
            // v1 carries no source on alert/connection lines; v2 puts
            // it right after "type".
            assert!(!event.to_json().contains("\"source\":"));
            assert!(event
                .to_json_v2()
                .contains(&format!("\"source\":\"{DEFAULT_SOURCE}\"")));
        }
    }

    #[test]
    fn v2_schema_prefixes_source_after_type() {
        let summary = SourceDown {
            at: Micros::from_secs(3),
            source: Arc::from("a.pcap"),
            detail: "gone".into(),
        };
        let event = MonitorEvent::SourceDown(summary);
        let v2 = EventSchema::V2.render(&event);
        assert_eq!(
            v2,
            "{\"type\":\"source_down\",\"source\":\"a.pcap\",\"at_s\":3.000000,\
             \"detail\":\"gone\"}"
        );
        let preamble = EventSchema::V2
            .preamble(&["a.pcap", "sim:clean"])
            .expect("v2 has a preamble");
        assert_eq!(
            preamble,
            "{\"type\":\"meta\",\"schema\":\"tdat-monitor-events/2\",\
             \"sources\":[\"a.pcap\",\"sim:clean\"]}"
        );
        assert_eq!(EventSchema::V1.preamble(&["a.pcap"]), None);
    }

    #[test]
    fn per_source_scopes_isolate_connection_state() {
        // The same (ip,port) endpoints captured by two different
        // sources are two distinct connections: finalizing one source's
        // view must not disturb the other's.
        let mut monitor = Monitor::new(config(60, 10));
        let left = monitor.register_source("left.pcap");
        let right = monitor.register_source("right.pcap");
        assert_ne!(left, right);
        assert_eq!(monitor.register_source("left.pcap"), left, "idempotent");
        let frames = transfer_frames(10);
        for frame in &frames {
            monitor.ingest_from(left, frame);
            monitor.ingest_from(right, frame);
        }
        assert_eq!(monitor.open_connections(), 2, "one per scope");
        assert_eq!(monitor.metrics().frames_from("left.pcap"), 22);
        assert_eq!(monitor.metrics().frames_from("right.pcap"), 22);
        monitor.finish();
        let events = monitor.drain_events();
        let sources: Vec<String> = events
            .iter()
            .filter_map(|e| match e {
                MonitorEvent::Connection(c) => Some(c.source.to_string()),
                _ => None,
            })
            .collect();
        assert_eq!(sources, vec!["left.pcap", "right.pcap"]);
    }

    #[test]
    fn quarantine_damage_is_confined_to_its_source_scope() {
        // Poison the connection in scope "bad" far past the quarantine
        // budget; the identical session in scope "good" must finalize
        // clean.
        let mut monitor = Monitor::new(config(60, 10));
        let good = monitor.register_source("good");
        let bad = monitor.register_source("bad");
        let frames = transfer_frames(20);
        let key = ConnKey::of(&frames[0]);
        for _ in 0..32 {
            monitor.note_anomaly_from(
                bad,
                AttributedAnomaly {
                    key: Some(key),
                    anomaly: tdat_packet::CaptureAnomaly::TruncatedRecord {
                        detail: "poison".into(),
                    },
                },
            );
        }
        for frame in &frames {
            monitor.ingest_from(good, frame);
            monitor.ingest_from(bad, frame);
        }
        monitor.finish();
        let events = monitor.drain_events();
        let verdicts: Vec<(String, String)> = events
            .iter()
            .filter_map(|e| match e {
                MonitorEvent::Connection(c) => {
                    Some((c.source.to_string(), c.report.verdict.clone()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            verdicts,
            vec![
                ("good".to_string(), "clean".to_string()),
                ("bad".to_string(), "quarantined".to_string()),
            ]
        );
    }

    #[test]
    fn source_failure_emits_source_down_and_keeps_state() {
        let mut monitor = Monitor::new(config(60, 10));
        let id = monitor.register_source("flaky.pcap");
        let frames = transfer_frames(5);
        for frame in &frames {
            monitor.ingest_from(id, frame);
        }
        monitor.note_source_failure(id, "disk vanished".to_string());
        monitor.finish();
        let events = monitor.drain_events();
        let down: Vec<&SourceDown> = events
            .iter()
            .filter_map(|e| match e {
                MonitorEvent::SourceDown(d) => Some(d),
                _ => None,
            })
            .collect();
        assert_eq!(down.len(), 1);
        assert_eq!(down[0].source.as_ref(), "flaky.pcap");
        assert_eq!(down[0].detail, "disk vanished");
        assert_eq!(monitor.metrics().source_failures(), 1);
        // The scope's connections still finalize and report.
        assert!(events
            .iter()
            .any(|e| matches!(e, MonitorEvent::Connection(_))));
    }

    #[test]
    fn config_builder_validates() {
        assert!(MonitorConfig::builder().build().is_ok());
        let err = MonitorConfig::builder()
            .window(Micros::ZERO)
            .build()
            .expect_err("zero window");
        assert!(err.to_string().contains("window"), "{err}");
        let err = MonitorConfig::builder()
            .window(Micros::from_secs(10))
            .interval(Micros::from_secs(60))
            .build()
            .expect_err("interval exceeding window");
        assert!(err.to_string().contains("exceeds"), "{err}");
        let err = MonitorConfig::builder()
            .alerts(AlertConfig {
                raise_after: 0,
                ..AlertConfig::default()
            })
            .build()
            .expect_err("zero raise_after");
        assert!(err.to_string().contains("raise_after"), "{err}");
        let err = MonitorConfig::builder()
            .quarantine(QuarantineConfig {
                max_anomalies: 0,
                ..QuarantineConfig::default()
            })
            .build()
            .expect_err("zero quarantine budget");
        assert!(err.to_string().contains("quarantine"), "{err}");
        let built = MonitorConfig::builder()
            .window(Micros::from_secs(30))
            .interval(Micros::from_secs(5))
            .recompute_all(true)
            .build()
            .expect("valid");
        assert_eq!(built.window, Micros::from_secs(30));
        assert_eq!(built.interval, Micros::from_secs(5));
        assert!(built.recompute_all);
    }
}
