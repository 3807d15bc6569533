//! The monitoring engine: frames in, JSONL events out.
//!
//! [`Monitor`] glues the suite's streaming pieces into a long-running
//! watcher, on the caller's thread. It is a *control plane* over one
//! *scope* per source.
//!
//! The control plane (`Control`) decides what the event stream says:
//!
//! * frames arrive from one or more packet sources, each registered as
//!   a named *scope* ([`register_source`](Monitor::register_source)),
//!   so one damaged collector degrades only its own view;
//! * every `interval` of *trace* time a tick re-analyzes the
//!   connections that saw traffic (or new capture damage) since their
//!   last analysis over a trailing `window`, reusing cached analyses
//!   for idle connections;
//! * the detector outcomes become [`Condition`]s fed to an
//!   [`AlertEngine`] keyed per (source, session, kind); peer-group
//!   blocking correlates across the whole fleet of scopes, but
//!   quarantined connections are excluded, so a poisoned source never
//!   contaminates its siblings' correlation;
//! * alert raise/clear transitions — plus a final report for every
//!   connection that closes and a notice for every source that dies —
//!   surface as [`MonitorEvent`]s, each carrying its originating
//!   source;
//! * events encode to JSON Lines (`tdat-monitor-events/2`: a `meta`
//!   preamble naming the sources, then one line per event carrying its
//!   `source`) using only trace (virtual) time, so a given input always
//!   produces byte-identical output; wall-clock readings go to
//!   [`MonitorMetrics`] instead.
//!
//! The scopes (`SourceScope`) do the per-connection work: each owns an
//! [`Ingest`] — the batch pass's ingest core: tracker, BGP demux and
//! capture-quality ledger — and the tick cache
//! ([`Analyzer::analyze_partial_lossy`] results: what the alerts read,
//! completed into whole analyses only when a snapshot is pulled).
//! Nothing is queued: a frame is stepped, and whatever it finalizes is
//! emitted, before the next one is ingested.
//!
//! What a tick costs follows what changed, not the open-connection
//! count. A dirty connection costs its re-analysis, which computes once
//! everything later ticks read of it: its session id (kept while the
//! endpoints stay), its analysis-derived conditions, and its pauses of
//! at least `MIN_PAUSE`, 30 s (the side peer-group blocking is found on).
//! The tracker hands a tick its dirty connections from a list, not a
//! scan. A refresh compares the connection's new conditions with the
//! cached ones and tells the [`AlertEngine`] only which appeared and
//! which vanished; the engine schedules each key's next transition by
//! tick (a raise check one tick after a key appears, a clear
//! `CLEAR_AFTER` ticks after its last condition went), so a key that
//! stands, active and unchanged, costs a tick nothing. A stall is a
//! deadline, `STALL_AFTER` past the connection's last progress, in a
//! queue per scope; the stall's evidence and detail run to the tick, and
//! the engine reads them as of the last tick the stall held. The
//! peer-group pass pairs only sender groups of two members or more in
//! which some member paused for `MIN_PAUSE`, and runs again only when a
//! connection is stored or forgotten in such a group. So **an idle
//! connection costs a tick nothing, even with standing conditions or a
//! long pause, until one of its deadlines falls due**, and a sender
//! group of one member never enters the correlation
//! ([`MonitorMetrics::tick_visits`] counts what the ticks visit). The
//! settle, which the first frame after a tick runs before it is fed
//! ([`Ingest::step`]), costs the logs whose table transfer became final,
//! and one comparison while none did.
//!
//! The loop that feeds a [`SourceSet`] into the engine is
//! [`Monitor::step`]; [`Monitor::run_set`] is that step until the set
//! finishes.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;

use tdat::{
    find_consecutive_losses, find_zero_ack_bug, infer_timer, long_pauses, pair_peer_groups,
    report::json, Analysis, Analyzer, Ingest, PartialAnalysis, PeerMember, Report,
};
use tdat_packet::{AnomalyCounts, TcpFrame};
use tdat_timeset::{Micros, Span};
use tdat_trace::{ConnKey, Endpoint, FinalizedConnection, TrackerConfig};

use crate::alerts::{
    Alert, AlertEngine, AlertKind, Condition, Held, Rank, MIN_PAUSE, STALL_AFTER, TIMER_MIN_GAPS,
};
use crate::metrics::MonitorMetrics;
use crate::set::{SetEvent, SourceId, SourceSet};
use crate::source::AttributedAnomaly;

/// The scope name the single-source convenience APIs
/// ([`Monitor::ingest`], [`Monitor::note_anomaly`]) register on first
/// use.
pub const DEFAULT_SOURCE: &str = "capture";

/// Monitor tuning. Build one with [`MonitorConfig::builder`] for
/// validation, or use `Default` / struct update syntax for the
/// historical permissive path. What it leaves out is fixed: each
/// connection is analysed at [`AnalyzerConfig`](tdat::AnalyzerConfig)'s
/// defaults and judged by the quarantine budgets
/// ([`Verdict::assess`](tdat::Verdict::assess)), and alerts follow the
/// thresholds in [`alerts`](crate::alerts).
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Trailing analysis window each tick looks at.
    pub window: Micros,
    /// Trace time between analysis ticks.
    pub interval: Micros,
    /// When connections are finalized. The default keeps sessions for
    /// 10 idle minutes — a live monitor must ride out long stalls
    /// (precisely the interesting part) without splitting a session in
    /// two.
    pub tracker: TrackerConfig,
    /// No effect. The worker lanes it counted are gone; the field
    /// outlives them only until the repository benchmark, which sets
    /// it, stops naming it. Not validated.
    pub shards: usize,
    /// Wall-clock wait between polls while every source is
    /// [`Pending`](crate::source::SourceEvent::Pending). One knob for
    /// every driver ([`Monitor::run_set`] and the CLI's idle loop);
    /// wall-clock only, so it never affects the event stream.
    pub pending_backoff: std::time::Duration,
}

impl Default for MonitorConfig {
    fn default() -> MonitorConfig {
        MonitorConfig {
            window: Micros::from_secs(120),
            interval: Micros::from_secs(10),
            tracker: TrackerConfig {
                idle_timeout: Some(Micros::from_secs(600)),
                close_grace: Some(Micros::from_secs(5)),
                ..TrackerConfig::streaming()
            },
            shards: 1,
            pending_backoff: std::time::Duration::from_millis(50),
        }
    }
}

impl MonitorConfig {
    /// Starts a builder seeded with the defaults;
    /// [`build`](MonitorConfigBuilder::build) validates the window,
    /// interval, tracker timeouts and poll backoff.
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

    /// Sets the connection-finalization policy.
    pub fn tracker(mut self, tracker: TrackerConfig) -> MonitorConfigBuilder {
        self.config.tracker = tracker;
        self
    }

    /// No effect: sets [`MonitorConfig::shards`], which nothing reads.
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
    /// consecutive windows would never be analyzed), a tracker timeout
    /// or connection cap is set to zero, or the poll backoff is zero.
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
        if c.pending_backoff.is_zero() {
            return fail(
                "pending backoff must be positive (a zero backoff busy-spins the poll loop)"
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
    /// set reopened it, and it resumes at its committed byte offset (a
    /// rotated or truncated capture is read from its start on the same
    /// clock).
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
    /// Encodes the event as one `tdat-monitor-events/2` JSON object
    /// (one JSONL line, no trailing newline): `type`, then the `source`
    /// the event is attributed to, then the event's own fields. All
    /// times are trace time in seconds.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push('{');
        match self {
            MonitorEvent::Alert(a) => {
                json::push_str_field(&mut out, "type", "alert", false);
                json::push_str_field(&mut out, "source", &a.source, true);
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
                json::push_str_field(&mut out, "source", &c.source, true);
                json::push_num_field(&mut out, "at_s", c.at.as_secs_f64(), true);
                json::push_str_field(&mut out, "session", &c.session, true);
                out.push_str(",\"report\":");
                c.report.write_json(&mut out);
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
                json::push_raw_field(&mut out, "attempts", u.attempts, true);
                json::push_str_field(&mut out, "detail", &u.detail, true);
            }
        }
        out.push('}');
        out
    }
}

/// The JSONL wire schema of the monitor's event stream. There is one,
/// `tdat-monitor-events/2`, and it is the one the store ingests.
// One variant, kept while the repository benchmark spells
// `EventSchema::V2`; `benchmark/` may only change in a PR of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventSchema {
    /// `tdat-monitor-events/2`: the stream opens with a `meta` preamble
    /// listing the registered sources, and every line carries a
    /// `source` field.
    V2,
}

impl EventSchema {
    /// Renders one event (one JSONL line, no trailing newline): its
    /// [`MonitorEvent::to_json`].
    pub fn render(self, event: &MonitorEvent) -> String {
        event.to_json()
    }

    /// The stream preamble: a `meta` line declaring the schema and the
    /// source names (in [`SourceId`] order). Always `Some`.
    pub fn preamble<S: AsRef<str>>(self, sources: &[S]) -> Option<String> {
        let mut out = String::with_capacity(128);
        out.push('{');
        json::push_str_field(&mut out, "type", "meta", false);
        json::push_str_field(&mut out, "schema", "tdat-monitor-events/2", true);
        json::push_str_array_field(&mut out, "sources", sources, true);
        out.push('}');
        Some(out)
    }
}

/// The session identifier used in events and alert keys.
pub(crate) fn session_id(sender: Endpoint, receiver: Endpoint) -> String {
    format!("{}:{}->{}:{}", sender.0, sender.1, receiver.0, receiver.1)
}

/// One connection's cached tick analysis.
#[derive(Debug)]
pub(crate) struct CachedAnalysis {
    /// The tracker's insertion ordinal — deterministic iteration order
    /// for condition evaluation regardless of hash-map layout.
    ordinal: u64,
    /// The session id, formatted once per refresh instead of per tick.
    pub(crate) session: String,
    /// Conditions derived purely from the analysis (timer gaps, loss
    /// episodes, zero-window bug, quarantine). Computed at refresh
    /// time, and told to the alert engine only when they differ from
    /// the last refresh's: a connection whose conditions stand costs
    /// later ticks nothing. Stall and peer-group-blocking conditions
    /// depend on the tick time or on other connections: a stall
    /// deadline and the peer-group pass find them.
    conditions: Vec<Condition>,
    /// The tick's analysis, as far as anything a tick emits reads it.
    pub(crate) partial: PartialAnalysis,
    /// The pauses the peer-group correlation could find this
    /// connection blocked in ([`long_pauses`] at [`MIN_PAUSE`]), computed
    /// once per refresh; empty, and unallocated, for nearly every
    /// connection.
    pauses: Vec<Span>,
    /// How many rows the data sender's message log held at the tick:
    /// what MCT reads for the report's transfer.
    rows: usize,
    /// The whole analysis as of the tick — factors, every series, MCT's
    /// transfer — which only a snapshot renders, so the first pull after
    /// the tick builds it ([`SourceScope::complete`]). Boxed: most
    /// entries never hold one.
    completed: Option<Box<Analysis>>,
}

/// What the ticks read of one cached connection, kept compact and in
/// ordinal order beside the cache. Written at every refresh of its
/// connection; between refreshes only `stalled` changes, when the
/// stall deadline falls due.
#[derive(Debug, Clone, Copy)]
struct TickRow {
    /// The connection, to reach its cache entry.
    key: ConnKey,
    /// The data sender's address: its peer group.
    sender: Ipv4Addr,
    /// Data-direction payload bytes as of the refresh.
    data_bytes: u64,
    /// The analysis is quarantined: no stall check, no peer pairing.
    quarantined: bool,
    /// The cache entry holds at least one long pause.
    long_pause: bool,
    /// The stall watermark: `(data bytes at last progress, tick time of
    /// last progress)`, set by the first refresh that finds the
    /// connection not quarantined.
    mark: Option<(u64, Micros)>,
    /// The stall condition stands: [`STALL_AFTER`] passed since the
    /// mark with data moved and none since.
    stalled: bool,
}

impl TickRow {
    /// When the stall condition starts to stand, for a row that can
    /// stall and does not yet: [`STALL_AFTER`] past its mark.
    fn stall_deadline(&self) -> Option<Micros> {
        if self.quarantined || self.data_bytes == 0 || self.stalled {
            return None;
        }
        let (_, since) = self.mark?;
        since.0.checked_add(STALL_AFTER.0).map(Micros)
    }

    /// The stall condition the row holds, if it stands.
    fn stall(&self) -> Option<Held> {
        match (self.stalled, self.mark) {
            (true, Some((_, since))) => Some(Held::Stall {
                since,
                bytes: self.data_bytes,
            }),
            _ => None,
        }
    }
}

/// Evaluates the detectors whose outcome depends only on the analysis
/// itself, producing the cacheable subset of a connection's alert
/// conditions.
fn analysis_conditions(
    analysis: &PartialAnalysis,
    source: &Arc<str>,
    session: &str,
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
    if let Some(timer) = infer_timer(&analysis.series, TIMER_MIN_GAPS) {
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
    let episodes = find_consecutive_losses(&analysis.series, config.consecutive_loss_threshold);
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
    if let Some(bug) = find_zero_ack_bug(&analysis.series) {
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

/// The read-only analysis context the scopes work under, fixed at
/// construction.
#[derive(Debug)]
pub(crate) struct AnalysisCtx {
    pub(crate) analyzer: Analyzer,
    pub(crate) window: Micros,
}

/// Per-source isolation unit: everything whose damage must stay
/// confined to the source that produced it. The monitor holds one per
/// source, indexed by [`SourceId`].
#[derive(Debug)]
pub(crate) struct SourceScope {
    name: Arc<str>,
    /// The scope's place among the sources: where its conditions rank.
    index: u32,
    /// The source's tracker, BGP demux and capture-quality ledger, and
    /// the step a frame takes through them.
    ingest: Ingest,
    /// Cached per-connection analyses from previous ticks; entries are
    /// refreshed only when their connection is dirty.
    cache: HashMap<ConnKey, CachedAnalysis>,
    /// One row per cache entry, by tracker ordinal: what the stall
    /// deadlines and the peer-group correlation read.
    rows: BTreeMap<u64, TickRow>,
    /// `(stall deadline, ordinal)` of the rows that can stall, soonest
    /// first. A refresh that moves a row's deadline pushes the new one
    /// and leaves the old, which is skipped when it comes up.
    stalls: BinaryHeap<Reverse<(Micros, u64)>>,
}

impl SourceScope {
    pub(crate) fn new(name: Arc<str>, index: usize, tracker: TrackerConfig) -> SourceScope {
        SourceScope {
            name,
            index: index as u32,
            ingest: Ingest::new(tracker),
            cache: HashMap::new(),
            rows: BTreeMap::new(),
            stalls: BinaryHeap::new(),
        }
    }

    /// Tick phase 1 for this scope at the fleet's tick time: re-analyze
    /// the *dirty* connections (new traffic or new capture damage since
    /// their last analysis) and reuse cached analyses for the rest.
    /// Returns the number of cached connections.
    ///
    /// Each connection's analysis window is anchored at its last-dirty
    /// tick (`[tick - window, tick]`), so a cached entry is exactly
    /// what re-analysis would produce. The cost law: a dirty connection
    /// costs its re-analysis, a stall deadline that fell due one row
    /// read, and any other connection nothing.
    fn tick(&mut self, ctx: &AnalysisCtx, fleet: &mut Fleet) -> usize {
        let work = self.ingest.take_dirty();
        fleet.visits += work.len() as u64;
        self.refresh(work, ctx, fleet);
        self.rows.len()
    }

    /// Re-analyzes the connections in `work` over the window ending at
    /// the tick and caches the results (tick phase 1), as far as the
    /// alerts read them ([`Analyzer::analyze_partial_lossy`]): no MCT,
    /// no factors, none of the series only a report reads. A snapshot
    /// pull completes each entry ([`complete`](Self::complete)).
    fn refresh(&mut self, work: Vec<ConnKey>, ctx: &AnalysisCtx, fleet: &mut Fleet) {
        let span = Span::new(fleet.now.saturating_sub(ctx.window), fleet.now);
        for key in work {
            let Some((ordinal, partial, rows)) = self.ingest.analyze_open(key, span, &ctx.analyzer)
            else {
                continue;
            };
            self.store(key, ordinal, partial, rows, ctx, fleet);
        }
    }

    /// Caches connection `key`'s fresh analysis under its tracker
    /// `ordinal` at the fleet's tick time, with everything later ticks
    /// read of it computed once: its session id (the cached one while
    /// the endpoints stay), its analysis-derived conditions, its long
    /// pauses and its tick row, whose stall mark carries over.
    pub(crate) fn store(
        &mut self,
        key: ConnKey,
        ordinal: u64,
        partial: PartialAnalysis,
        rows: usize,
        ctx: &AnalysisCtx,
        fleet: &mut Fleet,
    ) {
        let config = ctx.analyzer.config();
        self.store_with(
            key,
            ordinal,
            partial,
            rows,
            fleet,
            |partial, name, session| analysis_conditions(partial, name, session, config),
        );
    }

    /// [`store`](Self::store), with the analysis-derived conditions
    /// made by `conditions` from the analysis, the scope's name and the
    /// session id. Tells the alert engine which of the row's conditions
    /// appeared and which vanished, and the peer-group index where the
    /// row now sits.
    pub(crate) fn store_with(
        &mut self,
        key: ConnKey,
        ordinal: u64,
        partial: PartialAnalysis,
        rows: usize,
        fleet: &mut Fleet,
        conditions: impl FnOnce(&PartialAnalysis, &Arc<str>, &str) -> Vec<Condition>,
    ) {
        let endpoints = (partial.sender, partial.receiver);
        let mut old = self.cache.remove(&key);
        debug_assert!(
            old.as_ref().is_none_or(|old| old.ordinal == ordinal),
            "an open connection keeps its ordinal"
        );
        let reused = old
            .as_ref()
            .is_some_and(|old| (old.partial.sender, old.partial.receiver) == endpoints);
        let session = match old.as_mut() {
            Some(old) if reused => std::mem::take(&mut old.session),
            _ => session_id(partial.sender, partial.receiver),
        };
        let conditions = conditions(&partial, &self.name, &session);
        let pauses = long_pauses(&partial.series, MIN_PAUSE);

        // Data bytes change only here, so the stall watermark moves here,
        // at the tick's time.
        let at = fleet.now;
        let old_row = self.rows.get(&ordinal).copied();
        let bytes = partial.profile.data_bytes;
        let quarantined = partial.verdict.is_quarantined();
        let mut mark = old_row.and_then(|row| row.mark);
        if !quarantined {
            let mark = mark.get_or_insert((bytes, at));
            if bytes > mark.0 {
                *mark = (bytes, at);
            }
        }
        let mut row = TickRow {
            key,
            sender: partial.sender.0,
            data_bytes: bytes,
            quarantined,
            long_pause: !pauses.is_empty(),
            mark,
            stalled: false,
        };
        row.stalled = row.stall_deadline().is_some_and(|deadline| deadline <= at);

        let (index, alerts) = (self.index, &mut fleet.alerts);
        let old_conditions = old.as_ref().map_or(&[][..], |old| &old.conditions[..]);
        alerts.replace(old_conditions, &conditions, |i| {
            Rank::row(index, ordinal, i)
        });
        let old_session = match &old {
            Some(old) if !reused => old.session.as_str(),
            _ => session.as_str(),
        };
        let old_stall = old_row.and_then(|row| row.stall());
        let stall = row.stall();
        if (old_session, &old_stall) != (session.as_str(), &stall) {
            let (kind, rank) = (AlertKind::StalledTransfer, Rank::stall(index, ordinal));
            if old_stall.is_some() {
                alerts.release(&self.name, old_session, kind, rank);
            }
            if let Some(held) = stall {
                alerts.hold(&self.name, &session, kind, rank, held);
            }
        }
        if let Some(deadline) = row.stall_deadline() {
            if old_row.and_then(|row| row.stall_deadline()) != Some(deadline) {
                self.stalls.push(Reverse((deadline, ordinal)));
            }
        }
        fleet.regroup(
            (index, ordinal),
            old_row.map(|row| (row.sender, row.long_pause)),
            Some((row.sender, row.long_pause)),
        );

        self.rows.insert(ordinal, row);
        self.cache.insert(
            key,
            CachedAnalysis {
                ordinal,
                session,
                conditions,
                pauses,
                partial,
                rows,
                completed: None,
            },
        );
    }

    /// Tick phase 2 for this scope: stands up the stall of each row
    /// whose deadline is at or before the tick. A deadline a refresh
    /// moved since it was queued is skipped.
    fn stalls_due(&mut self, fleet: &mut Fleet) {
        while let Some(&Reverse((deadline, ordinal))) = self.stalls.peek() {
            if deadline > fleet.now {
                break;
            }
            self.stalls.pop();
            fleet.visits += 1;
            let Some(row) = self.rows.get_mut(&ordinal) else {
                continue;
            };
            if row.stall_deadline() != Some(deadline) {
                continue;
            }
            row.stalled = true;
            let (Some(held), Some(cached)) = (row.stall(), self.cache.get(&row.key)) else {
                debug_assert!(false, "a tick row without its cache entry");
                continue;
            };
            let rank = Rank::stall(self.index, ordinal);
            fleet.alerts.hold(
                &self.name,
                &cached.session,
                AlertKind::StalledTransfer,
                rank,
                held,
            );
        }
    }

    /// Completes every cached analysis a tick left partial into the
    /// whole analysis as of that tick: over the connection rebuilt from
    /// the frames the tick saw ([`ConnectionTracker::snapshot_first`]),
    /// with MCT over the rows the data sender's log held then. A
    /// connection's frames and log are only appended to while it is
    /// open, and finalization drops its cache entry, so this is exactly
    /// what the tick would have found. A log that settled since
    /// ([`tdat::BgpDemux::settle`]) answers MCT for those rows from what
    /// it kept: by the settle rule ([`Ingest`]) it settles only while it
    /// holds the rows the last tick saw, so no cache entry asks it about
    /// fewer.
    fn complete(&mut self, analyzer: &Analyzer) {
        for (&key, cached) in &mut self.cache {
            if cached.completed.is_some() {
                continue;
            }
            let completed = self
                .ingest
                .complete(key, &cached.partial, cached.rows, analyzer);
            debug_assert!(
                completed.is_some(),
                "a cached connection is open in its tracker"
            );
            cached.completed = completed.map(Box::new);
        }
    }

    /// The cached analyses, in tracker-insertion order, each beside
    /// this scope's name.
    fn cached(&self) -> impl Iterator<Item = (&Arc<str>, &CachedAnalysis)> {
        self.rows
            .values()
            .filter_map(|row| self.cache.get(&row.key))
            .map(|cached| (&self.name, cached))
    }

    /// Drops the tick state of a connection that left the tracker —
    /// its standing conditions, its row and its place in its peer group
    /// — returning the session id its cache entry last published.
    pub(crate) fn forget(&mut self, key: ConnKey, fleet: &mut Fleet) -> Option<String> {
        let cached = self.cache.remove(&key)?;
        let (index, ordinal) = (self.index, cached.ordinal);
        let rank = |i| Rank::row(index, ordinal, i);
        fleet.alerts.replace(&cached.conditions, &[], rank);
        if let Some(row) = self.rows.remove(&ordinal) {
            if row.stalled {
                let (kind, rank) = (AlertKind::StalledTransfer, Rank::stall(index, ordinal));
                fleet
                    .alerts
                    .release(&self.name, &cached.session, kind, rank);
            }
            fleet.regroup((index, ordinal), Some((row.sender, row.long_pause)), None);
        }
        Some(cached.session)
    }
}

/// The cached analyses of every source in (source, tracker-insertion)
/// order — the order the report snapshots read the fleet in.
pub(crate) fn fleet_view(scopes: &[SourceScope]) -> Vec<(&Arc<str>, &CachedAnalysis)> {
    scopes.iter().flat_map(SourceScope::cached).collect()
}

/// A peer group: the rows whose data sender shares one address, across
/// every source.
#[derive(Debug, Default)]
struct Group {
    /// `(scope, ordinal)` of each member.
    members: Vec<(u32, u64)>,
    /// How many members hold a long pause.
    paused: usize,
}

impl Group {
    /// Whether the group can pair: only a member with a long pause can
    /// be found blocked, and only by another member.
    fn pairs(&self) -> bool {
        self.members.len() >= 2 && self.paused > 0
    }
}

/// What the ticks keep across every scope: the alert engine, the peer
/// groups, and the conditions of the last peer-group pass.
#[derive(Debug, Default)]
pub(crate) struct Fleet {
    pub(crate) alerts: AlertEngine,
    /// The time of the tick in progress (of the last, between ticks).
    now: Micros,
    /// Every sender's group.
    groups: HashMap<Ipv4Addr, Group>,
    /// The senders whose group can pair.
    pairing: BTreeSet<Ipv4Addr>,
    /// The conditions the last peer-group pass found, in pair order.
    peer: Vec<Condition>,
    /// A row was stored or forgotten, since that pass, in a group that
    /// could pair before or can after.
    stale: bool,
    /// Dirty connections, stall deadlines and peer-group members the
    /// ticks visited.
    visits: u64,
}

impl Fleet {
    /// Everything the ticks visited: dirty connections, stall deadlines,
    /// peer-group members and alert keys.
    fn visits(&self) -> u64 {
        self.visits + self.alerts.visits()
    }

    /// Moves row `member` from sender group `old` to `new`, each
    /// `(sender, holds a long pause)`, or `None` for no group. Marks the
    /// peer-group pass stale when the row sits in a group that could
    /// pair before the move or can after it.
    pub(crate) fn regroup(
        &mut self,
        member: (u32, u64),
        old: Option<(Ipv4Addr, bool)>,
        new: Option<(Ipv4Addr, bool)>,
    ) {
        if old == new {
            if let Some((sender, _)) = new {
                self.stale |= self.pairing.contains(&sender);
            }
            return;
        }
        if let Some((sender, paused)) = old {
            if let Some(group) = self.groups.get_mut(&sender) {
                self.stale |= group.pairs();
                if let Some(at) = group.members.iter().position(|m| *m == member) {
                    group.members.swap_remove(at);
                }
                group.paused -= usize::from(paused);
                if !group.pairs() {
                    self.pairing.remove(&sender);
                }
                if group.members.is_empty() {
                    self.groups.remove(&sender);
                }
            }
        }
        if let Some((sender, paused)) = new {
            let group = self.groups.entry(sender).or_default();
            group.members.push(member);
            group.paused += usize::from(paused);
            if group.pairs() {
                self.stale = true;
                self.pairing.insert(sender);
            }
        }
    }

    /// The cached analyses the peer-group correlation reads, in
    /// (source, tracker-insertion) order: every member of each sender
    /// group that can pair. A group of one member, or one none of whose
    /// members paused for [`MIN_PAUSE`], can pair nothing.
    pub(crate) fn peer_fleet<'a>(
        &self,
        scopes: &'a [SourceScope],
    ) -> Vec<(&'a Arc<str>, &'a CachedAnalysis)> {
        let mut members: Vec<(u32, u64)> = self
            .pairing
            .iter()
            .filter_map(|sender| self.groups.get(sender))
            .flat_map(|group| group.members.iter().copied())
            .collect();
        members.sort_unstable();
        members
            .into_iter()
            .filter_map(|(scope, ordinal)| {
                let scope = scopes.get(scope as usize)?;
                let row = scope.rows.get(&ordinal)?;
                Some((&scope.name, scope.cache.get(&row.key)?))
            })
            .collect()
    }

    /// Starts a tick at trace time `at`: the time its refreshes mark
    /// progress at and its stall deadlines fall due by.
    pub(crate) fn begin(&mut self, at: Micros) {
        self.now = at;
    }

    /// Tick phases 2–3, once every scope refreshed: stands up the stalls
    /// that fell due, re-runs the peer-group pass if a group that can
    /// pair changed, and returns the pairs it compared and the alert
    /// transitions of the tick.
    pub(crate) fn conclude(&mut self, scopes: &mut [SourceScope]) -> (usize, Vec<Alert>) {
        for scope in scopes.iter_mut() {
            scope.stalls_due(self);
        }
        let pairs = self.pair(scopes);
        (pairs, self.alerts.tick(self.now))
    }

    /// Re-runs the peer-group pass when a row changed in a group that
    /// can pair, and tells the alert engine which of its conditions
    /// appeared and which vanished. Returns the pairs compared, none
    /// when the pass did not run.
    fn pair(&mut self, scopes: &[SourceScope]) -> usize {
        if !std::mem::take(&mut self.stale) {
            return 0;
        }
        let fleet = self.peer_fleet(scopes);
        self.visits += fleet.len() as u64;
        let mut conditions = Vec::new();
        let pairs = peer_group_conditions(&fleet, &mut conditions);
        self.alerts.replace(&self.peer, &conditions, Rank::peer);
        self.peer = conditions;
        pairs
    }
}

/// Tick phase 3: peer-group blocking correlates across the whole
/// fleet — a BGP sender paces *all* its group members, wherever each
/// one was captured. Quarantined connections are excluded, so a
/// poisoned source cannot contaminate the correlation. `fleet` is
/// [`Fleet::peer_fleet`]'s, in (source, tracker-insertion) order for
/// deterministic output. Returns the pairs compared.
pub(crate) fn peer_group_conditions(
    fleet: &[(&Arc<str>, &CachedAnalysis)],
    conditions: &mut Vec<Condition>,
) -> usize {
    let members: Vec<PeerMember<'_>> = fleet
        .iter()
        .map(|(_, c)| PeerMember {
            sender: c.partial.sender.0,
            pauses: &c.pauses,
            series: &c.partial.series,
        })
        .collect();
    let (hits, pairs) = pair_peer_groups(&members);
    for (blocked, faulty, incidents) in hits {
        let (blocked_src, blocked_cached) = fleet[blocked];
        let (faulty_src, faulty_cached) = fleet[faulty];
        if blocked_cached.partial.verdict.is_quarantined()
            || faulty_cached.partial.verdict.is_quarantined()
        {
            continue;
        }
        let Some(last) = incidents.last() else {
            continue;
        };
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
    pairs
}

/// The control plane: the trace clock and tick schedule, the source
/// registry, alert hysteresis, metrics, and the event buffer —
/// everything that decides *what the stream says*, as opposed to the
/// per-connection analysis the scopes do.
#[derive(Debug)]
struct Control {
    ctx: AnalysisCtx,
    tracker_config: TrackerConfig,
    fleet: Fleet,
    metrics: MonitorMetrics,
    interval: Micros,
    /// Trace time the monitor has advanced to.
    now: Micros,
    /// Next tick boundary: `None` until the first time advance
    /// schedules one, then `Some(None)` once the next boundary lies
    /// past representable trace time.
    next_tick: Option<Option<Micros>>,
    /// Registered source names, indexed by [`SourceId`].
    names: Vec<Arc<str>>,
    /// Name → id, for idempotent registration.
    index: HashMap<Arc<str>, SourceId>,
    /// Per-source capture damage no connection could be blamed for
    /// (order-insensitive counters, so no scope needs them).
    unattributed: Vec<AnomalyCounts>,
    pending_backoff: std::time::Duration,
    events: Vec<MonitorEvent>,
}

impl Control {
    /// The tick boundary one interval after `at`; `None` past
    /// representable trace time, so an interval that long never ticks.
    fn after(&self, at: Micros) -> Option<Micros> {
        at.0.checked_add(self.interval.0).map(Micros)
    }

    fn emit_alert(&mut self, alert: Alert) {
        self.metrics.record_alert(&alert);
        self.events.push(MonitorEvent::Alert(alert));
    }

    fn clear_alerts(&mut self, source: &Arc<str>, session: &str, at: Micros) {
        for alert in self.fleet.alerts.clear_session(source, session, at) {
            self.emit_alert(alert);
        }
    }

    /// One analysis tick at trace time `at`: per scope, re-analyze what
    /// changed and stand up the stalls that fell due (phases 1–2);
    /// across the fleet, re-run the peer-group pass if a group that can
    /// pair changed, and update the alerts (phase 3). Its latency sample
    /// covers all of it.
    fn tick(&mut self, scopes: &mut [SourceScope], at: Micros) {
        let started = Instant::now();
        let visits = self.fleet.visits();
        self.fleet.begin(at);
        let open = scopes
            .iter_mut()
            .map(|scope| scope.tick(&self.ctx, &mut self.fleet))
            .sum();
        let (pairs, alerts) = self.fleet.conclude(scopes);
        for alert in alerts {
            self.emit_alert(alert);
        }
        self.metrics.record_peer_pairs(pairs);
        self.metrics
            .record_tick_visits(self.fleet.visits() - visits);
        self.metrics.record_tick(open, started.elapsed());
    }

    /// A connection left the tracker of scope `source`. Clears its
    /// alerts, counts it, and emits its whole-lifetime report attributed
    /// to its source.
    fn finalize(&mut self, scopes: &mut [SourceScope], source: usize, fin: FinalizedConnection) {
        let (Some(scope), Some(name)) = (scopes.get_mut(source), self.names.get(source).cloned())
        else {
            debug_assert!(false, "finalized connection from unknown scope {source}");
            return;
        };
        let cached = scope.forget(fin.key, &mut self.fleet);
        let analysis = scope.ingest.analyze(fin, &self.ctx.analyzer);
        let session = session_id(analysis.sender, analysis.receiver);
        // Event timestamps never run behind the traffic they describe.
        let at = self.now.max(analysis.profile.end);
        let report = Report::from_analysis(&analysis, self.ctx.analyzer.config());
        drop(analysis);
        // Alerts are keyed by the session id the tick cache last
        // published; if late traffic re-elected the data sender (an
        // LRU-evicted connection captured mid-stream, say), the final
        // session differs and the cached session's alerts would
        // otherwise survive their connection.
        if let Some(stale) = cached.filter(|cached| cached != &session) {
            self.clear_alerts(&name, &stale, at);
        }
        self.clear_alerts(&name, &session, at);
        let open = scopes
            .iter()
            .map(|s| s.ingest.tracker().open_connections())
            .sum();
        self.metrics.record_finalized(open);
        self.events
            .push(MonitorEvent::Connection(ConnectionSummary {
                at,
                source: name,
                session,
                report,
            }));
    }
}

/// What one [`Monitor::step`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Released frames and/or the merged clock went into the engine.
    Progress,
    /// Nothing releasable right now: wait
    /// [`pending_backoff`](Monitor::pending_backoff), then step again.
    Pending,
    /// A source went down, came back, or failed for good. The engine
    /// has the event; this is the line for the operator's log.
    Notice(String),
    /// Every source is exhausted: [`finish`](Monitor::finish) the
    /// watch.
    Finished,
}

/// The long-running monitoring engine; see the module docs.
#[derive(Debug)]
pub struct Monitor {
    control: Control,
    /// One scope per registered source, indexed by [`SourceId`].
    scopes: Vec<SourceScope>,
}

impl Monitor {
    /// Creates a monitor with no sources registered.
    pub fn new(config: MonitorConfig) -> Monitor {
        let control = Control {
            ctx: AnalysisCtx {
                analyzer: Analyzer::default(),
                window: config.window.max(Micros(1)),
            },
            tracker_config: config.tracker,
            fleet: Fleet::default(),
            metrics: MonitorMetrics::default(),
            interval: config.interval.max(Micros(1)),
            now: Micros::ZERO,
            next_tick: None,
            names: Vec::new(),
            index: HashMap::new(),
            unattributed: Vec::new(),
            pending_backoff: config.pending_backoff,
            events: Vec::new(),
        };
        Monitor {
            control,
            scopes: Vec::new(),
        }
    }

    /// The monitor's health counters.
    pub fn metrics(&self) -> &MonitorMetrics {
        &self.control.metrics
    }

    /// Trace time the monitor has advanced to.
    pub fn now(&self) -> Micros {
        self.control.now
    }

    /// The configured wall-clock wait between polls while every source
    /// is pending.
    pub fn pending_backoff(&self) -> std::time::Duration {
        self.control.pending_backoff
    }

    /// Registers a named source scope (idempotent: a known name returns
    /// its existing id). Everything ingested under the returned
    /// [`SourceId`] — connections, capture damage, alerts, reports —
    /// stays attributed to this source.
    pub fn register_source(&mut self, name: &str) -> SourceId {
        let Monitor { control, scopes } = self;
        if let Some(&id) = control.index.get(name) {
            return id;
        }
        let id = SourceId(control.names.len() as u32);
        let name: Arc<str> = Arc::from(name);
        control.index.insert(name.clone(), id);
        scopes.push(SourceScope::new(
            name.clone(),
            id.index(),
            control.tracker_config,
        ));
        control.unattributed.push(AnomalyCounts::default());
        control.names.push(name);
        control.metrics.record_sources(control.names.len());
        id
    }

    /// The registered source names, in [`SourceId`] order.
    pub fn source_names(&self) -> Vec<Arc<str>> {
        self.control.names.clone()
    }

    /// Ingests one captured frame (capture order) under the default
    /// [`DEFAULT_SOURCE`] scope. Runs any analysis ticks that became
    /// due *before* this frame's timestamp.
    pub fn ingest(&mut self, frame: &TcpFrame) {
        let id = self.register_source(DEFAULT_SOURCE);
        self.ingest_from(id, frame);
    }

    /// Ingests one captured frame under a registered source scope.
    /// Frames must arrive in capture order *per source*, with
    /// timestamps that never decrease; the caller (or a [`SourceSet`])
    /// is responsible for a sensible global interleaving. Runs any
    /// analysis ticks that became due before this frame's timestamp,
    /// then steps the frame through the scope's ingest core, the batch
    /// pass's own ([`Ingest::step`], which settles first by the one
    /// settle rule), and emits a report for every connection the advance
    /// of time finalized. Settling is exact because no later frame of
    /// the scope is stamped earlier: the lossy decoder behind a followed
    /// capture clamps timestamp regressions and the simulator is
    /// ordered; a frame stamped behind the horizon anyway is counted,
    /// but cannot reopen a settled transfer.
    pub fn ingest_from(&mut self, source: SourceId, frame: &TcpFrame) {
        if !self.admit(source, frame.timestamp) {
            return;
        }
        let Monitor { control, scopes } = self;
        let (finalized, settled) = scopes[source.index()].ingest.step(frame);
        control.metrics.record_settled(settled);
        for fin in finalized {
            control.finalize(scopes, source.index(), fin);
        }
    }

    /// The control-plane half of ingesting a frame stamped `at`: run
    /// the ticks due before it and count it against its source.
    /// `false` for a source nobody registered.
    fn admit(&mut self, source: SourceId, at: Micros) -> bool {
        self.advance_to(at);
        let Some(name) = self.control.names.get(source.index()) else {
            debug_assert!(false, "unregistered source {source}");
            return false;
        };
        self.control.metrics.record_frame_from(name);
        true
    }

    /// Advances trace time without a frame (a source whose clock runs
    /// ahead of its captures, or silence on the wire), running any
    /// analysis ticks that became due: per scope, re-analyze what
    /// changed; across the fleet, correlate peer-group blocking and
    /// update alerts.
    pub fn advance_to(&mut self, now: Micros) {
        let Monitor { control, scopes } = self;
        if now <= control.now && control.next_tick.is_some() {
            return;
        }
        control.now = control.now.max(now);
        let Some(mut next) = control.next_tick else {
            // First sign of time: schedule the first tick one interval in.
            control.next_tick = Some(control.after(now));
            return;
        };
        while let Some(boundary) = next.filter(|&b| b <= control.now) {
            control.tick(scopes, boundary);
            next = control.after(boundary);
        }
        control.next_tick = Some(next);
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
        let Monitor { control, scopes } = self;
        control.metrics.record_anomaly();
        let Some(unattributed) = control.unattributed.get_mut(source.index()) else {
            debug_assert!(false, "unregistered source {source}");
            return;
        };
        match anomaly.key {
            None => unattributed.note(&anomaly.anomaly),
            // New damage changes the verdict: the connection is
            // re-analyzed at the next tick even if it saw no traffic.
            Some(key) => scopes[source.index()]
                .ingest
                .note(key, std::slice::from_ref(&anomaly.anomaly)),
        }
    }

    /// Notes that a source died mid-watch, emitting a
    /// [`MonitorEvent::SourceDown`]. Its scope's accumulated state
    /// stays: already-tracked connections finalize and report normally.
    pub fn note_source_failure(&mut self, source: SourceId, detail: String) {
        self.control.metrics.record_source_failure();
        self.source_down(source, detail);
    }

    /// Notes that a source went down *transiently* — its supervising
    /// set is backing off and will try to resurrect it. Emits the same
    /// [`MonitorEvent::SourceDown`] line a terminal failure would (the
    /// pairing `source_up` distinguishes the outcomes) but counts it as
    /// a flap, not a failure, in the metrics.
    pub fn note_source_down(&mut self, source: SourceId, detail: String) {
        self.control.metrics.record_source_flap();
        self.source_down(source, detail);
    }

    fn source_down(&mut self, source: SourceId, detail: String) {
        self.source_notice(source, |at, source| {
            MonitorEvent::SourceDown(SourceDown { at, source, detail })
        });
    }

    /// Notes that a transiently-down source was resurrected, emitting
    /// the [`MonitorEvent::SourceUp`] paired with its earlier
    /// `source_down`.
    pub fn note_source_up(&mut self, source: SourceId, attempts: u32) {
        self.control.metrics.record_source_resurrection();
        self.source_notice(source, |at, source| {
            MonitorEvent::SourceUp(SourceUp {
                at,
                source,
                attempts,
                detail: format!("recovered after {attempts} reopen attempt(s)"),
            })
        });
    }

    /// Emits an event about `source` itself, stamped with the engine
    /// clock.
    fn source_notice(
        &mut self,
        source: SourceId,
        event: impl FnOnce(Micros, Arc<str>) -> MonitorEvent,
    ) {
        let control = &mut self.control;
        let Some(name) = control.names.get(source.index()) else {
            debug_assert!(false, "unregistered source {source}");
            return;
        };
        let event = event(control.now, name.clone());
        control.events.push(event);
    }

    /// Capture damage no source could tie to any connection, summed
    /// across sources.
    pub fn unattributed_anomalies(&self) -> AnomalyCounts {
        let mut total = AnomalyCounts::default();
        for counts in &self.control.unattributed {
            total.merge(counts);
        }
        total
    }

    /// Open connections across every source scope.
    pub fn open_connections(&self) -> usize {
        self.scopes
            .iter()
            .map(|s| s.ingest.tracker().open_connections())
            .sum()
    }

    /// Takes the events accumulated since the last drain.
    pub fn drain_events(&mut self) -> Vec<MonitorEvent> {
        std::mem::take(&mut self.control.events)
    }

    /// The per-connection analyses as of the last tick, rendered as
    /// `(source, session, report JSON)` in (source, tracker-insertion)
    /// order — a point-in-time view of the monitor's working state. The
    /// golden streams (`tests/golden_streams.rs`) pin it after every
    /// tick boundary.
    ///
    /// A tick computes only what its alerts read; the rest of a report —
    /// the factor vector, the series behind it, MCT's `prefixes` — is
    /// computed here, at the pull, once per analysis the ticks refreshed
    /// since the last pull, over the connection and the data sender's
    /// log as of the last tick: frames ingested since do not show.
    pub fn snapshot_reports(&mut self) -> Vec<(String, String, String)> {
        self.complete();
        let config = self.control.ctx.analyzer.config();
        fleet_view(&self.scopes)
            .into_iter()
            .filter_map(|(source, cached)| {
                let analysis = cached.completed.as_deref()?;
                Some((
                    source.to_string(),
                    cached.session.clone(),
                    Report::from_analysis(analysis, config).to_json(),
                ))
            })
            .collect()
    }

    /// The per-connection analyses as of the last tick, unrendered, as
    /// `(source, analysis)` in the order of
    /// [`snapshot_reports`](Self::snapshot_reports). As there, each is
    /// completed at this pull, over the connection and its log as of
    /// the last tick.
    pub fn snapshot_analyses(&mut self) -> Vec<(&str, &Analysis)> {
        self.complete();
        fleet_view(&self.scopes)
            .into_iter()
            .filter_map(|(source, cached)| Some((&**source, cached.completed.as_deref()?)))
            .collect()
    }

    /// Completes every cached analysis a tick left partial
    /// ([`SourceScope::complete`]), in every scope.
    fn complete(&mut self) {
        let analyzer = &self.control.ctx.analyzer;
        for scope in &mut self.scopes {
            scope.complete(analyzer);
        }
    }

    /// Ends the watch: finalizes every still-open connection in every
    /// scope (emitting its report and clearing its alerts), each built
    /// and analysed before the next is built. The monitor is reusable
    /// afterwards, fresh.
    pub fn finish(&mut self) {
        let Monitor { control, scopes } = self;
        for source in 0..scopes.len() {
            for fin in scopes[source].ingest.finish() {
                control.finalize(scopes, source, fin);
            }
        }
        control.next_tick = None;
    }

    /// Registers one scope per source of `set`, returning the ids
    /// [`step`](Self::step) routes by (indexed by the set's own
    /// [`SourceId`]s).
    pub fn register_set(&mut self, set: &SourceSet) -> Vec<SourceId> {
        set.names()
            .iter()
            .map(|name| self.register_source(name))
            .collect()
    }

    /// One turn of the watch loop: polls `set` once and routes what it
    /// released — capture anomalies, frames under their source's
    /// scope, the merged clock, source down/up/failed notices — into
    /// the engine. `ids` is [`register_set`](Self::register_set)'s
    /// result. Per-source failures surface as
    /// [`MonitorEvent::SourceDown`] while the siblings keep running;
    /// the step itself never fails.
    ///
    /// [`run_set`](Self::run_set) is this in a loop; long-running
    /// drivers that stream events out as they happen call it
    /// themselves with [`drain_events`](Self::drain_events) in between.
    pub fn step(&mut self, set: &mut SourceSet, ids: &[SourceId]) -> Step {
        let event = set.poll();
        for (source, anomaly) in set.drain_anomalies() {
            if let Some(&id) = ids.get(source.index()) {
                self.note_anomaly_from(id, anomaly);
            }
        }
        let label = |source: SourceId| match set.name(source) {
            Some(name) => name.to_string(),
            None => source.to_string(),
        };
        match event {
            SetEvent::Batch { runs, now } => {
                for run in runs {
                    let Some(&id) = ids.get(run.source.index()) else {
                        continue;
                    };
                    for frame in run.frames {
                        self.ingest_from(id, &frame);
                    }
                }
                if let Some(now) = now {
                    self.advance_to(now);
                }
                Step::Progress
            }
            SetEvent::Pending => Step::Pending,
            SetEvent::SourceFailed { source, error } => {
                let notice = format!("source {}: {error}", label(source));
                if let Some(&id) = ids.get(source.index()) {
                    self.note_source_failure(id, error);
                }
                Step::Notice(notice)
            }
            SetEvent::SourceDown { source, error } => {
                let notice = format!("source {}: down: {error} (will retry)", label(source));
                if let Some(&id) = ids.get(source.index()) {
                    self.note_source_down(id, error);
                }
                Step::Notice(notice)
            }
            SetEvent::SourceUp { source, attempts } => {
                if let Some(&id) = ids.get(source.index()) {
                    self.note_source_up(id, attempts);
                }
                Step::Notice(format!(
                    "source {}: recovered after {attempts} attempt(s)",
                    label(source)
                ))
            }
            SetEvent::Finished => Step::Finished,
        }
    }

    /// Drives a [`SourceSet`] to exhaustion: [`step`](Self::step)s
    /// until the set finishes, sleeping briefly while it is pending,
    /// then finalizes. Returns every event of the run (including any
    /// already accumulated but not yet drained).
    pub fn run_set(&mut self, set: &mut SourceSet) -> Vec<MonitorEvent> {
        let ids = self.register_set(set);
        loop {
            match self.step(set, &ids) {
                Step::Progress | Step::Notice(_) => {}
                Step::Pending => std::thread::sleep(self.control.pending_backoff),
                Step::Finished => break,
            }
        }
        self.finish();
        self.drain_events()
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
            let line = event.to_json();
            assert!(!line.contains('\n'));
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert_eq!(line.matches('{').count(), line.matches('}').count());
            assert!(line.contains("\"type\":"));
            assert!(line.contains("\"at_s\":"));
            // The source comes right after the type.
            let (_, rest) = line.split_once("\",").expect("type field first");
            assert!(
                rest.starts_with(&format!("\"source\":\"{DEFAULT_SOURCE}\"")),
                "{line}"
            );
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
        let summary = monitor.metrics().to_string();
        for source in ["left.pcap", "right.pcap"] {
            let line = format!("  from {source:<24} {:>10}\n", 22);
            assert!(summary.contains(&line), "{summary}");
        }
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
                    Some((c.source.to_string(), c.report.verdict.to_string()))
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
            .tracker(TrackerConfig {
                close_grace: Some(Micros::ZERO),
                ..TrackerConfig::streaming()
            })
            .build()
            .expect_err("zero close grace");
        assert!(err.to_string().contains("close_grace"), "{err}");
        let err = MonitorConfig::builder()
            .pending_backoff(std::time::Duration::ZERO)
            .build()
            .expect_err("zero backoff");
        assert!(err.to_string().contains("backoff"), "{err}");
        let built = MonitorConfig::builder()
            .window(Micros::from_secs(30))
            .interval(Micros::from_secs(5))
            .build()
            .expect("valid");
        assert_eq!(built.window, Micros::from_secs(30));
        assert_eq!(built.interval, Micros::from_secs(5));
    }
}
