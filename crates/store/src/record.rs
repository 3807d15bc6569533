//! The normalized row of the store and the ingest front door.
//!
//! Every report surface the suite emits funnels into one
//! [`SessionRecord`] shape here: `t-dat --json` batch output (a
//! one-line JSON array of report objects, or bare report objects one
//! per line), and the monitor's `tdat-monitor-events/1|2` JSONL
//! streams (where a `connection` line carries the report and preceding
//! `alert` lines contribute the session's alert signature). Parsing
//! uses the canonical [`tdat::json`] parser and
//! [`tdat::Report::from_json`], so there is exactly one wire format.

use std::collections::HashMap;

use tdat::json::{self, JsonValue};
use tdat::Report;
use tdat_timeset::{Micros, Span};

use crate::StoreError;

/// Where a record entered the corpus from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordKind {
    /// A batch `t-dat --json` report (no event stream context).
    Batch,
    /// A `tdat-monitor-events/1` connection line (single source).
    MonitorV1,
    /// A `tdat-monitor-events/2` connection line (attributed source).
    MonitorV2,
}

impl RecordKind {
    /// Stable wire name (`batch`, `monitor_v1`, `monitor_v2`).
    pub const fn as_str(self) -> &'static str {
        match self {
            RecordKind::Batch => "batch",
            RecordKind::MonitorV1 => "monitor_v1",
            RecordKind::MonitorV2 => "monitor_v2",
        }
    }

    pub(crate) const fn code(self) -> u8 {
        match self {
            RecordKind::Batch => 0,
            RecordKind::MonitorV1 => 1,
            RecordKind::MonitorV2 => 2,
        }
    }

    pub(crate) const fn from_code(code: u8) -> Option<RecordKind> {
        match code {
            0 => Some(RecordKind::Batch),
            1 => Some(RecordKind::MonitorV1),
            2 => Some(RecordKind::MonitorV2),
            _ => None,
        }
    }
}

/// One analyzed session, normalized for the store.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRecord {
    /// The packet source the session was captured from.
    pub source: String,
    /// Which surface produced the record.
    pub kind: RecordKind,
    /// Finalization instant (trace time).
    pub at: Micros,
    /// The session's interval: `[at - duration, at)` for monitor
    /// records, `[0, duration)` for batch reports (whose trace clock
    /// starts at the capture).
    pub span: Span,
    /// The peer (data sender) host, without the port.
    pub peer: String,
    /// The peer's AS number, when an AS map resolved it.
    pub peer_as: Option<u32>,
    /// Alert kinds raised against this session before it finalized,
    /// sorted and deduplicated — the session's alert signature.
    pub alerts: Vec<String>,
    /// The full analysis report.
    pub report: Report,
}

/// The host part of an `ip:port` endpoint. Handles `[v6]:port`, and
/// passes an unbracketed IPv6 address (more than one `:`, no
/// brackets) through unchanged rather than mangling it: only a single
/// trailing `:<digits>` on a colon-free host is treated as a port.
pub fn endpoint_host(endpoint: &str) -> &str {
    if let Some(rest) = endpoint.strip_prefix('[') {
        if let Some((host, _)) = rest.split_once(']') {
            return host;
        }
    }
    match endpoint.rsplit_once(':') {
        Some((host, port))
            if !host.contains(':')
                && !port.is_empty()
                && port.bytes().all(|b| b.is_ascii_digit()) =>
        {
            host
        }
        _ => endpoint,
    }
}

impl SessionRecord {
    /// Builds a record around a report finalized at `at` (monitor
    /// semantics: the session interval ends at `at`).
    pub fn from_monitor_report(
        source: impl Into<String>,
        kind: RecordKind,
        at: Micros,
        alerts: Vec<String>,
        report: Report,
    ) -> SessionRecord {
        let duration = Micros::from_secs_f64(report.duration_s.max(0.0));
        let peer = endpoint_host(&report.sender).to_string();
        SessionRecord {
            source: source.into(),
            kind,
            at,
            span: Span::new(at - duration, at),
            peer,
            peer_as: None,
            alerts,
            report,
        }
    }

    /// Builds a record from a batch report, whose trace clock starts
    /// at the capture: the interval is `[0, duration)`.
    pub fn from_batch_report(source: impl Into<String>, report: Report) -> SessionRecord {
        let end = Micros::from_secs_f64(report.duration_s.max(0.0));
        let peer = endpoint_host(&report.sender).to_string();
        SessionRecord {
            source: source.into(),
            kind: RecordKind::Batch,
            at: end,
            span: Span::new(Micros::ZERO, end),
            peer,
            peer_as: None,
            alerts: Vec::new(),
            report,
        }
    }

    /// The dominant factor (largest delay ratio; ties resolve to the
    /// first in report order). `None` when the report has no factors.
    pub fn dominant_factor(&self) -> Option<&str> {
        let mut best: Option<(&str, f64)> = None;
        for (name, ratio) in &self.report.factors {
            if ratio.is_finite() && best.is_none_or(|(_, b)| *ratio > b) {
                best = Some((name, *ratio));
            }
        }
        best.map(|(name, _)| name)
    }

    /// The dominant factor *group* by group ratio (`sender`,
    /// `receiver`, or `network`; ties resolve in that order).
    pub fn dominant_group(&self) -> &'static str {
        let r = &self.report;
        let groups = [
            ("sender", r.sender_ratio),
            ("receiver", r.receiver_ratio),
            ("network", r.network_ratio),
        ];
        let mut best = ("sender", f64::NEG_INFINITY);
        for (name, ratio) in groups {
            if ratio.is_finite() && ratio > best.1 {
                best = (name, ratio);
            }
        }
        best.0
    }

    /// Encodes the record as one JSONL line: record metadata first,
    /// then the canonical report object verbatim under `report`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(640);
        out.push('{');
        json::push_str_field(&mut out, "source", &self.source, false);
        json::push_str_field(&mut out, "kind", self.kind.as_str(), true);
        json::push_num_field(&mut out, "at_s", self.at.as_secs_f64(), true);
        match self.peer_as {
            Some(asn) => json::push_raw_field(&mut out, "peer_as", asn, true),
            None => json::push_raw_field(&mut out, "peer_as", "null", true),
        }
        json::push_str_array_field(&mut out, "alerts", &self.alerts, true);
        out.push_str(",\"report\":");
        self.report.write_json(&mut out);
        out.push('}');
        out
    }
}

fn str_field<'a>(value: &'a JsonValue, key: &str) -> Result<&'a str, StoreError> {
    value
        .get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| StoreError::Ingest(format!("event field {key:?} missing or not a string")))
}

fn num_field(value: &JsonValue, key: &str) -> Result<f64, StoreError> {
    value
        .get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| StoreError::Ingest(format!("event field {key:?} missing or not a number")))
}

/// Streaming line-by-line ingester for every JSONL surface the suite
/// emits. Feed it lines in file order; it buffers alert signatures per
/// `(source, session)` and attaches them to the matching `connection`
/// record when the session finalizes.
#[derive(Debug)]
pub struct JsonlIngester {
    default_source: String,
    pending_alerts: HashMap<(String, String), Vec<String>>,
    lines: u64,
    skipped: u64,
}

impl JsonlIngester {
    /// Creates an ingester attributing source-less lines (v1 streams,
    /// batch reports) to `default_source`.
    pub fn new(default_source: impl Into<String>) -> JsonlIngester {
        JsonlIngester {
            default_source: default_source.into(),
            pending_alerts: HashMap::new(),
            lines: 0,
            skipped: 0,
        }
    }

    /// Lines consumed so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Non-record lines skipped so far (meta preambles, alert clears,
    /// source-down notices, blanks).
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Consumes one line, returning the records it completes (usually
    /// zero or one; a batch report *array* line yields many).
    ///
    /// # Errors
    ///
    /// Malformed JSON and unrecognized event shapes are
    /// [`StoreError::Ingest`] errors; callers decide whether to abort
    /// or count and continue.
    pub fn line(&mut self, line: &str) -> Result<Vec<SessionRecord>, StoreError> {
        self.lines += 1;
        let line = line.trim();
        if line.is_empty() {
            self.skipped += 1;
            return Ok(Vec::new());
        }
        let value = json::parse(line).map_err(|e| StoreError::Ingest(e.to_string()))?;
        match &value {
            JsonValue::Arr(items) => {
                // A `t-dat --json` batch: one array of report objects.
                let mut records = Vec::with_capacity(items.len());
                for item in items {
                    let report = Report::from_json(item).map_err(StoreError::Ingest)?;
                    records.push(SessionRecord::from_batch_report(
                        self.default_source.clone(),
                        report,
                    ));
                }
                Ok(records)
            }
            JsonValue::Obj(_) if value.get("type").is_some() => self.event_line(&value),
            JsonValue::Obj(_) => {
                // A bare report object (one report per line).
                let report = Report::from_json(&value).map_err(StoreError::Ingest)?;
                Ok(vec![SessionRecord::from_batch_report(
                    self.default_source.clone(),
                    report,
                )])
            }
            _ => Err(StoreError::Ingest(
                "line is neither an event object nor a report".to_string(),
            )),
        }
    }

    fn event_line(&mut self, value: &JsonValue) -> Result<Vec<SessionRecord>, StoreError> {
        let kind = str_field(value, "type")?;
        match kind {
            "meta" | "source_down" => {
                self.skipped += 1;
                Ok(Vec::new())
            }
            "alert" => {
                let source = value
                    .get("source")
                    .and_then(JsonValue::as_str)
                    .unwrap_or(&self.default_source)
                    .to_string();
                let session = str_field(value, "session")?.to_string();
                let action = str_field(value, "action")?;
                if action == "raise" {
                    let alert = str_field(value, "kind")?.to_string();
                    self.pending_alerts
                        .entry((source, session))
                        .or_default()
                        .push(alert);
                }
                self.skipped += 1;
                Ok(Vec::new())
            }
            "connection" => {
                let (source, record_kind) = match value.get("source").and_then(JsonValue::as_str) {
                    Some(s) => (s.to_string(), RecordKind::MonitorV2),
                    None => (self.default_source.clone(), RecordKind::MonitorV1),
                };
                let session = str_field(value, "session")?.to_string();
                let at = Micros::from_secs_f64(num_field(value, "at_s")?);
                let report_value = value
                    .get("report")
                    .ok_or_else(|| StoreError::Ingest("connection line has no report".into()))?;
                let report = Report::from_json(report_value).map_err(StoreError::Ingest)?;
                let mut alerts = self
                    .pending_alerts
                    .remove(&(source.clone(), session))
                    .unwrap_or_default();
                alerts.sort_unstable();
                alerts.dedup();
                Ok(vec![SessionRecord::from_monitor_report(
                    source,
                    record_kind,
                    at,
                    alerts,
                    report,
                )])
            }
            other => Err(StoreError::Ingest(format!("unknown event type {other:?}"))),
        }
    }

    /// Ingests a whole multi-line text (a file's contents), collecting
    /// all completed records.
    pub fn text(&mut self, text: &str) -> Result<Vec<SessionRecord>, StoreError> {
        let mut records = Vec::new();
        for line in text.lines() {
            records.append(&mut self.line(line)?);
        }
        Ok(records)
    }
}

/// Converts a finished sweep into records, attributing each file's
/// events to its sweep source name. Files that failed to sweep are
/// skipped (their error already surfaced in the sweep report).
pub fn records_from_sweep(report: &tdat_monitor::SweepReport) -> Vec<SessionRecord> {
    use tdat_monitor::MonitorEvent;

    let mut records = Vec::new();
    for outcome in &report.outcomes {
        let Ok(events) = &outcome.result else {
            continue;
        };
        let mut pending: HashMap<String, Vec<String>> = HashMap::new();
        for event in events {
            match event {
                MonitorEvent::Alert(a) => {
                    if a.action == tdat_monitor::AlertAction::Raise {
                        pending
                            .entry(a.session.clone())
                            .or_default()
                            .push(a.kind.as_str().to_string());
                    }
                }
                MonitorEvent::Connection(c) => {
                    let mut alerts = pending.remove(&c.session).unwrap_or_default();
                    alerts.sort_unstable();
                    alerts.dedup();
                    records.push(SessionRecord::from_monitor_report(
                        outcome.source.clone(),
                        RecordKind::MonitorV2,
                        c.at,
                        alerts,
                        c.report.clone(),
                    ));
                }
                MonitorEvent::SourceDown(_) | MonitorEvent::SourceUp(_) => {}
            }
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(sender: &str, duration_s: f64) -> Report {
        Report {
            sender: sender.to_string(),
            receiver: "10.0.0.9:179".to_string(),
            duration_s,
            prefixes: 1000,
            rtt_ms: Some(20.0),
            sender_ratio: 0.5,
            receiver_ratio: 0.25,
            network_ratio: 0.125,
            factors: vec![
                ("BGP sender app".into(), 0.5),
                ("TCP advertised window".into(), 0.25),
            ],
            major_groups: vec!["sender".into()],
            inferred_timer_ms: None,
            loss_episodes: vec![(3, 1.5)],
            zero_ack_bug: false,
            delayed_ack_spurious: 0,
            verdict: "clean".into(),
            quarantine_reason: None,
            capture_anomalies: 0,
        }
    }

    #[test]
    fn batch_array_line_yields_one_record_per_report() {
        let line = format!(
            "[{},{}]",
            report("10.0.0.1:179", 10.0).to_json(),
            report("10.0.0.2:179", 20.0).to_json()
        );
        let mut ingester = JsonlIngester::new("batch");
        let records = ingester.line(&line).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].peer, "10.0.0.1");
        assert_eq!(records[0].kind, RecordKind::Batch);
        assert_eq!(
            records[0].span,
            Span::new(Micros::ZERO, Micros::from_secs(10))
        );
        assert_eq!(records[1].at, Micros::from_secs(20));
    }

    #[test]
    fn v2_connection_line_attributes_source_and_drains_alerts() {
        let r = report("192.0.2.7:179", 30.0);
        let mut ingester = JsonlIngester::new("fallback");
        assert!(ingester
            .line(r#"{"type":"meta","schema":"tdat-monitor-events/2","sources":["tap"]}"#)
            .unwrap()
            .is_empty());
        assert!(ingester
            .line(
                r#"{"type":"alert","source":"tap","at_s":5.0,"action":"raise","kind":"stalled_transfer","severity":"warn","session":"a->b","since_s":4.0,"evidence_start_s":1.0,"evidence_end_s":5.0,"detail":"x"}"#
            )
            .unwrap()
            .is_empty());
        // Same alert kind raised twice: signature deduplicates.
        ingester
            .line(
                r#"{"type":"alert","source":"tap","at_s":6.0,"action":"raise","kind":"stalled_transfer","severity":"warn","session":"a->b","since_s":4.0,"evidence_start_s":1.0,"evidence_end_s":6.0,"detail":"x"}"#
            )
            .unwrap();
        let line = format!(
            r#"{{"type":"connection","source":"tap","at_s":60.0,"session":"a->b","report":{}}}"#,
            r.to_json()
        );
        let records = ingester.line(&line).unwrap();
        assert_eq!(records.len(), 1);
        let rec = &records[0];
        assert_eq!(rec.source, "tap");
        assert_eq!(rec.kind, RecordKind::MonitorV2);
        assert_eq!(rec.alerts, vec!["stalled_transfer"]);
        assert_eq!(rec.at, Micros::from_secs(60));
        assert_eq!(
            rec.span,
            Span::new(Micros::from_secs(30), Micros::from_secs(60))
        );
        assert_eq!(rec.peer, "192.0.2.7");
    }

    #[test]
    fn v1_connection_line_falls_back_to_default_source() {
        let line = format!(
            r#"{{"type":"connection","at_s":12.0,"session":"a->b","report":{}}}"#,
            report("10.1.1.1:179", 12.0).to_json()
        );
        let records = JsonlIngester::new("collector-7").line(&line).unwrap();
        assert_eq!(records[0].source, "collector-7");
        assert_eq!(records[0].kind, RecordKind::MonitorV1);
    }

    #[test]
    fn alerts_for_other_sessions_stay_pending() {
        let mut ingester = JsonlIngester::new("s");
        ingester
            .line(
                r#"{"type":"alert","at_s":1.0,"action":"raise","kind":"timer_gap","severity":"warn","session":"other","since_s":1.0,"evidence_start_s":0.0,"evidence_end_s":1.0,"detail":""}"#
            )
            .unwrap();
        let line = format!(
            r#"{{"type":"connection","at_s":9.0,"session":"a->b","report":{}}}"#,
            report("10.1.1.1:179", 9.0).to_json()
        );
        let records = ingester.line(&line).unwrap();
        assert!(records[0].alerts.is_empty());
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        let mut ingester = JsonlIngester::new("s");
        assert!(matches!(
            ingester.line("{not json"),
            Err(StoreError::Ingest(_))
        ));
        assert!(matches!(
            ingester.line(r#"{"type":"mystery"}"#),
            Err(StoreError::Ingest(_))
        ));
        assert!(matches!(ingester.line("42"), Err(StoreError::Ingest(_))));
    }

    #[test]
    fn record_json_embeds_the_canonical_report() {
        let record = SessionRecord::from_batch_report("corpus", report("10.0.0.1:179", 10.0));
        let line = record.to_json();
        let value = json::parse(&line).unwrap();
        assert_eq!(value.get("kind").and_then(JsonValue::as_str), Some("batch"));
        let embedded = Report::from_json(value.get("report").unwrap()).unwrap();
        assert_eq!(embedded.to_json(), record.report.to_json());
    }

    #[test]
    fn endpoint_host_handles_v6_brackets() {
        assert_eq!(endpoint_host("10.0.0.1:179"), "10.0.0.1");
        assert_eq!(endpoint_host("[2001:db8::1]:179"), "2001:db8::1");
        assert_eq!(endpoint_host("[2001:db8::1]"), "2001:db8::1");
        assert_eq!(endpoint_host("bare"), "bare");
    }

    #[test]
    fn endpoint_host_leaves_unbracketed_v6_intact() {
        assert_eq!(endpoint_host("2001:db8::1"), "2001:db8::1");
        assert_eq!(endpoint_host("::1"), "::1");
        assert_eq!(endpoint_host("fe80::1%eth0"), "fe80::1%eth0");
        // A lone `host:` or non-numeric suffix is not a port.
        assert_eq!(endpoint_host("host:"), "host:");
        assert_eq!(endpoint_host("host:abc"), "host:abc");
    }

    #[test]
    fn dominant_factor_and_group() {
        let record = SessionRecord::from_batch_report("s", report("10.0.0.1:179", 5.0));
        assert_eq!(record.dominant_factor(), Some("BGP sender app"));
        assert_eq!(record.dominant_group(), "sender");
    }
}
