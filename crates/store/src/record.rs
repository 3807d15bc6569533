//! The normalized row of the store and the ingest front door.
//!
//! Every report surface the suite emits funnels into one
//! [`SessionRecord`] shape here: `t-dat --json` batch output (a
//! one-line JSON array of report objects, or bare report objects one
//! per line), and the monitor's `tdat-monitor-events/2` JSONL stream
//! (where a `connection` line carries the report, preceding `alert`
//! lines contribute the session's alert signature, and every event
//! line names its `source`). Captures reach the store only through
//! that stream: `t-dat-monitor --sweep DIR --events - | t-dat-store
//! ingest STORE -`. Parsing uses the canonical [`tdat::json`] parser
//! and [`tdat::Report::from_json`], so there is exactly one wire
//! format.

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
    /// A `tdat-monitor-events/1` connection line (single source). No
    /// longer ingested; kept so segments that stored it still decode.
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

/// `secs` seconds of trace time, read from `field`.
///
/// # Errors
///
/// [`StoreError::Ingest`], naming `field`, when no [`Micros`] holds
/// `secs` in microseconds: a record is sealed and read back at the time
/// it holds, so a time that would saturate is refused.
fn checked_micros(secs: f64, field: &str) -> Result<Micros, StoreError> {
    let micros = (secs * 1e6).round();
    // `i64::MAX as f64` rounds up to 2^63, one past the largest `Micros`;
    // a NaN fails both tests.
    if micros >= i64::MIN as f64 && micros < i64::MAX as f64 {
        Ok(Micros(micros as i64))
    } else {
        Err(StoreError::Ingest(format!(
            "{field} {secs:?} s is outside the trace time a record holds"
        )))
    }
}

impl SessionRecord {
    /// Builds a record around a report finalized at `at` (monitor
    /// semantics: the session interval ends at `at`).
    ///
    /// # Errors
    ///
    /// [`StoreError::Ingest`] when no [`Micros`] holds the report's
    /// `duration_s` or the span `[at - duration, at]`.
    pub fn from_monitor_report(
        source: impl Into<String>,
        kind: RecordKind,
        at: Micros,
        alerts: Vec<String>,
        report: Report,
    ) -> Result<SessionRecord, StoreError> {
        let duration = checked_micros(report.duration_s.max(0.0), "duration_s")?;
        let start = at.as_micros().checked_sub(duration.as_micros()).ok_or_else(|| {
            StoreError::Ingest(format!(
                "duration_s {:?} s reaches back from at_s {:?} s past the trace time a record holds",
                report.duration_s,
                at.as_secs_f64()
            ))
        })?;
        let peer = endpoint_host(&report.sender).to_string();
        Ok(SessionRecord {
            source: source.into(),
            kind,
            at,
            span: Span::new(Micros(start), at),
            peer,
            peer_as: None,
            alerts,
            report,
        })
    }

    /// Builds a record from a batch report, whose trace clock starts
    /// at the capture: the interval is `[0, duration)`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Ingest`] when no [`Micros`] holds the report's
    /// `duration_s`.
    pub fn from_batch_report(
        source: impl Into<String>,
        report: Report,
    ) -> Result<SessionRecord, StoreError> {
        let end = checked_micros(report.duration_s.max(0.0), "duration_s")?;
        let peer = endpoint_host(&report.sender).to_string();
        Ok(SessionRecord {
            source: source.into(),
            kind: RecordKind::Batch,
            at: end,
            span: Span::new(Micros::ZERO, end),
            peer,
            peer_as: None,
            alerts: Vec::new(),
            report,
        })
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
    batch_source: String,
    pending_alerts: HashMap<(String, String), Vec<String>>,
}

impl JsonlIngester {
    /// Creates an ingester attributing batch reports, which carry no
    /// source, to `batch_source`.
    pub fn new(batch_source: impl Into<String>) -> JsonlIngester {
        JsonlIngester {
            batch_source: batch_source.into(),
            pending_alerts: HashMap::new(),
        }
    }

    /// Consumes one line, returning the records it completes (usually
    /// zero or one; a batch report *array* line yields many).
    ///
    /// # Errors
    ///
    /// Malformed JSON, unrecognized event shapes and `alert` or
    /// `connection` lines without a `source` (the
    /// `tdat-monitor-events/1` shape) are [`StoreError::Ingest`]
    /// errors; callers decide whether to abort or count and continue.
    pub fn line(&mut self, line: &str) -> Result<Vec<SessionRecord>, StoreError> {
        let line = line.trim();
        if line.is_empty() {
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
                        self.batch_source.clone(),
                        report,
                    )?);
                }
                Ok(records)
            }
            JsonValue::Obj(_) if value.get("type").is_some() => self.event_line(&value),
            JsonValue::Obj(_) => {
                // A bare report object (one report per line).
                let report = Report::from_json(&value).map_err(StoreError::Ingest)?;
                Ok(vec![SessionRecord::from_batch_report(
                    self.batch_source.clone(),
                    report,
                )?])
            }
            _ => Err(StoreError::Ingest(
                "line is neither an event object nor a report".to_string(),
            )),
        }
    }

    fn event_line(&mut self, value: &JsonValue) -> Result<Vec<SessionRecord>, StoreError> {
        let kind = str_field(value, "type")?;
        match kind {
            "meta" | "source_down" | "source_up" => Ok(Vec::new()),
            "alert" => {
                let source = str_field(value, "source")?.to_string();
                let session = str_field(value, "session")?.to_string();
                let action = str_field(value, "action")?;
                if action == "raise" {
                    let alert = str_field(value, "kind")?.to_string();
                    self.pending_alerts
                        .entry((source, session))
                        .or_default()
                        .push(alert);
                }
                Ok(Vec::new())
            }
            "connection" => {
                let source = str_field(value, "source")?.to_string();
                let session = str_field(value, "session")?.to_string();
                let at = checked_micros(num_field(value, "at_s")?, "at_s")?;
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
                    RecordKind::MonitorV2,
                    at,
                    alerts,
                    report,
                )?])
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
        // A source that went down and came back carries no record.
        for line in [
            r#"{"type":"source_down","source":"tap","at_s":5.5,"detail":"x"}"#,
            r#"{"type":"source_up","source":"tap","at_s":5.6,"attempts":1,"detail":"x"}"#,
        ] {
            assert!(ingester.line(line).unwrap().is_empty(), "{line}");
        }
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
    fn event_lines_without_a_source_are_refused_naming_it() {
        let connection = format!(
            r#"{{"type":"connection","at_s":12.0,"session":"a->b","report":{}}}"#,
            report("10.1.1.1:179", 12.0).to_json()
        );
        let alert = r#"{"type":"alert","at_s":1.0,"action":"raise","kind":"timer_gap","severity":"warn","session":"a->b","since_s":1.0,"evidence_start_s":0.0,"evidence_end_s":1.0,"detail":""}"#;
        for line in [connection.as_str(), alert] {
            match JsonlIngester::new("collector-7").line(line) {
                Err(StoreError::Ingest(detail)) => assert!(detail.contains("source"), "{detail}"),
                other => panic!("a source-less line is refused: {other:?}"),
            }
        }
    }

    #[test]
    fn alerts_for_other_sessions_stay_pending() {
        let mut ingester = JsonlIngester::new("s");
        ingester
            .line(
                r#"{"type":"alert","source":"tap","at_s":1.0,"action":"raise","kind":"timer_gap","severity":"warn","session":"other","since_s":1.0,"evidence_start_s":0.0,"evidence_end_s":1.0,"detail":""}"#
            )
            .unwrap();
        let line = format!(
            r#"{{"type":"connection","source":"tap","at_s":9.0,"session":"a->b","report":{}}}"#,
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

    /// The ingest error a `connection` line at `at_s` with a report of
    /// `duration_s` gets, if any.
    fn connection_error(at_s: &str, duration_s: f64) -> Option<String> {
        let line = format!(
            r#"{{"type":"connection","source":"tap","at_s":{at_s},"session":"a->b","report":{}}}"#,
            report("10.1.1.1:179", duration_s).to_json()
        );
        match JsonlIngester::new("s").line(&line) {
            Ok(_) => None,
            Err(StoreError::Ingest(detail)) => Some(detail),
            Err(other) => panic!("not an ingest error: {other}"),
        }
    }

    #[test]
    fn times_no_record_holds_are_refused_naming_the_field() {
        for (at_s, duration_s, field) in [
            ("1e300", 10.0, "at_s"),
            ("-1e300", 10.0, "at_s"),
            ("9.23e12", 0.0, "at_s"),
            ("60", 1e300, "duration_s"),
            // Each fits alone; the span back from `at_s` does not.
            ("-1e12", 9e12, "duration_s"),
        ] {
            let detail = connection_error(at_s, duration_s)
                .unwrap_or_else(|| panic!("at_s {at_s}, duration_s {duration_s} accepted"));
            assert!(detail.contains(field), "{detail}");
        }
        for (at_s, duration_s) in [
            ("9.22e12", 0.0),
            ("-9.22e12", 0.0),
            ("-1e12", 8e12),
            ("60", 60.0),
        ] {
            assert_eq!(connection_error(at_s, duration_s), None, "at_s {at_s}");
        }
        let batch = JsonlIngester::new("s").line(&report("10.1.1.1:179", 1e300).to_json());
        assert!(matches!(batch, Err(StoreError::Ingest(detail)) if detail.contains("duration_s")));
    }

    #[test]
    fn record_json_embeds_the_canonical_report() {
        let record =
            SessionRecord::from_batch_report("corpus", report("10.0.0.1:179", 10.0)).unwrap();
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
        let record = SessionRecord::from_batch_report("s", report("10.0.0.1:179", 5.0)).unwrap();
        assert_eq!(record.dominant_factor(), Some("BGP sender app"));
        assert_eq!(record.dominant_group(), "sender");
    }
}
