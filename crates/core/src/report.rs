//! Structured analysis reports: a serializable summary of an
//! [`Analysis`] for dashboards and scripting.
//!
//! The report is a plain-data struct with its own dependency-free JSON
//! encoder, so `t-dat --json` works without pulling a JSON crate into
//! the tool.

use std::fmt::Write;

use crate::analyzer::Analysis;
use crate::config::AnalyzerConfig;
use crate::factors::Factor;
use crate::json::{write_escaped, write_num};

/// Machine-readable summary of one connection's analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Sender `ip:port`.
    pub sender: String,
    /// Receiver `ip:port`.
    pub receiver: String,
    /// Analysis period duration in seconds.
    pub duration_s: f64,
    /// Prefixes in the identified table transfer (0 if none found).
    pub prefixes: usize,
    /// Handshake RTT estimate in milliseconds, if available.
    pub rtt_ms: Option<f64>,
    /// Group delay ratios.
    pub sender_ratio: f64,
    /// Receiver group ratio.
    pub receiver_ratio: f64,
    /// Network group ratio.
    pub network_ratio: f64,
    /// `(factor name, delay ratio)` for all eight factors.
    pub factors: Vec<(String, f64)>,
    /// Names of the major groups at the configured threshold.
    pub major_groups: Vec<String>,
    /// Inferred sender pacing timer in milliseconds, if any.
    pub inferred_timer_ms: Option<f64>,
    /// Consecutive-loss episodes `(retransmissions, seconds)`.
    pub loss_episodes: Vec<(usize, f64)>,
    /// The ZeroAckBug conflict was detected.
    pub zero_ack_bug: bool,
    /// Spurious retransmissions outside loss episodes (delayed-ACK/RTO
    /// race), if detected.
    pub delayed_ack_spurious: usize,
    /// Capture-quality verdict: `clean`, `degraded`, or `quarantined`.
    pub verdict: String,
    /// Why the connection was quarantined, if it was.
    pub quarantine_reason: Option<String>,
    /// Total capture anomalies attributed to this connection.
    pub capture_anomalies: u64,
}

impl Report {
    /// Builds the report from an analysis using `config`'s thresholds.
    pub fn from_analysis(analysis: &Analysis, config: &AnalyzerConfig) -> Report {
        let v = &analysis.vector;
        Report {
            sender: format!("{}:{}", analysis.sender.0, analysis.sender.1),
            receiver: format!("{}:{}", analysis.receiver.0, analysis.receiver.1),
            duration_s: analysis.period.duration().as_secs_f64(),
            prefixes: analysis
                .transfer
                .as_ref()
                .map(|t| t.prefix_count)
                .unwrap_or(0),
            rtt_ms: analysis.profile.rtt.map(|r| r.as_millis_f64()),
            sender_ratio: v.sender,
            receiver_ratio: v.receiver,
            network_ratio: v.network,
            factors: Factor::ALL
                .iter()
                .map(|f| (f.to_string(), v.ratio(*f)))
                .collect(),
            major_groups: v
                .major_groups(config.major_threshold)
                .iter()
                .map(|g| g.to_string())
                .collect(),
            inferred_timer_ms: analysis.infer_timer(8).map(|t| t.period.as_millis_f64()),
            loss_episodes: analysis
                .consecutive_losses(config)
                .iter()
                .map(|e| (e.retransmissions, e.span.duration().as_secs_f64()))
                .collect(),
            zero_ack_bug: analysis.zero_ack_bug().is_some(),
            delayed_ack_spurious: analysis
                .delayed_ack_interaction()
                .map(|d| d.count)
                .unwrap_or(0),
            verdict: analysis.verdict.as_str().to_string(),
            quarantine_reason: analysis.verdict.reason().map(str::to_string),
            capture_anomalies: analysis.anomalies.total(),
        }
    }

    /// Encodes the report as a JSON object (no external JSON crate; the
    /// format is fixed by this module and covered by tests).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        self.write_json(&mut out);
        out
    }

    /// Appends [`to_json`](Self::to_json)'s object to `out`, allocating
    /// nothing but `out`'s growth.
    pub fn write_json(&self, out: &mut String) {
        out.push('{');
        push_str_field(out, "sender", &self.sender, false);
        push_str_field(out, "receiver", &self.receiver, true);
        push_num_field(out, "duration_s", self.duration_s, true);
        push_raw_field(out, "prefixes", self.prefixes, true);
        match self.rtt_ms {
            Some(rtt) => push_num_field(out, "rtt_ms", rtt, true),
            None => push_raw_field(out, "rtt_ms", "null", true),
        }
        push_num_field(out, "sender_ratio", self.sender_ratio, true);
        push_num_field(out, "receiver_ratio", self.receiver_ratio, true);
        push_num_field(out, "network_ratio", self.network_ratio, true);
        out.push_str(",\"factors\":{");
        for (i, (name, ratio)) in self.factors.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            write_escaped(out, name);
            out.push_str("\":");
            write_num(out, *ratio);
        }
        out.push('}');
        push_str_array_field(out, "major_groups", &self.major_groups, true);
        match self.inferred_timer_ms {
            Some(ms) => push_num_field(out, "inferred_timer_ms", ms, true),
            None => push_raw_field(out, "inferred_timer_ms", "null", true),
        }
        out.push_str(",\"loss_episodes\":[");
        for (i, (n, secs)) in self.loss_episodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{n},");
            write_num(out, *secs);
            out.push(']');
        }
        out.push(']');
        push_raw_field(out, "zero_ack_bug", self.zero_ack_bug, true);
        push_raw_field(out, "delayed_ack_spurious", self.delayed_ack_spurious, true);
        push_str_field(out, "verdict", &self.verdict, true);
        match &self.quarantine_reason {
            Some(reason) => push_str_field(out, "quarantine_reason", reason, true),
            None => push_raw_field(out, "quarantine_reason", "null", true),
        }
        push_raw_field(out, "capture_anomalies", self.capture_anomalies, true);
        out.push('}');
    }

    /// Parses a report from its canonical JSON encoding (one
    /// [`to_json`](Self::to_json) object). This is the conversion the
    /// report store's ingest path runs on every record, so it accepts
    /// exactly what `to_json` emits: unknown fields are ignored,
    /// missing fields are an error, and `parse → to_json` is a
    /// fixpoint.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(value: &json::JsonValue) -> Result<Report, String> {
        use json::JsonValue;
        let str_field = |key: &str| -> Result<String, String> {
            value
                .get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("report field {key:?} missing or not a string"))
        };
        let num_field = |key: &str| -> Result<f64, String> {
            value
                .get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("report field {key:?} missing or not a number"))
        };
        let opt_num_field = |key: &str| -> Result<Option<f64>, String> {
            match value.get(key) {
                Some(JsonValue::Null) => Ok(None),
                Some(v) => v
                    .as_f64()
                    .map(Some)
                    .ok_or_else(|| format!("report field {key:?} is neither number nor null")),
                None => Err(format!("report field {key:?} missing")),
            }
        };
        let count_field = |key: &str| -> Result<u64, String> {
            value
                .get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("report field {key:?} missing or not a count"))
        };

        let factors = match value.get("factors") {
            Some(JsonValue::Obj(obj)) => obj
                .fields()
                .iter()
                .map(|(name, ratio)| {
                    ratio
                        .as_f64()
                        .or_else(|| ratio.is_null().then_some(f64::NAN))
                        .map(|r| (name.clone(), r))
                        .ok_or_else(|| format!("factor {name:?} ratio is not a number"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("report field \"factors\" missing or not an object".to_string()),
        };
        let major_groups = match value.get("major_groups") {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .map(|g| {
                    g.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "major_groups entry is not a string".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("report field \"major_groups\" missing or not an array".to_string()),
        };
        let loss_episodes = match value.get("loss_episodes") {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .map(|pair| {
                    let pair = pair
                        .as_arr()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| "loss_episodes entry is not a [n, secs] pair".to_string())?;
                    let n = pair[0]
                        .as_u64()
                        .ok_or_else(|| "loss episode count is not an integer".to_string())?;
                    let secs = pair[1]
                        .as_f64()
                        .ok_or_else(|| "loss episode duration is not a number".to_string())?;
                    Ok((n as usize, secs))
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("report field \"loss_episodes\" missing or not an array".to_string()),
        };
        let quarantine_reason = match value.get("quarantine_reason") {
            Some(JsonValue::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .map(str::to_string)
                    .ok_or("report field \"quarantine_reason\" is neither string nor null")?,
            ),
            None => return Err("report field \"quarantine_reason\" missing".to_string()),
        };
        let zero_ack_bug = value
            .get("zero_ack_bug")
            .and_then(JsonValue::as_bool)
            .ok_or("report field \"zero_ack_bug\" missing or not a boolean")?;

        Ok(Report {
            sender: str_field("sender")?,
            receiver: str_field("receiver")?,
            duration_s: num_field("duration_s")?,
            prefixes: count_field("prefixes")? as usize,
            rtt_ms: opt_num_field("rtt_ms")?,
            sender_ratio: num_field("sender_ratio")?,
            receiver_ratio: num_field("receiver_ratio")?,
            network_ratio: num_field("network_ratio")?,
            factors,
            major_groups,
            inferred_timer_ms: opt_num_field("inferred_timer_ms")?,
            loss_episodes,
            zero_ack_bug,
            delayed_ack_spurious: count_field("delayed_ack_spurious")? as usize,
            verdict: str_field("verdict")?,
            quarantine_reason,
            capture_anomalies: count_field("capture_anomalies")?,
        })
    }

    /// Parses a report from canonical JSON text; see
    /// [`from_json`](Self::from_json).
    ///
    /// # Errors
    ///
    /// Returns a description of the parse or field error.
    pub fn from_json_str(text: &str) -> Result<Report, String> {
        let value = json::parse(text).map_err(|e| e.to_string())?;
        Report::from_json(&value)
    }
}

/// The canonical JSON helpers, re-exported from [`crate::json`] where
/// they now live (this alias keeps the historical
/// `tdat::report::json::…` paths working).
pub use crate::json;

pub use self::json::{
    escape, fmt_num, push_num_field, push_raw_field, push_str_array_field, push_str_field,
};

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            sender: "10.0.0.1:179".into(),
            receiver: "10.0.255.2:40000".into(),
            duration_s: 4.5,
            prefixes: 10_000,
            rtt_ms: Some(2.3),
            sender_ratio: 0.91,
            receiver_ratio: 0.02,
            network_ratio: 0.0,
            factors: vec![("BGP sender app".into(), 0.9)],
            major_groups: vec!["sender".into()],
            inferred_timer_ms: Some(198.0),
            loss_episodes: vec![(9, 4.2)],
            zero_ack_bug: false,
            delayed_ack_spurious: 1,
            verdict: "degraded".into(),
            quarantine_reason: None,
            capture_anomalies: 2,
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let json = sample().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"sender\":\"10.0.0.1:179\""));
        assert!(json.contains("\"prefixes\":10000"));
        assert!(json.contains("\"rtt_ms\":2.300000"));
        assert!(json.contains("\"factors\":{\"BGP sender app\":0.900000}"));
        assert!(json.contains("\"major_groups\":[\"sender\"]"));
        assert!(json.contains("\"loss_episodes\":[[9,4.200000]]"));
        assert!(json.contains("\"zero_ack_bug\":false"));
        assert!(json.contains("\"delayed_ack_spurious\":1"));
        assert!(json.contains("\"verdict\":\"degraded\""));
        assert!(json.contains("\"quarantine_reason\":null"));
        assert!(json.contains("\"capture_anomalies\":2"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn null_fields_encode_as_null() {
        let mut r = sample();
        r.rtt_ms = None;
        r.inferred_timer_ms = None;
        let json = r.to_json();
        assert!(json.contains("\"rtt_ms\":null"));
        assert!(json.contains("\"inferred_timer_ms\":null"));
    }

    #[test]
    fn strings_are_escaped() {
        let mut r = sample();
        r.sender = "evil\"quote".into();
        assert!(r.to_json().contains("evil\\\"quote"));
    }

    #[test]
    fn json_round_trips_through_the_shared_parser() {
        let mut r = sample();
        r.quarantine_reason = Some("anomaly budget".into());
        r.factors = crate::Factor::ALL
            .iter()
            .enumerate()
            .map(|(i, f)| (f.to_string(), i as f64 * 0.125))
            .collect();
        r.loss_episodes = vec![(9, 4.2), (2, 0.5)];
        let parsed = Report::from_json_str(&r.to_json()).expect("canonical JSON parses");
        assert_eq!(parsed, r);
        // And the encoding is a fixpoint under parse → re-encode.
        assert_eq!(parsed.to_json(), r.to_json());
    }

    #[test]
    fn from_json_reports_missing_fields() {
        let err = Report::from_json_str("{\"sender\":\"a\"}").expect_err("incomplete");
        assert!(err.contains("missing"), "{err}");
        let err = Report::from_json_str("not json").expect_err("garbage");
        assert!(err.contains("invalid JSON"), "{err}");
    }

    #[test]
    fn str_array_field_escapes_and_separates() {
        let mut out = String::from("{");
        json::push_str_array_field(&mut out, "sources", &["a.pcap", "b\"c"], false);
        json::push_str_array_field::<&str>(&mut out, "empty", &[], true);
        out.push('}');
        assert_eq!(out, "{\"sources\":[\"a.pcap\",\"b\\\"c\"],\"empty\":[]}");
    }
}
