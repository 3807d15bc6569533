//! The store's query language: filter, group, bucket, aggregate.
//!
//! A query is one line of clauses, all optional:
//!
//! ```text
//! [where <field> <op> <value> [and ...]]
//! [group by <key>[,<key>...]] [bucket <N><s|m|h|d>]
//! [agg <agg>[,<agg>...]]
//! [order by <field> [asc|desc]] [limit <N>]
//! ```
//!
//! * **Filter fields** — numeric: `at_s`, `duration_s`, `prefixes`,
//!   `rtt_ms`, `inferred_timer_ms`, `sender_ratio`, `receiver_ratio`,
//!   `network_ratio`, `peer_as`, `capture_anomalies`,
//!   `delayed_ack_spurious`, and every factor by snake-case name
//!   (`bgp_sender_app`, `tcp_advertised_window`, …) with ops `= != <
//!   <= > >=`; string: `source`, `peer`, `verdict`, `kind`, `sender`,
//!   `receiver`, `quarantine_reason` with `= != ~` (`~` = contains);
//!   membership: `alert = <kind>`, `major = <group>`; boolean:
//!   `zero_ack_bug = true|false`.
//! * **Group keys** — `source`, `peer`, `peer_as`, `verdict`, `kind`,
//!   `major` (dominant group), `factor` (dominant factor), `bucket`
//!   (requires the `bucket` clause).
//! * **Aggregates** — `count` (default), `sum_duration_s`,
//!   `mean_duration_s`, `sum_prefixes`, `mean_rtt_ms`, `quarantined`,
//!   and `factor_s.<snake_name>` (time-weighted seconds the factor
//!   contributed: Σ ratio × duration).
//!
//! Without `group by` the query returns matching records as full
//! [`SessionRecord::to_json`] lines. Output is deterministic: group
//! rows sort by their key tuple (or the `order by` aggregate), records
//! by `(at, source, sender)`.
//!
//! Zone maps make time- and identity-selective queries cheap: a
//! segment whose `[min_at, max_at]` range misses the `at_s` bounds, or
//! whose source/verdict sets exclude an equality filter, is skipped
//! without touching its records ([`QueryStats::segments_pruned`]).

use std::collections::BTreeMap;
use std::time::Duration;

use tdat::json;
use tdat_timeset::Micros;

use crate::record::SessionRecord;
use crate::store::Snapshot;
use crate::StoreError;

/// Lowercases and underscores a factor display name
/// (`"BGP sender app"` → `bgp_sender_app`).
pub fn snake(name: &str) -> String {
    name.to_lowercase().replace(' ', "_")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    fn apply(self, a: f64, b: f64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum NumField {
    AtS,
    DurationS,
    Prefixes,
    RttMs,
    InferredTimerMs,
    SenderRatio,
    ReceiverRatio,
    NetworkRatio,
    PeerAs,
    CaptureAnomalies,
    DelayedAckSpurious,
    /// A factor delay ratio, by snake-case name.
    Factor(String),
}

impl NumField {
    fn parse(name: &str) -> Option<NumField> {
        Some(match name {
            "at_s" => NumField::AtS,
            "duration_s" => NumField::DurationS,
            "prefixes" => NumField::Prefixes,
            "rtt_ms" => NumField::RttMs,
            "inferred_timer_ms" => NumField::InferredTimerMs,
            "sender_ratio" => NumField::SenderRatio,
            "receiver_ratio" => NumField::ReceiverRatio,
            "network_ratio" => NumField::NetworkRatio,
            "peer_as" => NumField::PeerAs,
            "capture_anomalies" => NumField::CaptureAnomalies,
            "delayed_ack_spurious" => NumField::DelayedAckSpurious,
            other => {
                if tdat::Factor::ALL
                    .iter()
                    .any(|f| snake(&f.to_string()) == other)
                {
                    NumField::Factor(other.to_string())
                } else {
                    return None;
                }
            }
        })
    }

    fn value(&self, r: &SessionRecord) -> Option<f64> {
        Some(match self {
            NumField::AtS => r.at.as_secs_f64(),
            NumField::DurationS => r.report.duration_s,
            NumField::Prefixes => r.report.prefixes as f64,
            NumField::RttMs => r.report.rtt_ms?,
            NumField::InferredTimerMs => r.report.inferred_timer_ms?,
            NumField::SenderRatio => r.report.sender_ratio,
            NumField::ReceiverRatio => r.report.receiver_ratio,
            NumField::NetworkRatio => r.report.network_ratio,
            NumField::PeerAs => f64::from(r.peer_as?),
            NumField::CaptureAnomalies => r.report.capture_anomalies as f64,
            NumField::DelayedAckSpurious => r.report.delayed_ack_spurious as f64,
            NumField::Factor(name) => {
                let (_, ratio) = r.report.factors.iter().find(|(n, _)| snake(n) == *name)?;
                *ratio
            }
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StrField {
    Source,
    Peer,
    Verdict,
    Kind,
    Sender,
    Receiver,
    QuarantineReason,
}

impl StrField {
    fn parse(name: &str) -> Option<StrField> {
        Some(match name {
            "source" => StrField::Source,
            "peer" => StrField::Peer,
            "verdict" => StrField::Verdict,
            "kind" => StrField::Kind,
            "sender" => StrField::Sender,
            "receiver" => StrField::Receiver,
            "quarantine_reason" => StrField::QuarantineReason,
            _ => return None,
        })
    }

    fn value(self, r: &SessionRecord) -> Option<&str> {
        Some(match self {
            StrField::Source => &r.source,
            StrField::Peer => &r.peer,
            StrField::Verdict => &r.report.verdict,
            StrField::Kind => r.kind.as_str(),
            StrField::Sender => &r.report.sender,
            StrField::Receiver => &r.report.receiver,
            StrField::QuarantineReason => r.report.quarantine_reason.as_deref()?,
        })
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Filter {
    Num(NumField, CmpOp, f64),
    Str(StrField, CmpOp, String),
    Contains(StrField, String),
    HasAlert(String),
    HasMajor(String),
    ZeroAckBug(bool),
}

impl Filter {
    fn matches(&self, r: &SessionRecord) -> bool {
        match self {
            Filter::Num(field, op, value) => field.value(r).is_some_and(|v| op.apply(v, *value)),
            Filter::Str(field, op, value) => {
                let actual = field.value(r);
                match op {
                    CmpOp::Eq => actual == Some(value.as_str()),
                    CmpOp::Ne => actual != Some(value.as_str()),
                    _ => false,
                }
            }
            Filter::Contains(field, needle) => {
                field.value(r).is_some_and(|v| v.contains(needle.as_str()))
            }
            Filter::HasAlert(kind) => r.alerts.iter().any(|a| a == kind),
            Filter::HasMajor(group) => r.report.major_groups.iter().any(|g| g == group),
            Filter::ZeroAckBug(want) => r.report.zero_ack_bug == *want,
        }
    }
}

/// A group-by key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GroupKey {
    Source,
    Peer,
    PeerAs,
    Verdict,
    Kind,
    Major,
    Factor,
    Bucket,
}

impl GroupKey {
    fn parse(name: &str) -> Option<GroupKey> {
        Some(match name {
            "source" => GroupKey::Source,
            "peer" => GroupKey::Peer,
            "peer_as" => GroupKey::PeerAs,
            "verdict" => GroupKey::Verdict,
            "kind" => GroupKey::Kind,
            "major" => GroupKey::Major,
            "factor" => GroupKey::Factor,
            "bucket" => GroupKey::Bucket,
            _ => return None,
        })
    }

    const fn output_name(self) -> &'static str {
        match self {
            GroupKey::Source => "source",
            GroupKey::Peer => "peer",
            GroupKey::PeerAs => "peer_as",
            GroupKey::Verdict => "verdict",
            GroupKey::Kind => "kind",
            GroupKey::Major => "major",
            GroupKey::Factor => "factor",
            GroupKey::Bucket => "bucket_s",
        }
    }
}

/// One group key's value — ordered so rows sort deterministically.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum KeyValue {
    Null,
    Int(i64),
    Str(String),
}

impl KeyValue {
    fn render(&self, out: &mut String, name: &str, comma: bool) {
        match self {
            KeyValue::Null => json::push_raw_field(out, name, "null", comma),
            KeyValue::Int(v) => json::push_raw_field(out, name, v, comma),
            KeyValue::Str(s) => json::push_str_field(out, name, s, comma),
        }
    }
}

/// An aggregate.
#[derive(Debug, Clone, PartialEq)]
enum Agg {
    Count,
    SumDurationS,
    MeanDurationS,
    SumPrefixes,
    MeanRttMs,
    Quarantined,
    /// Time-weighted seconds attributed to a factor (snake name).
    FactorS(String),
}

impl Agg {
    fn parse(name: &str) -> Option<Agg> {
        if let Some(factor) = name.strip_prefix("factor_s.") {
            if tdat::Factor::ALL
                .iter()
                .any(|f| snake(&f.to_string()) == factor)
            {
                return Some(Agg::FactorS(factor.to_string()));
            }
            return None;
        }
        Some(match name {
            "count" => Agg::Count,
            "sum_duration_s" => Agg::SumDurationS,
            "mean_duration_s" => Agg::MeanDurationS,
            "sum_prefixes" => Agg::SumPrefixes,
            "mean_rtt_ms" => Agg::MeanRttMs,
            "quarantined" => Agg::Quarantined,
            _ => return None,
        })
    }

    fn output_name(&self) -> String {
        match self {
            Agg::Count => "count".to_string(),
            Agg::SumDurationS => "sum_duration_s".to_string(),
            Agg::MeanDurationS => "mean_duration_s".to_string(),
            Agg::SumPrefixes => "sum_prefixes".to_string(),
            Agg::MeanRttMs => "mean_rtt_ms".to_string(),
            Agg::Quarantined => "quarantined".to_string(),
            Agg::FactorS(f) => format!("factor_s.{f}"),
        }
    }
}

/// One aggregate's accumulator.
#[derive(Debug, Clone)]
enum Acc {
    Count(u64),
    Sum(f64),
    Mean { sum: f64, n: u64 },
}

impl Acc {
    fn new(agg: &Agg) -> Acc {
        match agg {
            Agg::Count | Agg::Quarantined => Acc::Count(0),
            Agg::SumDurationS | Agg::SumPrefixes | Agg::FactorS(_) => Acc::Sum(0.0),
            Agg::MeanDurationS | Agg::MeanRttMs => Acc::Mean { sum: 0.0, n: 0 },
        }
    }

    fn update(&mut self, agg: &Agg, r: &SessionRecord) {
        match (self, agg) {
            (Acc::Count(n), Agg::Count) => *n += 1,
            (Acc::Count(n), Agg::Quarantined) if r.report.verdict == "quarantined" => *n += 1,
            (Acc::Sum(s), Agg::SumDurationS) => *s += r.report.duration_s,
            (Acc::Sum(s), Agg::SumPrefixes) => *s += r.report.prefixes as f64,
            (Acc::Sum(s), Agg::FactorS(factor)) => {
                if let Some((_, ratio)) = r.report.factors.iter().find(|(n, _)| snake(n) == *factor)
                {
                    if ratio.is_finite() {
                        *s += ratio * r.report.duration_s;
                    }
                }
            }
            (Acc::Mean { sum, n }, Agg::MeanDurationS) => {
                *sum += r.report.duration_s;
                *n += 1;
            }
            (Acc::Mean { sum, n }, Agg::MeanRttMs) => {
                if let Some(rtt) = r.report.rtt_ms {
                    *sum += rtt;
                    *n += 1;
                }
            }
            // Accumulator shapes are created from the same agg list
            // they are updated with; other pairings cannot occur.
            _ => {}
        }
    }

    /// The aggregate's numeric value (used for `order by`).
    fn value(&self) -> f64 {
        match self {
            Acc::Count(n) => *n as f64,
            Acc::Sum(s) => *s,
            Acc::Mean { sum, n } => {
                if *n == 0 {
                    f64::NAN
                } else {
                    sum / *n as f64
                }
            }
        }
    }

    fn render(&self, out: &mut String, name: &str) {
        match self {
            Acc::Count(n) => json::push_raw_field(out, name, n, true),
            Acc::Sum(s) => json::push_num_field(out, name, *s, true),
            Acc::Mean { n: 0, .. } => json::push_raw_field(out, name, "null", true),
            Acc::Mean { sum, n } => json::push_num_field(out, name, sum / *n as f64, true),
        }
    }
}

/// How a query was answered: what the zone maps saved and what the
/// scan touched.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Segments whose records were scanned.
    pub segments_scanned: usize,
    /// Segments skipped entirely by their zone map.
    pub segments_pruned: usize,
    /// Records examined.
    pub records_scanned: usize,
    /// Records that passed every filter.
    pub records_matched: usize,
}

/// Query result: deterministic JSONL lines plus scan statistics.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// One JSON object per line: group rows or full records.
    pub lines: Vec<String>,
    /// Scan statistics.
    pub stats: QueryStats,
}

/// A parsed query. See the module docs for the language.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    filters: Vec<Filter>,
    group: Vec<GroupKey>,
    bucket: Option<Micros>,
    aggs: Vec<Agg>,
    order: Option<(String, bool)>,
    limit: Option<usize>,
}

/// A bucket width, `<N>` seconds, minutes, hours or days: refused, as
/// the CLIs refuse `--window` and `--interval`, when it is not a finite
/// positive number of seconds ([`Duration::try_from_secs_f64`]), or
/// rounds to no microsecond or to more than trace time holds.
fn parse_duration(token: &str) -> Option<Micros> {
    let (num, mult) = match token.as_bytes().last()? {
        b's' => (&token[..token.len() - 1], 1.0),
        b'm' => (&token[..token.len() - 1], 60.0),
        b'h' => (&token[..token.len() - 1], 3_600.0),
        b'd' => (&token[..token.len() - 1], 86_400.0),
        _ => return None,
    };
    let n: f64 = num.parse().ok()?;
    let width = Duration::try_from_secs_f64(n * mult).ok()?;
    let micros = i64::try_from((width.as_nanos() + 500) / 1_000).ok()?;
    (micros > 0).then_some(Micros(micros))
}

impl Query {
    /// Parses the query language.
    ///
    /// # Errors
    ///
    /// [`StoreError::Query`] with a message naming the offending
    /// token.
    pub fn parse(text: &str) -> Result<Query, StoreError> {
        let err = |detail: String| Err(StoreError::Query(detail));
        let tokens: Vec<&str> = text.split_whitespace().collect();
        let mut query = Query {
            filters: Vec::new(),
            group: Vec::new(),
            bucket: None,
            aggs: Vec::new(),
            order: None,
            limit: None,
        };
        let mut i = 0usize;
        let take = |i: &mut usize, what: &str| -> Result<&str, StoreError> {
            let token = tokens
                .get(*i)
                .ok_or_else(|| StoreError::Query(format!("expected {what} at end of query")))?;
            *i += 1;
            Ok(token)
        };
        while i < tokens.len() {
            match tokens[i] {
                "where" | "and" => {
                    i += 1;
                    let field = take(&mut i, "a filter field")?.to_string();
                    let op = take(&mut i, "an operator")?.to_string();
                    let value = take(&mut i, "a value")?.to_string();
                    query.filters.push(Query::filter(&field, &op, &value)?);
                }
                "group" => {
                    i += 1;
                    if take(&mut i, "`by`")? != "by" {
                        return err("`group` must be followed by `by`".to_string());
                    }
                    // Keys are comma-separated; commas may carry
                    // spaces. The first token is always a key (it may
                    // collide with a clause keyword, e.g. `bucket`).
                    let mut keys = take(&mut i, "a group key")?.to_string();
                    while i < tokens.len() && (keys.ends_with(',') || tokens[i].starts_with(',')) {
                        keys.push_str(tokens[i]);
                        i += 1;
                    }
                    for key in keys.split(',').filter(|k| !k.is_empty()) {
                        query.group.push(GroupKey::parse(key).ok_or_else(|| {
                            StoreError::Query(format!("unknown group key {key:?}"))
                        })?);
                    }
                    if query.group.is_empty() {
                        return err("`group by` needs at least one key".to_string());
                    }
                }
                "bucket" => {
                    i += 1;
                    let token = take(&mut i, "a bucket width like 1h")?;
                    query.bucket = Some(parse_duration(token).ok_or_else(|| {
                        StoreError::Query(format!(
                            "bad bucket width {token:?} (want <N>s|m|h|d, at least 1 µs \
                             and at most {} s)",
                            i64::MAX / 1_000_000
                        ))
                    })?);
                }
                "agg" => {
                    i += 1;
                    let mut names = take(&mut i, "an aggregate")?.to_string();
                    while i < tokens.len() && (names.ends_with(',') || tokens[i].starts_with(',')) {
                        names.push_str(tokens[i]);
                        i += 1;
                    }
                    for name in names.split(',').filter(|n| !n.is_empty()) {
                        query.aggs.push(Agg::parse(name).ok_or_else(|| {
                            StoreError::Query(format!("unknown aggregate {name:?}"))
                        })?);
                    }
                }
                "order" => {
                    i += 1;
                    if take(&mut i, "`by`")? != "by" {
                        return err("`order` must be followed by `by`".to_string());
                    }
                    let field = take(&mut i, "an order field")?.to_string();
                    let descending = match tokens.get(i) {
                        Some(&"desc") => {
                            i += 1;
                            true
                        }
                        Some(&"asc") => {
                            i += 1;
                            false
                        }
                        _ => false,
                    };
                    query.order = Some((field, descending));
                }
                "limit" => {
                    i += 1;
                    let token = take(&mut i, "a limit")?;
                    query.limit = Some(
                        token
                            .parse()
                            .map_err(|_| StoreError::Query(format!("bad limit {token:?}")))?,
                    );
                }
                other => return err(format!("unexpected token {other:?}")),
            }
        }
        if query.group.contains(&GroupKey::Bucket) && query.bucket.is_none() {
            return err("`group by bucket` needs a `bucket <width>` clause".to_string());
        }
        if query.bucket.is_some() && !query.group.contains(&GroupKey::Bucket) {
            return err("`bucket` clause without `group by bucket`".to_string());
        }
        if query.aggs.is_empty() {
            query.aggs.push(Agg::Count);
        }
        if !query.group.is_empty() {
            if let Some((field, _)) = &query.order {
                let known = query.aggs.iter().any(|a| a.output_name() == *field);
                if !known {
                    return err(format!(
                        "order field {field:?} is not one of the query's aggregates"
                    ));
                }
            }
        } else if let Some((field, _)) = &query.order {
            if NumField::parse(field).is_none() {
                return err(format!(
                    "order field {field:?} is not a numeric record field"
                ));
            }
        }
        Ok(query)
    }

    fn filter(field: &str, op: &str, value: &str) -> Result<Filter, StoreError> {
        let cmp = match op {
            "=" => CmpOp::Eq,
            "!=" => CmpOp::Ne,
            "<" => CmpOp::Lt,
            "<=" => CmpOp::Le,
            ">" => CmpOp::Gt,
            ">=" => CmpOp::Ge,
            "~" => {
                let f = StrField::parse(field).ok_or_else(|| {
                    StoreError::Query(format!("`~` needs a string field, got {field:?}"))
                })?;
                return Ok(Filter::Contains(f, value.to_string()));
            }
            other => return Err(StoreError::Query(format!("unknown operator {other:?}"))),
        };
        if field == "alert" {
            if cmp != CmpOp::Eq {
                return Err(StoreError::Query("`alert` only supports `=`".to_string()));
            }
            return Ok(Filter::HasAlert(value.to_string()));
        }
        if field == "major" {
            if cmp != CmpOp::Eq {
                return Err(StoreError::Query("`major` only supports `=`".to_string()));
            }
            return Ok(Filter::HasMajor(value.to_string()));
        }
        if field == "zero_ack_bug" {
            let want = match value {
                "true" => true,
                "false" => false,
                _ => {
                    return Err(StoreError::Query(
                        "`zero_ack_bug` compares against true/false".to_string(),
                    ))
                }
            };
            return Ok(Filter::ZeroAckBug(want));
        }
        if let Some(f) = StrField::parse(field) {
            if !matches!(cmp, CmpOp::Eq | CmpOp::Ne) {
                return Err(StoreError::Query(format!(
                    "string field {field:?} supports only `=`, `!=`, `~`"
                )));
            }
            return Ok(Filter::Str(f, cmp, value.to_string()));
        }
        if let Some(f) = NumField::parse(field) {
            let v: f64 = value
                .parse()
                .map_err(|_| StoreError::Query(format!("bad number {value:?}")))?;
            return Ok(Filter::Num(f, cmp, v));
        }
        Err(StoreError::Query(format!("unknown field {field:?}")))
    }

    /// Can `segment` contain any match, judging only by its zone map?
    fn segment_may_match(&self, meta: &crate::segment::SegmentMeta) -> bool {
        for filter in &self.filters {
            match filter {
                Filter::Num(NumField::AtS, op, value) => {
                    let (min, max) = (meta.min_at.as_secs_f64(), meta.max_at.as_secs_f64());
                    let possible = match op {
                        CmpOp::Eq => *value >= min && *value <= max,
                        CmpOp::Lt => min < *value,
                        CmpOp::Le => min <= *value,
                        CmpOp::Gt => max > *value,
                        CmpOp::Ge => max >= *value,
                        CmpOp::Ne => true,
                    };
                    if !possible {
                        return false;
                    }
                }
                Filter::Str(StrField::Source, CmpOp::Eq, value)
                    if meta.sources.binary_search(value).is_err() =>
                {
                    return false;
                }
                Filter::Str(StrField::Verdict, CmpOp::Eq, value)
                    if meta.verdicts.binary_search(value).is_err() =>
                {
                    return false;
                }
                _ => {}
            }
        }
        true
    }

    fn key_value(&self, key: GroupKey, r: &SessionRecord) -> KeyValue {
        match key {
            GroupKey::Source => KeyValue::Str(r.source.clone()),
            GroupKey::Peer => KeyValue::Str(r.peer.clone()),
            GroupKey::PeerAs => match r.peer_as {
                Some(asn) => KeyValue::Int(i64::from(asn)),
                None => KeyValue::Null,
            },
            GroupKey::Verdict => KeyValue::Str(r.report.verdict.to_string()),
            GroupKey::Kind => KeyValue::Str(r.kind.as_str().to_string()),
            GroupKey::Major => KeyValue::Str(r.dominant_group().to_string()),
            GroupKey::Factor => match r.dominant_factor() {
                Some(f) => KeyValue::Str(snake(f)),
                None => KeyValue::Null,
            },
            GroupKey::Bucket => {
                let width = self.bucket.unwrap_or(Micros::from_secs(3600)).as_micros();
                KeyValue::Int(r.at.as_micros().div_euclid(width) * width / 1_000_000)
            }
        }
    }

    /// Runs the query over one snapshot.
    pub fn run(&self, snapshot: &Snapshot) -> QueryOutput {
        let mut stats = QueryStats::default();
        let mut matched: Vec<&SessionRecord> = Vec::new();
        let mut groups: BTreeMap<Vec<KeyValue>, Vec<Acc>> = BTreeMap::new();
        for segment in &snapshot.segments {
            if !self.segment_may_match(&segment.meta) {
                stats.segments_pruned += 1;
                continue;
            }
            stats.segments_scanned += 1;
            for record in &segment.records {
                stats.records_scanned += 1;
                if !self.filters.iter().all(|f| f.matches(record)) {
                    continue;
                }
                stats.records_matched += 1;
                if self.group.is_empty() {
                    matched.push(record);
                } else {
                    let key: Vec<KeyValue> = self
                        .group
                        .iter()
                        .map(|k| self.key_value(*k, record))
                        .collect();
                    let accs = groups
                        .entry(key)
                        .or_insert_with(|| self.aggs.iter().map(Acc::new).collect());
                    for (acc, agg) in accs.iter_mut().zip(&self.aggs) {
                        acc.update(agg, record);
                    }
                }
            }
        }

        let lines = if self.group.is_empty() {
            self.render_records(matched)
        } else {
            self.render_groups(groups)
        };
        QueryOutput { lines, stats }
    }

    fn render_records(&self, mut matched: Vec<&SessionRecord>) -> Vec<String> {
        match &self.order {
            Some((field, descending)) => {
                // Parse() guaranteed the field is numeric.
                if let Some(f) = NumField::parse(field) {
                    matched.sort_by(|a, b| {
                        let av = f.value(a).unwrap_or(f64::NEG_INFINITY);
                        let bv = f.value(b).unwrap_or(f64::NEG_INFINITY);
                        let ord = av.total_cmp(&bv);
                        if *descending {
                            ord.reverse()
                        } else {
                            ord
                        }
                    });
                }
            }
            None => matched.sort_by(|a, b| {
                a.at.cmp(&b.at)
                    .then_with(|| a.source.cmp(&b.source))
                    .then_with(|| a.report.sender.cmp(&b.report.sender))
            }),
        }
        if let Some(limit) = self.limit {
            matched.truncate(limit);
        }
        matched.iter().map(|r| r.to_json()).collect()
    }

    fn render_groups(&self, groups: BTreeMap<Vec<KeyValue>, Vec<Acc>>) -> Vec<String> {
        let mut rows: Vec<(Vec<KeyValue>, Vec<Acc>)> = groups.into_iter().collect();
        if let Some((field, descending)) = &self.order {
            if let Some(idx) = self.aggs.iter().position(|a| a.output_name() == *field) {
                rows.sort_by(|a, b| {
                    let ord = a.1[idx].value().total_cmp(&b.1[idx].value());
                    // Ties keep key order (stable sort over the BTree
                    // ordering), so output stays deterministic.
                    if *descending {
                        ord.reverse()
                    } else {
                        ord
                    }
                });
            }
        }
        if let Some(limit) = self.limit {
            rows.truncate(limit);
        }
        rows.into_iter()
            .map(|(key, accs)| {
                let mut line = String::with_capacity(128);
                line.push('{');
                for (i, (value, group_key)) in key.iter().zip(&self.group).enumerate() {
                    value.render(&mut line, group_key.output_name(), i > 0);
                }
                for (acc, agg) in accs.iter().zip(&self.aggs) {
                    acc.render(&mut line, &agg.output_name());
                }
                line.push('}');
                line
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::Segment;
    use crate::synth::synth_records;
    use std::sync::Arc;

    fn snapshot_of(records: Vec<SessionRecord>, per_segment: usize) -> Snapshot {
        let segments = records
            .chunks(per_segment)
            .map(|c| Arc::new(Segment::seal(c.to_vec())))
            .collect::<Vec<_>>();
        Snapshot {
            generation: segments.len() as u64,
            segments,
        }
    }

    #[test]
    fn default_query_returns_all_records_sorted() {
        let snap = snapshot_of(synth_records(50, 4), 20);
        let query = Query::parse("").unwrap();
        let out = query.run(&snap);
        assert_eq!(out.lines.len(), 50);
        assert_eq!(out.stats.records_matched, 50);
        let ats: Vec<f64> = out
            .lines
            .iter()
            .map(|l| {
                tdat::json::parse(l)
                    .unwrap()
                    .get("at_s")
                    .unwrap()
                    .as_f64()
                    .unwrap()
            })
            .collect();
        assert!(ats.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn filters_compose_with_and() {
        let records = synth_records(400, 8);
        let expected = records
            .iter()
            .filter(|r| r.report.verdict == "degraded" && r.report.duration_s > 100.0)
            .count();
        assert!(expected > 0, "synth corpus should cover this filter");
        let snap = snapshot_of(records, 100);
        let query = Query::parse("where verdict = degraded and duration_s > 100").unwrap();
        let out = query.run(&snap);
        assert_eq!(out.lines.len(), expected);
    }

    #[test]
    fn group_by_peer_counts_match_manual_rollup() {
        let records = synth_records(300, 5);
        let mut manual: std::collections::HashMap<&str, u64> = Default::default();
        for r in &records {
            *manual.entry(r.peer.as_str()).or_default() += 1;
        }
        let snap = snapshot_of(records.clone(), 77);
        let out = Query::parse("group by peer agg count").unwrap().run(&snap);
        assert_eq!(out.lines.len(), manual.len());
        for line in &out.lines {
            let v = tdat::json::parse(line).unwrap();
            let peer = v.get("peer").unwrap().as_str().unwrap().to_string();
            let count = v.get("count").unwrap().as_u64().unwrap();
            assert_eq!(count, manual[peer.as_str()], "{peer}");
        }
        // Deterministic: same query twice, same bytes.
        let again = Query::parse("group by peer agg count").unwrap().run(&snap);
        assert_eq!(out.lines, again.lines);
    }

    #[test]
    fn bucket_rollup_floors_to_the_bucket_start() {
        let records = synth_records(200, 6);
        let snap = snapshot_of(records.clone(), 50);
        let out = Query::parse("group by bucket bucket 1h agg count,sum_duration_s")
            .unwrap()
            .run(&snap);
        let mut total = 0u64;
        for line in &out.lines {
            let v = tdat::json::parse(line).unwrap();
            let bucket = v.get("bucket_s").unwrap().as_f64().unwrap();
            assert_eq!(bucket % 3600.0, 0.0, "{line}");
            total += v.get("count").unwrap().as_u64().unwrap();
        }
        assert_eq!(total as usize, records.len());
    }

    #[test]
    fn zone_maps_prune_time_disjoint_segments() {
        let records = synth_records(1000, 10);
        // Query far beyond the corpus: everything prunes.
        let snap = snapshot_of(records.clone(), 100);
        let last_at = records.last().unwrap().at.as_secs_f64();
        let out = Query::parse(&format!("where at_s > {}", last_at + 10.0))
            .unwrap()
            .run(&snap);
        assert!(out.lines.is_empty());
        assert_eq!(out.stats.segments_pruned, 10);
        assert_eq!(out.stats.records_scanned, 0);
        // A narrow window scans only the segments covering it.
        let mid = records[500].at.as_secs_f64();
        let out = Query::parse(&format!("where at_s >= {mid} and at_s <= {}", mid + 1.0))
            .unwrap()
            .run(&snap);
        assert!(out.stats.segments_pruned >= 8, "{:?}", out.stats);
    }

    #[test]
    fn source_equality_prunes_via_zone_map() {
        let mut records = synth_records(100, 3);
        for r in &mut records[..50] {
            r.source = "only-a".to_string();
        }
        for r in &mut records[50..] {
            r.source = "only-b".to_string();
        }
        let snap = snapshot_of(records, 50);
        let out = Query::parse("where source = only-a").unwrap().run(&snap);
        assert_eq!(out.stats.segments_pruned, 1);
        assert_eq!(out.lines.len(), 50);
    }

    #[test]
    fn factor_rollup_weights_by_duration() {
        let records = synth_records(100, 12);
        let expect: f64 = records
            .iter()
            .filter_map(|r| {
                r.report
                    .factors
                    .iter()
                    .find(|(n, _)| snake(n) == "bgp_sender_app")
                    .map(|(_, ratio)| ratio * r.report.duration_s)
            })
            .sum();
        let snap = snapshot_of(records, 100);
        let out = Query::parse("group by kind agg factor_s.bgp_sender_app")
            .unwrap()
            .run(&snap);
        assert_eq!(out.lines.len(), 1);
        let v = tdat::json::parse(&out.lines[0]).unwrap();
        let got = v.get("factor_s.bgp_sender_app").unwrap().as_f64().unwrap();
        assert!((got - expect).abs() < 1e-3, "got {got}, want {expect}");
    }

    #[test]
    fn order_by_and_limit_select_the_top_groups() {
        let snap = snapshot_of(synth_records(500, 2), 100);
        let out = Query::parse("group by peer agg count order by count desc limit 3")
            .unwrap()
            .run(&snap);
        assert_eq!(out.lines.len(), 3);
        let counts: Vec<u64> = out
            .lines
            .iter()
            .map(|l| {
                tdat::json::parse(l)
                    .unwrap()
                    .get("count")
                    .unwrap()
                    .as_u64()
                    .unwrap()
            })
            .collect();
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
    }

    #[test]
    fn alert_membership_and_contains_filters() {
        let records = synth_records(400, 17);
        let with_alert = records
            .iter()
            .filter(|r| r.alerts.iter().any(|a| a == "stalled_transfer"))
            .count();
        assert!(with_alert > 0);
        let snap = snapshot_of(records, 400);
        let out = Query::parse("where alert = stalled_transfer")
            .unwrap()
            .run(&snap);
        assert_eq!(out.lines.len(), with_alert);
        let out = Query::parse("where peer ~ 10.1.").unwrap().run(&snap);
        assert!(out
            .lines
            .iter()
            .all(|l| l.contains(r#""peer":"10.1."#) || l.contains("\"10.1.")));
    }

    #[test]
    fn parse_errors_name_the_problem() {
        for (text, needle) in [
            ("where nosuch = 1", "unknown field"),
            ("where verdict < clean", "supports only"),
            ("group by nothing", "unknown group key"),
            ("group by bucket", "bucket <width>"),
            ("bucket 1h", "without `group by bucket`"),
            ("agg bogus", "unknown aggregate"),
            ("order by count", "not a numeric record field"),
            ("limit many", "bad limit"),
            ("sideways", "unexpected token"),
        ] {
            let err = Query::parse(text).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{text:?} → {err} (want {needle:?})"
            );
        }
        // order by count is fine when grouping.
        assert!(Query::parse("group by peer order by count desc").is_ok());
    }

    /// A bucket width no span of trace time holds is a parse error, not
    /// a division by zero (`1e-9s` rounds to no microsecond) or a
    /// saturated width (`1e300d`); the widths either side of the limits
    /// parse, rounded to the microsecond.
    #[test]
    fn a_bucket_width_no_trace_time_holds_is_refused() {
        for width in [
            "1e-9s", "4e-7s", "1e300d", "1e14d", "0s", "-1h", "nans", "infm",
        ] {
            let err = Query::parse(&format!("group by bucket bucket {width} agg count"))
                .expect_err(width);
            assert!(
                err.to_string().contains("bad bucket width"),
                "{width}: {err}"
            );
        }
        for (width, micros) in [
            ("5e-7s", 1),
            ("1h", 3_600_000_000),
            ("1e8d", 8_640_000_000_000_000_000),
        ] {
            let query = Query::parse(&format!("group by bucket bucket {width}")).expect(width);
            assert_eq!(query.bucket, Some(Micros(micros)), "{width}");
        }
    }
}
