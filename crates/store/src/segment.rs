//! Immutable columnar block files.
//!
//! A segment is one sealed batch of [`SessionRecord`]s, laid out as
//! column groups rather than rows so rollup queries touch only the
//! bytes they need and the repetitive columns compress:
//!
//! * all strings (sources, endpoints, peers, verdicts, factor names,
//!   alert kinds, …) go through one per-segment **dictionary**, so a
//!   thousand sessions from the same collector cost one copy of its
//!   name;
//! * time columns (`at`, session spans) use the delta/zigzag varint
//!   codec from [`tdat_timeset::colenc`];
//! * `f64` columns are stored as **raw little-endian bits**, so
//!   reports round trip bit-exactly (including NaN ratios from `null`
//!   factors);
//! * the file ends in an FNV-1a checksum; a torn or bit-flipped file
//!   decodes to a typed [`StoreError::Corrupt`], never a panic.
//!
//! Every segment carries a [`SegmentMeta`] zone map — record count,
//! min/max finalization time, and the source/verdict value sets — that
//! the query engine uses to skip segments without decoding them.

use std::borrow::Cow;

use tdat::Report;
use tdat_timeset::colenc::{
    decode_micros_column, decode_span_column, encode_micros_column, encode_span_column,
    push_varint, read_varint,
};
use tdat_timeset::Micros;

use crate::record::{RecordKind, SessionRecord};
use crate::StoreError;

/// File magic: "TDS" + format version 1.
pub const MAGIC: [u8; 4] = *b"TDS1";

/// Zone map and shape of one segment, used for query pruning without
/// touching the column data.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentMeta {
    /// Records in the segment.
    pub records: usize,
    /// Earliest finalization instant.
    pub min_at: Micros,
    /// Latest finalization instant.
    pub max_at: Micros,
    /// Distinct sources present, sorted.
    pub sources: Vec<String>,
    /// Distinct verdicts present, sorted.
    pub verdicts: Vec<String>,
}

impl SegmentMeta {
    /// Computes the zone map of a record batch. Empty batches get an
    /// empty `[0, 0]` time range.
    pub fn of(records: &[SessionRecord]) -> SegmentMeta {
        let mut min_at = Micros(i64::MAX);
        let mut max_at = Micros(i64::MIN);
        let mut sources: Vec<String> = Vec::new();
        let mut verdicts: Vec<String> = Vec::new();
        for r in records {
            min_at = min_at.min(r.at);
            max_at = max_at.max(r.at);
            if !sources.contains(&r.source) {
                sources.push(r.source.clone());
            }
            if !verdicts.iter().any(|v| *v == r.report.verdict) {
                verdicts.push(r.report.verdict.to_string());
            }
        }
        if records.is_empty() {
            min_at = Micros::ZERO;
            max_at = Micros::ZERO;
        }
        sources.sort_unstable();
        verdicts.sort_unstable();
        SegmentMeta {
            records: records.len(),
            min_at,
            max_at,
            sources,
            verdicts,
        }
    }
}

/// One sealed, immutable batch of records plus its zone map.
#[derive(Debug, Clone)]
pub struct Segment {
    /// The decoded records, in sealed order.
    pub records: Vec<SessionRecord>,
    /// The zone map.
    pub meta: SegmentMeta,
}

impl Segment {
    /// Seals a record batch into a segment (computing its zone map).
    pub fn seal(records: Vec<SessionRecord>) -> Segment {
        let meta = SegmentMeta::of(&records);
        Segment { records, meta }
    }
}

/// Interns strings into the segment dictionary.
#[derive(Default)]
struct Dict {
    strings: Vec<String>,
    index: std::collections::HashMap<String, u64>,
}

impl Dict {
    fn intern(&mut self, s: &str) -> u64 {
        if let Some(&i) = self.index.get(s) {
            return i;
        }
        let i = self.strings.len() as u64;
        self.strings.push(s.to_string());
        self.index.insert(s.to_string(), i);
        i
    }
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn push_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(v) => {
            out.push(1);
            push_f64(out, v);
        }
        None => out.push(0),
    }
}

/// FNV-1a 64 over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1_0000_0000_01b3);
    }
    hash
}

/// Encodes a record batch into the segment wire format.
pub fn encode_segment(records: &[SessionRecord]) -> Vec<u8> {
    let mut dict = Dict::default();
    // Intern in a deterministic first-use order while collecting the
    // per-record indices.
    struct Row {
        source: u64,
        sender: u64,
        receiver: u64,
        peer: u64,
        verdict: u64,
        reason: Option<u64>,
        alerts: Vec<u64>,
        factors: Vec<(u64, f64)>,
        majors: Vec<u64>,
    }
    let rows: Vec<Row> = records
        .iter()
        .map(|r| Row {
            source: dict.intern(&r.source),
            sender: dict.intern(&r.report.sender),
            receiver: dict.intern(&r.report.receiver),
            peer: dict.intern(&r.peer),
            verdict: dict.intern(&r.report.verdict),
            reason: r
                .report
                .quarantine_reason
                .as_deref()
                .map(|s| dict.intern(s)),
            alerts: r.alerts.iter().map(|a| dict.intern(a)).collect(),
            factors: r
                .report
                .factors
                .iter()
                .map(|(name, ratio)| (dict.intern(name), *ratio))
                .collect(),
            majors: r
                .report
                .major_groups
                .iter()
                .map(|g| dict.intern(g))
                .collect(),
        })
        .collect();

    let mut out = Vec::with_capacity(64 + records.len() * 96);
    out.extend_from_slice(&MAGIC);
    push_varint(&mut out, records.len() as u64);
    push_varint(&mut out, dict.strings.len() as u64);
    for s in &dict.strings {
        push_varint(&mut out, s.len() as u64);
        out.extend_from_slice(s.as_bytes());
    }

    // Column groups, fixed order.
    for row in &rows {
        push_varint(&mut out, row.source);
    }
    for r in records {
        out.push(r.kind.code());
    }
    let ats: Vec<Micros> = records.iter().map(|r| r.at).collect();
    encode_micros_column(&mut out, &ats);
    let spans: Vec<_> = records.iter().map(|r| r.span).collect();
    encode_span_column(&mut out, &spans);
    for row in &rows {
        push_varint(&mut out, row.sender);
    }
    for row in &rows {
        push_varint(&mut out, row.receiver);
    }
    for row in &rows {
        push_varint(&mut out, row.peer);
    }
    for row in &rows {
        push_varint(&mut out, row.verdict);
    }
    for r in records {
        push_varint(&mut out, r.peer_as.map(|a| u64::from(a) + 1).unwrap_or(0));
    }
    for row in &rows {
        push_varint(&mut out, row.alerts.len() as u64);
        for &a in &row.alerts {
            push_varint(&mut out, a);
        }
    }
    for r in records {
        push_f64(&mut out, r.report.duration_s);
        push_f64(&mut out, r.report.sender_ratio);
        push_f64(&mut out, r.report.receiver_ratio);
        push_f64(&mut out, r.report.network_ratio);
    }
    for r in records {
        push_opt_f64(&mut out, r.report.rtt_ms);
        push_opt_f64(&mut out, r.report.inferred_timer_ms);
    }
    for r in records {
        push_varint(&mut out, r.report.prefixes as u64);
        push_varint(&mut out, r.report.delayed_ack_spurious as u64);
        push_varint(&mut out, r.report.capture_anomalies);
    }
    for r in records {
        out.push(u8::from(r.report.zero_ack_bug));
    }
    for row in &rows {
        push_varint(&mut out, row.reason.map(|i| i + 1).unwrap_or(0));
    }
    for row in &rows {
        push_varint(&mut out, row.factors.len() as u64);
        for &(name, ratio) in &row.factors {
            push_varint(&mut out, name);
            push_f64(&mut out, ratio);
        }
    }
    for row in &rows {
        push_varint(&mut out, row.majors.len() as u64);
        for &g in &row.majors {
            push_varint(&mut out, g);
        }
    }
    for r in records {
        push_varint(&mut out, r.report.loss_episodes.len() as u64);
        for &(n, secs) in &r.report.loss_episodes {
            push_varint(&mut out, n as u64);
            push_f64(&mut out, secs);
        }
    }

    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
    file: &'a str,
}

impl<'a> Reader<'a> {
    fn corrupt(&self, detail: impl Into<String>) -> StoreError {
        StoreError::Corrupt {
            file: self.file.to_string(),
            detail: format!("{} (at byte {})", detail.into(), self.at),
        }
    }

    fn varint(&mut self) -> Result<u64, StoreError> {
        read_varint(self.bytes, &mut self.at).ok_or_else(|| self.corrupt("truncated varint"))
    }

    fn len(&mut self, what: &str, limit: usize) -> Result<usize, StoreError> {
        let n = self.varint()?;
        if n > limit as u64 {
            return Err(self.corrupt(format!("implausible {what} length {n}")));
        }
        Ok(n as usize)
    }

    fn byte(&mut self) -> Result<u8, StoreError> {
        let b = *self
            .bytes
            .get(self.at)
            .ok_or_else(|| self.corrupt("truncated byte"))?;
        self.at += 1;
        Ok(b)
    }

    fn f64(&mut self) -> Result<f64, StoreError> {
        let end = self
            .at
            .checked_add(8)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| self.corrupt("truncated f64"))?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.bytes[self.at..end]);
        self.at = end;
        Ok(f64::from_bits(u64::from_le_bytes(raw)))
    }

    fn opt_f64(&mut self) -> Result<Option<f64>, StoreError> {
        match self.byte()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            other => Err(self.corrupt(format!("invalid option tag {other}"))),
        }
    }
}

/// Decodes a segment file's bytes, verifying the checksum.
///
/// # Errors
///
/// Any structural damage — bad magic, checksum mismatch, truncation,
/// out-of-range dictionary references — is a [`StoreError::Corrupt`]
/// naming `file`.
pub fn decode_segment(bytes: &[u8], file: &str) -> Result<Segment, StoreError> {
    let corrupt = |detail: &str| StoreError::Corrupt {
        file: file.to_string(),
        detail: detail.to_string(),
    };
    if bytes.len() < MAGIC.len() + 8 {
        return Err(corrupt("file shorter than header + checksum"));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let mut expect = [0u8; 8];
    expect.copy_from_slice(tail);
    if fnv1a(body) != u64::from_le_bytes(expect) {
        return Err(corrupt("checksum mismatch"));
    }
    if body[..MAGIC.len()] != MAGIC {
        return Err(corrupt("bad magic"));
    }

    let mut r = Reader {
        bytes: body,
        at: MAGIC.len(),
        file,
    };
    let count = r.len("record count", 1 << 28)?;
    let dict_len = r.len("dictionary", 1 << 24)?;
    let mut dict: Vec<String> = Vec::with_capacity(dict_len);
    for _ in 0..dict_len {
        let len = r.len("dictionary string", 1 << 20)?;
        let end =
            r.at.checked_add(len)
                .filter(|&e| e <= r.bytes.len())
                .ok_or_else(|| r.corrupt("truncated dictionary string"))?;
        let s = std::str::from_utf8(&r.bytes[r.at..end])
            .map_err(|_| r.corrupt("dictionary string is not UTF-8"))?;
        dict.push(s.to_string());
        r.at = end;
    }
    let lookup = |r: &Reader, i: u64| -> Result<String, StoreError> {
        dict.get(i as usize)
            .cloned()
            .ok_or_else(|| r.corrupt(format!("dictionary index {i} out of range")))
    };

    let mut sources = Vec::with_capacity(count);
    for _ in 0..count {
        let i = r.varint()?;
        sources.push(lookup(&r, i)?);
    }
    let mut kinds = Vec::with_capacity(count);
    for _ in 0..count {
        let code = r.byte()?;
        kinds.push(
            RecordKind::from_code(code)
                .ok_or_else(|| r.corrupt(format!("invalid record kind {code}")))?,
        );
    }
    let ats = decode_micros_column(r.bytes, &mut r.at, count)
        .ok_or_else(|| r.corrupt("truncated at column"))?;
    let spans = decode_span_column(r.bytes, &mut r.at, count)
        .ok_or_else(|| r.corrupt("truncated span column"))?;
    let column = |r: &mut Reader| -> Result<Vec<String>, StoreError> {
        let mut v = Vec::with_capacity(count);
        for _ in 0..count {
            let i = r.varint()?;
            v.push(lookup(r, i)?);
        }
        Ok(v)
    };
    let senders = column(&mut r)?;
    let receivers = column(&mut r)?;
    let peers = column(&mut r)?;
    let verdicts = column(&mut r)?;
    let mut peer_as = Vec::with_capacity(count);
    for _ in 0..count {
        let v = r.varint()?;
        peer_as.push(if v == 0 {
            None
        } else {
            Some(u32::try_from(v - 1).map_err(|_| r.corrupt(format!("peer AS {v} out of range")))?)
        });
    }
    let mut alerts: Vec<Vec<String>> = Vec::with_capacity(count);
    for _ in 0..count {
        let n = r.len("alert list", 1 << 16)?;
        let mut list = Vec::with_capacity(n);
        for _ in 0..n {
            let i = r.varint()?;
            list.push(lookup(&r, i)?);
        }
        alerts.push(list);
    }
    let mut ratios = Vec::with_capacity(count);
    for _ in 0..count {
        ratios.push((r.f64()?, r.f64()?, r.f64()?, r.f64()?));
    }
    let mut opt_nums = Vec::with_capacity(count);
    for _ in 0..count {
        opt_nums.push((r.opt_f64()?, r.opt_f64()?));
    }
    let mut counts = Vec::with_capacity(count);
    for _ in 0..count {
        let prefixes = r.varint()?;
        let spurious = r.varint()?;
        let anomalies = r.varint()?;
        counts.push((
            usize::try_from(prefixes).map_err(|_| r.corrupt("prefixes out of range"))?,
            usize::try_from(spurious).map_err(|_| r.corrupt("spurious out of range"))?,
            anomalies,
        ));
    }
    let mut zero_ack = Vec::with_capacity(count);
    for _ in 0..count {
        zero_ack.push(match r.byte()? {
            0 => false,
            1 => true,
            other => return Err(r.corrupt(format!("invalid bool {other}"))),
        });
    }
    let mut reasons = Vec::with_capacity(count);
    for _ in 0..count {
        let v = r.varint()?;
        reasons.push(if v == 0 {
            None
        } else {
            Some(lookup(&r, v - 1)?.into())
        });
    }
    let mut factors: Vec<Vec<(Cow<'static, str>, f64)>> = Vec::with_capacity(count);
    for _ in 0..count {
        let n = r.len("factor list", 1 << 8)?;
        let mut list = Vec::with_capacity(n);
        for _ in 0..n {
            let i = r.varint()?;
            let name = lookup(&r, i)?;
            list.push((name.into(), r.f64()?));
        }
        factors.push(list);
    }
    let mut majors: Vec<Vec<Cow<'static, str>>> = Vec::with_capacity(count);
    for _ in 0..count {
        let n = r.len("major-group list", 1 << 8)?;
        let mut list = Vec::with_capacity(n);
        for _ in 0..n {
            let i = r.varint()?;
            list.push(lookup(&r, i)?.into());
        }
        majors.push(list);
    }
    let mut losses: Vec<Vec<(usize, f64)>> = Vec::with_capacity(count);
    for _ in 0..count {
        let n = r.len("loss-episode list", 1 << 20)?;
        let mut list = Vec::with_capacity(n);
        for _ in 0..n {
            let retrans = r.varint()?;
            let retrans =
                usize::try_from(retrans).map_err(|_| r.corrupt("retransmissions out of range"))?;
            list.push((retrans, r.f64()?));
        }
        losses.push(list);
    }
    if r.at != r.bytes.len() {
        return Err(r.corrupt("trailing bytes after the last column"));
    }

    let mut records = Vec::with_capacity(count);
    for i in 0..count {
        let (sender_ratio, receiver_ratio, network_ratio, duration_s) = {
            let (d, s, rr, n) = ratios[i];
            (s, rr, n, d)
        };
        records.push(SessionRecord {
            source: sources[i].clone(),
            kind: kinds[i],
            at: ats[i],
            span: spans[i],
            peer: peers[i].clone(),
            peer_as: peer_as[i],
            alerts: std::mem::take(&mut alerts[i]),
            report: Report {
                sender: senders[i].clone(),
                receiver: receivers[i].clone(),
                duration_s,
                prefixes: counts[i].0,
                rtt_ms: opt_nums[i].0,
                sender_ratio,
                receiver_ratio,
                network_ratio,
                factors: std::mem::take(&mut factors[i]),
                major_groups: std::mem::take(&mut majors[i]),
                inferred_timer_ms: opt_nums[i].1,
                loss_episodes: std::mem::take(&mut losses[i]),
                zero_ack_bug: zero_ack[i],
                delayed_ack_spurious: counts[i].1,
                verdict: verdicts[i].clone().into(),
                quarantine_reason: std::mem::take(&mut reasons[i]),
                capture_anomalies: counts[i].2,
            },
        });
    }
    Ok(Segment::seal(records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::synth_records;

    #[test]
    fn segment_round_trips_bit_exactly() {
        let records = synth_records(500, 42);
        let bytes = encode_segment(&records);
        let segment = decode_segment(&bytes, "seg-test").unwrap();
        assert_eq!(segment.records.len(), records.len());
        for (a, b) in records.iter().zip(&segment.records) {
            assert_eq!(a.source, b.source);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.at, b.at);
            assert_eq!(a.span, b.span);
            assert_eq!(a.peer, b.peer);
            assert_eq!(a.peer_as, b.peer_as);
            assert_eq!(a.alerts, b.alerts);
            // Bit-exact report identity, NaN-safe: compare the
            // canonical JSON plus raw ratio bits.
            assert_eq!(a.report.to_json(), b.report.to_json());
            assert_eq!(a.report.duration_s.to_bits(), b.report.duration_s.to_bits());
        }
    }

    #[test]
    fn empty_segment_round_trips() {
        let bytes = encode_segment(&[]);
        let segment = decode_segment(&bytes, "seg-empty").unwrap();
        assert!(segment.records.is_empty());
        assert_eq!(segment.meta.records, 0);
    }

    #[test]
    fn zone_map_covers_time_sources_and_verdicts() {
        let records = synth_records(200, 7);
        let meta = SegmentMeta::of(&records);
        assert_eq!(meta.records, 200);
        assert!(meta.min_at <= meta.max_at);
        assert!(records.iter().all(|r| meta.sources.contains(&r.source)));
        assert!(records
            .iter()
            .all(|r| meta.verdicts.iter().any(|v| *v == r.report.verdict)));
        let mut sorted = meta.sources.clone();
        sorted.sort_unstable();
        assert_eq!(meta.sources, sorted);
    }

    #[test]
    fn every_truncation_is_a_typed_corruption() {
        let records = synth_records(3, 1);
        let bytes = encode_segment(&records);
        // Any prefix must fail cleanly (checksum or structure).
        for cut in 0..bytes.len() {
            let err = decode_segment(&bytes[..cut], "seg-cut").unwrap_err();
            assert!(matches!(err, StoreError::Corrupt { .. }), "cut {cut}");
        }
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let records = synth_records(8, 3);
        let mut bytes = encode_segment(&records);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = decode_segment(&bytes, "seg-flip").unwrap_err();
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn nan_factor_ratios_survive() {
        let mut records = synth_records(1, 9);
        records[0].report.factors[0].1 = f64::NAN;
        records[0].report.rtt_ms = None;
        let bytes = encode_segment(&records);
        let segment = decode_segment(&bytes, "seg-nan").unwrap();
        assert!(segment.records[0].report.factors[0].1.is_nan());
        assert_eq!(segment.records[0].report.rtt_ms, None);
    }

    /// No ingest makes `monitor_v1` records any more; a segment that
    /// stored one still decodes it, as the same kind.
    #[test]
    fn a_stored_monitor_v1_record_still_decodes() {
        let mut records = synth_records(2, 4);
        records[0].kind = RecordKind::MonitorV1;
        let segment = decode_segment(&encode_segment(&records), "seg-v1").unwrap();
        assert_eq!(segment.records[0].kind, RecordKind::MonitorV1);
        assert_eq!(segment.records[1].kind, records[1].kind);
    }
}
