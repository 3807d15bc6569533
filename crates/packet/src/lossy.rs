//! Lossy capture decoding: typed anomalies instead of errors.
//!
//! Operational sniffer output is hostile in ways the simulator's
//! pristine pcaps never are: records truncated by a dying capture
//! process, payloads clipped to a snap length, headers corrupted in
//! the capture path, records duplicated or reordered by a mirroring
//! switch, and capture clocks that step backwards. The strict decoders
//! ([`PcapReader`](crate::PcapReader), [`TcpFrame::parse`]) turn any of
//! those into a hard error, which is right for golden traces and wrong
//! for production: one damaged record must not abort an analysis run
//! over hours of good capture.
//!
//! This module is the lossy counterpart. Damage becomes a typed
//! [`CaptureAnomaly`] carried alongside whatever could still be
//! decoded:
//!
//! * [`LossyDecoder`] turns raw records into [`LossyFrame`]s, detecting
//!   duplicates, timestamp regressions, snap clipping, and header or
//!   checksum corruption, and keeping running [`AnomalyCounts`];
//! * [`LossyReader`] reads a whole pcap stream this way — the lossy
//!   policy over a read window (see the crate docs, "Capture ingest")
//!   — surviving a truncated tail and resynchronizing (bounded scan)
//!   after mid-file garbage instead of erroring out.
//!
//! Cross traffic (non-IPv4, non-TCP) is *not* an anomaly: a production
//! tap sees ARP, IPv6, and UDP all day. It is counted separately and
//! skipped.

use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::Read;
use std::net::Ipv4Addr;
use std::path::Path;

use crate::error::Result;
use crate::frame::{FrameLike, FrameView, Layers, Stop, TcpFrame};
use crate::tcp::{tcp_checksum, TcpHeader};
use crate::walk::{LossyStep, Walker, Window, RECORD_HEADER_LEN};
use tdat_timeset::Micros;

/// How many recent record signatures the duplicate detector remembers.
const DUP_WINDOW: usize = 32;

/// One observed unit of capture damage.
///
/// Anomalies are facts about the *capture*, not about TCP behaviour:
/// a retransmitted segment is normal traffic, but the same record
/// bytes appearing twice with the same timestamp is a sniffer artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CaptureAnomaly {
    /// The capture ended (or a record was cut) before a complete
    /// structure: a partial record header or fewer captured bytes than
    /// the header promised.
    TruncatedRecord {
        /// What was incomplete.
        detail: String,
    },
    /// The record captured fewer bytes than were on the wire
    /// (`incl_len < orig_len`): a snap length clipped the payload.
    SnapClipped {
        /// Bytes actually captured.
        captured: usize,
        /// Bytes originally on the wire.
        orig_len: usize,
    },
    /// A link/network/transport header failed to decode or failed its
    /// checksum; the damaged portion cannot be trusted.
    BadHeader {
        /// Which layer was damaged (`"ethernet"`, `"ipv4"`, `"tcp"`).
        layer: &'static str,
        /// Description of the damage.
        detail: String,
    },
    /// The capture clock stepped backwards between adjacent records.
    /// The observed timestamp is clamped to the previous one so
    /// downstream time stays monotonic.
    TimestampRegression {
        /// Timestamp of the preceding record.
        previous: Micros,
        /// The regressed timestamp observed.
        observed: Micros,
    },
    /// The exact same record bytes (and timestamp) were captured twice
    /// in close succession — a mirror/bonding artifact, not a TCP
    /// retransmission. The copy is dropped.
    DuplicateRecord {
        /// Timestamp of the duplicated record.
        timestamp: Micros,
    },
    /// Bytes between records did not parse as a record header; the
    /// reader scanned forward and resynchronized onto a plausible one.
    Desynchronized {
        /// Garbage bytes skipped to regain synchronization.
        skipped: u64,
    },
}

impl CaptureAnomaly {
    /// Stable snake_case name of the anomaly class, for counters and
    /// reports.
    pub fn kind(&self) -> &'static str {
        match self {
            CaptureAnomaly::TruncatedRecord { .. } => "truncated_record",
            CaptureAnomaly::SnapClipped { .. } => "snap_clipped",
            CaptureAnomaly::BadHeader { .. } => "bad_header",
            CaptureAnomaly::TimestampRegression { .. } => "timestamp_regression",
            CaptureAnomaly::DuplicateRecord { .. } => "duplicate_record",
            CaptureAnomaly::Desynchronized { .. } => "desynchronized",
        }
    }
}

impl fmt::Display for CaptureAnomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaptureAnomaly::TruncatedRecord { detail } => write!(f, "truncated record: {detail}"),
            CaptureAnomaly::SnapClipped { captured, orig_len } => {
                write!(f, "snap-clipped record: {captured} of {orig_len} bytes")
            }
            CaptureAnomaly::BadHeader { layer, detail } => {
                write!(f, "bad {layer} header: {detail}")
            }
            CaptureAnomaly::TimestampRegression { previous, observed } => write!(
                f,
                "timestamp regression: {observed} after {previous} (clamped)"
            ),
            CaptureAnomaly::DuplicateRecord { timestamp } => {
                write!(f, "duplicate record at {timestamp} (dropped)")
            }
            CaptureAnomaly::Desynchronized { skipped } => {
                write!(f, "desynchronized: skipped {skipped} garbage bytes")
            }
        }
    }
}

/// Running tally of anomalies by class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnomalyCounts {
    /// Records cut short (partial header or partial body).
    pub truncated_records: u64,
    /// Records clipped by a snap length.
    pub snap_clipped: u64,
    /// Header decode or checksum failures.
    pub bad_headers: u64,
    /// Capture-clock regressions (clamped).
    pub timestamp_regressions: u64,
    /// Exact duplicate records (dropped).
    pub duplicate_records: u64,
    /// Resynchronization events after mid-stream garbage.
    pub desynchronizations: u64,
}

impl AnomalyCounts {
    /// Tallies one anomaly.
    pub fn note(&mut self, anomaly: &CaptureAnomaly) {
        match anomaly {
            CaptureAnomaly::TruncatedRecord { .. } => self.truncated_records += 1,
            CaptureAnomaly::SnapClipped { .. } => self.snap_clipped += 1,
            CaptureAnomaly::BadHeader { .. } => self.bad_headers += 1,
            CaptureAnomaly::TimestampRegression { .. } => self.timestamp_regressions += 1,
            CaptureAnomaly::DuplicateRecord { .. } => self.duplicate_records += 1,
            CaptureAnomaly::Desynchronized { .. } => self.desynchronizations += 1,
        }
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &AnomalyCounts) {
        self.truncated_records += other.truncated_records;
        self.snap_clipped += other.snap_clipped;
        self.bad_headers += other.bad_headers;
        self.timestamp_regressions += other.timestamp_regressions;
        self.duplicate_records += other.duplicate_records;
        self.desynchronizations += other.desynchronizations;
    }

    /// Total anomalies across all classes.
    pub fn total(&self) -> u64 {
        self.truncated_records
            + self.snap_clipped
            + self.bad_headers
            + self.timestamp_regressions
            + self.duplicate_records
            + self.desynchronizations
    }
}

impl fmt::Display for AnomalyCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "truncated={} clipped={} bad_header={} ts_regression={} duplicate={} desync={}",
            self.truncated_records,
            self.snap_clipped,
            self.bad_headers,
            self.timestamp_regressions,
            self.duplicate_records,
            self.desynchronizations
        )
    }
}

/// Outcome of decoding one capture record lossily.
///
/// At most one of the fields is "interesting": a clean record yields
/// `frame: Some(..)` with no anomalies; a damaged-but-usable record
/// yields both; an unrecoverable one yields only anomalies. `endpoints`
/// attributes the damage to a connection whenever the addresses could
/// still be trusted, even if the frame itself was dropped.
#[derive(Debug, Clone, Default)]
pub struct LossyFrame {
    /// The decoded frame, when one could be recovered.
    pub frame: Option<TcpFrame>,
    /// Capture damage observed on this record.
    pub anomalies: Vec<CaptureAnomaly>,
    /// `(src, dst)` endpoints the damage belongs to, when identifiable.
    pub endpoints: Option<((Ipv4Addr, u16), (Ipv4Addr, u16))>,
}

impl LossyFrame {
    /// True when nothing was decoded and nothing was wrong: valid
    /// cross traffic (non-IPv4 / non-TCP), already counted upstream.
    pub fn is_cross_traffic(&self) -> bool {
        self.frame.is_none() && self.anomalies.is_empty()
    }
}

/// Zero-copy counterpart of [`LossyFrame`]: the decoded frame borrows
/// the record buffer. Valid until the next read/decode call; use
/// [`LossyFrameView::to_lossy_frame`] to keep it.
#[derive(Debug, Clone, Default)]
pub struct LossyFrameView<'a> {
    /// The decoded frame view, when one could be recovered.
    pub frame: Option<FrameView<'a>>,
    /// Capture damage observed on this record.
    pub anomalies: Vec<CaptureAnomaly>,
    /// `(src, dst)` endpoints the damage belongs to, when identifiable.
    pub endpoints: Option<((Ipv4Addr, u16), (Ipv4Addr, u16))>,
}

impl LossyFrameView<'_> {
    fn anomaly(anomaly: CaptureAnomaly) -> LossyFrameView<'static> {
        LossyFrameView {
            frame: None,
            anomalies: vec![anomaly],
            endpoints: None,
        }
    }

    /// True when nothing was decoded and nothing was wrong: valid
    /// cross traffic (non-IPv4 / non-TCP), already counted upstream.
    pub fn is_cross_traffic(&self) -> bool {
        self.frame.is_none() && self.anomalies.is_empty()
    }

    /// Copies the view into an owned [`LossyFrame`].
    pub fn to_lossy_frame(&self) -> LossyFrame {
        LossyFrame {
            frame: self.frame.as_ref().map(FrameView::to_frame),
            anomalies: self.anomalies.clone(),
            endpoints: self.endpoints,
        }
    }
}

/// Result of [`FrameView::parse_lossy`].
#[derive(Debug, Clone)]
pub enum LossyParseView<'a> {
    /// A usable frame view; `Some` when payload-level damage (a failed
    /// TCP checksum) was detected but the headers were trustworthy.
    Frame(FrameView<'a>, Option<CaptureAnomaly>),
    /// Structurally valid but not TCP over IPv4 — cross traffic, not
    /// damage.
    NonTcp,
    /// Unrecoverable: a header was truncated, malformed, or failed its
    /// checksum.
    Damaged(CaptureAnomaly),
}

impl<'a> FrameView<'a> {
    /// Parses wire bytes tolerantly without copying the payload,
    /// classifying damage instead of erroring.
    ///
    /// Unlike [`FrameView::parse`] this verifies the IPv4 header
    /// checksum (so corrupted addresses cannot fabricate phantom
    /// connections) and, when the full segment was captured, the TCP
    /// checksum (so corrupted payload bytes are flagged rather than
    /// silently fed to the BGP parser). `clipped` marks a record whose
    /// captured bytes were cut by a snap length; the TCP checksum is
    /// then unverifiable and skipped.
    pub fn parse_lossy(timestamp: Micros, wire: &'a [u8], clipped: bool) -> LossyParseView<'a> {
        let damaged =
            |layer, detail| LossyParseView::Damaged(CaptureAnomaly::BadHeader { layer, detail });
        let layers = match Layers::walk(wire, true) {
            Ok(layers) => layers,
            Err(Stop::NotIpv4(_) | Stop::NotTcp(_)) => return LossyParseView::NonTcp,
            Err(Stop::Ethernet(e)) => return damaged("ethernet", e.to_string()),
            Err(Stop::Ipv4(e)) => return damaged("ipv4", e.to_string()),
            Err(Stop::IpChecksum) => {
                return damaged("ipv4", "header checksum mismatch".to_string())
            }
        };
        let (tcp, consumed) = match TcpHeader::decode_slice(layers.segment) {
            Ok(decoded) => decoded,
            Err(e) => return damaged("tcp", e.to_string()),
        };
        // The TCP checksum covers header and payload; a mismatch on a
        // fully captured segment means the bytes were damaged after the
        // endpoint sent them. The frame structure is still usable, so
        // keep it and flag the damage.
        let damage = if !clipped
            && layers.segment.len() == layers.declared_len
            && tcp_checksum(layers.ip.src, layers.ip.dst, layers.segment, &[]) != 0
        {
            Some(CaptureAnomaly::BadHeader {
                layer: "tcp",
                detail: "checksum mismatch (header or payload corrupted)".to_string(),
            })
        } else {
            None
        };
        let frame = FrameView {
            timestamp,
            eth: layers.eth,
            ip: layers.ip,
            tcp,
            payload: &layers.segment[consumed..],
        };
        LossyParseView::Frame(frame, damage)
    }
}

/// Odd multiplier of the signature's mixing step (2^64 / φ).
const SIGNATURE_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// One mixing step: xor in a word, multiply, rotate. Each part is a
/// bijection of the state, so two inputs that differ in one word leave
/// different states behind, and the rotation carries the product's
/// well-mixed high bits down into the next multiply.
fn mix(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(SIGNATURE_MUL).rotate_left(29)
}

/// Signature used for duplicate-record detection over the timestamp,
/// the original length, the captured length and the captured bytes.
///
/// Eight bytes per step, in four independent lanes (each 32-byte block
/// feeds one word to every lane, so the multiplies overlap instead of
/// each waiting on the one before); the last partial word is
/// zero-padded, which is why the captured length is mixed in: without
/// it, a record and the same record with a `0x00` appended would
/// collide. Records that differ in one word only, in the timestamp or
/// `orig_len` only, or only by trailing `0x00` bytes inside the last
/// word never collide; other differences collide only by chance. Any
/// hash with those properties
/// would do: nothing outside the decoder's ring of recent signatures
/// ever sees it.
fn record_signature(timestamp: Micros, orig_len: u32, data: &[u8]) -> u64 {
    let mut lanes = [
        timestamp.0 as u64,
        u64::from(orig_len),
        data.len() as u64,
        SIGNATURE_MUL,
    ];
    let (blocks, rest) = data.as_chunks::<32>();
    for block in blocks {
        let (words, _) = block.as_chunks::<8>();
        for (lane, &word) in lanes.iter_mut().zip(words) {
            *lane = mix(*lane, u64::from_le_bytes(word));
        }
    }
    let (words, tail) = rest.as_chunks::<8>();
    for (lane, &word) in lanes.iter_mut().zip(words) {
        *lane = mix(*lane, u64::from_le_bytes(word));
    }
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        lanes[words.len()] = mix(lanes[words.len()], u64::from_le_bytes(last));
    }
    let folded = lanes.into_iter().fold(0, mix);
    // Final avalanche (xorshift-multiply, a bijection).
    let h = (folded ^ (folded >> 32)).wrapping_mul(SIGNATURE_MUL);
    h ^ (h >> 29)
}

/// Stateful lossy record-to-frame decoder.
///
/// Detects duplicates (signature ring over the last 32
/// records), clamps timestamp regressions, flags snap clipping, and
/// delegates byte-level damage classification to
/// [`FrameView::parse_lossy`]. Keeps running totals so a whole-capture
/// summary costs nothing extra.
#[derive(Debug, Default)]
pub struct LossyDecoder {
    last_timestamp: Option<Micros>,
    recent: VecDeque<u64>,
    counts: AnomalyCounts,
    frames: u64,
    cross_traffic: u64,
}

impl LossyDecoder {
    /// Creates a fresh decoder.
    pub fn new() -> LossyDecoder {
        LossyDecoder::default()
    }

    /// Anomalies observed so far, by class.
    pub fn counts(&self) -> &AnomalyCounts {
        &self.counts
    }

    /// Frames successfully decoded so far.
    pub fn frames_decoded(&self) -> u64 {
        self.frames
    }

    /// Valid non-IPv4/non-TCP records skipped so far.
    pub fn cross_traffic(&self) -> u64 {
        self.cross_traffic
    }

    /// Tallies an anomaly produced outside record decoding (truncated
    /// tails, resync scans) so [`counts`](Self::counts) stays complete.
    pub fn note(&mut self, anomaly: &CaptureAnomaly) {
        self.counts.note(anomaly);
    }

    /// Decodes one record's wire bytes without copying the payload: the
    /// returned view borrows `data`, so the hot path performs no heap
    /// allocation for clean records.
    pub fn decode_wire<'a>(
        &mut self,
        timestamp: Micros,
        orig_len: u32,
        data: &'a [u8],
    ) -> LossyFrameView<'a> {
        let mut out = LossyFrameView::default();

        let sig = record_signature(timestamp, orig_len, data);
        if self.recent.contains(&sig) {
            // An exact duplicate: drop the copy, but still attribute it
            // to its connection if the headers are intact.
            let anomaly = CaptureAnomaly::DuplicateRecord { timestamp };
            self.counts.note(&anomaly);
            out.anomalies.push(anomaly);
            if let LossyParseView::Frame(frame, _) = FrameView::parse_lossy(timestamp, data, false)
            {
                out.endpoints = Some((frame.src(), frame.dst()));
            }
            return out;
        }
        self.recent.push_back(sig);
        if self.recent.len() > DUP_WINDOW {
            self.recent.pop_front();
        }

        let mut timestamp = timestamp;
        if let Some(last) = self.last_timestamp {
            if timestamp < last {
                let anomaly = CaptureAnomaly::TimestampRegression {
                    previous: last,
                    observed: timestamp,
                };
                self.counts.note(&anomaly);
                out.anomalies.push(anomaly);
                timestamp = last;
            }
        }
        self.last_timestamp = Some(timestamp);

        let clipped = data.len() < orig_len as usize;
        if clipped {
            let anomaly = CaptureAnomaly::SnapClipped {
                captured: data.len(),
                orig_len: orig_len as usize,
            };
            self.counts.note(&anomaly);
            out.anomalies.push(anomaly);
        }

        match FrameView::parse_lossy(timestamp, data, clipped) {
            LossyParseView::Frame(frame, damage) => {
                if let Some(anomaly) = damage {
                    self.counts.note(&anomaly);
                    out.anomalies.push(anomaly);
                }
                out.endpoints = Some((frame.src(), frame.dst()));
                out.frame = Some(frame);
                self.frames += 1;
            }
            LossyParseView::NonTcp => {
                self.cross_traffic += 1;
            }
            LossyParseView::Damaged(anomaly) => {
                self.counts.note(&anomaly);
                out.anomalies.push(anomaly);
            }
        }
        out
    }
}

/// A lossy streaming pcap reader: the batch counterpart of
/// [`PcapReader`](crate::PcapReader) that degrades instead of failing.
///
/// * A truncated tail (partial record header or body at end of file)
///   ends the stream with a [`CaptureAnomaly::TruncatedRecord`] rather
///   than an error.
/// * An implausible record header mid-file triggers a bounded forward
///   scan for the next plausible one
///   ([`CaptureAnomaly::Desynchronized`]); only a scan that exhausts
///   its budget ends the stream.
/// * Per-record damage is classified by a shared [`LossyDecoder`].
///
/// Construction still fails hard on a bad magic number: without the
/// global header nothing downstream is interpretable.
///
/// # Examples
///
/// ```no_run
/// use tdat_packet::LossyReader;
///
/// let mut reader = LossyReader::open("hostile.pcap")?;
/// while let Some(item) = reader.next_lossy()? {
///     if let Some(frame) = item.frame {
///         println!("{frame}");
///     }
/// }
/// println!("damage: {}", reader.counts());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct LossyReader<R> {
    src: Window<R>,
    walker: Walker,
    decoder: LossyDecoder,
    done: bool,
}

impl LossyReader<File> {
    /// Opens a pcap file for lossy reading.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or a bad magic number.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        LossyReader::new(File::open(path)?)
    }
}

impl<R: Read> LossyReader<R> {
    /// Wraps any reader positioned at the start of a pcap stream.
    ///
    /// # Errors
    ///
    /// Fails if the global header cannot be read or has a bad magic.
    pub fn new(input: R) -> Result<Self> {
        let mut src = Window::new(input);
        let walker = Walker::open_finite(&mut src)?;
        Ok(LossyReader {
            src,
            walker,
            decoder: LossyDecoder::new(),
            done: false,
        })
    }

    /// The file's link type.
    pub fn link_type(&self) -> u32 {
        self.walker.link_type()
    }

    /// Anomaly tally so far.
    pub fn counts(&self) -> &AnomalyCounts {
        self.decoder.counts()
    }

    /// The shared per-record decoder (frame/cross-traffic counters).
    pub fn decoder(&self) -> &LossyDecoder {
        &self.decoder
    }

    /// Reads and decodes the next record, or `None` once the stream is
    /// exhausted. Cross traffic is skipped internally, so every
    /// returned item carries a frame, an anomaly, or both.
    ///
    /// # Errors
    ///
    /// Fails only on real I/O errors; capture damage never errors.
    pub fn next_lossy(&mut self) -> Result<Option<LossyFrame>> {
        loop {
            match self.next_lossy_view()? {
                None => return Ok(None),
                Some(item) if item.is_cross_traffic() => continue,
                Some(item) => return Ok(Some(item.to_lossy_frame())),
            }
        }
    }

    /// Reads and decodes the next record in place in the reader's
    /// window, or `None` once the stream is exhausted. The view borrows
    /// the window, so the steady-state decode path performs no
    /// per-record heap allocation.
    ///
    /// Unlike [`next_lossy`](Self::next_lossy), cross traffic is *not*
    /// skipped here — a borrowed return value cannot be discarded and
    /// re-fetched inside this method — so callers must check
    /// [`LossyFrameView::is_cross_traffic`] and skip such items
    /// themselves.
    ///
    /// # Errors
    ///
    /// Fails only on real I/O errors; capture damage never errors.
    pub fn next_lossy_view(&mut self) -> Result<Option<LossyFrameView<'_>>> {
        if self.done {
            return Ok(None);
        }
        // The capture is finished, so a source that runs dry is its
        // end: whatever is left there is the last anomaly.
        let anomaly = match self.walker.next_lossy(&mut self.src)? {
            LossyStep::Record(record) => {
                let wire = self.src.behind(record.body_len);
                let item = self
                    .decoder
                    .decode_wire(record.timestamp, record.orig_len, wire);
                return Ok(Some(item));
            }
            LossyStep::Resynced(skipped) => CaptureAnomaly::Desynchronized { skipped },
            LossyStep::Short { have: 0, .. } => {
                self.done = true;
                return Ok(None);
            }
            LossyStep::Short { have, want } => {
                self.done = true;
                let detail = if want == RECORD_HEADER_LEN {
                    format!("{have} of 16 record-header bytes at end of capture")
                } else {
                    let (have, want) = (have - RECORD_HEADER_LEN, want - RECORD_HEADER_LEN);
                    format!("{have} of {want} record bytes at end of capture")
                };
                CaptureAnomaly::TruncatedRecord { detail }
            }
            LossyStep::NoTarget | LossyStep::BudgetSpent => {
                self.done = true;
                CaptureAnomaly::TruncatedRecord {
                    detail: "unreadable tail: no plausible record header found".to_string(),
                }
            }
        };
        self.decoder.note(&anomaly);
        Ok(Some(LossyFrameView::anomaly(anomaly)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameBuilder;
    use crate::pcap::PcapWriter;
    use crate::tcp::TcpFlags;

    fn frame(t_ms: i64, len: usize) -> TcpFrame {
        FrameBuilder::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .at(Micros::from_millis(t_ms))
            .ports(179, 40000)
            .seq(1)
            .flags(TcpFlags::ACK | TcpFlags::PSH)
            .payload(vec![0xab; len])
            .build()
    }

    fn encode(frames: &[TcpFrame]) -> Vec<u8> {
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf).unwrap();
            for f in frames {
                w.write_frame(f).unwrap();
            }
        }
        buf
    }

    fn drain(bytes: &[u8]) -> (Vec<TcpFrame>, AnomalyCounts) {
        let mut reader = LossyReader::new(bytes).unwrap();
        let mut frames = Vec::new();
        while let Some(item) = reader.next_lossy().unwrap() {
            frames.extend(item.frame);
        }
        (frames, *reader.counts())
    }

    #[test]
    fn clean_file_decodes_without_anomalies() {
        let frames = vec![frame(0, 10), frame(5, 0), frame(12, 1448)];
        let (got, counts) = drain(&encode(&frames));
        assert_eq!(got, frames);
        assert_eq!(counts.total(), 0);
    }

    #[test]
    fn truncated_tail_is_an_anomaly_not_an_error() {
        let mut bytes = encode(&[frame(0, 100), frame(5, 200)]);
        bytes.truncate(bytes.len() - 10);
        let (got, counts) = drain(&bytes);
        assert_eq!(got.len(), 1, "first record still decodes");
        assert_eq!(counts.truncated_records, 1);
    }

    #[test]
    fn truncated_record_header_is_an_anomaly() {
        let mut bytes = encode(&[frame(0, 10)]);
        bytes.extend_from_slice(&[1, 2, 3, 4, 5]); // 5 bytes of a next header
        let (got, counts) = drain(&bytes);
        assert_eq!(got.len(), 1);
        assert_eq!(counts.truncated_records, 1);
    }

    #[test]
    fn snap_clipped_record_still_yields_a_frame() {
        let f = frame(0, 600);
        let wire = f.to_wire();
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf).unwrap();
            // Capture only the first 100 bytes of a 600-byte payload.
            w.write_record(Micros::ZERO, &wire[..100], wire.len() as u32)
                .unwrap();
        }
        let mut reader = LossyReader::new(&buf[..]).unwrap();
        let item = reader.next_lossy().unwrap().unwrap();
        let got = item.frame.expect("clipped frame still decodes");
        assert!(got.payload_len() < 600);
        assert_eq!(got.src(), f.src());
        assert!(matches!(
            item.anomalies[0],
            CaptureAnomaly::SnapClipped { .. }
        ));
        assert_eq!(reader.counts().snap_clipped, 1);
    }

    #[test]
    fn corrupted_payload_is_flagged_but_frame_survives() {
        let f = frame(0, 50);
        let mut wire = f.to_wire();
        let n = wire.len();
        wire[n - 5] ^= 0xff; // flip a payload byte
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf).unwrap();
            w.write_record(Micros::ZERO, &wire, wire.len() as u32)
                .unwrap();
        }
        let mut reader = LossyReader::new(&buf[..]).unwrap();
        let item = reader.next_lossy().unwrap().unwrap();
        assert!(item.frame.is_some(), "structure intact, frame kept");
        assert!(matches!(
            item.anomalies[0],
            CaptureAnomaly::BadHeader { layer: "tcp", .. }
        ));
    }

    #[test]
    fn corrupted_ip_header_drops_the_frame() {
        let f = frame(0, 20);
        let mut wire = f.to_wire();
        wire[26] ^= 0xff; // first byte of the IP source address
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf).unwrap();
            w.write_record(Micros::ZERO, &wire, wire.len() as u32)
                .unwrap();
        }
        let mut reader = LossyReader::new(&buf[..]).unwrap();
        let item = reader.next_lossy().unwrap().unwrap();
        assert!(item.frame.is_none(), "untrustworthy addresses: dropped");
        assert!(matches!(
            item.anomalies[0],
            CaptureAnomaly::BadHeader { layer: "ipv4", .. }
        ));
    }

    #[test]
    fn duplicate_record_is_dropped_and_attributed() {
        let f = frame(0, 30);
        let wire = f.to_wire();
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf).unwrap();
            w.write_record(Micros::ZERO, &wire, wire.len() as u32)
                .unwrap();
            w.write_record(Micros::ZERO, &wire, wire.len() as u32)
                .unwrap();
        }
        let (got, counts) = drain(&buf);
        assert_eq!(got.len(), 1, "the copy is dropped");
        assert_eq!(counts.duplicate_records, 1);
        // And the dropped copy still names its connection.
        let mut reader = LossyReader::new(&buf[..]).unwrap();
        reader.next_lossy().unwrap();
        let dup = reader.next_lossy().unwrap().unwrap();
        assert_eq!(dup.endpoints, Some((f.src(), f.dst())));
    }

    #[test]
    fn retransmission_with_new_timestamp_is_not_a_duplicate() {
        let mut a = frame(0, 30);
        a.timestamp = Micros::ZERO;
        let mut b = a.clone();
        b.timestamp = Micros::from_millis(200); // retransmit, same bytes
        let (got, counts) = drain(&encode(&[a, b]));
        assert_eq!(got.len(), 2);
        assert_eq!(counts.duplicate_records, 0);
    }

    #[test]
    fn timestamp_regression_is_clamped_monotonic() {
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf).unwrap();
            w.write_frame(&frame(1000, 10)).unwrap();
            w.write_frame(&frame(400, 11)).unwrap(); // clock stepped back
            w.write_frame(&frame(1200, 12)).unwrap();
        }
        let (got, counts) = drain(&buf);
        assert_eq!(counts.timestamp_regressions, 1);
        assert_eq!(got.len(), 3);
        assert!(got[1].timestamp >= got[0].timestamp, "clamped");
        assert!(got[2].timestamp >= got[1].timestamp);
    }

    #[test]
    fn cross_traffic_is_counted_not_anomalous() {
        let mut udp = frame(0, 10);
        udp.ip.protocol = 17;
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf).unwrap();
            w.write_frame(&udp).unwrap();
            w.write_frame(&frame(5, 10)).unwrap();
        }
        let mut reader = LossyReader::new(&buf[..]).unwrap();
        let mut got = Vec::new();
        while let Some(item) = reader.next_lossy().unwrap() {
            got.extend(item.frame);
        }
        assert_eq!(got.len(), 1);
        assert_eq!(reader.decoder().cross_traffic(), 1);
        assert_eq!(reader.counts().total(), 0);
    }

    #[test]
    fn mid_file_garbage_resyncs_with_bounded_scan() {
        let before = frame(0, 40);
        let after = frame(10, 60);
        let mut buf = encode(std::slice::from_ref(&before));
        buf.extend_from_slice(&[0xffu8; 37]); // garbage between records
                                              // Append the second record's bytes (header + body) verbatim.
        let mut tail = Vec::new();
        {
            let mut w = PcapWriter::new(&mut tail).unwrap();
            w.write_frame(&after).unwrap();
        }
        buf.extend_from_slice(&tail[24..]);
        let (got, counts) = drain(&buf);
        assert_eq!(got.len(), 2, "resynced onto the record after the garbage");
        assert_eq!(counts.desynchronizations, 1);
        assert_eq!(got[1].payload_len(), 60);
    }

    #[test]
    fn all_garbage_tail_ends_the_stream() {
        let mut buf = encode(&[frame(0, 10)]);
        buf.extend_from_slice(&[0xee; 500]);
        let (got, counts) = drain(&buf);
        assert_eq!(got.len(), 1);
        assert_eq!(counts.truncated_records, 1, "no resync target: stream ends");
    }

    #[test]
    fn bad_magic_still_fails_construction() {
        assert!(LossyReader::new(&[0u8; 64][..]).is_err());
    }
}
