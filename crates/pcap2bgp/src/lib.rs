//! `pcap2bgp` — reconstruct BGP message streams from raw packet traces.
//!
//! The vendor collectors of the paper's dataset keep no BGP archive, so
//! the authors built this side tool (§II-A, Table VI): it reassembles
//! the TCP byte stream from a tcpdump trace — tolerating out-of-order
//! delivery and retransmissions — extracts the individual BGP messages,
//! and stores them in MRT format. Unlike `wireshark`/`tcpflow`, the
//! message timestamps record when each message's last byte first became
//! contiguous at the capture point, i.e. when the receiving BGP process
//! could first have read it.
//!
//! There is one reassembler, one framing loop and one resync rule, and
//! they are generic over *what is kept* of each framed message
//! ([`tdat_bgp::KeptMessages`]). The analysis path needs two facts per
//! message — that time, and the prefixes announced — so by default an
//! [`Extraction`] holds a flat [`tdat_bgp::MessageLog`] filled by a
//! skim decoder: 16 bytes per message and 8 per announced prefix, no
//! tree per message to build and free. The tool proper, whose product
//! *is* the messages, keeps [`tdat_bgp::WholeMessages`]:
//! [`extract_all`] and [`to_mrt_records`] speak that type.
//!
//! # Examples
//!
//! ```
//! use tdat_pcap2bgp::extract_all;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let frames = {
//! #     let msg = tdat_bgp::BgpMessage::Keepalive.to_bytes();
//! #     vec![tdat_packet::FrameBuilder::new("10.0.0.1".parse()?, "10.0.0.2".parse()?)
//! #         .ports(179, 40000).seq(1).payload(msg).build()]
//! # };
//! for (conn, extraction) in extract_all(&frames) {
//!     println!("{:?}: {} messages", conn.sender, extraction.messages.len());
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;

use tdat_bgp::{
    Framed, KeptMessages, LogRow, MessageLog, MrtRecord, WholeMessages, BGP_HEADER_LEN,
};
use tdat_packet::{seq_diff, TcpFlags, TcpFrame};
use tdat_timeset::Micros;
use tdat_trace::{Direction, TcpConnection};

/// An in-order TCP byte-stream reassembler.
///
/// Feed it segments in *capture* order (any sequence order); it emits
/// the contiguous byte stream, discarding retransmitted overlap and
/// holding out-of-order data until the gap fills. Works online: bytes
/// can be taken incrementally with [`take_ready`](Self::take_ready).
#[derive(Debug)]
pub struct StreamReassembler {
    /// Next expected sequence number (`None` until anchored).
    next_seq: Option<u32>,
    /// Out-of-order segments keyed by start seq.
    pending: BTreeMap<u32, Vec<u8>>,
    /// Reassembled contiguous bytes not yet taken.
    ready: Vec<u8>,
    /// Total contiguous bytes ever emitted.
    emitted: u64,
    /// Count of duplicate/overlap bytes discarded.
    duplicate_bytes: u64,
    /// Bytes currently parked out of order.
    pending_bytes: usize,
    /// Cap on `pending_bytes`; see [`MAX_PENDING_BYTES`].
    pending_cap: usize,
    /// Parked bytes dropped because the cap was hit.
    overflow_bytes: u64,
}

/// Default cap on parked out-of-order data; beyond it the earliest
/// pending segments are dropped (they will reappear as retransmissions,
/// or surface as an unfillable hole an adversarial seq-gap flood left
/// behind — in either case memory stays bounded).
pub const MAX_PENDING_BYTES: usize = 4 << 20;

impl Default for StreamReassembler {
    fn default() -> StreamReassembler {
        StreamReassembler::with_pending_cap(MAX_PENDING_BYTES)
    }
}

impl StreamReassembler {
    /// Creates an empty reassembler; the first pushed segment anchors
    /// the sequence space unless [`anchor`](Self::anchor) was called.
    pub fn new() -> StreamReassembler {
        StreamReassembler::default()
    }

    /// Creates a reassembler with a custom out-of-order window cap
    /// (bytes). A segment flood with sequence gaps can otherwise park
    /// unbounded data; beyond the cap the lowest-sequence parked
    /// segments are dropped and counted in
    /// [`overflow_bytes`](Self::overflow_bytes).
    pub fn with_pending_cap(cap: usize) -> StreamReassembler {
        StreamReassembler {
            next_seq: None,
            pending: BTreeMap::new(),
            ready: Vec::new(),
            emitted: 0,
            duplicate_bytes: 0,
            pending_bytes: 0,
            pending_cap: cap.max(1),
            overflow_bytes: 0,
        }
    }

    /// Anchors the stream at `seq` (the byte after the SYN).
    pub fn anchor(&mut self, seq: u32) {
        self.next_seq.get_or_insert(seq);
    }

    /// Pushes one segment's payload at `seq`.
    pub fn push(&mut self, seq: u32, payload: &[u8]) {
        if payload.is_empty() {
            return;
        }
        let next = *self.next_seq.get_or_insert(seq);
        let offset = seq_diff(next, seq); // how far seq lags the stream head
        if offset >= payload.len() as i64 {
            // Entirely old: a pure retransmission.
            self.duplicate_bytes += payload.len() as u64;
            return;
        }
        if offset > 0 {
            // Partial overlap: keep the fresh tail.
            self.duplicate_bytes += offset as u64;
            self.accept_at_head(&payload[offset as usize..]);
        } else if offset == 0 {
            self.accept_at_head(payload);
        } else {
            // Future data: park it.
            match self.pending.get(&seq) {
                Some(existing) if existing.len() >= payload.len() => {
                    self.duplicate_bytes += payload.len() as u64;
                }
                _ => {
                    self.pending_bytes += payload.len();
                    if let Some(old) = self.pending.insert(seq, payload.to_vec()) {
                        self.pending_bytes -= old.len();
                        self.duplicate_bytes += old.len() as u64;
                    }
                    // Bound memory under pathological holes: evict the
                    // parked data farthest ahead of the stream head
                    // (an adversarial flood lands far from the head;
                    // near-head data is about to drain).
                    while self.pending_bytes > self.pending_cap {
                        let Some(victim) = self.farthest_pending(next) else {
                            break;
                        };
                        let Some(dropped) = self.pending.remove(&victim) else {
                            break;
                        };
                        self.pending_bytes -= dropped.len();
                        self.overflow_bytes += dropped.len() as u64;
                    }
                }
            }
        }
        self.drain_pending();
    }

    /// The parked key farthest ahead of `next` in wrapped sequence
    /// space — the eviction victim when the window cap trips. Keys are
    /// compared by circular distance from the stream head, so the
    /// choice is invariant under sequence-space translation (and thus
    /// under wraparound).
    fn farthest_pending(&self, next: u32) -> Option<u32> {
        let horizon = next.wrapping_add(1 << 31); // exclusive future bound
        let future = match next.checked_add(1) {
            Some(lo) if lo < horizon => {
                // Future keys occupy the contiguous raw range (next, horizon).
                self.pending.range(lo..horizon).next_back()
            }
            Some(lo) => {
                // Future range wraps: (next, u32::MAX] ∪ [0, horizon);
                // the wrapped-low keys are the farther ones.
                self.pending
                    .range(..horizon)
                    .next_back()
                    .or_else(|| self.pending.range(lo..).next_back())
            }
            // next == u32::MAX: future is [0, horizon) only.
            None => self.pending.range(..horizon).next_back(),
        }
        .map(|(k, _)| *k);
        future.or_else(|| {
            // Only past/overlapping keys remain (rare: the stale sweep
            // usually clears them); evict the most-negative offset.
            self.pending
                .keys()
                .min_by_key(|k| seq_diff(**k, next))
                .copied()
        })
    }

    fn accept_at_head(&mut self, bytes: &[u8]) {
        let Some(next) = self.next_seq else {
            return; // unanchored: push() always anchors before this
        };
        self.ready.extend_from_slice(bytes);
        self.emitted += bytes.len() as u64;
        self.next_seq = Some(next.wrapping_add(bytes.len() as u32));
    }

    fn drain_pending(&mut self) {
        loop {
            let Some(next) = self.next_seq else { return };
            // A parked segment is usable if it starts at or before the
            // stream head and extends beyond it.
            let usable = self
                .pending
                .iter()
                .find(|(k, v)| {
                    let off = seq_diff(next, **k);
                    off >= 0 && off < v.len() as i64
                })
                .map(|(k, _)| *k);
            let Some(start) = usable else { break };
            let Some(data) = self.pending.remove(&start) else {
                break;
            };
            self.pending_bytes -= data.len();
            let offset = seq_diff(next, start);
            if offset > 0 {
                self.duplicate_bytes += offset as u64;
            }
            self.accept_at_head(&data[offset.max(0) as usize..]);
        }
        // Discard parked segments the stream head has passed entirely.
        let Some(next) = self.next_seq else { return };
        let stale: Vec<u32> = self
            .pending
            .iter()
            .filter(|(k, v)| seq_diff(next, **k) >= v.len() as i64)
            .map(|(k, _)| *k)
            .collect();
        for k in stale {
            if let Some(dropped) = self.pending.remove(&k) {
                self.pending_bytes -= dropped.len();
                self.duplicate_bytes += dropped.len() as u64;
            }
        }
    }

    /// Takes the reassembled bytes accumulated so far.
    pub fn take_ready(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.ready)
    }

    /// Appends the reassembled bytes accumulated so far to `out` and
    /// clears the internal ready buffer, retaining its capacity. The
    /// per-segment drain path: after warm-up neither buffer reallocates.
    pub fn take_ready_into(&mut self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.ready);
        self.ready.clear();
    }

    /// Contiguous bytes emitted over the reassembler's lifetime.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Duplicate (retransmitted/overlapping) bytes discarded.
    pub fn duplicate_bytes(&self) -> u64 {
        self.duplicate_bytes
    }

    /// Bytes parked waiting for a sequence hole to fill.
    pub fn pending_bytes(&self) -> usize {
        self.pending_bytes
    }

    /// Parked bytes dropped because the out-of-order window cap was
    /// hit — nonzero means the capture had sequence gaps no window
    /// could bridge (loss, clipping, or an adversarial flood).
    pub fn overflow_bytes(&self) -> u64 {
        self.overflow_bytes
    }
}

/// Result of BGP extraction from one connection.
///
/// `K` is what was kept of each message: the flat [`MessageLog`] the
/// analysis path reads (the default), or [`WholeMessages`] where
/// decoded messages are the product.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Extraction<K = MessageLog> {
    /// The framed messages, each stamped with the capture time at
    /// which its last byte first became contiguous.
    pub messages: K,
    /// Bytes that could not be framed as BGP (corruption or a partial
    /// tail at the end of the capture).
    pub unparsed_bytes: u64,
    /// Duplicate bytes the reassembler discarded.
    pub duplicate_bytes: u64,
    /// Bytes dropped by the reassembly window and pre-anchor caps —
    /// nonzero means resource bounds kicked in and the stream has
    /// irrecoverable holes.
    pub overflow_bytes: u64,
}

impl<K: KeptMessages> Extraction<K> {
    /// Total prefixes announced across all extracted updates.
    pub fn announced_prefixes(&self) -> usize {
        self.messages.announced_prefixes()
    }
}

impl Extraction<WholeMessages> {
    /// The same extraction with each message reduced to its log row —
    /// what an extractor keeping the default [`MessageLog`] makes of
    /// the same segments.
    pub fn to_log(&self) -> Extraction {
        Extraction {
            messages: self.messages.iter().collect(),
            unparsed_bytes: self.unparsed_bytes,
            duplicate_bytes: self.duplicate_bytes,
            overflow_bytes: self.overflow_bytes,
        }
    }
}

impl Extraction {
    /// The timestamped UPDATE messages, borrowed from the log — the
    /// MCT input, read in place at every run.
    pub fn updates_iter(&self) -> impl Iterator<Item = (Micros, LogRow<'_>)> {
        self.messages.updates()
    }
}

/// Incremental BGP extraction from one direction of a TCP connection.
///
/// Feed it segments in capture order with [`push`](Self::push); it
/// anchors the sequence space (from the SYN, or from the lowest
/// sequence among the first segments of a mid-connection capture),
/// reassembles the byte stream and frames BGP messages as their bytes
/// become contiguous, keeping of each what `K` keeps.
/// [`finish`](Self::finish) yields the same [`Extraction`] the batch
/// [`extract_from_frames`] produces.
///
/// Memory has a bounded part and a part that grows with the stream.
/// Bounded: the reassembler's out-of-order window
/// ([`MAX_PENDING_BYTES`]), the pre-anchor buffer ([`PREANCHOR_BYTES`])
/// and at most one partial message. Growing, until the extraction is
/// taken: what is kept of every message framed so far — with the
/// default [`MessageLog`], one 16-byte row per message plus 8 bytes per
/// announced prefix.
#[derive(Debug, Default)]
pub struct StreamExtractor<K = MessageLog> {
    reasm: StreamReassembler,
    anchored: bool,
    /// Pre-anchor segments of a SYN-less capture, held until the anchor
    /// can be chosen (bounded to 64 buffered segments or
    /// [`PREANCHOR_BYTES`], whichever trips first).
    prebuf: Vec<(Micros, u32, Vec<u8>)>,
    /// Bytes currently held in `prebuf`.
    prebuf_bytes: usize,
    /// Contiguous bytes not yet framed as a whole message.
    buffer: Vec<u8>,
    /// The extraction so far: messages and unparsed bytes accumulate
    /// here, the reassembler's byte counters are copied in after every
    /// feed, so a snapshot is a borrow of this field.
    so_far: Extraction<K>,
}

/// Segments buffered before anchoring a SYN-less stream; beyond this
/// the lowest sequence seen so far becomes the anchor.
const PREANCHOR_SEGMENTS: usize = 64;

/// Byte cap on the pre-anchor buffer: a flood of large un-anchorable
/// segments must force an anchor rather than hoard memory.
pub const PREANCHOR_BYTES: usize = 256 << 10;

impl StreamExtractor {
    /// Creates an extractor with an unanchored sequence space that
    /// keeps a [`MessageLog`]; one that keeps something else is made
    /// with `StreamExtractor::<K>::default()`.
    pub fn new() -> StreamExtractor {
        StreamExtractor::default()
    }
}

impl<K: KeptMessages> StreamExtractor<K> {
    /// Creates an extractor whose reassembler uses a custom
    /// out-of-order window cap (bytes).
    pub fn with_pending_cap(cap: usize) -> StreamExtractor<K> {
        StreamExtractor {
            reasm: StreamReassembler::with_pending_cap(cap),
            ..StreamExtractor::default()
        }
    }

    /// Anchors the stream at `seq` (the first data byte), flushing any
    /// buffered pre-anchor segments. No-op if already anchored.
    pub fn anchor(&mut self, seq: u32) {
        if !self.anchored {
            self.reasm.anchor(seq);
            self.anchored = true;
            self.prebuf_bytes = 0;
            for (time, seq, payload) in std::mem::take(&mut self.prebuf) {
                self.feed(time, seq, &payload);
            }
        }
    }

    /// Feeds one segment of the data direction, in capture order.
    ///
    /// A SYN anchors the stream at `seq + 1`; until an anchor is known,
    /// payload segments are buffered (64-segment bound).
    pub fn push(&mut self, time: Micros, seq: u32, flags: TcpFlags, payload: &[u8]) {
        if !self.anchored {
            if flags.contains(TcpFlags::SYN) {
                self.anchor(seq.wrapping_add(1));
            } else if !payload.is_empty() {
                self.prebuf_bytes += payload.len();
                self.prebuf.push((time, seq, payload.to_vec()));
                if self.prebuf.len() >= PREANCHOR_SEGMENTS || self.prebuf_bytes >= PREANCHOR_BYTES {
                    self.anchor_at_min();
                }
                return;
            } else {
                return;
            }
        }
        self.feed(time, seq, payload);
    }

    /// Anchors at the lowest buffered sequence number (mid-connection
    /// capture: the first captured segment may have arrived out of
    /// order).
    fn anchor_at_min(&mut self) {
        let Some(&(_, ref_seq, _)) = self.prebuf.first() else {
            return;
        };
        let min_rel = self
            .prebuf
            .iter()
            .map(|(_, seq, _)| seq_diff(*seq, ref_seq))
            .min()
            .unwrap_or(0);
        self.anchor(ref_seq.wrapping_add(min_rel as u32));
    }

    fn feed(&mut self, time: Micros, seq: u32, payload: &[u8]) {
        if payload.is_empty() {
            return;
        }
        self.reasm.push(seq, payload);
        self.so_far.duplicate_bytes = self.reasm.duplicate_bytes();
        self.so_far.overflow_bytes = self.reasm.overflow_bytes();
        let before = self.buffer.len();
        self.reasm.take_ready_into(&mut self.buffer);
        if self.buffer.len() == before {
            return;
        }
        let mut cursor = &self.buffer[..];
        loop {
            match self.so_far.messages.keep(time, &mut cursor) {
                Framed::Kept => {}
                Framed::Partial => break,
                Framed::Rejected => {
                    // Lost framing: resync at the next byte that can
                    // start a marker. A reject needs a whole header, so
                    // from `wait` on the answer is "partial"; before
                    // it, any byte but 0xff is rejected on sight. Same
                    // count and same stop as retrying byte by byte,
                    // without one failed decode per byte of a flow that
                    // is not BGP.
                    let wait = cursor.len() - (BGP_HEADER_LEN - 1);
                    let skip = cursor[1..wait]
                        .iter()
                        .position(|&b| b == 0xff)
                        .map_or(wait, |at| at + 1);
                    self.so_far.unparsed_bytes += skip as u64;
                    cursor = &cursor[skip..];
                }
            }
        }
        let consumed = self.buffer.len() - cursor.len();
        self.buffer.drain(..consumed);
    }

    /// Messages framed so far.
    pub fn messages_decoded(&self) -> usize {
        self.so_far.messages.len()
    }

    /// Bytes parked in the reassembler and framing buffer.
    pub fn buffered_bytes(&self) -> usize {
        self.reasm.pending_bytes()
            + self.buffer.len()
            + self.prebuf.iter().map(|(_, _, p)| p.len()).sum::<usize>()
    }

    /// The extraction so far, lent without consuming or copying — the
    /// live-monitoring path for connections that are still
    /// transferring.
    ///
    /// Unlike [`finish`](Self::finish), the unframed tail in the
    /// buffer is *not* counted as unparsed: it is a partial message
    /// still in flight, not corruption.
    pub fn extraction(&self) -> &Extraction<K> {
        &self.so_far
    }

    /// Completes extraction: unframed tail bytes are counted as
    /// unparsed, and a never-anchored stream is anchored at its lowest
    /// buffered sequence first.
    pub fn finish(mut self) -> Extraction<K> {
        if !self.anchored && !self.prebuf.is_empty() {
            self.anchor_at_min();
        }
        self.so_far.unparsed_bytes += self.buffer.len() as u64;
        self.so_far
    }
}

/// Reassembles the data direction of `conn` (whose segments index into
/// `frames`) and extracts its BGP messages, keeping what `K` keeps.
pub fn extract_from_frames<K: KeptMessages>(
    conn: &TcpConnection,
    frames: &[TcpFrame],
) -> Extraction<K> {
    let mut extractor = StreamExtractor::<K>::default();
    // Anchor at the SYN if captured, so handshake seq space is skipped.
    // Without a SYN (capture started mid-connection), anchor at the
    // lowest data sequence number seen — the first captured segment may
    // have arrived out of order.
    let data_segs = || conn.segments.iter().filter(|s| s.dir == Direction::Data);
    if let Some(syn) = data_segs().find(|s| s.flags.contains(TcpFlags::SYN)) {
        extractor.anchor(syn.seq.wrapping_add(1));
    } else if let Some(first) = data_segs().find(|s| s.payload_len > 0) {
        let ref_seq = first.seq;
        let min_rel = data_segs()
            .filter(|s| s.payload_len > 0)
            .map(|s| seq_diff(s.seq, ref_seq))
            .min()
            .unwrap_or(0);
        extractor.anchor(ref_seq.wrapping_add(min_rel as u32));
    }
    for seg in data_segs() {
        if seg.payload_len == 0 {
            continue;
        }
        extractor.push(
            seg.time,
            seg.seq,
            seg.flags,
            &frames[seg.frame_index].payload,
        );
    }
    extractor.finish()
}

/// Extracts the whole BGP messages of every connection in `frames` —
/// the `pcap2bgp` tool's view, which exists to hand messages on.
///
/// Returns `(connection, extraction)` pairs in the order of
/// [`tdat_trace::extract_connections`].
pub fn extract_all(frames: &[TcpFrame]) -> Vec<(TcpConnection, Extraction<WholeMessages>)> {
    tdat_trace::extract_connections(frames)
        .into_iter()
        .map(|conn| {
            let extraction = extract_from_frames(&conn, frames);
            (conn, extraction)
        })
        .collect()
}

/// Converts an extraction into MRT `BGP4MP_MESSAGE` records, ready for
/// [`tdat_bgp::write_mrt`].
pub fn to_mrt_records(
    conn: &TcpConnection,
    extraction: &Extraction<WholeMessages>,
    peer_as: u16,
    local_as: u16,
) -> Vec<MrtRecord> {
    extraction
        .messages
        .iter()
        .map(|(time, msg)| {
            MrtRecord::message(
                *time,
                peer_as,
                local_as,
                conn.sender.0,
                conn.receiver.0,
                msg,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use tdat_bgp::{BgpMessage, TableGenerator};
    use tdat_packet::FrameBuilder;

    fn frame(t: i64, seq: u32, payload: Vec<u8>) -> TcpFrame {
        FrameBuilder::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .at(Micros(t))
            .ports(179, 40000)
            .seq(seq)
            .ack_to(1)
            .payload(payload)
            .build()
    }

    #[test]
    fn reassembler_in_order() {
        let mut r = StreamReassembler::new();
        r.push(100, b"hello ");
        r.push(106, b"world");
        assert_eq!(r.take_ready(), b"hello world");
        assert_eq!(r.emitted(), 11);
        assert_eq!(r.duplicate_bytes(), 0);
    }

    #[test]
    fn reassembler_out_of_order_and_retransmission() {
        let mut r = StreamReassembler::new();
        r.anchor(100);
        r.push(106, b"world"); // future
        assert!(r.take_ready().is_empty());
        assert_eq!(r.pending_bytes(), 5);
        r.push(100, b"hello ");
        assert_eq!(r.take_ready(), b"hello world");
        r.push(100, b"hello "); // pure retransmission
        assert!(r.take_ready().is_empty());
        assert_eq!(r.duplicate_bytes(), 6);
    }

    #[test]
    fn reassembler_partial_overlap() {
        let mut r = StreamReassembler::new();
        r.push(100, b"abcd");
        // Overlapping retransmission carrying two fresh bytes.
        r.push(102, b"cdEF");
        assert_eq!(r.take_ready(), b"abcdEF");
        assert_eq!(r.duplicate_bytes(), 2);
    }

    #[test]
    fn reassembler_overlapping_future_segments() {
        let mut r = StreamReassembler::new();
        r.anchor(0);
        r.push(10, b"KLMNO");
        r.push(5, b"FGHIJ");
        r.push(0, b"ABCDE");
        assert_eq!(r.take_ready(), b"ABCDEFGHIJKLMNO");
    }

    #[test]
    fn reassembler_seq_wraparound() {
        let mut r = StreamReassembler::new();
        let start = u32::MAX - 2;
        r.anchor(start);
        r.push(start, b"abc"); // occupies MAX-2..=MAX, next wraps to 0
        r.push(0, b"def");
        assert_eq!(r.take_ready(), b"abcdef");
    }

    #[test]
    fn extraction_from_clean_stream() {
        let table = TableGenerator::new(1).routes(300).generate();
        let stream = table.to_update_stream();
        let mut frames = Vec::new();
        let mut seq = 1u32;
        for (i, chunk) in stream.chunks(1000).enumerate() {
            frames.push(frame(i as i64 * 1000, seq, chunk.to_vec()));
            seq = seq.wrapping_add(chunk.len() as u32);
        }
        let results = extract_all(&frames);
        assert_eq!(results.len(), 1);
        let (_, extraction) = &results[0];
        assert_eq!(extraction.announced_prefixes(), 300);
        assert_eq!(extraction.unparsed_bytes, 0);
        assert!(extraction
            .messages
            .iter()
            .all(|(_, m)| matches!(m, BgpMessage::Update(_))));
    }

    #[test]
    fn extraction_handles_reordering_and_retransmissions() {
        let table = TableGenerator::new(2).routes(300).generate();
        let stream = table.to_update_stream();
        let mut frames = Vec::new();
        let mut seq = 1u32;
        let chunks: Vec<(u32, Vec<u8>)> = stream
            .chunks(977)
            .map(|c| {
                let s = seq;
                seq = seq.wrapping_add(c.len() as u32);
                (s, c.to_vec())
            })
            .collect();
        // Swap every adjacent pair; duplicate every 5th chunk.
        let mut order: Vec<usize> = (0..chunks.len()).collect();
        for pair in order.chunks_mut(2) {
            pair.reverse();
        }
        let mut t = 0i64;
        for (n, &i) in order.iter().enumerate() {
            t += 500;
            frames.push(frame(t, chunks[i].0, chunks[i].1.clone()));
            if n % 5 == 0 {
                t += 100;
                frames.push(frame(t, chunks[i].0, chunks[i].1.clone()));
            }
        }
        let results = extract_all(&frames);
        let (_, extraction) = &results[0];
        assert_eq!(extraction.announced_prefixes(), 300);
        assert!(extraction.duplicate_bytes > 0);
        assert_eq!(extraction.unparsed_bytes, 0);
    }

    #[test]
    fn message_timestamps_wait_for_holes() {
        let ka = BgpMessage::Keepalive.to_bytes(); // 19 bytes
        let mut two = ka.clone();
        two.extend_from_slice(&ka);
        // First 10 bytes at t=0, remaining 28 at t=5000 — both messages
        // complete only at t=5000.
        let frames = vec![
            frame(0, 1, two[..10].to_vec()),
            frame(5_000, 11, two[10..].to_vec()),
        ];
        let results = extract_all(&frames);
        let (_, extraction) = &results[0];
        assert_eq!(extraction.messages.len(), 2);
        assert!(extraction.messages.iter().all(|(t, _)| *t == Micros(5_000)));
    }

    #[test]
    fn corrupt_bytes_counted_not_fatal() {
        let mut bytes = vec![0u8; 10]; // garbage: marker check fails
        bytes.extend_from_slice(&BgpMessage::Keepalive.to_bytes());
        let frames = vec![frame(0, 1, bytes)];
        let results = extract_all(&frames);
        let (_, extraction) = &results[0];
        assert_eq!(extraction.messages.len(), 1, "resyncs to the keepalive");
        assert_eq!(extraction.unparsed_bytes, 10);
    }

    #[test]
    fn stream_extractor_matches_batch_on_reordered_stream() {
        let table = TableGenerator::new(4).routes(250).generate();
        let stream = table.to_update_stream();
        let mut frames = Vec::new();
        let mut seq = 1u32;
        for (i, chunk) in stream.chunks(900).enumerate() {
            frames.push(frame(i as i64 * 500, seq, chunk.to_vec()));
            seq = seq.wrapping_add(chunk.len() as u32);
        }
        // Swap adjacent pairs to force reassembly holes.
        for pair in frames.chunks_mut(2) {
            pair.reverse();
        }
        let batch = extract_all(&frames).remove(0).1;
        let mut ex = StreamExtractor::<WholeMessages>::default();
        ex.anchor(1);
        for f in &frames {
            ex.push(f.timestamp, f.tcp.seq, f.tcp.flags, &f.payload);
        }
        assert_eq!(ex.finish(), batch);
    }

    #[test]
    fn extraction_snapshot_is_nondestructive_and_converges_to_finish() {
        let table = TableGenerator::new(6).routes(200).generate();
        let stream = table.to_update_stream();
        let mut ex = StreamExtractor::<WholeMessages>::default();
        ex.anchor(0);
        let mut seq = 0u32;
        let chunks: Vec<Vec<u8>> = stream.chunks(700).map(|c| c.to_vec()).collect();
        let half = chunks.len() / 2;
        for chunk in &chunks[..half] {
            ex.push(Micros(0), seq, TcpFlags::ACK, chunk);
            seq = seq.wrapping_add(chunk.len() as u32);
        }
        let mid = ex.extraction().clone();
        // Snapshotting twice yields the same thing and disturbs nothing.
        assert_eq!(&mid, ex.extraction());
        assert_eq!(mid.messages.len(), ex.messages_decoded());
        for chunk in &chunks[half..] {
            ex.push(Micros(1), seq, TcpFlags::ACK, chunk);
            seq = seq.wrapping_add(chunk.len() as u32);
        }
        let end = ex.extraction().clone();
        // The mid-stream messages are a prefix of the final list.
        assert_eq!(&end.messages[..mid.messages.len()], &mid.messages[..]);
        assert_eq!(ex.finish(), end, "drained stream: snapshot == finish");
    }

    #[test]
    fn stream_extractor_anchors_from_syn() {
        let ka = BgpMessage::Keepalive.to_bytes();
        let mut ex = StreamExtractor::new();
        // SYN at seq 500 → first data byte is 501.
        ex.push(Micros(0), 500, TcpFlags::SYN, &[]);
        ex.push(Micros(100), 501, TcpFlags::ACK, &ka);
        let out = ex.finish();
        assert_eq!(out.messages.len(), 1);
        assert_eq!(out.unparsed_bytes, 0);
    }

    #[test]
    fn stream_extractor_synless_capture_anchors_at_min_seq() {
        let ka = BgpMessage::Keepalive.to_bytes(); // 19 bytes
        let mut ex = StreamExtractor::new();
        // Mid-connection capture, first segment reordered after the
        // second: anchoring must pick the lower sequence (1000).
        ex.push(Micros(0), 1019, TcpFlags::ACK, &ka);
        ex.push(Micros(50), 1000, TcpFlags::ACK, &ka);
        let out = ex.finish();
        assert_eq!(out.messages.len(), 2);
        assert_eq!(out.unparsed_bytes, 0);
    }

    #[test]
    fn stream_extractor_buffered_bytes_stay_bounded() {
        let table = TableGenerator::new(5).routes(400).generate();
        let stream = table.to_update_stream();
        let mut ex = StreamExtractor::new();
        ex.anchor(0);
        let mut seq = 0u32;
        let mut max_buffered = 0;
        for chunk in stream.chunks(1448) {
            ex.push(Micros(0), seq, TcpFlags::ACK, chunk);
            seq = seq.wrapping_add(chunk.len() as u32);
            max_buffered = max_buffered.max(ex.buffered_bytes());
        }
        // In-order stream: never more than one partial message pending.
        assert!(max_buffered < 4096, "{max_buffered}");
        assert!(ex.messages_decoded() > 0);
    }

    #[test]
    fn reassembler_cap_drops_lowest_parked_segments() {
        let mut r = StreamReassembler::with_pending_cap(1024);
        r.anchor(0);
        // Flood of future segments behind an unfillable hole at seq 0.
        for i in 0..8u32 {
            r.push(1_000 + i * 512, &[b'x'; 512]);
        }
        assert!(r.pending_bytes() <= 1024, "{}", r.pending_bytes());
        assert!(r.overflow_bytes() > 0);
        // Filling the hole still drains whatever survived, no panic.
        r.push(0, &[b'y'; 1_000]);
        let out = r.take_ready();
        assert!(out.len() >= 1_000);
    }

    #[test]
    fn reassembler_cap_never_evicts_head_adjacent_data() {
        // The cap evicts lowest-seq parked segments; data that the
        // head is about to reach must survive when it fits the cap.
        let mut r = StreamReassembler::with_pending_cap(64);
        r.anchor(0);
        r.push(10, b"near-head");
        r.push(5_000, &[b'z'; 200]); // far segment blows the cap
        assert!(r.pending_bytes() <= 64);
        r.push(0, b"0123456789");
        assert_eq!(r.take_ready(), b"0123456789near-head");
    }

    #[test]
    fn preanchor_byte_cap_forces_anchor_instead_of_hoarding() {
        let ka = BgpMessage::Keepalive.to_bytes(); // 19 bytes
        let per_chunk = 1_700usize;
        let chunk: Vec<u8> = ka.iter().cycle().take(19 * per_chunk).cloned().collect();
        let mut ex = StreamExtractor::new();
        let mut seq = 5_000u32;
        let mut pushes = 0usize;
        // SYN-less capture of large segments: the byte cap must trip
        // long before the 64-segment bound.
        while ex.messages_decoded() == 0 {
            ex.push(Micros(0), seq, TcpFlags::ACK, &chunk);
            seq = seq.wrapping_add(chunk.len() as u32);
            pushes += 1;
            assert!(pushes < PREANCHOR_SEGMENTS, "segment bound hit first");
        }
        assert!(pushes * chunk.len() >= PREANCHOR_BYTES);
        let out = ex.finish();
        assert_eq!(out.messages.len(), pushes * per_chunk);
        assert_eq!(out.unparsed_bytes, 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Satellite: the reassembly byte cap interacts correctly with
        /// sequence wraparound — shifting every sequence number by
        /// 2^31 (so comparisons cross the wrap point) changes nothing
        /// about what is emitted, deduplicated, or evicted.
        #[test]
        fn cap_enforcement_is_translation_invariant(
            base in proptest::prelude::any::<u32>(),
            segs in proptest::prop::collection::vec(
                (0u32..100_000, 1usize..600),
                1..40,
            ),
        ) {
            let run = |offset: u32| {
                let start = base.wrapping_add(offset);
                let mut r = StreamReassembler::with_pending_cap(2_048);
                r.anchor(start);
                for (rel, len) in &segs {
                    let payload = vec![0xAB; *len];
                    r.push(start.wrapping_add(*rel), &payload);
                }
                (
                    r.take_ready().len(),
                    r.emitted(),
                    r.duplicate_bytes(),
                    r.overflow_bytes(),
                    r.pending_bytes(),
                )
            };
            let plain = run(0);
            let shifted = run(1 << 31);
            proptest::prop_assert_eq!(plain, shifted);
            proptest::prop_assert!(plain.4 <= 2_048);
        }
    }

    #[test]
    fn mrt_records_round_trip() {
        let frames = vec![frame(0, 1, BgpMessage::Keepalive.to_bytes())];
        let results = extract_all(&frames);
        let (conn, extraction) = &results[0];
        let records = to_mrt_records(conn, extraction, 65001, 65535);
        assert_eq!(records.len(), 1);
        let mut buf = Vec::new();
        tdat_bgp::write_mrt(&mut buf, &records).unwrap();
        let back = tdat_bgp::read_mrt(&buf[..]).unwrap();
        assert_eq!(back[0].bgp_message().unwrap(), BgpMessage::Keepalive);
        assert_eq!(back[0].peer_ip, Ipv4Addr::new(10, 0, 0, 1));
    }
}
