//! Property tests: any schedule of segmentation, reordering, and
//! duplication of a valid BGP byte stream reassembles to exactly the
//! original message sequence — whichever of the two kept-message types
//! the extractor fills — and a stream that is only partly BGP resyncs
//! exactly as a byte-at-a-time retry loop would.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use tdat_bgp::{BgpMessage, KeptMessages, MessageLog, TableGenerator, WholeMessages};
use tdat_packet::{FrameBuilder, TcpFlags, TcpFrame};
use tdat_pcap2bgp::{extract_all, Extraction, StreamExtractor, StreamReassembler};
use tdat_timeset::Micros;

fn frame(t: i64, seq: u32, payload: Vec<u8>) -> TcpFrame {
    FrameBuilder::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
        .at(Micros(t))
        .ports(179, 40000)
        .seq(seq)
        .ack_to(1)
        .payload(payload)
        .build()
}

/// Feeds `frames` one at a time, capture order, to one extractor of
/// each kept-message type; the log one must equal what the whole one
/// skims to.
fn extract_incrementally(frames: &[TcpFrame]) -> Result<Extraction<WholeMessages>, TestCaseError> {
    let mut whole = StreamExtractor::<WholeMessages>::default();
    let mut log = StreamExtractor::new();
    for f in frames {
        whole.push(f.timestamp, f.tcp.seq, f.tcp.flags, &f.payload);
        log.push(f.timestamp, f.tcp.seq, f.tcp.flags, &f.payload);
    }
    let whole = whole.finish();
    prop_assert_eq!(log.finish(), whole.to_log());
    Ok(whole)
}

/// A delivery plan: chunk sizes, a permutation bias, and duplication
/// flags.
#[derive(Debug, Clone)]
struct Plan {
    chunk_sizes: Vec<usize>,
    swaps: Vec<(usize, usize)>,
    duplicates: Vec<usize>,
    base_seq: u32,
}

fn arb_plan() -> impl Strategy<Value = Plan> {
    (
        prop::collection::vec(1usize..1600, 4..40),
        prop::collection::vec((0usize..64, 0usize..64), 0..12),
        prop::collection::vec(0usize..64, 0..8),
        any::<u32>(),
    )
        .prop_map(|(chunk_sizes, swaps, duplicates, base_seq)| Plan {
            chunk_sizes,
            swaps,
            duplicates,
            base_seq,
        })
}

fn deliver(stream: &[u8], plan: &Plan) -> Vec<TcpFrame> {
    // Cut the stream into chunks per the plan (cycling sizes).
    let mut chunks: Vec<(u32, Vec<u8>)> = Vec::new();
    let mut offset = 0usize;
    let mut i = 0usize;
    while offset < stream.len() {
        let size = plan.chunk_sizes[i % plan.chunk_sizes.len()].min(stream.len() - offset);
        chunks.push((
            plan.base_seq.wrapping_add(offset as u32),
            stream[offset..offset + size].to_vec(),
        ));
        offset += size;
        i += 1;
    }
    // Local swaps (bounded displacement keeps pending-buffer use sane).
    let n = chunks.len();
    for &(a, b) in &plan.swaps {
        if n >= 2 {
            let a = a % n;
            let b = b % n;
            chunks.swap(a, b);
        }
    }
    // Duplicates.
    let mut order: Vec<usize> = (0..chunks.len()).collect();
    for &d in &plan.duplicates {
        if !chunks.is_empty() {
            order.push(d % chunks.len());
        }
    }
    order
        .iter()
        .enumerate()
        .map(|(t, &idx)| frame(t as i64 * 100, chunks[idx].0, chunks[idx].1.clone()))
        .collect()
}

/// A delivery plan with *overlapping* retransmissions: besides
/// chunking and local reordering, arbitrary `[offset, offset+len)`
/// ranges of the stream are re-sent at arbitrary points of the
/// delivery — straddling the original segmentation and BGP message
/// boundaries.
#[derive(Debug, Clone)]
struct RetransPlan {
    chunk_sizes: Vec<usize>,
    swaps: Vec<(usize, usize)>,
    /// `(byte-offset seed, length, insert-position seed)` per re-send.
    retrans: Vec<(u32, usize, usize)>,
    base_seq: u32,
}

fn arb_retrans_plan() -> impl Strategy<Value = RetransPlan> {
    (
        prop::collection::vec(1usize..1600, 4..40),
        prop::collection::vec((0usize..64, 0usize..64), 0..12),
        prop::collection::vec((any::<u32>(), 1usize..2000, 0usize..256), 0..10),
        any::<u32>(),
    )
        .prop_map(|(chunk_sizes, swaps, retrans, base_seq)| RetransPlan {
            chunk_sizes,
            swaps,
            retrans,
            base_seq,
        })
}

/// Materializes the plan: a SYN (anchoring both extractors at
/// `base_seq`), the chunked-and-swapped stream, and the overlapping
/// retransmissions spliced in.
fn deliver_with_retrans(stream: &[u8], plan: &RetransPlan) -> Vec<TcpFrame> {
    let mut sends: Vec<(u32, Vec<u8>)> = Vec::new();
    let mut offset = 0usize;
    let mut i = 0usize;
    while offset < stream.len() {
        let size = plan.chunk_sizes[i % plan.chunk_sizes.len()].min(stream.len() - offset);
        sends.push((
            plan.base_seq.wrapping_add(offset as u32),
            stream[offset..offset + size].to_vec(),
        ));
        offset += size;
        i += 1;
    }
    let n = sends.len();
    for &(a, b) in &plan.swaps {
        if n >= 2 {
            sends.swap(a % n, b % n);
        }
    }
    for &(off_seed, len, pos_seed) in &plan.retrans {
        let off = off_seed as usize % stream.len();
        let len = len.min(stream.len() - off).max(1);
        let resend = (
            plan.base_seq.wrapping_add(off as u32),
            stream[off..off + len].to_vec(),
        );
        sends.insert(pos_seed % (sends.len() + 1), resend);
    }
    let mut frames =
        vec![
            FrameBuilder::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
                .at(Micros(0))
                .ports(179, 40000)
                .seq(plan.base_seq.wrapping_sub(1))
                .flags(TcpFlags::SYN)
                .build(),
        ];
    frames.extend(
        sends
            .iter()
            .enumerate()
            .map(|(t, (seq, payload))| frame((t as i64 + 1) * 100, *seq, payload.clone())),
    );
    frames
}

/// One piece of a stream that is only partly BGP.
#[derive(Debug, Clone)]
enum Piece {
    /// The `n`-th UPDATE of the table (modulo its length), intact.
    Update(usize),
    /// The front of one, cut short.
    CutUpdate(usize, usize),
    /// A run of marker bytes.
    Ones(usize),
    /// Arbitrary bytes.
    Noise(Vec<u8>),
}

fn arb_piece() -> impl Strategy<Value = Piece> {
    prop_oneof![
        (0usize..64).prop_map(Piece::Update),
        (0usize..64).prop_map(Piece::Update),
        (0usize..64, 1usize..200).prop_map(|(n, cut)| Piece::CutUpdate(n, cut)),
        (1usize..48).prop_map(Piece::Ones),
        prop::collection::vec(any::<u8>(), 1..80).prop_map(Piece::Noise),
    ]
}

/// The resync rule as it was first written, kept here as the reference:
/// on a reject, count one unparsed byte, skip it, try again.
#[derive(Default)]
struct ByteAtATime {
    buffer: Vec<u8>,
    messages: WholeMessages,
    unparsed_bytes: u64,
}

impl ByteAtATime {
    fn feed(&mut self, time: Micros, bytes: &[u8]) {
        self.buffer.extend_from_slice(bytes);
        let mut cursor = &self.buffer[..];
        loop {
            match BgpMessage::decode(&mut cursor) {
                Ok(Some(message)) => self.messages.push((time, message)),
                Ok(None) => break,
                Err(_) => {
                    self.unparsed_bytes += 1;
                    cursor = &cursor[1..];
                }
            }
        }
        let consumed = self.buffer.len() - cursor.len();
        self.buffer.drain(..consumed);
    }
}

/// Feeds `segments` in order to an extractor keeping `K` and to the
/// byte-at-a-time reference, holding after every segment that both
/// have counted the same unparsed bytes, framed the same number of
/// messages and left the same tail waiting.
fn resync_against_reference<K: KeptMessages>(
    segments: &[&[u8]],
) -> Result<(Extraction<K>, ByteAtATime), TestCaseError> {
    let mut extractor = StreamExtractor::<K>::default();
    extractor.anchor(1);
    let mut reference = ByteAtATime::default();
    let mut seq = 1u32;
    for (i, segment) in segments.iter().enumerate() {
        let time = Micros(i as i64 * 100);
        extractor.push(time, seq, TcpFlags::ACK, segment);
        reference.feed(time, segment);
        seq = seq.wrapping_add(segment.len() as u32);
        prop_assert_eq!(
            extractor.extraction().unparsed_bytes,
            reference.unparsed_bytes
        );
        prop_assert_eq!(extractor.messages_decoded(), reference.messages.len());
        prop_assert_eq!(extractor.buffered_bytes(), reference.buffer.len());
    }
    Ok((extractor.finish(), reference))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Skipping ahead to the next possible marker start on a reject is
    /// the byte-at-a-time rule, faster: over mixes of valid updates,
    /// truncated ones, `0xff` runs and noise under random segmentation,
    /// the same unparsed count, message sequence and leftover tail —
    /// for both kept-message types.
    #[test]
    fn resync_matches_byte_at_a_time_reference(
        pieces in prop::collection::vec(arb_piece(), 1..24),
        cuts in prop::collection::vec(1usize..1600, 1..12),
    ) {
        let updates: Vec<Vec<u8>> = TableGenerator::new(31)
            .routes(400)
            .generate()
            .to_updates()
            .into_iter()
            .map(|u| BgpMessage::Update(u).to_bytes())
            .collect();
        let mut stream = Vec::new();
        for piece in &pieces {
            match piece {
                Piece::Update(n) => stream.extend_from_slice(&updates[n % updates.len()]),
                Piece::CutUpdate(n, cut) => {
                    let wire = &updates[n % updates.len()];
                    stream.extend_from_slice(&wire[..(*cut).min(wire.len() - 1)]);
                }
                Piece::Ones(n) => stream.resize(stream.len() + n, 0xff),
                Piece::Noise(bytes) => stream.extend_from_slice(bytes),
            }
        }
        let mut segments = Vec::new();
        let mut rest = &stream[..];
        for size in cuts.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (segment, tail) = rest.split_at((*size).min(rest.len()));
            segments.push(segment);
            rest = tail;
        }

        let (whole, reference) = resync_against_reference::<WholeMessages>(&segments)?;
        let tail = reference.buffer.len() as u64;
        prop_assert_eq!(whole.unparsed_bytes, reference.unparsed_bytes + tail);
        prop_assert_eq!(&whole.messages, &reference.messages);
        let (log, _) = resync_against_reference::<MessageLog>(&segments)?;
        prop_assert_eq!(log, whole.to_log());
    }

    #[test]
    fn reassembler_reconstructs_byte_stream(plan in arb_plan(), len in 1usize..20_000) {
        let stream: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let mut reasm = StreamReassembler::new();
        reasm.anchor(plan.base_seq);
        let mut out = Vec::new();
        for f in deliver(&stream, &plan) {
            reasm.push(f.tcp.seq, &f.payload);
            out.extend(reasm.take_ready());
        }
        prop_assert_eq!(out, stream);
    }

    #[test]
    fn bgp_extraction_invariant_under_delivery_schedule(plan in arb_plan()) {
        let table = TableGenerator::new(17).routes(150).generate();
        let mut reference = Vec::new();
        for update in table.to_updates() {
            reference.push(BgpMessage::Update(update));
        }
        let stream = table.to_update_stream();
        let frames = deliver(&stream, &plan);
        let results = extract_all(&frames);
        prop_assert_eq!(results.len(), 1);
        let got: Vec<BgpMessage> = results[0].1.messages.iter().map(|(_, m)| m.clone()).collect();
        prop_assert_eq!(got, reference);
        prop_assert_eq!(results[0].1.unparsed_bytes, 0);
    }

    /// The incremental extractor (fed frame by frame, as the streaming
    /// engine and live monitor do) and the offline whole-trace
    /// extractor must produce identical extractions — messages, times,
    /// and byte accounting — under overlapping retransmissions and
    /// out-of-order segments that straddle BGP message boundaries.
    #[test]
    fn incremental_extractor_matches_offline_extractor(plan in arb_retrans_plan()) {
        let table = TableGenerator::new(23).routes(120).generate();
        let stream = table.to_update_stream();
        let frames = deliver_with_retrans(&stream, &plan);

        // Offline: connection extraction over the complete capture.
        let results = extract_all(&frames);
        prop_assert_eq!(results.len(), 1);
        let offline = &results[0].1;

        // Incremental: one frame at a time, capture order.
        let incremental = extract_incrementally(&frames)?;
        prop_assert_eq!(&incremental, offline);

        // Both equal the ground-truth message sequence, fully parsed.
        let reference: Vec<BgpMessage> = table
            .to_updates()
            .into_iter()
            .map(BgpMessage::Update)
            .collect();
        let got: Vec<BgpMessage> =
            incremental.messages.iter().map(|(_, m)| m.clone()).collect();
        prop_assert_eq!(got, reference);
        prop_assert_eq!(incremental.unparsed_bytes, 0);
        // Overlap splicing implies discarded duplicate bytes whenever
        // the plan re-sent anything.
        if !plan.retrans.is_empty() {
            prop_assert!(incremental.duplicate_bytes > 0);
        }
    }

    /// Reassembly through a 2^32 sequence wrap: the base sequence is
    /// forced so the stream crosses `u32::MAX` strictly mid-payload
    /// (random bases almost never land there), and both the plain
    /// reassembler and the full BGP extraction must behave exactly as
    /// at any other base.
    #[test]
    fn reassembly_crosses_seq_wrap(plan in arb_plan(), len in 64usize..20_000, cross_seed in 0usize..1_000_000) {
        let stream: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let cross = 1 + cross_seed % len;
        let plan = Plan { base_seq: 0u32.wrapping_sub(cross as u32), ..plan };

        let mut reasm = StreamReassembler::new();
        reasm.anchor(plan.base_seq);
        let mut out = Vec::new();
        for f in deliver(&stream, &plan) {
            reasm.push(f.tcp.seq, &f.payload);
            out.extend(reasm.take_ready());
        }
        prop_assert_eq!(out, stream);
    }

    /// Full BGP message extraction (offline and incremental) through a
    /// forced 2^32 wrap, including overlapping retransmissions that
    /// straddle the wrap point.
    #[test]
    fn extraction_crosses_seq_wrap(plan in arb_retrans_plan(), cross_seed in 0usize..1_000_000) {
        let table = TableGenerator::new(29).routes(120).generate();
        let stream = table.to_update_stream();
        let cross = 1 + cross_seed % stream.len();
        let plan = RetransPlan { base_seq: 0u32.wrapping_sub(cross as u32), ..plan };
        let frames = deliver_with_retrans(&stream, &plan);

        let results = extract_all(&frames);
        prop_assert_eq!(results.len(), 1);
        let offline = &results[0].1;

        let incremental = extract_incrementally(&frames)?;
        prop_assert_eq!(&incremental, offline);

        let reference: Vec<BgpMessage> = table
            .to_updates()
            .into_iter()
            .map(BgpMessage::Update)
            .collect();
        let got: Vec<BgpMessage> =
            incremental.messages.iter().map(|(_, m)| m.clone()).collect();
        prop_assert_eq!(got, reference);
        prop_assert_eq!(incremental.unparsed_bytes, 0);
    }
}
