//! TCP connection extraction from packet traces.

use std::collections::VecDeque;
use std::net::Ipv4Addr;

use tdat_packet::{seq_diff, FrameLike, TcpFlags};
use tdat_timeset::Micros;

/// One endpoint of a connection.
pub type Endpoint = (Ipv4Addr, u16);

/// Normalized connection key: the endpoint pair, order-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnKey {
    /// Lexicographically smaller endpoint.
    pub a: Endpoint,
    /// Lexicographically larger endpoint.
    pub b: Endpoint,
}

impl ConnKey {
    /// Builds the normalized key for a frame's 4-tuple. Accepts any
    /// [`FrameLike`], so borrowed zero-copy views work without an owned
    /// [`TcpFrame`](tdat_packet::TcpFrame).
    pub fn of(frame: &impl FrameLike) -> ConnKey {
        ConnKey::of_endpoints(frame.src(), frame.dst())
    }

    /// Builds the normalized key for a pair of endpoints in either
    /// order (e.g. from a lossy decode that salvaged only addresses).
    pub fn of_endpoints(x: Endpoint, y: Endpoint) -> ConnKey {
        if x <= y {
            ConnKey { a: x, b: y }
        } else {
            ConnKey { a: y, b: x }
        }
    }
}

/// Direction of a segment relative to the connection's *data sender*
/// (the operational router in the paper's setting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Sender → receiver: the table-transfer data path.
    Data,
    /// Receiver → sender: ACKs (plus the receiver's own small messages).
    Ack,
}

/// A summarized segment of a connection, in capture order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Capture timestamp.
    pub time: Micros,
    /// Which way it was heading.
    pub dir: Direction,
    /// Sequence number.
    pub seq: u32,
    /// Sequence number after the payload (+SYN/FIN).
    pub seq_end: u32,
    /// Acknowledgment number (valid if ACK flag set).
    pub ack: u32,
    /// Advertised window in bytes, with any negotiated RFC 1323 window
    /// scale already applied (SYN windows are reported unscaled, per
    /// the RFC).
    pub window: u32,
    /// Payload byte count.
    pub payload_len: u32,
    /// Flags.
    pub flags: TcpFlags,
    /// Index of the frame in the input slice, for drill-down.
    pub frame_index: usize,
}

impl Segment {
    /// True if this is a pure ACK (no payload, no SYN/FIN/RST).
    pub fn is_pure_ack(&self) -> bool {
        self.payload_len == 0
            && self.flags.contains(TcpFlags::ACK)
            && !self
                .flags
                .intersects(TcpFlags::SYN | TcpFlags::FIN | TcpFlags::RST)
    }
}

/// Connection-level facts extracted from the trace (the paper obtains
/// these with `tcptrace`, §III-B).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConnProfile {
    /// First frame time (the SYN for complete captures) — also the BGP
    /// table transfer start (§II-A).
    pub start: Micros,
    /// Last frame time.
    pub end: Micros,
    /// Handshake completion time, if the handshake was captured.
    pub established: Option<Micros>,
    /// Round-trip time estimated from the handshake (SYN → handshake
    /// ACK at the sniffer spans both path halves).
    pub rtt: Option<Micros>,
    /// Downstream RTT component `d1` (sniffer→receiver→sniffer):
    /// median delay from a data segment to the ACK covering it.
    pub d1: Option<Micros>,
    /// Negotiated MSS (minimum of both SYNs' options), if seen.
    pub mss: Option<u32>,
    /// Window-scale shift announced by the data sender in its SYN.
    pub sender_wscale: Option<u8>,
    /// Window-scale shift announced by the receiver in its SYN|ACK.
    pub receiver_wscale: Option<u8>,
    /// Maximum window the receiver ever advertised.
    pub max_receiver_window: u32,
    /// Data-direction payload bytes.
    pub data_bytes: u64,
    /// Data-direction segment count.
    pub data_segments: u64,
    /// Total captured frames.
    pub frames: u64,
    /// True if a RST was seen.
    pub reset: bool,
}

impl ConnProfile {
    /// Upstream RTT component `d2 = rtt - d1` (sniffer→sender→sniffer),
    /// when both estimates exist.
    pub fn d2(&self) -> Option<Micros> {
        match (self.rtt, self.d1) {
            (Some(rtt), Some(d1)) => Some(rtt.saturating_sub(d1)),
            _ => None,
        }
    }
}

/// One extracted TCP connection, oriented data-sender → receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpConnection {
    /// The data sender (most payload bytes; the router).
    pub sender: Endpoint,
    /// The data receiver (the collector).
    pub receiver: Endpoint,
    /// All segments in capture order (both directions).
    pub segments: Vec<Segment>,
    /// Connection profile.
    pub profile: ConnProfile,
}

impl TcpConnection {
    /// Data-direction segments, in capture order.
    pub fn data_segments(&self) -> impl Iterator<Item = &Segment> {
        self.segments.iter().filter(|s| s.dir == Direction::Data)
    }

    /// Ack-direction segments, in capture order.
    pub fn ack_segments(&self) -> impl Iterator<Item = &Segment> {
        self.segments.iter().filter(|s| s.dir == Direction::Ack)
    }
}

/// The per-frame facts connection building needs, captured once per
/// frame so a [`TcpConnection`] is built without retaining frame
/// payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FrameMeta {
    pub time: Micros,
    pub src: Endpoint,
    pub dst: Endpoint,
    pub seq: u32,
    pub seq_end: u32,
    pub ack: u32,
    pub window: u16,
    pub payload_len: u32,
    pub flags: TcpFlags,
    pub mss: Option<u16>,
    pub wscale: Option<u8>,
    pub frame_index: usize,
}

impl FrameMeta {
    /// Captures the fields of `frame`, recorded as trace index `index`.
    pub(crate) fn of(frame: &impl FrameLike, index: usize) -> FrameMeta {
        let tcp = frame.tcp();
        FrameMeta {
            time: frame.timestamp(),
            src: frame.src(),
            dst: frame.dst(),
            seq: tcp.seq,
            seq_end: frame.seq_end(),
            ack: tcp.ack,
            window: tcp.window,
            payload_len: frame.payload_len() as u32,
            flags: tcp.flags,
            mss: tcp.mss(),
            wscale: tcp.window_scale(),
            frame_index: index,
        }
    }
}

/// Builds one oriented, profiled connection from its frames' metadata
/// (in capture order) — the one connection builder, behind every
/// [`ConnectionTracker`](crate::ConnectionTracker) finalization and
/// snapshot.
///
/// The data sender is the side that transmitted more payload bytes
/// (for BGP monitoring traces, the operational router by orders of
/// magnitude); ties go to the connection initiator.
pub(crate) fn build_connection(metas: &[FrameMeta]) -> TcpConnection {
    // Payload bytes per endpoint that sent a frame: a connection's
    // frames come from its two endpoints, the first frame's two.
    let endpoints = [metas[0].src, metas[0].dst];
    let mut bytes: [Option<u64>; 2] = [None; 2];
    let mut initiator: Option<Endpoint> = None;
    for m in metas {
        debug_assert!(endpoints.contains(&m.src), "one connection's frames");
        let side = usize::from(m.src != endpoints[0]);
        *bytes[side].get_or_insert(0) += m.payload_len as u64;
        if m.flags.contains(TcpFlags::SYN) && !m.flags.contains(TcpFlags::ACK) {
            initiator.get_or_insert(m.src);
        }
    }
    let sent = || {
        endpoints
            .into_iter()
            .zip(bytes)
            .filter_map(|(ep, b)| Some((ep, b?)))
    };
    let first_src = metas[0].src;
    // Most payload bytes wins; the initiator breaks a tie, then the
    // endpoint ordering (for determinism without a captured SYN).
    let max_bytes = sent().map(|(_, b)| b).max().unwrap_or(0);
    let sender = initiator
        .filter(|init| sent().find(|(ep, _)| ep == init).map_or(0, |(_, b)| b) == max_bytes)
        .or_else(|| {
            sent()
                .filter(|(_, b)| *b == max_bytes)
                .map(|(ep, _)| ep)
                .min()
        })
        .unwrap_or(first_src);
    let receiver = metas
        .iter()
        .find_map(|m| {
            if m.src == sender {
                Some(m.dst)
            } else if m.dst == sender {
                Some(m.src)
            } else {
                None
            }
        })
        .expect("nonempty group");

    let mut segments = Vec::with_capacity(metas.len());
    let mut profile = ConnProfile {
        start: metas[0].time,
        ..ConnProfile::default()
    };
    let mut syn_time: Option<Micros> = None;
    let mut syn_ack_seen = false;
    let mut sender_mss: Option<u32> = None;
    let mut receiver_mss: Option<u32> = None;

    // First pass: window-scale negotiation (RFC 1323 — active only if
    // *both* SYNs carried the option). Scaled values are applied to
    // every non-SYN segment below.
    for m in metas {
        if m.flags.contains(TcpFlags::SYN) {
            if m.src == sender {
                profile.sender_wscale = m.wscale;
            } else {
                profile.receiver_wscale = m.wscale;
            }
        }
    }
    let scaling_active = profile.sender_wscale.is_some() && profile.receiver_wscale.is_some();
    let scale_of = |dir: Direction| -> u8 {
        if !scaling_active {
            return 0;
        }
        match dir {
            // A data-direction segment carries the *sender's* advertised
            // window, scaled by the shift the sender announced.
            Direction::Data => profile.sender_wscale.unwrap_or(0),
            Direction::Ack => profile.receiver_wscale.unwrap_or(0),
        }
    };

    for m in metas {
        let dir = if m.src == sender {
            Direction::Data
        } else {
            Direction::Ack
        };
        let shift = if m.flags.contains(TcpFlags::SYN) {
            0 // SYN windows are never scaled
        } else {
            scale_of(dir)
        };
        let seg = Segment {
            time: m.time,
            dir,
            seq: m.seq,
            seq_end: m.seq_end,
            ack: m.ack,
            window: (m.window as u32) << shift,
            payload_len: m.payload_len,
            flags: m.flags,
            frame_index: m.frame_index,
        };
        profile.end = profile.end.max(m.time);
        profile.frames += 1;
        if m.flags.contains(TcpFlags::RST) {
            profile.reset = true;
        }
        match dir {
            Direction::Data => {
                profile.data_bytes += seg.payload_len as u64;
                if seg.payload_len > 0 {
                    profile.data_segments += 1;
                }
                if let Some(mss) = m.mss {
                    sender_mss = Some(mss as u32);
                }
                if m.flags.contains(TcpFlags::SYN) && !m.flags.contains(TcpFlags::ACK) {
                    syn_time.get_or_insert(m.time);
                }
                // Handshake third packet: pure ACK from the sender after
                // the SYN|ACK.
                if syn_ack_seen && profile.established.is_none() && seg.is_pure_ack() {
                    profile.established = Some(m.time);
                    if let Some(syn) = syn_time {
                        profile.rtt = Some(m.time - syn);
                    }
                }
            }
            Direction::Ack => {
                profile.max_receiver_window = profile.max_receiver_window.max(seg.window);
                if let Some(mss) = m.mss {
                    receiver_mss = Some(mss as u32);
                }
                if m.flags.contains(TcpFlags::SYN) && m.flags.contains(TcpFlags::ACK) {
                    syn_ack_seen = true;
                }
            }
        }
        segments.push(seg);
    }
    profile.mss = match (sender_mss, receiver_mss) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (one, None) | (None, one) => one,
    };
    profile.d1 = estimate_d1(&segments);
    TcpConnection {
        sender,
        receiver,
        segments,
        profile,
    }
}

/// Median delay between a data segment's arrival at the sniffer and the
/// first ACK covering it — the `d1` (sniffer↔receiver) RTT component.
fn estimate_d1(segments: &[Segment]) -> Option<Micros> {
    let mut samples: Vec<i64> = Vec::new();
    // First transmissions not yet covered, in sequence order, as
    // (seq_end, sent, offset): `offset` is `seq_end` unwrapped, counted
    // from the first one.
    let mut pending: VecDeque<(u32, Micros, i64)> = VecDeque::new();
    let mut max_seen: Option<(u32, i64)> = None;
    for seg in segments {
        match seg.dir {
            Direction::Data if seg.payload_len > 0 => {
                // Only time first transmissions (Karn).
                let offset = match max_seen {
                    None => 0,
                    Some((m, at)) if seq_diff(seg.seq_end, m) > 0 => at + seq_diff(seg.seq_end, m),
                    Some(_) => continue,
                };
                pending.push_back((seg.seq_end, seg.time, offset));
                max_seen = Some((seg.seq_end, offset));
            }
            Direction::Ack if seg.flags.contains(TcpFlags::ACK) => {
                let covered = |seq_end: u32| seq_diff(seg.ack, seq_end) >= 0;
                while let Some(&(_, sent, _)) = pending.front().filter(|(e, _, _)| covered(*e)) {
                    samples.push((seg.time - sent).as_micros());
                    pending.pop_front();
                }
                // The rest lie above the first uncovered one, within
                // `span` of it, so the ACK covers none of them unless it
                // trails that one by so much that comparing with one of
                // them wraps: then each is tested.
                if let (Some(first), Some(last)) = (pending.front(), pending.back()) {
                    let span = last.2 - first.2;
                    if seq_diff(seg.ack, first.0) - span < -(1i64 << 31) {
                        pending.retain(|&(seq_end, sent, _)| {
                            let hit = covered(seq_end);
                            if hit {
                                samples.push((seg.time - sent).as_micros());
                            }
                            !hit
                        });
                    }
                }
            }
            _ => {}
        }
    }
    if samples.is_empty() {
        return None;
    }
    // The upper median: the element a sort would put at `len / 2`.
    let middle = samples.len() / 2;
    Some(Micros(*samples.select_nth_unstable(middle).1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract_connections;
    use tdat_packet::{FrameBuilder, TcpFrame};

    fn addr(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    /// A minimal handshake + data exchange used by several tests.
    fn sample_trace() -> Vec<TcpFrame> {
        let a = addr(1);
        let b = addr(2);
        // Handshake: a initiates. Sniffer near b: SYN|ACK follows the
        // SYN almost immediately; the final ACK arrives one RTT later.
        vec![
            FrameBuilder::new(a, b)
                .at(Micros(0))
                .ports(179, 40000)
                .seq(100)
                .flags(TcpFlags::SYN)
                .option(tdat_packet::TcpOption::Mss(1448))
                .window(65535)
                .build(),
            FrameBuilder::new(b, a)
                .at(Micros(100))
                .ports(40000, 179)
                .seq(900)
                .ack_to(101)
                .flags(TcpFlags::SYN | TcpFlags::ACK)
                .option(tdat_packet::TcpOption::Mss(1400))
                .window(16384)
                .build(),
            FrameBuilder::new(a, b)
                .at(Micros(20_100))
                .ports(179, 40000)
                .seq(101)
                .ack_to(901)
                .window(65535)
                .build(),
            // Data a→b, ACKed by b 300 us later (d1).
            FrameBuilder::new(a, b)
                .at(Micros(25_000))
                .ports(179, 40000)
                .seq(101)
                .ack_to(901)
                .payload(vec![0; 1000])
                .build(),
            FrameBuilder::new(b, a)
                .at(Micros(25_300))
                .ports(40000, 179)
                .seq(901)
                .ack_to(1101)
                .window(16384)
                .build(),
        ]
    }

    #[test]
    fn single_connection_extracted_and_oriented() {
        let frames = sample_trace();
        let conns = extract_connections(&frames);
        assert_eq!(conns.len(), 1);
        let c = &conns[0];
        assert_eq!(c.sender, (addr(1), 179));
        assert_eq!(c.receiver, (addr(2), 40000));
        assert_eq!(c.segments.len(), 5);
        assert_eq!(c.data_segments().count(), 3);
        assert_eq!(c.ack_segments().count(), 2);
    }

    #[test]
    fn profile_fields() {
        let conns = extract_connections(&sample_trace());
        let p = &conns[0].profile;
        assert_eq!(p.start, Micros(0));
        assert_eq!(p.end, Micros(25_300));
        assert_eq!(p.established, Some(Micros(20_100)));
        assert_eq!(p.rtt, Some(Micros(20_100)));
        assert_eq!(p.mss, Some(1400), "negotiated minimum");
        assert_eq!(p.max_receiver_window, 16384);
        assert_eq!(p.data_bytes, 1000);
        assert_eq!(p.d1, Some(Micros(300)));
        assert_eq!(p.d2(), Some(Micros(19_800)));
        assert!(!p.reset);
    }

    #[test]
    fn multiple_connections_split_by_4_tuple() {
        let mut frames = sample_trace();
        // A second connection from a different router.
        for f in sample_trace() {
            let mut f2 = f.clone();
            f2.ip.src = if f.src().0 == addr(1) {
                addr(3)
            } else {
                f.ip.src
            };
            f2.ip.dst = if f.dst().0 == addr(1) {
                addr(3)
            } else {
                f.ip.dst
            };
            frames.push(f2);
        }
        let conns = extract_connections(&frames);
        assert_eq!(conns.len(), 2);
    }

    #[test]
    fn orientation_falls_back_to_initiator_on_byte_tie() {
        let a = addr(1);
        let b = addr(2);
        let frames = vec![
            FrameBuilder::new(a, b)
                .at(Micros(0))
                .ports(179, 40000)
                .seq(1)
                .flags(TcpFlags::SYN)
                .build(),
            FrameBuilder::new(b, a)
                .at(Micros(10))
                .ports(40000, 179)
                .seq(2)
                .ack_to(2)
                .flags(TcpFlags::SYN | TcpFlags::ACK)
                .build(),
        ];
        let conns = extract_connections(&frames);
        assert_eq!(conns[0].sender, (a, 179));
    }

    #[test]
    fn rst_marks_profile() {
        let a = addr(1);
        let b = addr(2);
        let frames = vec![FrameBuilder::new(a, b)
            .ports(1, 2)
            .flags(TcpFlags::RST)
            .build()];
        let conns = extract_connections(&frames);
        assert!(conns[0].profile.reset);
    }

    #[test]
    fn d1_ignores_retransmitted_ranges() {
        let a = addr(1);
        let b = addr(2);
        let data = |t: i64, seq: u32| {
            FrameBuilder::new(a, b)
                .at(Micros(t))
                .ports(179, 40000)
                .seq(seq)
                .payload(vec![0; 100])
                .build()
        };
        let ack = |t: i64, ackn: u32| {
            FrameBuilder::new(b, a)
                .at(Micros(t))
                .ports(40000, 179)
                .seq(1)
                .ack_to(ackn)
                .build()
        };
        // seq 100 sent, retransmitted, then acked: no d1 sample for it
        // (Karn); seq 200 gives the only sample (500 us).
        let frames = vec![
            data(0, 100),
            data(50_000, 100), // retransmission (not beyond max_seen)
            ack(50_200, 200),
            data(60_000, 200),
            ack(60_500, 300),
        ];
        let conns = extract_connections(&frames);
        // Sample 1: 100..200 acked at 50_200 → 50_200 us (first copy timed).
        // Sample 2: 200..300 → 500 us. Median of [500, 50_200] → 50_200?
        // Sorted: [500, 50200]; len/2 = 1 → 50200. The Karn rule only
        // guards double-counting of the retransmitted copy itself.
        assert_eq!(conns[0].profile.d1, Some(Micros(50_200)));
    }
}
