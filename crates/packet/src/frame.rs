//! Full captured frames: timestamp + Ethernet/IPv4/TCP layers + payload.

use bytes::BufMut;
use std::fmt;
use std::net::Ipv4Addr;

use crate::error::{PacketError, Result};
use crate::eth::{EthernetHeader, MacAddr, ETHERTYPE_IPV4};
use crate::ipv4::{internet_checksum, Ipv4Header, IPPROTO_TCP};
use crate::tcp::{TcpFlags, TcpHeader, TcpOption};
use tdat_timeset::Micros;

/// A TCP/IPv4/Ethernet frame with its capture timestamp — one record of
/// a packet trace.
///
/// This is the parsed, in-memory view of a tcpdump record that all the
/// analysis crates operate on. [`TcpFrame::parse`] decodes it from wire
/// bytes, [`TcpFrame::to_wire`] re-encodes it (recomputing checksums).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpFrame {
    /// Capture timestamp relative to the trace epoch.
    pub timestamp: Micros,
    /// Link layer header.
    pub eth: EthernetHeader,
    /// Network layer header.
    pub ip: Ipv4Header,
    /// Transport layer header.
    pub tcp: TcpHeader,
    /// TCP payload bytes.
    pub payload: Vec<u8>,
}

impl TcpFrame {
    /// Parses an Ethernet frame carrying TCP over IPv4.
    ///
    /// # Errors
    ///
    /// Fails for truncated input, a non-IPv4 EtherType, a non-TCP
    /// protocol number, or malformed headers. Frames whose IP
    /// `total_len` is shorter than the captured bytes are trimmed to
    /// `total_len` (trailing link padding is legal and common).
    pub fn parse(timestamp: Micros, wire: &[u8]) -> Result<TcpFrame> {
        FrameView::parse(timestamp, wire).map(|view| view.to_frame())
    }

    /// Encodes the frame to wire bytes, recomputing lengths and
    /// checksums from the current field values.
    pub fn to_wire(&self) -> Vec<u8> {
        let tcp_len = self.tcp.header_len() + self.payload.len();
        let mut ip = self.ip.clone();
        ip.total_len = (ip.header_len() + tcp_len) as u16;
        let mut out = Vec::with_capacity(14 + ip.header_len() + tcp_len);
        self.eth.encode(&mut out);
        ip.encode(&mut out);
        self.tcp.encode(&mut out, ip.src, ip.dst, &self.payload);
        out.put_slice(&self.payload);
        out
    }

    /// Source `(address, port)` endpoint.
    pub fn src(&self) -> (Ipv4Addr, u16) {
        (self.ip.src, self.tcp.src_port)
    }

    /// Destination `(address, port)` endpoint.
    pub fn dst(&self) -> (Ipv4Addr, u16) {
        (self.ip.dst, self.tcp.dst_port)
    }

    /// Number of TCP payload bytes.
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// The sequence number of the byte *after* this segment's payload,
    /// counting SYN and FIN as one sequence unit each.
    pub fn seq_end(&self) -> u32 {
        let mut advance = self.payload.len() as u32;
        if self.tcp.flags.contains(TcpFlags::SYN) {
            advance = advance.wrapping_add(1);
        }
        if self.tcp.flags.contains(TcpFlags::FIN) {
            advance = advance.wrapping_add(1);
        }
        self.tcp.seq.wrapping_add(advance)
    }

    /// True if this is a pure ACK: no payload, no SYN/FIN/RST.
    pub fn is_pure_ack(&self) -> bool {
        self.payload.is_empty()
            && self.tcp.flags.contains(TcpFlags::ACK)
            && !self
                .tcp
                .flags
                .intersects(TcpFlags::SYN | TcpFlags::FIN | TcpFlags::RST)
    }
}

/// The Ethernet → IPv4 header chain of one captured frame, walked as
/// far as the TCP segment. Every frame decoder is an adapter over this
/// walk: [`FrameView::parse`] and the block decoder's slot fill decode
/// the TCP header out of `segment` (fresh, or in place), and
/// [`FrameView::parse_lossy`] also asks for the IPv4 checksum and
/// sorts the [`Stop`]s into cross traffic and damage.
#[derive(Debug)]
pub(crate) struct Layers<'a> {
    pub(crate) eth: EthernetHeader,
    pub(crate) ip: Ipv4Header,
    /// TCP header plus payload: the captured bytes past the IP header,
    /// trimmed to the IP `total_len` (trailing link padding is legal
    /// and common).
    pub(crate) segment: &'a [u8],
    /// Offset of `segment` in the wire bytes.
    pub(crate) segment_at: usize,
    /// The segment length `total_len` declares; more than
    /// `segment.len()` when the capture cut the frame short.
    pub(crate) declared_len: usize,
}

/// Why a frame's header chain did not reach a TCP segment.
#[derive(Debug)]
pub(crate) enum Stop {
    Ethernet(PacketError),
    NotIpv4(u16),
    Ipv4(PacketError),
    IpChecksum,
    NotTcp(u8),
}

impl<'a> Layers<'a> {
    /// Walks `wire`. With `verify_ip_checksum`, a header whose checksum
    /// does not hold stops the walk before its protocol and addresses
    /// are believed.
    #[inline]
    pub(crate) fn walk(
        wire: &'a [u8],
        verify_ip_checksum: bool,
    ) -> std::result::Result<Layers<'a>, Stop> {
        let mut buf = wire;
        let eth = EthernetHeader::decode(&mut buf).map_err(Stop::Ethernet)?;
        if eth.ethertype != ETHERTYPE_IPV4 {
            return Err(Stop::NotIpv4(eth.ethertype));
        }
        let ip_bytes = buf;
        let ip = Ipv4Header::decode(&mut buf).map_err(Stop::Ipv4)?;
        if verify_ip_checksum && internet_checksum(&ip_bytes[..ip.header_len()]) != 0 {
            return Err(Stop::IpChecksum);
        }
        if ip.protocol != IPPROTO_TCP {
            return Err(Stop::NotTcp(ip.protocol));
        }
        let declared_len = ip.payload_len();
        Ok(Layers {
            eth,
            ip,
            segment: &buf[..declared_len.min(buf.len())],
            segment_at: wire.len() - buf.len(),
            declared_len,
        })
    }
}

/// The strict decoders' reading of a [`Stop`]: every one is an error.
impl From<Stop> for PacketError {
    fn from(stop: Stop) -> PacketError {
        let (what, detail) = match stop {
            Stop::Ethernet(err) | Stop::Ipv4(err) => return err,
            Stop::NotIpv4(ethertype) => (
                "ethernet header",
                format!("ethertype {ethertype:#06x} is not ipv4"),
            ),
            Stop::IpChecksum => ("ipv4 header", "header checksum mismatch".to_string()),
            Stop::NotTcp(protocol) => ("ipv4 header", format!("protocol {protocol} is not tcp")),
        };
        PacketError::Malformed { what, detail }
    }
}

/// A borrowed, zero-copy view of a parsed TCP/IPv4 Ethernet frame.
///
/// Identical to [`TcpFrame`] except that the payload is a slice into
/// the decode buffer instead of an owned `Vec<u8>`. This is what the
/// hot path hands to the connection tracker and the BGP demultiplexer:
/// per-frame facts are extracted and reassembly copies only the payload
/// spans it actually retains, so steady-state decode performs zero heap
/// allocations per frame. Use [`FrameView::to_frame`] when the frame
/// must outlive the decode buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameView<'a> {
    /// Capture timestamp relative to the trace epoch.
    pub timestamp: Micros,
    /// Link layer header.
    pub eth: EthernetHeader,
    /// Network layer header.
    pub ip: Ipv4Header,
    /// Transport layer header.
    pub tcp: TcpHeader,
    /// TCP payload bytes, borrowed from the decode buffer.
    pub payload: &'a [u8],
}

impl<'a> FrameView<'a> {
    /// Parses an Ethernet frame carrying TCP over IPv4 without copying
    /// the payload. Same validation and trimming rules as
    /// [`TcpFrame::parse`] (which delegates here).
    ///
    /// # Errors
    ///
    /// Fails for truncated input, a non-IPv4 EtherType, a non-TCP
    /// protocol number, or malformed headers.
    pub fn parse(timestamp: Micros, wire: &'a [u8]) -> Result<FrameView<'a>> {
        let layers = Layers::walk(wire, false)?;
        let (tcp, consumed) = TcpHeader::decode_slice(layers.segment)?;
        Ok(FrameView {
            timestamp,
            eth: layers.eth,
            ip: layers.ip,
            tcp,
            payload: &layers.segment[consumed..],
        })
    }

    /// Copies the view into an owned [`TcpFrame`]. The result is
    /// byte-identical to what [`TcpFrame::parse`] returns for the same
    /// wire bytes.
    pub fn to_frame(&self) -> TcpFrame {
        TcpFrame {
            timestamp: self.timestamp,
            eth: self.eth,
            ip: self.ip.clone(),
            tcp: self.tcp.clone(),
            payload: self.payload.to_vec(),
        }
    }
}

/// Read-only access to the frame fields shared by owned [`TcpFrame`]s
/// and borrowed [`FrameView`]s.
///
/// Consumers on the hot path (connection tracking, BGP demultiplexing)
/// are generic over this trait so the zero-copy decode loop and the
/// batch `Vec<TcpFrame>` path go through the same code.
pub trait FrameLike {
    /// Capture timestamp relative to the trace epoch.
    fn timestamp(&self) -> Micros;
    /// Network layer header.
    fn ip(&self) -> &Ipv4Header;
    /// Transport layer header.
    fn tcp(&self) -> &TcpHeader;
    /// TCP payload bytes.
    fn payload(&self) -> &[u8];

    /// Source `(address, port)` endpoint.
    fn src(&self) -> (Ipv4Addr, u16) {
        (self.ip().src, self.tcp().src_port)
    }

    /// Destination `(address, port)` endpoint.
    fn dst(&self) -> (Ipv4Addr, u16) {
        (self.ip().dst, self.tcp().dst_port)
    }

    /// Number of TCP payload bytes.
    fn payload_len(&self) -> usize {
        self.payload().len()
    }

    /// The sequence number of the byte *after* this segment's payload,
    /// counting SYN and FIN as one sequence unit each.
    fn seq_end(&self) -> u32 {
        let tcp = self.tcp();
        let mut advance = self.payload().len() as u32;
        if tcp.flags.contains(TcpFlags::SYN) {
            advance = advance.wrapping_add(1);
        }
        if tcp.flags.contains(TcpFlags::FIN) {
            advance = advance.wrapping_add(1);
        }
        tcp.seq.wrapping_add(advance)
    }

    /// True if this is a pure ACK: no payload, no SYN/FIN/RST.
    fn is_pure_ack(&self) -> bool {
        let tcp = self.tcp();
        self.payload().is_empty()
            && tcp.flags.contains(TcpFlags::ACK)
            && !tcp
                .flags
                .intersects(TcpFlags::SYN | TcpFlags::FIN | TcpFlags::RST)
    }
}

impl FrameLike for TcpFrame {
    fn timestamp(&self) -> Micros {
        self.timestamp
    }
    fn ip(&self) -> &Ipv4Header {
        &self.ip
    }
    fn tcp(&self) -> &TcpHeader {
        &self.tcp
    }
    fn payload(&self) -> &[u8] {
        &self.payload
    }
}

impl FrameLike for FrameView<'_> {
    fn timestamp(&self) -> Micros {
        self.timestamp
    }
    fn ip(&self) -> &Ipv4Header {
        &self.ip
    }
    fn tcp(&self) -> &TcpHeader {
        &self.tcp
    }
    fn payload(&self) -> &[u8] {
        self.payload
    }
}

impl<F: FrameLike + ?Sized> FrameLike for &F {
    fn timestamp(&self) -> Micros {
        (**self).timestamp()
    }
    fn ip(&self) -> &Ipv4Header {
        (**self).ip()
    }
    fn tcp(&self) -> &TcpHeader {
        (**self).tcp()
    }
    fn payload(&self) -> &[u8] {
        (**self).payload()
    }
}

impl fmt::Display for TcpFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} > {}:{} {} seq {} ack {} win {} len {}",
            self.timestamp,
            self.ip.src,
            self.tcp.src_port,
            self.ip.dst,
            self.tcp.dst_port,
            self.tcp.flags,
            self.tcp.seq,
            self.tcp.ack,
            self.tcp.window,
            self.payload.len()
        )
    }
}

/// Fluent builder for [`TcpFrame`]s; the primary constructor used by the
/// simulator and by tests.
///
/// # Examples
///
/// ```
/// use tdat_packet::{FrameBuilder, TcpFlags};
/// use tdat_timeset::Micros;
///
/// let frame = FrameBuilder::new("10.0.0.1".parse()?, "10.0.0.2".parse()?)
///     .at(Micros::from_millis(5))
///     .ports(179, 33000)
///     .seq(1000)
///     .ack_to(2000)
///     .flags(TcpFlags::ACK | TcpFlags::PSH)
///     .window(65535)
///     .payload(b"update".to_vec())
///     .build();
/// assert_eq!(frame.payload_len(), 6);
/// let wire = frame.to_wire();
/// let reparsed = tdat_packet::TcpFrame::parse(frame.timestamp, &wire)?;
/// assert_eq!(reparsed, frame);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct FrameBuilder {
    frame: TcpFrame,
}

impl FrameBuilder {
    /// Starts a builder for a frame from `src` to `dst` with MACs
    /// derived from the addresses.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr) -> FrameBuilder {
        FrameBuilder {
            frame: TcpFrame {
                timestamp: Micros::ZERO,
                eth: EthernetHeader::ipv4(
                    MacAddr::from_host_id(u32::from(src)),
                    MacAddr::from_host_id(u32::from(dst)),
                ),
                ip: Ipv4Header::tcp(src, dst, 0),
                tcp: TcpHeader::default(),
                payload: Vec::new(),
            },
        }
    }

    /// Sets the capture timestamp.
    pub fn at(mut self, t: Micros) -> FrameBuilder {
        self.frame.timestamp = t;
        self
    }

    /// Sets source and destination ports.
    pub fn ports(mut self, src: u16, dst: u16) -> FrameBuilder {
        self.frame.tcp.src_port = src;
        self.frame.tcp.dst_port = dst;
        self
    }

    /// Sets the sequence number.
    pub fn seq(mut self, seq: u32) -> FrameBuilder {
        self.frame.tcp.seq = seq;
        self
    }

    /// Sets the acknowledgment number and the ACK flag.
    pub fn ack_to(mut self, ack: u32) -> FrameBuilder {
        self.frame.tcp.ack = ack;
        self.frame.tcp.flags |= TcpFlags::ACK;
        self
    }

    /// Replaces the flag set.
    pub fn flags(mut self, flags: TcpFlags) -> FrameBuilder {
        self.frame.tcp.flags = flags;
        self
    }

    /// Sets the advertised window (unscaled wire value).
    pub fn window(mut self, window: u16) -> FrameBuilder {
        self.frame.tcp.window = window;
        self
    }

    /// Appends a TCP option.
    pub fn option(mut self, option: TcpOption) -> FrameBuilder {
        self.frame.tcp.options.push(option);
        self
    }

    /// Sets the payload.
    pub fn payload(mut self, payload: Vec<u8>) -> FrameBuilder {
        self.frame.payload = payload;
        self
    }

    /// Sets the IP identification field.
    pub fn ip_id(mut self, id: u16) -> FrameBuilder {
        self.frame.ip.identification = id;
        self
    }

    /// Finishes the frame, fixing up the IP total length.
    pub fn build(mut self) -> TcpFrame {
        self.frame.ip.total_len = (self.frame.ip.header_len()
            + self.frame.tcp.header_len()
            + self.frame.payload.len()) as u16;
        self.frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    #[test]
    fn parse_rejects_non_ip_and_non_tcp() {
        let mut frame = FrameBuilder::new(addr(1), addr(2)).build();
        frame.eth.ethertype = 0x86dd; // IPv6
        assert!(TcpFrame::parse(Micros::ZERO, &frame.to_wire()).is_err());

        let mut frame = FrameBuilder::new(addr(1), addr(2)).build();
        frame.ip.protocol = 17; // UDP
        assert!(TcpFrame::parse(Micros::ZERO, &frame.to_wire()).is_err());
    }

    #[test]
    fn seq_end_counts_syn_fin() {
        let syn = FrameBuilder::new(addr(1), addr(2))
            .seq(100)
            .flags(TcpFlags::SYN)
            .build();
        assert_eq!(syn.seq_end(), 101);

        let data = FrameBuilder::new(addr(1), addr(2))
            .seq(100)
            .payload(vec![0; 10])
            .build();
        assert_eq!(data.seq_end(), 110);

        let findata = FrameBuilder::new(addr(1), addr(2))
            .seq(100)
            .flags(TcpFlags::FIN | TcpFlags::ACK)
            .payload(vec![0; 10])
            .build();
        assert_eq!(findata.seq_end(), 111);
    }

    #[test]
    fn pure_ack_detection() {
        let ack = FrameBuilder::new(addr(1), addr(2)).ack_to(500).build();
        assert!(ack.is_pure_ack());
        let dataack = FrameBuilder::new(addr(1), addr(2))
            .ack_to(500)
            .payload(vec![1])
            .build();
        assert!(!dataack.is_pure_ack());
        let rst = FrameBuilder::new(addr(1), addr(2))
            .flags(TcpFlags::RST | TcpFlags::ACK)
            .build();
        assert!(!rst.is_pure_ack());
    }

    #[test]
    fn wire_round_trip_with_padding() {
        // Ethernet frames are often padded to 60 bytes; parsing must trim
        // to the IP total_len.
        let frame = FrameBuilder::new(addr(1), addr(2))
            .ports(179, 40000)
            .seq(7)
            .payload(b"x".to_vec())
            .build();
        let mut wire = frame.to_wire();
        while wire.len() < 60 {
            wire.push(0xaa); // link padding junk
        }
        let parsed = TcpFrame::parse(Micros(123), &wire).unwrap();
        assert_eq!(parsed.payload, b"x");
        assert_eq!(parsed.timestamp, Micros(123));
    }

    #[test]
    fn display_is_tcpdump_like() {
        let frame = FrameBuilder::new(addr(1), addr(2))
            .at(Micros::from_secs(1))
            .ports(179, 40000)
            .seq(10)
            .ack_to(20)
            .payload(vec![0; 3])
            .build();
        let line = frame.to_string();
        assert!(line.contains("10.0.0.1:179 > 10.0.0.2:40000"));
        assert!(line.contains("len 3"));
    }
}
