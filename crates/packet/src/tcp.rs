//! TCP header model: flags, options, sequence arithmetic, checksums.

use bytes::{Buf, BufMut};
use std::fmt;
use std::net::Ipv4Addr;

use crate::error::{PacketError, Result};
use crate::ipv4::{finish_checksum, sum_be_words, IPPROTO_TCP};

/// Minimum TCP header length (no options), in bytes.
pub const TCP_HEADER_LEN: usize = 20;

/// The TCP control flags, stored in the low 6 bits (plus ECN bits).
///
/// ```
/// use tdat_packet::TcpFlags;
/// let f = TcpFlags::SYN | TcpFlags::ACK;
/// assert!(f.contains(TcpFlags::SYN));
/// assert!(!f.contains(TcpFlags::FIN));
/// assert_eq!(f.to_string(), "SA");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// No flags set.
    pub const EMPTY: TcpFlags = TcpFlags(0);
    /// FIN: sender is finished sending.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN: synchronize sequence numbers.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST: reset the connection.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH: push buffered data to the application.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK: the acknowledgment field is valid.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// URG: the urgent pointer is valid.
    pub const URG: TcpFlags = TcpFlags(0x20);

    /// True if every flag in `other` is also set in `self`.
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// True if any flag in `other` is set in `self`.
    pub fn intersects(self, other: TcpFlags) -> bool {
        self.0 & other.0 != 0
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for TcpFlags {
    fn bitor_assign(&mut self, rhs: TcpFlags) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const NAMES: [(TcpFlags, char); 6] = [
            (TcpFlags::FIN, 'F'),
            (TcpFlags::SYN, 'S'),
            (TcpFlags::RST, 'R'),
            (TcpFlags::PSH, 'P'),
            (TcpFlags::ACK, 'A'),
            (TcpFlags::URG, 'U'),
        ];
        let mut any = false;
        for (flag, ch) in NAMES {
            if self.contains(flag) {
                write!(f, "{ch}")?;
                any = true;
            }
        }
        if !any {
            write!(f, ".")?;
        }
        Ok(())
    }
}

/// A decoded TCP option.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum TcpOption {
    /// Maximum segment size (SYN only).
    Mss(u16),
    /// Window scale shift count (SYN only).
    WindowScale(u8),
    /// SACK permitted (SYN only).
    SackPermitted,
    /// Selective acknowledgment blocks.
    Sack(Vec<(u32, u32)>),
    /// RFC 1323 timestamps `(TSval, TSecr)`.
    Timestamps(u32, u32),
    /// An option this crate does not interpret; kind and payload kept.
    Unknown(u8, Vec<u8>),
}

impl TcpOption {
    fn encoded_len(&self) -> usize {
        match self {
            TcpOption::Mss(_) => 4,
            TcpOption::WindowScale(_) => 3,
            TcpOption::SackPermitted => 2,
            TcpOption::Sack(blocks) => 2 + blocks.len() * 8,
            TcpOption::Timestamps(..) => 10,
            TcpOption::Unknown(_, data) => 2 + data.len(),
        }
    }
}

/// A TCP header plus decoded options.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte.
    pub seq: u32,
    /// Acknowledgment number (next byte expected), valid when ACK set.
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Advertised receive window, *unscaled* as it appears on the wire.
    pub window: u16,
    /// Urgent pointer.
    pub urgent: u16,
    /// Decoded options, in wire order (NOP/EOL padding is dropped).
    pub options: Vec<TcpOption>,
}

impl Default for TcpHeader {
    fn default() -> Self {
        TcpHeader {
            src_port: 0,
            dst_port: 0,
            seq: 0,
            ack: 0,
            flags: TcpFlags::EMPTY,
            window: 0,
            urgent: 0,
            options: Vec::new(),
        }
    }
}

impl TcpHeader {
    /// Header length in bytes including options and padding.
    pub fn header_len(&self) -> usize {
        let opt: usize = self.options.iter().map(TcpOption::encoded_len).sum();
        TCP_HEADER_LEN + opt.div_ceil(4) * 4
    }

    /// The MSS option value, if present.
    pub fn mss(&self) -> Option<u16> {
        self.options.iter().find_map(|o| match o {
            TcpOption::Mss(v) => Some(*v),
            _ => None,
        })
    }

    /// The window-scale option value, if present.
    pub fn window_scale(&self) -> Option<u8> {
        self.options.iter().find_map(|o| match o {
            TcpOption::WindowScale(v) => Some(*v),
            _ => None,
        })
    }

    /// The SACK blocks, if present.
    pub fn sack_blocks(&self) -> Option<&[(u32, u32)]> {
        self.options.iter().find_map(|o| match o {
            TcpOption::Sack(v) => Some(v.as_slice()),
            _ => None,
        })
    }

    /// Decodes a TCP header (including options) from the front of
    /// `buf`'s current chunk, advancing past it. The payload is left in
    /// `buf`. A [`decode_slice`](TcpHeader::decode_slice) adapter for
    /// callers walking a `Buf`: the header must be contiguous, as it is
    /// in a `&[u8]`.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::Truncated`] or [`PacketError::Malformed`]
    /// for short buffers or an invalid data-offset field.
    pub fn decode(buf: &mut impl Buf) -> Result<TcpHeader> {
        let (header, consumed) = TcpHeader::decode_slice(buf.chunk())?;
        buf.advance(consumed);
        Ok(header)
    }

    /// Decodes a TCP header from a contiguous byte slice *into* `self`,
    /// reusing the option vector's existing capacity, and returns the
    /// number of bytes consumed (the header length).
    ///
    /// This is the one TCP header decode, and the block-decode hot
    /// path: the common option layouts are recognized by the SWAR scan
    /// in `decode_options_into`, so a reused header performs zero heap
    /// allocations per frame in steady state.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::Truncated`] or [`PacketError::Malformed`]
    /// for short buffers, an invalid data-offset field, or malformed
    /// options.
    pub fn decode_into(&mut self, buf: &[u8]) -> Result<usize> {
        if buf.len() < TCP_HEADER_LEN {
            return Err(PacketError::Truncated {
                what: "tcp header",
                needed: TCP_HEADER_LEN,
                available: buf.len(),
            });
        }
        self.src_port = u16::from_be_bytes([buf[0], buf[1]]);
        self.dst_port = u16::from_be_bytes([buf[2], buf[3]]);
        self.seq = u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]);
        self.ack = u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]);
        let offset_flags = u16::from_be_bytes([buf[12], buf[13]]);
        let data_offset = ((offset_flags >> 12) & 0x0f) as usize * 4;
        self.flags = TcpFlags((offset_flags & 0x3f) as u8);
        self.window = u16::from_be_bytes([buf[14], buf[15]]);
        self.urgent = u16::from_be_bytes([buf[18], buf[19]]);
        if data_offset < TCP_HEADER_LEN {
            return Err(PacketError::Malformed {
                what: "tcp header",
                detail: format!("data offset {data_offset} below 20-byte minimum"),
            });
        }
        let opt_len = data_offset - TCP_HEADER_LEN;
        if buf.len() - TCP_HEADER_LEN < opt_len {
            return Err(PacketError::Truncated {
                what: "tcp options",
                needed: opt_len,
                available: buf.len() - TCP_HEADER_LEN,
            });
        }
        decode_options_into(
            &buf[TCP_HEADER_LEN..TCP_HEADER_LEN + opt_len],
            &mut self.options,
        )?;
        Ok(data_offset)
    }

    /// Decodes a TCP header from a contiguous byte slice, returning the
    /// header and the number of bytes consumed.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`decode_into`](TcpHeader::decode_into).
    pub fn decode_slice(buf: &[u8]) -> Result<(TcpHeader, usize)> {
        let mut header = TcpHeader::default();
        let consumed = header.decode_into(buf)?;
        Ok((header, consumed))
    }

    /// Appends the wire form to `buf`, computing the checksum over the
    /// IPv4 pseudo-header, this header, and `payload`.
    ///
    /// # Panics
    ///
    /// Panics if the options exceed 40 bytes — a header longer than 60
    /// bytes cannot be represented in TCP's 4-bit data-offset field.
    pub fn encode(&self, buf: &mut impl BufMut, src: Ipv4Addr, dst: Ipv4Addr, payload: &[u8]) {
        let header_len = self.header_len();
        assert!(
            header_len <= 60,
            "tcp options too long: header would be {header_len} bytes (max 60)"
        );
        let mut bytes = Vec::with_capacity(header_len);
        bytes.put_u16(self.src_port);
        bytes.put_u16(self.dst_port);
        bytes.put_u32(self.seq);
        bytes.put_u32(self.ack);
        let offset_flags = ((header_len / 4) as u16) << 12 | self.flags.0 as u16;
        bytes.put_u16(offset_flags);
        bytes.put_u16(self.window);
        bytes.put_u16(0); // checksum placeholder
        bytes.put_u16(self.urgent);
        for opt in &self.options {
            encode_option(opt, &mut bytes);
        }
        while bytes.len() < header_len {
            bytes.put_u8(0); // end-of-options padding
        }
        let checksum = tcp_checksum(src, dst, &bytes, payload);
        bytes[16] = (checksum >> 8) as u8;
        bytes[17] = (checksum & 0xff) as u8;
        buf.put_slice(&bytes);
    }
}

fn encode_option(opt: &TcpOption, out: &mut Vec<u8>) {
    match opt {
        TcpOption::Mss(v) => {
            out.put_u8(2);
            out.put_u8(4);
            out.put_u16(*v);
        }
        TcpOption::WindowScale(v) => {
            out.put_u8(3);
            out.put_u8(3);
            out.put_u8(*v);
        }
        TcpOption::SackPermitted => {
            out.put_u8(4);
            out.put_u8(2);
        }
        TcpOption::Sack(blocks) => {
            out.put_u8(5);
            out.put_u8((2 + blocks.len() * 8) as u8);
            for (left, right) in blocks {
                out.put_u32(*left);
                out.put_u32(*right);
            }
        }
        TcpOption::Timestamps(val, ecr) => {
            out.put_u8(8);
            out.put_u8(10);
            out.put_u32(*val);
            out.put_u32(*ecr);
        }
        TcpOption::Unknown(kind, data) => {
            out.put_u8(*kind);
            out.put_u8((2 + data.len()) as u8);
            out.put_slice(data);
        }
    }
}

/// All-NOP padding word, for the SWAR scan below.
const NOP_WORD: u64 = 0x0101_0101_0101_0101;

/// Decodes the TCP option area into `out` (cleared first), reusing its
/// capacity.
///
/// The scan starts with SWAR fast paths over whole `u64`/`u32` words
/// for the layouts that dominate real traces — pure NOP padding, the
/// `NOP NOP Timestamps` layout Linux emits, the bare
/// `Timestamps`+EOL-padding layout this crate's encoder emits, and a
/// single SACK option — and falls back to the byte-at-a-time loop for
/// everything else. Every fast path checks the complete layout before
/// pushing anything, so results and errors are exactly those of the
/// general loop.
pub(crate) fn decode_options_into(raw: &[u8], out: &mut Vec<TcpOption>) -> Result<()> {
    out.clear();
    if raw.is_empty() {
        return Ok(());
    }
    if scan_options_swar(raw, out) {
        return Ok(());
    }
    decode_options_general(raw, out)
}

/// Word-at-a-time recognition of common single-option layouts. Returns
/// `true` when the whole option area was handled; `false` leaves `out`
/// untouched for the general loop.
fn scan_options_swar(raw: &[u8], out: &mut Vec<TcpOption>) -> bool {
    // Pure padding: every byte is NOP (kind 1). Compare whole words
    // against 0x0101…01 and check the sub-word tail byte-wise.
    let mut words = raw.chunks_exact(8);
    if words
        .all(|w| u64::from_ne_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]) == NOP_WORD)
        && words.remainder().iter().all(|&b| b == 1)
    {
        return true;
    }

    // `NOP NOP Timestamps` (Linux) — the option area is exactly
    // [1, 1, 8, 10] + an 8-byte TSval/TSecr word.
    if raw.len() == 12 && raw[..4] == [1, 1, 8, 10] {
        let w = u64::from_be_bytes([
            raw[4], raw[5], raw[6], raw[7], raw[8], raw[9], raw[10], raw[11],
        ]);
        out.push(TcpOption::Timestamps((w >> 32) as u32, w as u32));
        return true;
    }

    // Bare `Timestamps` followed by nothing or EOL padding (this
    // crate's encoder): [8, 10] + 8 data bytes (+ EOL at offset 10).
    if raw.len() >= 10 && raw[..2] == [8, 10] && (raw.len() == 10 || raw[10] == 0) {
        let w = u64::from_be_bytes([
            raw[2], raw[3], raw[4], raw[5], raw[6], raw[7], raw[8], raw[9],
        ]);
        out.push(TcpOption::Timestamps((w >> 32) as u32, w as u32));
        return true;
    }

    // A single SACK option: [5, len] with len = 2 + 8·blocks, followed
    // by nothing or EOL padding. Blocks are lifted as whole u64 words.
    if raw.len() >= 2 && raw[0] == 5 {
        let len = raw[1] as usize;
        if len >= 10
            && (len - 2).is_multiple_of(8)
            && raw.len() >= len
            && (raw.len() == len || raw[len] == 0)
        {
            let blocks = raw[2..len]
                .chunks_exact(8)
                .map(|c| {
                    let w = u64::from_be_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
                    ((w >> 32) as u32, w as u32)
                })
                .collect();
            out.push(TcpOption::Sack(blocks));
            return true;
        }
    }

    false
}

/// The byte-at-a-time option loop (exact legacy semantics), used when
/// no SWAR fast path applies.
fn decode_options_general(mut raw: &[u8], options: &mut Vec<TcpOption>) -> Result<()> {
    while let Some((&kind, rest)) = raw.split_first() {
        match kind {
            0 => break,      // end of options
            1 => raw = rest, // NOP
            _ => {
                let Some((&len, body)) = rest.split_first() else {
                    return Err(PacketError::Malformed {
                        what: "tcp options",
                        detail: "option kind without length byte".to_string(),
                    });
                };
                let len = len as usize;
                if len < 2 || body.len() < len - 2 {
                    return Err(PacketError::Malformed {
                        what: "tcp options",
                        detail: format!("option kind {kind} with bad length {len}"),
                    });
                }
                let (data, rest) = body.split_at(len - 2);
                options.push(decode_one_option(kind, data)?);
                raw = rest;
            }
        }
    }
    Ok(())
}

fn decode_one_option(kind: u8, data: &[u8]) -> Result<TcpOption> {
    let malformed = |detail: String| PacketError::Malformed {
        what: "tcp options",
        detail,
    };
    Ok(match kind {
        2 => {
            let bytes: [u8; 2] = data
                .try_into()
                .map_err(|_| malformed(format!("mss option with {} data bytes", data.len())))?;
            TcpOption::Mss(u16::from_be_bytes(bytes))
        }
        3 => {
            let [shift] = data else {
                return Err(malformed(format!(
                    "window scale option with {} data bytes",
                    data.len()
                )));
            };
            TcpOption::WindowScale(*shift)
        }
        4 => {
            if !data.is_empty() {
                return Err(malformed("sack-permitted option with data".to_string()));
            }
            TcpOption::SackPermitted
        }
        5 => {
            if !data.len().is_multiple_of(8) {
                return Err(malformed(format!(
                    "sack option with {} data bytes (not a multiple of 8)",
                    data.len()
                )));
            }
            let blocks = data
                .chunks_exact(8)
                .map(|c| {
                    (
                        u32::from_be_bytes([c[0], c[1], c[2], c[3]]),
                        u32::from_be_bytes([c[4], c[5], c[6], c[7]]),
                    )
                })
                .collect();
            TcpOption::Sack(blocks)
        }
        8 => {
            if data.len() != 8 {
                return Err(malformed(format!(
                    "timestamps option with {} data bytes",
                    data.len()
                )));
            }
            TcpOption::Timestamps(
                u32::from_be_bytes([data[0], data[1], data[2], data[3]]),
                u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            )
        }
        _ => TcpOption::Unknown(kind, data.to_vec()),
    })
}

/// Computes the TCP checksum over the IPv4 pseudo-header, the header
/// bytes (checksum field zeroed), and the payload.
pub fn tcp_checksum(src: Ipv4Addr, dst: Ipv4Addr, header: &[u8], payload: &[u8]) -> u16 {
    let mut sum = sum_be_words(&src.octets());
    sum = sum.wrapping_add(sum_be_words(&dst.octets()));
    sum = sum.wrapping_add(IPPROTO_TCP as u32);
    sum = sum.wrapping_add((header.len() + payload.len()) as u32);
    sum = sum.wrapping_add(sum_be_words(header));
    sum = sum.wrapping_add(sum_be_words(payload));
    finish_checksum(sum)
}

/// Compares two 32-bit TCP sequence numbers with wraparound (RFC 1982
/// serial arithmetic): returns the ordering of `a` relative to `b`.
///
/// ```
/// use tdat_packet::seq_cmp;
/// use std::cmp::Ordering;
/// assert_eq!(seq_cmp(5, 3), Ordering::Greater);
/// assert_eq!(seq_cmp(u32::MAX, 2), Ordering::Less); // wrapped
/// assert_eq!(seq_cmp(7, 7), Ordering::Equal);
/// ```
pub fn seq_cmp(a: u32, b: u32) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    if a == b {
        Ordering::Equal
    } else if a.wrapping_sub(b) < 0x8000_0000 {
        Ordering::Greater
    } else {
        Ordering::Less
    }
}

/// `a - b` with sequence wraparound, as a signed distance.
pub fn seq_diff(a: u32, b: u32) -> i64 {
    let d = a.wrapping_sub(b);
    if d < 0x8000_0000 {
        d as i64
    } else {
        d as i64 - (1i64 << 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> TcpHeader {
        TcpHeader {
            src_port: 179,
            dst_port: 45123,
            seq: 0x1000,
            ack: 0x2000,
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: 65535,
            urgent: 0,
            options: vec![
                TcpOption::Mss(1460),
                TcpOption::SackPermitted,
                TcpOption::Timestamps(111, 222),
            ],
        }
    }

    #[test]
    fn round_trip_with_options() {
        let hdr = sample_header();
        let src = "10.0.0.1".parse().unwrap();
        let dst = "10.0.0.2".parse().unwrap();
        let payload = b"hello bgp";
        let mut wire = Vec::new();
        hdr.encode(&mut wire, src, dst, payload);
        assert_eq!(wire.len(), hdr.header_len());
        assert_eq!(wire.len() % 4, 0);
        let decoded = TcpHeader::decode(&mut &wire[..]).unwrap();
        assert_eq!(decoded, hdr);
        assert_eq!(decoded.mss(), Some(1460));
    }

    #[test]
    fn checksum_verifies_with_payload() {
        let hdr = sample_header();
        let src = "192.0.2.1".parse().unwrap();
        let dst = "192.0.2.9".parse().unwrap();
        let payload = b"0123456789a"; // odd length exercises padding
        let mut wire = Vec::new();
        hdr.encode(&mut wire, src, dst, payload);
        // Re-checksumming with the embedded checksum gives 0.
        assert_eq!(tcp_checksum(src, dst, &wire, payload), 0);
    }

    #[test]
    fn flags_display() {
        assert_eq!((TcpFlags::SYN | TcpFlags::ACK).to_string(), "SA");
        assert_eq!(TcpFlags::EMPTY.to_string(), ".");
        assert_eq!(
            (TcpFlags::FIN | TcpFlags::PSH | TcpFlags::ACK).to_string(),
            "FPA"
        );
    }

    #[test]
    fn sack_and_wscale_round_trip() {
        let hdr = TcpHeader {
            options: vec![
                TcpOption::WindowScale(7),
                TcpOption::Sack(vec![(100, 200), (300, 400)]),
            ],
            ..TcpHeader::default()
        };
        let mut wire = Vec::new();
        hdr.encode(&mut wire, Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED, &[]);
        let decoded = TcpHeader::decode(&mut &wire[..]).unwrap();
        assert_eq!(decoded.window_scale(), Some(7));
        assert_eq!(decoded.sack_blocks(), Some(&[(100, 200), (300, 400)][..]));
    }

    #[test]
    fn unknown_option_preserved() {
        let hdr = TcpHeader {
            options: vec![TcpOption::Unknown(254, vec![1, 2, 3])],
            ..TcpHeader::default()
        };
        let mut wire = Vec::new();
        hdr.encode(&mut wire, Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED, &[]);
        let decoded = TcpHeader::decode(&mut &wire[..]).unwrap();
        assert_eq!(decoded.options, hdr.options);
    }

    #[test]
    fn malformed_options_rejected() {
        // MSS option claiming 3 bytes length but body truncated.
        let decode_options = |raw: &[u8]| decode_options_into(raw, &mut Vec::new());
        assert!(decode_options(&[2u8, 10, 0]).is_err());
        // Kind without length.
        assert!(decode_options(&[5u8]).is_err());
        // Length below 2.
        assert!(decode_options(&[8u8, 1]).is_err());
    }

    #[test]
    fn truncated_header_rejected() {
        assert!(matches!(
            TcpHeader::decode(&mut &[0u8; 10][..]),
            Err(PacketError::Truncated { .. })
        ));
    }

    #[test]
    fn seq_arithmetic_wraps() {
        use std::cmp::Ordering;
        assert_eq!(seq_cmp(0, u32::MAX), Ordering::Greater);
        assert_eq!(seq_diff(0, u32::MAX), 1);
        assert_eq!(seq_diff(u32::MAX, 0), -1);
        assert_eq!(seq_diff(1000, 500), 500);
    }
}
