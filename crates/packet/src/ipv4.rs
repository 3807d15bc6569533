//! IPv4 header model with checksum support.

use bytes::{Buf, BufMut};
use std::net::Ipv4Addr;

use crate::error::{PacketError, Result};

/// Minimum IPv4 header length (no options), in bytes.
pub const IPV4_HEADER_LEN: usize = 20;

/// IP protocol number for TCP.
pub const IPPROTO_TCP: u8 = 6;

/// An IPv4 header (options are preserved as raw bytes).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ipv4Header {
    /// Differentiated services / TOS byte.
    pub dscp_ecn: u8,
    /// Total length of header + payload in bytes.
    pub total_len: u16,
    /// Identification field (used by some sniffers to spot duplicates).
    pub identification: u16,
    /// Flags (3 bits) and fragment offset (13 bits), packed.
    pub flags_fragment: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol (e.g. [`IPPROTO_TCP`]).
    pub protocol: u8,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Raw option bytes (length must be a multiple of 4, at most 40).
    pub options: Vec<u8>,
}

impl Default for Ipv4Header {
    fn default() -> Self {
        Ipv4Header {
            dscp_ecn: 0,
            total_len: IPV4_HEADER_LEN as u16,
            identification: 0,
            flags_fragment: 0x4000, // don't fragment
            ttl: 64,
            protocol: IPPROTO_TCP,
            src: Ipv4Addr::UNSPECIFIED,
            dst: Ipv4Addr::UNSPECIFIED,
            options: Vec::new(),
        }
    }
}

impl Ipv4Header {
    /// Creates a TCP/IPv4 header carrying `payload_len` bytes of TCP
    /// (header + data).
    pub fn tcp(src: Ipv4Addr, dst: Ipv4Addr, payload_len: usize) -> Ipv4Header {
        Ipv4Header {
            src,
            dst,
            total_len: (IPV4_HEADER_LEN + payload_len) as u16,
            ..Ipv4Header::default()
        }
    }

    /// Header length in bytes including options.
    pub fn header_len(&self) -> usize {
        IPV4_HEADER_LEN + self.options.len()
    }

    /// Length of the payload following this header, according to
    /// `total_len`.
    pub fn payload_len(&self) -> usize {
        (self.total_len as usize).saturating_sub(self.header_len())
    }

    /// Decodes a header from `buf`, advancing past it (including
    /// options).
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::Truncated`] if the buffer is too short and
    /// [`PacketError::Malformed`] for a bad version or IHL field.
    pub fn decode(buf: &mut impl Buf) -> Result<Ipv4Header> {
        if buf.remaining() < IPV4_HEADER_LEN {
            return Err(PacketError::Truncated {
                what: "ipv4 header",
                needed: IPV4_HEADER_LEN,
                available: buf.remaining(),
            });
        }
        let ver_ihl = buf.get_u8();
        let version = ver_ihl >> 4;
        if version != 4 {
            return Err(PacketError::Malformed {
                what: "ipv4 header",
                detail: format!("version {version}, expected 4"),
            });
        }
        let ihl = (ver_ihl & 0x0f) as usize * 4;
        if ihl < IPV4_HEADER_LEN {
            return Err(PacketError::Malformed {
                what: "ipv4 header",
                detail: format!("ihl {ihl} bytes is below the 20-byte minimum"),
            });
        }
        let dscp_ecn = buf.get_u8();
        let total_len = buf.get_u16();
        let identification = buf.get_u16();
        let flags_fragment = buf.get_u16();
        let ttl = buf.get_u8();
        let protocol = buf.get_u8();
        let _checksum = buf.get_u16();
        let src = Ipv4Addr::from(buf.get_u32());
        let dst = Ipv4Addr::from(buf.get_u32());
        let opt_len = ihl - IPV4_HEADER_LEN;
        if buf.remaining() < opt_len {
            return Err(PacketError::Truncated {
                what: "ipv4 options",
                needed: opt_len,
                available: buf.remaining(),
            });
        }
        let mut options = vec![0u8; opt_len];
        buf.copy_to_slice(&mut options);
        Ok(Ipv4Header {
            dscp_ecn,
            total_len,
            identification,
            flags_fragment,
            ttl,
            protocol,
            src,
            dst,
            options,
        })
    }

    /// Appends the wire form (with a freshly computed checksum) to
    /// `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `options.len()` is not a multiple of 4 or exceeds 40
    /// bytes, which cannot be represented in the IHL field.
    pub fn encode(&self, buf: &mut impl BufMut) {
        assert!(
            self.options.len().is_multiple_of(4) && self.options.len() <= 40,
            "ipv4 options must be 4-byte aligned and at most 40 bytes"
        );
        let ihl = (self.header_len() / 4) as u8;
        let mut bytes = Vec::with_capacity(self.header_len());
        bytes.put_u8(0x40 | ihl);
        bytes.put_u8(self.dscp_ecn);
        bytes.put_u16(self.total_len);
        bytes.put_u16(self.identification);
        bytes.put_u16(self.flags_fragment);
        bytes.put_u8(self.ttl);
        bytes.put_u8(self.protocol);
        bytes.put_u16(0); // checksum placeholder
        bytes.put_slice(&self.src.octets());
        bytes.put_slice(&self.dst.octets());
        bytes.put_slice(&self.options);
        let checksum = internet_checksum(&bytes);
        bytes[10] = (checksum >> 8) as u8;
        bytes[11] = (checksum & 0xff) as u8;
        buf.put_slice(&bytes);
    }
}

/// The 16-bit ones'-complement Internet checksum (RFC 1071) over `data`.
pub fn internet_checksum(data: &[u8]) -> u16 {
    finish_checksum(sum_be_words(data))
}

/// The ones'-complement sum of `data` as big-endian 16-bit words (odd
/// trailing byte padded with zero), folded to at most `0xffff`: partial
/// sums to add up and fold with [`finish_checksum`].
///
/// Reads eight bytes per step, little-endian, and adds the word's two
/// 32-bit halves into a `u64`, then folds once and swaps the two bytes.
/// That is the byte-pair sum exactly, by RFC 1071's byte-order
/// independence (§2 (A), (B)): `2^16 ≡ 1` modulo `0xffff`, so grouping
/// whole 16-bit words into wider ones leaves the sum unchanged, and
/// summing the words byte-swapped yields the sum byte-swapped. Only
/// all-zero data sums to zero, so zero stays distinct from `0xffff`, and
/// slices cut at even offsets add up to their concatenation. Each step
/// adds less than `2^33`, so the `u64` cannot wrap below 16 GiB of
/// input (a `u32` sum of byte pairs loses carries past 128 KiB).
pub fn sum_be_words(data: &[u8]) -> u64 {
    let halves = |word: [u8; 8]| {
        let word = u64::from_le_bytes(word);
        (word & 0xffff_ffff) + (word >> 32)
    };
    let (words, tail) = data.as_chunks::<8>();
    let mut sum = words.iter().map(|&word| halves(word)).sum::<u64>();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        sum += halves(last);
    }
    u64::from(fold(sum).swap_bytes())
}

/// `sum` folded to 16 bits with end-around carries: zero only for zero.
fn fold(mut sum: u64) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

/// Folds a running sum into the final ones'-complement checksum. Only
/// an all-zero sum folds to zero, so zero data checksums to `0xffff`
/// and data whose words sum to `0xffff` checksums to zero.
pub fn finish_checksum(sum: u64) -> u16 {
    !fold(sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_without_options() {
        let hdr = Ipv4Header::tcp(
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            100,
        );
        let mut wire = Vec::new();
        hdr.encode(&mut wire);
        assert_eq!(wire.len(), IPV4_HEADER_LEN);
        let decoded = Ipv4Header::decode(&mut &wire[..]).unwrap();
        assert_eq!(decoded, hdr);
        assert_eq!(decoded.payload_len(), 100);
    }

    #[test]
    fn encoded_header_checksum_verifies() {
        let hdr = Ipv4Header::tcp(
            "192.0.2.1".parse().unwrap(),
            "192.0.2.2".parse().unwrap(),
            0,
        );
        let mut wire = Vec::new();
        hdr.encode(&mut wire);
        // Checksumming a header including its checksum yields zero.
        assert_eq!(internet_checksum(&wire), 0);
    }

    #[test]
    fn rejects_wrong_version() {
        let mut wire = Vec::new();
        Ipv4Header::default().encode(&mut wire);
        wire[0] = 0x65; // version 6
        assert!(matches!(
            Ipv4Header::decode(&mut &wire[..]),
            Err(PacketError::Malformed { .. })
        ));
    }

    #[test]
    fn rejects_bad_ihl() {
        let mut wire = Vec::new();
        Ipv4Header::default().encode(&mut wire);
        wire[0] = 0x44; // ihl = 16 bytes < 20
        assert!(matches!(
            Ipv4Header::decode(&mut &wire[..]),
            Err(PacketError::Malformed { .. })
        ));
    }

    #[test]
    fn options_round_trip() {
        let hdr = Ipv4Header {
            options: vec![1, 1, 1, 1], // NOP padding
            total_len: 24,
            ..Ipv4Header::default()
        };
        let mut wire = Vec::new();
        hdr.encode(&mut wire);
        assert_eq!(wire.len(), 24);
        let decoded = Ipv4Header::decode(&mut &wire[..]).unwrap();
        assert_eq!(decoded.options, vec![1, 1, 1, 1]);
    }

    #[test]
    fn checksum_known_vector() {
        // Example from RFC 1071 discussions: 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2u16);
    }

    #[test]
    fn checksum_odd_length() {
        assert_eq!(internet_checksum(&[0xff]), !0xff00u16);
    }
}
