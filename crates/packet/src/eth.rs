//! Ethernet II framing.

use bytes::{Buf, BufMut};
use std::fmt;

use crate::error::{PacketError, Result};

/// Length of an Ethernet II header in bytes.
pub const ETHERNET_HEADER_LEN: usize = 14;

/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;

/// A 48-bit MAC address.
///
/// ```
/// use tdat_packet::MacAddr;
/// let mac = MacAddr([0x00, 0x1b, 0x21, 0x3c, 0x4d, 0x5e]);
/// assert_eq!(mac.to_string(), "00:1b:21:3c:4d:5e");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// A locally-administered unicast address derived from a small
    /// integer id; handy for simulated hosts.
    pub fn from_host_id(id: u32) -> MacAddr {
        let b = id.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// An Ethernet II header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EthernetHeader {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// EtherType of the payload (e.g. [`ETHERTYPE_IPV4`]).
    pub ethertype: u16,
}

impl Default for EthernetHeader {
    fn default() -> Self {
        EthernetHeader {
            dst: MacAddr::default(),
            src: MacAddr::default(),
            ethertype: ETHERTYPE_IPV4,
        }
    }
}

impl EthernetHeader {
    /// Creates an IPv4 Ethernet header between two MACs.
    pub fn ipv4(src: MacAddr, dst: MacAddr) -> EthernetHeader {
        EthernetHeader {
            dst,
            src,
            ethertype: ETHERTYPE_IPV4,
        }
    }

    /// Decodes the header from the start of `buf`, advancing it.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::Truncated`] if fewer than 14 bytes remain.
    pub fn decode(buf: &mut impl Buf) -> Result<EthernetHeader> {
        if buf.remaining() < ETHERNET_HEADER_LEN {
            return Err(PacketError::Truncated {
                what: "ethernet header",
                needed: ETHERNET_HEADER_LEN,
                available: buf.remaining(),
            });
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        buf.copy_to_slice(&mut dst);
        buf.copy_to_slice(&mut src);
        let ethertype = buf.get_u16();
        Ok(EthernetHeader {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype,
        })
    }

    /// Appends the 14-byte wire form to `buf`.
    pub fn encode(&self, buf: &mut impl BufMut) {
        buf.put_slice(&self.dst.0);
        buf.put_slice(&self.src.0);
        buf.put_u16(self.ethertype);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let hdr = EthernetHeader::ipv4(MacAddr::from_host_id(1), MacAddr::from_host_id(2));
        let mut wire = Vec::new();
        hdr.encode(&mut wire);
        assert_eq!(wire.len(), ETHERNET_HEADER_LEN);
        let decoded = EthernetHeader::decode(&mut &wire[..]).unwrap();
        assert_eq!(decoded, hdr);
    }

    #[test]
    fn truncated_rejected() {
        let err = EthernetHeader::decode(&mut &[0u8; 5][..]).unwrap_err();
        assert!(matches!(err, PacketError::Truncated { .. }));
    }

    #[test]
    fn host_id_macs_are_distinct_and_local() {
        let a = MacAddr::from_host_id(7);
        let b = MacAddr::from_host_id(8);
        assert_ne!(a, b);
        assert_eq!(a.0[0] & 0x02, 0x02); // locally administered
        assert_eq!(a.0[0] & 0x01, 0x00); // unicast
    }
}
