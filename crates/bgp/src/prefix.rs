//! IPv4 prefixes and NLRI wire encoding.

use bytes::{Buf, BufMut};
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

use crate::error::{BgpError, Result};

/// An IPv4 prefix (`address/len`) as carried in BGP NLRI.
///
/// The address is stored masked to the prefix length, so two `Prefix`
/// values compare equal iff they denote the same route.
///
/// ```
/// use tdat_bgp::Prefix;
/// let p: Prefix = "203.0.113.0/24".parse()?;
/// assert_eq!(p.len(), 24);
/// assert_eq!(p.to_string(), "203.0.113.0/24");
/// assert!(p.contains("203.0.113.77".parse()?));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefix {
    bits: u32,
    len: u8,
}

impl Prefix {
    /// Creates a prefix, masking the address to `len` bits.
    ///
    /// # Errors
    ///
    /// Returns an error if `len > 32`.
    pub fn new(addr: Ipv4Addr, len: u8) -> Result<Prefix> {
        if len > 32 {
            return Err(BgpError::Malformed {
                what: "prefix",
                detail: format!("length {len} exceeds 32"),
            });
        }
        let raw = u32::from(addr);
        let bits = if len == 0 {
            0
        } else {
            raw & (u32::MAX << (32 - len))
        };
        Ok(Prefix { bits, len })
    }

    /// The (masked) network address.
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.bits)
    }

    /// The prefix length in bits.
    pub fn len(&self) -> u8 {
        self.len
    }

    /// True only for the default route `0.0.0.0/0`.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if `addr` falls inside this prefix.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        if self.len == 0 {
            return true;
        }
        let mask = u32::MAX << (32 - self.len);
        (u32::from(addr) & mask) == self.bits
    }

    /// The prefix as the message log stores it and MCT keys it: one
    /// word, `network | len`, up to /24, and an escape word then the
    /// network beyond.
    pub(crate) fn words(&self) -> impl Iterator<Item = u32> {
        let (words, taken) = crate::log::prefix_words(self.bits, self.len);
        words.into_iter().take(taken)
    }

    /// Number of bytes the NLRI encoding of this prefix occupies.
    pub fn wire_len(&self) -> usize {
        1 + (self.len as usize).div_ceil(8)
    }

    /// Encodes in BGP NLRI form: length byte + ceil(len/8) address
    /// bytes.
    pub fn encode(&self, out: &mut impl BufMut) {
        out.put_u8(self.len);
        let octets = self.bits.to_be_bytes();
        out.put_slice(&octets[..(self.len as usize).div_ceil(8)]);
    }

    /// Decodes one NLRI prefix, advancing `buf`.
    ///
    /// # Errors
    ///
    /// Fails on truncation or a length byte above 32.
    pub fn decode(buf: &mut impl Buf) -> Result<Prefix> {
        if buf.remaining() < 1 {
            return Err(BgpError::Truncated {
                what: "nlri prefix",
                needed: 1,
                available: 0,
            });
        }
        let len = buf.get_u8();
        if len > 32 {
            return Err(BgpError::Malformed {
                what: "nlri prefix",
                detail: format!("length {len} exceeds 32"),
            });
        }
        let nbytes = (len as usize).div_ceil(8);
        if buf.remaining() < nbytes {
            return Err(BgpError::Truncated {
                what: "nlri prefix",
                needed: nbytes,
                available: buf.remaining(),
            });
        }
        let mut octets = [0u8; 4];
        buf.copy_to_slice(&mut octets[..nbytes]);
        Prefix::new(Ipv4Addr::from(octets), len)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl FromStr for Prefix {
    type Err = BgpError;

    fn from_str(s: &str) -> Result<Prefix> {
        let malformed = |detail: String| BgpError::Malformed {
            what: "prefix",
            detail,
        };
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| malformed(format!("missing '/' in {s:?}")))?;
        let addr: Ipv4Addr = addr
            .parse()
            .map_err(|e| malformed(format!("bad address in {s:?}: {e}")))?;
        let len: u8 = len
            .parse()
            .map_err(|e| malformed(format!("bad length in {s:?}: {e}")))?;
        Prefix::new(addr, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_host_bits() {
        let p = Prefix::new(Ipv4Addr::new(10, 1, 2, 3), 16).unwrap();
        assert_eq!(p.network(), Ipv4Addr::new(10, 1, 0, 0));
        assert_eq!(p, "10.1.0.0/16".parse().unwrap());
    }

    #[test]
    fn rejects_long_lengths() {
        assert!(Prefix::new(Ipv4Addr::UNSPECIFIED, 33).is_err());
        assert!("10.0.0.0/40".parse::<Prefix>().is_err());
        assert!("10.0.0.0".parse::<Prefix>().is_err());
        assert!("banana/8".parse::<Prefix>().is_err());
    }

    #[test]
    fn nlri_round_trip_various_lengths() {
        for len in [0u8, 1, 7, 8, 9, 16, 22, 24, 31, 32] {
            let p = Prefix::new(Ipv4Addr::new(192, 168, 255, 255), len).unwrap();
            let mut wire = Vec::new();
            p.encode(&mut wire);
            assert_eq!(wire.len(), p.wire_len());
            let got = Prefix::decode(&mut &wire[..]).unwrap();
            assert_eq!(got, p, "len {len}");
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        // /24 needs 3 address bytes; provide 2.
        let wire = [24u8, 10, 0];
        assert!(matches!(
            Prefix::decode(&mut &wire[..]),
            Err(BgpError::Truncated { .. })
        ));
        assert!(matches!(
            Prefix::decode(&mut &[][..]),
            Err(BgpError::Truncated { .. })
        ));
    }

    #[test]
    fn containment() {
        let p: Prefix = "172.16.0.0/12".parse().unwrap();
        assert!(p.contains("172.20.1.1".parse().unwrap()));
        assert!(!p.contains("172.32.0.0".parse().unwrap()));
        let all: Prefix = "0.0.0.0/0".parse().unwrap();
        assert!(all.contains("8.8.8.8".parse().unwrap()));
        assert!(all.is_empty());
    }
}
