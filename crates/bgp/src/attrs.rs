//! BGP path attributes (RFC 4271 §4.3).

use bytes::{Buf, BufMut};
use std::fmt;
use std::net::Ipv4Addr;

use crate::error::{BgpError, Result};

/// ORIGIN attribute values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Origin {
    /// Learned from an interior protocol.
    #[default]
    Igp,
    /// Learned via EGP.
    Egp,
    /// Origin unknown.
    Incomplete,
}

impl Origin {
    fn code(self) -> u8 {
        match self {
            Origin::Igp => 0,
            Origin::Egp => 1,
            Origin::Incomplete => 2,
        }
    }

    fn from_code(code: u8) -> Result<Origin> {
        match code {
            0 => Ok(Origin::Igp),
            1 => Ok(Origin::Egp),
            2 => Ok(Origin::Incomplete),
            _ => Err(BgpError::Malformed {
                what: "origin attribute",
                detail: format!("unknown origin code {code}"),
            }),
        }
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Origin::Igp => "IGP",
            Origin::Egp => "EGP",
            Origin::Incomplete => "INCOMPLETE",
        })
    }
}

/// One segment of an AS_PATH.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AsPathSegment {
    /// An ordered sequence of ASes.
    Sequence(Vec<u16>),
    /// An unordered set of ASes (from aggregation).
    Set(Vec<u16>),
}

/// An AS_PATH: the ASes a route has traversed, most recent first.
///
/// ```
/// use tdat_bgp::AsPath;
/// let path = AsPath::sequence([7018, 3356, 15169]);
/// assert_eq!(path.to_string(), "7018 3356 15169");
/// assert_eq!(path.hop_count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct AsPath {
    /// The path segments in wire order.
    pub segments: Vec<AsPathSegment>,
}

impl AsPath {
    /// Creates a path consisting of a single AS_SEQUENCE.
    pub fn sequence(ases: impl IntoIterator<Item = u16>) -> AsPath {
        AsPath {
            segments: vec![AsPathSegment::Sequence(ases.into_iter().collect())],
        }
    }

    /// Total number of ASes across all segments (AS sets count their
    /// members).
    pub fn hop_count(&self) -> usize {
        self.segments
            .iter()
            .map(|s| match s {
                AsPathSegment::Sequence(v) | AsPathSegment::Set(v) => v.len(),
            })
            .sum()
    }

    /// The neighboring (first) AS on the path, if any.
    pub fn first_as(&self) -> Option<u16> {
        self.segments.first().and_then(|s| match s {
            AsPathSegment::Sequence(v) | AsPathSegment::Set(v) => v.first().copied(),
        })
    }

    fn encode(&self, out: &mut impl BufMut) {
        for seg in &self.segments {
            let (kind, ases) = match seg {
                AsPathSegment::Set(v) => (1u8, v),
                AsPathSegment::Sequence(v) => (2u8, v),
            };
            out.put_u8(kind);
            out.put_u8(ases.len() as u8);
            for asn in ases {
                out.put_u16(*asn);
            }
        }
    }

    fn wire_len(&self) -> usize {
        self.segments
            .iter()
            .map(|s| match s {
                AsPathSegment::Sequence(v) | AsPathSegment::Set(v) => 2 + v.len() * 2,
            })
            .sum()
    }

    fn decode(mut raw: &[u8]) -> Result<AsPath> {
        let mut segments = Vec::new();
        while raw.remaining() > 0 {
            if raw.remaining() < 2 {
                return Err(BgpError::Truncated {
                    what: "as_path segment",
                    needed: 2,
                    available: raw.remaining(),
                });
            }
            let kind = raw.get_u8();
            let count = raw.get_u8() as usize;
            if raw.remaining() < count * 2 {
                return Err(BgpError::Truncated {
                    what: "as_path segment",
                    needed: count * 2,
                    available: raw.remaining(),
                });
            }
            let ases: Vec<u16> = (0..count).map(|_| raw.get_u16()).collect();
            segments.push(match kind {
                1 => AsPathSegment::Set(ases),
                2 => AsPathSegment::Sequence(ases),
                _ => {
                    return Err(BgpError::Malformed {
                        what: "as_path segment",
                        detail: format!("unknown segment type {kind}"),
                    })
                }
            });
        }
        Ok(AsPath { segments })
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for seg in &self.segments {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            match seg {
                AsPathSegment::Sequence(v) => {
                    let strs: Vec<String> = v.iter().map(u16::to_string).collect();
                    write!(f, "{}", strs.join(" "))?;
                }
                AsPathSegment::Set(v) => {
                    let strs: Vec<String> = v.iter().map(u16::to_string).collect();
                    write!(f, "{{{}}}", strs.join(","))?;
                }
            }
        }
        Ok(())
    }
}

/// A decoded path attribute.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PathAttribute {
    /// ORIGIN (type 1).
    Origin(Origin),
    /// AS_PATH (type 2).
    AsPath(AsPath),
    /// NEXT_HOP (type 3).
    NextHop(Ipv4Addr),
    /// MULTI_EXIT_DISC (type 4).
    Med(u32),
    /// LOCAL_PREF (type 5).
    LocalPref(u32),
    /// ATOMIC_AGGREGATE (type 6).
    AtomicAggregate,
    /// AGGREGATOR (type 7): the AS and router that aggregated the
    /// route.
    Aggregator(u16, Ipv4Addr),
    /// COMMUNITIES (type 8, RFC 1997).
    Communities(Vec<u32>),
    /// AS4_PATH (type 17, RFC 6793): the 4-byte-AS path carried across
    /// 2-byte-AS speakers. Stored as plain sequences of 32-bit ASNs.
    As4Path(Vec<Vec<u32>>),
    /// Any attribute this crate does not interpret.
    Unknown {
        /// Attribute flags byte.
        flags: u8,
        /// Attribute type code.
        type_code: u8,
        /// Raw value bytes.
        value: Vec<u8>,
    },
}

const FLAG_OPTIONAL: u8 = 0x80;
const FLAG_TRANSITIVE: u8 = 0x40;
pub(crate) const FLAG_EXT_LEN: u8 = 0x10;

impl PathAttribute {
    /// The attribute's wire type code.
    pub fn type_code(&self) -> u8 {
        match self {
            PathAttribute::Origin(_) => 1,
            PathAttribute::AsPath(_) => 2,
            PathAttribute::NextHop(_) => 3,
            PathAttribute::Med(_) => 4,
            PathAttribute::LocalPref(_) => 5,
            PathAttribute::AtomicAggregate => 6,
            PathAttribute::Aggregator(..) => 7,
            PathAttribute::Communities(_) => 8,
            PathAttribute::As4Path(_) => 17,
            PathAttribute::Unknown { type_code, .. } => *type_code,
        }
    }

    fn flags(&self) -> u8 {
        match self {
            PathAttribute::Origin(_)
            | PathAttribute::AsPath(_)
            | PathAttribute::NextHop(_)
            | PathAttribute::LocalPref(_)
            | PathAttribute::AtomicAggregate => FLAG_TRANSITIVE,
            PathAttribute::Med(_) => FLAG_OPTIONAL,
            PathAttribute::Aggregator(..)
            | PathAttribute::Communities(_)
            | PathAttribute::As4Path(_) => FLAG_OPTIONAL | FLAG_TRANSITIVE,
            PathAttribute::Unknown { flags, .. } => *flags & !FLAG_EXT_LEN,
        }
    }

    fn value_len(&self) -> usize {
        match self {
            PathAttribute::Origin(_) => 1,
            PathAttribute::AsPath(p) => p.wire_len(),
            PathAttribute::NextHop(_) => 4,
            PathAttribute::Med(_) | PathAttribute::LocalPref(_) => 4,
            PathAttribute::AtomicAggregate => 0,
            PathAttribute::Aggregator(..) => 6,
            PathAttribute::Communities(c) => c.len() * 4,
            PathAttribute::As4Path(segs) => segs.iter().map(|s| 2 + s.len() * 4).sum(),
            PathAttribute::Unknown { value, .. } => value.len(),
        }
    }

    /// Encoded length including the attribute header.
    pub fn wire_len(&self) -> usize {
        let vlen = self.value_len();
        let header = if vlen > 255 { 4 } else { 3 };
        header + vlen
    }

    /// Encodes the attribute (header + value).
    pub fn encode(&self, out: &mut impl BufMut) {
        let vlen = self.value_len();
        let mut flags = self.flags();
        if vlen > 255 {
            flags |= FLAG_EXT_LEN;
        }
        out.put_u8(flags);
        out.put_u8(self.type_code());
        if vlen > 255 {
            out.put_u16(vlen as u16);
        } else {
            out.put_u8(vlen as u8);
        }
        match self {
            PathAttribute::Origin(o) => out.put_u8(o.code()),
            PathAttribute::AsPath(p) => p.encode(out),
            PathAttribute::NextHop(nh) => out.put_slice(&nh.octets()),
            PathAttribute::Med(v) | PathAttribute::LocalPref(v) => out.put_u32(*v),
            PathAttribute::AtomicAggregate => {}
            PathAttribute::Aggregator(asn, id) => {
                out.put_u16(*asn);
                out.put_slice(&id.octets());
            }
            PathAttribute::Communities(cs) => {
                for c in cs {
                    out.put_u32(*c);
                }
            }
            PathAttribute::As4Path(segs) => {
                for seg in segs {
                    out.put_u8(2); // AS_SEQUENCE
                    out.put_u8(seg.len() as u8);
                    for asn in seg {
                        out.put_u32(*asn);
                    }
                }
            }
            PathAttribute::Unknown { value, .. } => out.put_slice(value),
        }
    }

    /// Decodes one attribute, advancing `buf`.
    ///
    /// # Errors
    ///
    /// Fails on truncation or structurally invalid values; unknown type
    /// codes are preserved as [`PathAttribute::Unknown`].
    pub fn decode(buf: &mut impl Buf) -> Result<PathAttribute> {
        if buf.remaining() < 3 {
            return Err(BgpError::Truncated {
                what: "path attribute header",
                needed: 3,
                available: buf.remaining(),
            });
        }
        let flags = buf.get_u8();
        let type_code = buf.get_u8();
        let vlen = if flags & FLAG_EXT_LEN != 0 {
            if buf.remaining() < 2 {
                return Err(BgpError::Truncated {
                    what: "path attribute length",
                    needed: 2,
                    available: buf.remaining(),
                });
            }
            buf.get_u16() as usize
        } else {
            buf.get_u8() as usize
        };
        if buf.remaining() < vlen {
            return Err(BgpError::Truncated {
                what: "path attribute value",
                needed: vlen,
                available: buf.remaining(),
            });
        }
        let mut value = vec![0u8; vlen];
        buf.copy_to_slice(&mut value);
        let malformed = |what: &'static str, detail: String| BgpError::Malformed { what, detail };
        Ok(match type_code {
            1 => {
                let [code] = value[..] else {
                    return Err(malformed(
                        "origin attribute",
                        format!("value length {vlen}, expected 1"),
                    ));
                };
                PathAttribute::Origin(Origin::from_code(code)?)
            }
            2 => PathAttribute::AsPath(AsPath::decode(&value)?),
            3 => {
                let octets: [u8; 4] = value[..].try_into().map_err(|_| {
                    malformed(
                        "next_hop attribute",
                        format!("value length {vlen}, expected 4"),
                    )
                })?;
                PathAttribute::NextHop(Ipv4Addr::from(octets))
            }
            4 | 5 => {
                let octets: [u8; 4] = value[..].try_into().map_err(|_| {
                    malformed("med/local_pref attribute", format!("value length {vlen}"))
                })?;
                let v = u32::from_be_bytes(octets);
                if type_code == 4 {
                    PathAttribute::Med(v)
                } else {
                    PathAttribute::LocalPref(v)
                }
            }
            6 => {
                if !value.is_empty() {
                    return Err(malformed(
                        "atomic_aggregate attribute",
                        format!("value length {vlen}, expected 0"),
                    ));
                }
                PathAttribute::AtomicAggregate
            }
            7 => {
                if value.len() != 6 {
                    return Err(malformed(
                        "aggregator attribute",
                        format!("value length {vlen}, expected 6"),
                    ));
                }
                let asn = u16::from_be_bytes([value[0], value[1]]);
                let id = Ipv4Addr::new(value[2], value[3], value[4], value[5]);
                PathAttribute::Aggregator(asn, id)
            }
            17 => {
                let mut segs = Vec::new();
                let mut rest = &value[..];
                while rest.remaining() > 0 {
                    if rest.remaining() < 2 {
                        return Err(BgpError::Truncated {
                            what: "as4_path segment",
                            needed: 2,
                            available: rest.remaining(),
                        });
                    }
                    let kind = rest.get_u8();
                    let count = rest.get_u8() as usize;
                    if kind != 2 {
                        return Err(malformed(
                            "as4_path attribute",
                            format!("unsupported segment type {kind}"),
                        ));
                    }
                    if rest.remaining() < count * 4 {
                        return Err(BgpError::Truncated {
                            what: "as4_path segment",
                            needed: count * 4,
                            available: rest.remaining(),
                        });
                    }
                    segs.push((0..count).map(|_| rest.get_u32()).collect());
                }
                PathAttribute::As4Path(segs)
            }
            8 => {
                if value.len() % 4 != 0 {
                    return Err(malformed(
                        "communities attribute",
                        format!("value length {vlen} not a multiple of 4"),
                    ));
                }
                PathAttribute::Communities(
                    value
                        .chunks_exact(4)
                        .map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]]))
                        .collect(),
                )
            }
            _ => PathAttribute::Unknown {
                flags,
                type_code,
                value,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(attr: PathAttribute) {
        let mut wire = Vec::new();
        attr.encode(&mut wire);
        assert_eq!(wire.len(), attr.wire_len());
        let got = PathAttribute::decode(&mut &wire[..]).unwrap();
        assert_eq!(got, attr);
    }

    #[test]
    fn round_trip_all_known_attributes() {
        round_trip(PathAttribute::Origin(Origin::Igp));
        round_trip(PathAttribute::AsPath(AsPath::sequence([1, 2, 3])));
        round_trip(PathAttribute::AsPath(AsPath {
            segments: vec![
                AsPathSegment::Sequence(vec![100, 200]),
                AsPathSegment::Set(vec![300, 400]),
            ],
        }));
        round_trip(PathAttribute::NextHop("10.0.0.9".parse().unwrap()));
        round_trip(PathAttribute::Med(777));
        round_trip(PathAttribute::LocalPref(100));
        round_trip(PathAttribute::AtomicAggregate);
        round_trip(PathAttribute::Aggregator(
            65_100,
            "10.2.3.4".parse().unwrap(),
        ));
        round_trip(PathAttribute::Communities(vec![0x00010002, 0xFFFF0001]));
        round_trip(PathAttribute::As4Path(vec![vec![4_200_000_001, 65_001]]));
        round_trip(PathAttribute::As4Path(vec![vec![1], vec![2, 3]]));
        round_trip(PathAttribute::Unknown {
            flags: FLAG_OPTIONAL,
            type_code: 99,
            value: vec![1, 2, 3],
        });
    }

    #[test]
    fn extended_length_attributes() {
        // AS path long enough to force the extended-length flag.
        let long = AsPath::sequence((0..200).map(|i| i as u16));
        let attr = PathAttribute::AsPath(long);
        assert!(attr.value_len() > 255);
        round_trip(attr);
    }

    #[test]
    fn as_path_display() {
        let p = AsPath {
            segments: vec![
                AsPathSegment::Sequence(vec![7018, 3356]),
                AsPathSegment::Set(vec![1, 2]),
            ],
        };
        assert_eq!(p.to_string(), "7018 3356 {1,2}");
        assert_eq!(p.hop_count(), 4);
        assert_eq!(p.first_as(), Some(7018));
    }

    #[test]
    fn malformed_values_rejected() {
        // Origin with 2-byte value.
        let wire = [FLAG_TRANSITIVE, 1u8, 2, 0, 0];
        assert!(PathAttribute::decode(&mut &wire[..]).is_err());
        // Bad origin code.
        let wire = [FLAG_TRANSITIVE, 1u8, 1, 9];
        assert!(PathAttribute::decode(&mut &wire[..]).is_err());
        // Truncated value.
        let wire = [FLAG_TRANSITIVE, 3u8, 4, 1, 2];
        assert!(PathAttribute::decode(&mut &wire[..]).is_err());
        // Bad as_path segment type.
        let wire = [FLAG_TRANSITIVE, 2u8, 4, 7, 1, 0, 1];
        assert!(PathAttribute::decode(&mut &wire[..]).is_err());
        // Aggregator with wrong length.
        let wire = [FLAG_OPTIONAL | FLAG_TRANSITIVE, 7u8, 4, 1, 2, 3, 4];
        assert!(PathAttribute::decode(&mut &wire[..]).is_err());
        // AS4_PATH with a truncated segment.
        let wire = [FLAG_OPTIONAL | FLAG_TRANSITIVE, 17u8, 4, 2, 2, 0, 0];
        assert!(PathAttribute::decode(&mut &wire[..]).is_err());
    }
}
