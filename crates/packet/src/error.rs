//! Error type for packet parsing and pcap I/O.

use std::fmt;
use std::io;

/// Errors produced while decoding packets or reading/writing pcap files.
#[derive(Debug)]
#[non_exhaustive]
pub enum PacketError {
    /// The buffer ended before a complete header or payload.
    Truncated {
        /// What was being decoded (e.g. `"ipv4 header"`).
        what: &'static str,
        /// Bytes required.
        needed: usize,
        /// Bytes available.
        available: usize,
    },
    /// A header field held an unsupported or inconsistent value.
    Malformed {
        /// What was being decoded.
        what: &'static str,
        /// Description of the problem.
        detail: String,
    },
    /// The pcap file magic number was not recognized.
    BadMagic(u32),
    /// A followed capture shrank below a length it had already reached
    /// (rotation or truncation). Growth can repair a partial tail, but
    /// nothing brings back bytes the follower already committed past.
    SourceTruncated {
        /// Byte offset just past the last fully consumed record.
        committed: u64,
        /// The shrunken file length observed.
        len: u64,
    },
    /// The pcap link type is not one this crate decodes.
    UnsupportedLinkType(u32),
    /// Underlying I/O failure.
    Io(io::Error),
}

impl PacketError {
    /// Whether a follow source that hit this error may plausibly
    /// recover by *reopening* the capture, as opposed to corruption
    /// that reopening would only re-read.
    ///
    /// * [`PacketError::Io`] — transient: filesystem hiccups, NFS
    ///   stalls, and injected read faults clear on retry. A reopen
    ///   resumes at its committed byte offset.
    /// * [`PacketError::SourceTruncated`] — transient: the capture was
    ///   rotated or truncated. The follower stays poisoned until a
    ///   reopen, which reads the new capture from its start on the same
    ///   clock ([`PcapFollower::reopen`](crate::PcapFollower::reopen)).
    /// * Everything else (bad magic, malformed/truncated headers,
    ///   unsupported link type) — fatal: the bytes themselves are
    ///   wrong, and no number of reopens changes them.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            PacketError::Io(_) | PacketError::SourceTruncated { .. }
        )
    }
}

impl fmt::Display for PacketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PacketError::Truncated {
                what,
                needed,
                available,
            } => write!(
                f,
                "truncated {what}: needed {needed} bytes, only {available} available"
            ),
            PacketError::Malformed { what, detail } => write!(f, "malformed {what}: {detail}"),
            PacketError::BadMagic(magic) => {
                write!(f, "unrecognized pcap magic number {magic:#010x}")
            }
            PacketError::SourceTruncated { committed, len } => write!(
                f,
                "followed capture shrank to {len} bytes below committed offset {committed} \
                 (rotated or truncated)"
            ),
            PacketError::UnsupportedLinkType(lt) => {
                write!(f, "unsupported pcap link type {lt}")
            }
            PacketError::Io(err) => write!(f, "i/o error: {err}"),
        }
    }
}

impl std::error::Error for PacketError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PacketError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for PacketError {
    fn from(err: io::Error) -> Self {
        PacketError::Io(err)
    }
}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, PacketError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = PacketError::Truncated {
            what: "tcp header",
            needed: 20,
            available: 5,
        };
        assert_eq!(
            e.to_string(),
            "truncated tcp header: needed 20 bytes, only 5 available"
        );
        assert!(PacketError::BadMagic(0xdeadbeef)
            .to_string()
            .contains("0xdeadbeef"));
        assert!(PacketError::UnsupportedLinkType(42)
            .to_string()
            .contains("42"));
    }

    #[test]
    fn transient_classification_splits_io_from_corruption() {
        assert!(PacketError::from(io::Error::other("blip")).is_transient());
        assert!(PacketError::SourceTruncated {
            committed: 100,
            len: 30
        }
        .is_transient());
        assert!(!PacketError::BadMagic(0).is_transient());
        assert!(!PacketError::UnsupportedLinkType(1).is_transient());
        assert!(!PacketError::Malformed {
            what: "pcap record",
            detail: String::new()
        }
        .is_transient());
        assert!(!PacketError::Truncated {
            what: "tcp header",
            needed: 20,
            available: 5
        }
        .is_transient());
    }

    #[test]
    fn io_error_is_source() {
        use std::error::Error;
        let e = PacketError::from(io::Error::other("boom"));
        assert!(e.source().is_some());
    }
}

#[cfg(test)]
mod trait_assertions {
    use super::PacketError;

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<PacketError>();
    }
}
