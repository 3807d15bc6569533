//! The analyzer's unified error type.

use std::fmt;

/// Everything that can go wrong driving the analyzer.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// Reading or decoding the packet trace failed.
    Packet(tdat_packet::PacketError),
    /// A configuration value was rejected by validation.
    Config(String),
}

/// Result alias for analyzer entry points.
pub type Result<T> = std::result::Result<T, Error>;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Packet(e) => write!(f, "packet trace error: {e}"),
            Error::Config(reason) => write!(f, "invalid configuration: {reason}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Packet(e) => Some(e),
            _ => None,
        }
    }
}

impl From<tdat_packet::PacketError> for Error {
    fn from(e: tdat_packet::PacketError) -> Error {
        Error::Packet(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = Error::Config("bad threshold".into());
        assert!(e.to_string().contains("bad threshold"));
        assert!(std::error::Error::source(&e).is_none());
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = Error::from(tdat_packet::PacketError::from(io));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("packet trace error"));
    }
}
