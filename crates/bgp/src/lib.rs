//! BGP-4 protocol support for the T-DAT suite.
//!
//! Everything BGP-shaped the paper's pipeline needs:
//!
//! * [`BgpMessage`] and friends — a wire-accurate RFC 4271 codec
//!   (OPEN / UPDATE / KEEPALIVE / NOTIFICATION, path attributes, NLRI);
//! * [`TableGenerator`] / [`RoutingTable`] — deterministic synthetic
//!   full tables with realistic prefix and AS-path statistics, packed
//!   into UPDATE messages like routers pack them;
//! * [`MrtRecord`] — the MRT (`BGP4MP`) archive format written by
//!   Quagga collectors;
//! * [`find_transfer_end`] — the MCT (Minimum Collection Time)
//!   estimator for where an initial table transfer ends in an update
//!   stream;
//! * [`MessageLog`] — what the capture path keeps of a stream instead
//!   of decoded messages: a row per message and the announced prefixes,
//!   filled by a skim decoder that accepts exactly what
//!   [`BgpMessage::decode`] accepts, and read in place by MCT.
//!
//! # Examples
//!
//! Generate a table, serialize it as the byte stream a router would
//! write to its BGP socket, and decode it back:
//!
//! ```
//! use tdat_bgp::{BgpMessage, TableGenerator};
//!
//! let table = TableGenerator::new(7).routes(100).generate();
//! let stream = table.to_update_stream();
//! let mut rest = &stream[..];
//! let mut total = 0;
//! while let Some(BgpMessage::Update(u)) = BgpMessage::decode(&mut rest)? {
//!     total += u.announced.len();
//! }
//! assert_eq!(total, 100);
//! # Ok::<(), tdat_bgp::BgpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attrs;
mod error;
mod log;
mod mct;
mod message;
mod mrt;
mod prefix;
mod rib_dump;
mod table;

pub use attrs::{AsPath, AsPathSegment, Origin, PathAttribute};
pub use error::{BgpError, Result};
pub use log::{Framed, KeptMessages, LogRow, MessageLog, WholeMessages};
pub use mct::{find_transfer_end, find_transfer_end_ref, MctConfig, MctUpdate, TableTransfer};
pub use message::{
    BgpMessage, NotificationMessage, OpenMessage, UpdateMessage, BGP_HEADER_LEN,
    BGP_MAX_MESSAGE_LEN, KEEPALIVE_LEN,
};
pub use mrt::{
    read_mrt, write_mrt, MrtRecord, BGP4MP_MESSAGE, BGP4MP_STATE_CHANGE, MRT_TYPE_BGP4MP,
};
pub use prefix::Prefix;
pub use rib_dump::{
    PeerEntry, RibDump, RibEntry, MRT_TYPE_TABLE_DUMP_V2, TDV2_PEER_INDEX_TABLE,
    TDV2_RIB_IPV4_UNICAST,
};
pub use table::{Route, RoutingTable, TableGenerator};
