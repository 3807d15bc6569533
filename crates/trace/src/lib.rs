//! TCP trace analysis substrate — the `tcptrace'` equivalent of the
//! T-DAT tool suite (paper Table VI).
//!
//! From a raw frame trace this crate produces what the delay analyzer
//! needs as input (§III-B):
//!
//! * [`extract_connections`] — per-connection segment streams, oriented
//!   data-sender → receiver, with a [`ConnProfile`] (start/end, RTT,
//!   `d1`/`d2` split, MSS, maximum advertised window);
//! * [`label_segments`] — per-segment labels: in-order, reordered,
//!   retransmission classified into **upstream** vs **downstream
//!   (receiver-local)** loss per §II-B2, spurious retransmission, and
//!   zero-window probes — each loss label carrying its recovery span;
//! * [`loss_episodes`] — consecutive-retransmission episode grouping;
//! * [`group_flights`] — data/ACK flight grouping by inter-arrival gap.
//!
//! # Examples
//!
//! ```
//! use tdat_packet::read_pcap_file;
//! use tdat_trace::{extract_connections, label_segments, LabelConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let path = {
//! #     let dir = std::env::temp_dir().join("tdat_trace_doc");
//! #     std::fs::create_dir_all(&dir)?;
//! #     let p = dir.join("doc.pcap");
//! #     let f = tdat_packet::FrameBuilder::new("10.0.0.1".parse()?, "10.0.0.2".parse()?)
//! #         .payload(vec![0; 100]).build();
//! #     tdat_packet::write_pcap_file(&p, [&f])?;
//! #     p
//! # };
//! let frames = read_pcap_file(&path)?;
//! for conn in extract_connections(&frames) {
//!     let labels = label_segments(&conn, &LabelConfig::default());
//!     let retx = labels.iter().filter(|l| l.is_retransmission()).count();
//!     println!("{:?} -> {:?}: {} retransmissions", conn.sender, conn.receiver, retx);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conn;
mod flight;
mod label;
mod rtt;
mod throughput;
mod tracker;

pub use conn::{ConnKey, ConnProfile, Direction, Endpoint, Segment, TcpConnection};
pub use flight::{default_flight_gap, group_flights, Flight};
pub use label::{label_segments, loss_episodes, LabelConfig, LossEpisode, SegLabel};
pub use rtt::{rtt_samples, rtt_samples_from_timestamps, rtt_stats, RttSample, RttStats};
pub use throughput::{throughput_series, RateSample};
pub use tracker::{
    extract_connections, ConnectionTracker, FinalizedConnection, TrackerConfig,
    DEFAULT_MAX_CONNECTIONS,
};
