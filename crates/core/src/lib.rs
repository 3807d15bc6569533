//! # T-DAT — the TCP Delay Analysis Tool
//!
//! Reproduction of the analyzer from *"Explaining BGP Slow Table
//! Transfers: Implementing a TCP Delay Analyzer"* (Cheng et al.). T-DAT
//! consumes passively collected TCP packet traces of BGP sessions and
//! explains *where the table-transfer time went*: it transforms the
//! trace into event series — ordered sets of time ranges, one per TCP
//! behaviour — and attributes the transfer delay to eight factors
//! across three groups (sender, receiver, network limited).
//!
//! The primary entry point is the **streaming engine**,
//! [`StreamAnalyzer`]: it ingests frames one at a time, demultiplexes
//! them into per-connection state ([`tdat_trace::ConnectionTracker`]),
//! reassembles BGP messages incrementally, finalizes each connection
//! when it closes or idles out ([`TrackerConfig`]), and runs the
//! per-connection pipeline on it there and then. It is one loop over
//! three sources (a pcap path, a frame iterator, a lossy reader) into
//! one of two sinks: the calling thread — the default — or
//! [`StreamOptions::shards`] worker lanes with byte-identical output.
//! Memory stays proportional to the *open* connections — not the trace
//! size — so day-long multi-session captures analyze in bounded space,
//! and results arrive as connections finish instead of after the whole
//! file is read.
//!
//! The per-connection pipeline (paper Fig. 10) is unchanged:
//!
//! 1. **Preprocess** ([`preprocess`]): approximate the sender-side view
//!    by shifting each ACK *flight* forward by its tightest
//!    ACK-to-released-data delay estimate (`d2_min`).
//! 2. **Series generation** ([`series`]): extraction / interpretation /
//!    operation rules derive the named series (`SendAppLimited`,
//!    `UpstreamLoss`, `AdvBndOut`, …).
//! 3. **Factors** ([`DelayVector`]): delay ratios per factor, unioned into
//!    the `(R_s, R_r, R_n)` group vector.
//! 4. **Detectors** ([`detect`]): timer-gap knee inference (L-method),
//!    consecutive-loss episodes, peer-group blocking, and the
//!    `ZeroAckBug` conflicting-series check.
//!
//! The batch [`Analyzer`] remains for in-memory frame slices and is
//! guaranteed to produce byte-identical analyses (both paths share the
//! same connection builder and BGP extractor; see
//! `tests/streaming_vs_batch.rs`).
//!
//! # Examples
//!
//! Streaming, results delivered as connections finalize:
//!
//! ```no_run
//! use tdat::StreamAnalyzer;
//!
//! let engine = StreamAnalyzer::new(Default::default());
//! engine.analyze_pcap_with("bgp-session.pcap", |analysis| {
//!     let v = &analysis.vector;
//!     println!(
//!         "transfer {}: sender {:.0}% receiver {:.0}% network {:.0}%",
//!         analysis.period.duration(),
//!         v.sender * 100.0,
//!         v.receiver * 100.0,
//!         v.network * 100.0,
//!     );
//!     for group in v.major_groups(0.3) {
//!         println!("  major: {group} (dominated by {})", v.dominant_factor_in(group));
//!     }
//! })?;
//! # Ok::<(), tdat::Error>(())
//! ```
//!
//! Batch, for frames already in memory:
//!
//! ```no_run
//! use tdat::Analyzer;
//!
//! let frames = tdat_packet::read_pcap_file("bgp-session.pcap")?;
//! for analysis in Analyzer::default().analyze_frames(&frames) {
//!     println!("{}", analysis.vector);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyzer;
mod config;
pub mod detect;
mod error;
mod factors;
pub mod json;
pub mod plot;
pub mod preprocess;
mod quarantine;
pub mod report;
pub mod series;
mod shardbatch;
mod stream;

pub use analyzer::{Analysis, Analyzer};
pub use config::{AnalyzerConfig, AnalyzerConfigBuilder, SnifferLocation};
pub use detect::{
    find_consecutive_losses, find_delayed_ack_interaction, find_peer_group_blocking,
    find_peer_group_blocking_all, find_zero_ack_bug, infer_timer, ConsecutiveLosses,
    DelayedAckInteraction, InferredTimer, PeerGroupBlocking, ZeroAckBug,
};
pub use error::{Error, Result};
pub use factors::{
    delay_vector, delay_vector_with, factor_spans, factor_spans_with, DelayVector, Factor,
    FactorGroup, FactorSpans,
};
pub use quarantine::{QuarantineConfig, Verdict};
pub use report::Report;
pub use series::{generate_series, generate_series_with, SeriesSet};
pub use stream::{BgpDemux, LossyRunReport, StreamAnalyzer, StreamOptions};
pub use tdat_trace::TrackerConfig;
