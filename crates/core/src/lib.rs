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
//! The entry point is the **batch engine**, [`StreamAnalyzer`]: it
//! ingests frames one at a time, demultiplexes them into
//! per-connection state ([`tdat_trace::ConnectionTracker`]), reassembles
//! BGP messages incrementally, finalizes each connection at the end of
//! the input — or, with [`TrackerConfig::streaming`], when it closes or
//! idles out — and runs the per-connection pipeline on it there and
//! then. It is one loop over three sources (a pcap path, frames in
//! memory, a lossy reader) into one [`Ingest`] on the calling thread,
//! the ingest core a live monitor runs once per source too. `t-dat`,
//! the oracle, the paper experiments and the tests all run this one
//! pass; [`Analyzer`] holds only its per-connection steps.
//!
//! Frame payloads are never retained. By default every connection is
//! held to its last frame, so memory grows with the capture's frame
//! count: a fixed-size record per frame, plus, until its table transfer
//! settles, 4 bytes per BGP message, 16 per run of messages one segment
//! framed and 4 per announced prefix. A log settles once the capture's
//! clock lies more than MCT's `max_gap` past its last UPDATE that
//! announced or withdrew a prefix ([`BgpDemux::settle`]); it then keeps
//! MCT's answer in place of the table, so a capture of many transfers
//! holds the tables of the sessions still transferring, not of every
//! session seen. That answer is exact while frame times do not
//! decrease. A [`TrackerConfig::streaming`] engine holds only the
//! connections still open, which keeps day-long multi-session captures
//! in bounded space and delivers results as connections finish.
//!
//! The per-connection pipeline (paper Fig. 10):
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
//! [`AnalyzerConfig`] holds what the paper's experiments vary: the
//! sniffer vantage, the small-window and major-group thresholds, the
//! consecutive-loss count and the ACK shift. Each analysis also carries
//! a capture-quality [`Verdict`], whose budgets are constants
//! ([`Verdict::MAX_ANOMALIES`] capture anomalies, 4 KiB of unframed BGP
//! payload, 64 KiB dropped by the reassembly caps).
//!
//! # Examples
//!
//! A capture, connection by connection:
//!
//! ```no_run
//! use tdat::StreamAnalyzer;
//!
//! let engine = StreamAnalyzer::default();
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
mod stream;

pub use analyzer::{Analysis, Analyzer, PartialAnalysis};
pub use config::{AnalyzerConfig, AnalyzerConfigBuilder, SnifferLocation};
pub use detect::{
    find_consecutive_losses, find_delayed_ack_interaction, find_peer_group_blocking,
    find_peer_group_blocking_all, find_peer_group_blocking_among, find_zero_ack_bug, infer_timer,
    long_pauses, pair_peer_groups, ConsecutiveLosses, DelayedAckInteraction, InferredTimer,
    PeerGroupBlocking, PeerMember, ZeroAckBug,
};
pub use error::{Error, Result};
pub use factors::{
    delay_vector_with, factor_spans_with, DelayVector, Factor, FactorGroup, FactorSpans,
};
pub use quarantine::Verdict;
pub use report::Report;
pub use series::{generate_series_with, SeriesSet};
pub use stream::{BgpDemux, Ingest, LossyRunReport, SettleCount, StreamAnalyzer, StreamOptions};
pub use tdat_trace::TrackerConfig;
