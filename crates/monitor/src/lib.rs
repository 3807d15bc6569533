//! Long-running BGP session monitoring on top of the T-DAT pipeline.
//!
//! The offline analyzer answers "why was that table transfer slow?"
//! after the fact. This crate answers it *while it is happening*: a
//! [`Monitor`] ingests frames from one or more packet sources — a
//! growing pcap file being written by a sniffer ([`FollowSource`]),
//! the discrete-event simulator driven in virtual time
//! ([`SimSource`]), or any custom [`PacketSource`] — and periodically
//! re-analyzes every open connection over a trailing window. Multiple
//! sources compose into a [`SourceSet`]: a watermark-based K-way merge
//! releases frames in global timestamp order while every frame,
//! anomaly, alert, and report stays attributed to the source that
//! produced it, so one bad collector degrades only its own view.
//! Detector outcomes feed an [`AlertEngine`] with per-(source,
//! session) hysteresis, so alerts raise when a problem persists and
//! clear when it goes away, once each. Its thresholds are constants
//! (see [`alerts`]), and every connection is analysed at
//! [`tdat::AnalyzerConfig`]'s defaults: a [`MonitorConfig`] sets the
//! window, the tick interval, the tracker's finalization policy and the
//! idle poll backoff. Events stream out as JSON Lines
//! (`tdat-monitor-events/2`, see [`EventSchema`]: a `meta` preamble
//! naming the sources, then every line attributed to one);
//! operational counters (including an analysis-latency histogram and
//! per-source frame counts) live in [`MonitorMetrics`]. One watch runs
//! on the caller's thread; a capture corpus on disk can be swept in
//! parallel, one watch per file, with [`sweep_directory`].
//!
//! Determinism: the event stream is keyed exclusively to *trace*
//! (virtual) time, so the same capture or scenario always produces
//! byte-identical JSONL. Wall-clock readings appear only in the
//! metrics. That is all a crashed watch needs to resume: the binary's
//! `--resume` replays from the origin and checks and counts the events
//! file it appends to, and keeps no other state on disk.
//!
//! The `t-dat-monitor` binary wraps all of this:
//!
//! ```text
//! t-dat-monitor --follow live.pcap --events alerts.jsonl
//! t-dat-monitor --follow a.pcap --follow b.pcap --sim peergroup
//! t-dat-monitor --sweep captures/ --jobs 4
//! ```
//!
//! # Examples
//!
//! Watch a simulated scenario and print its event stream:
//!
//! ```
//! use tdat_monitor::{EventSchema, Monitor, MonitorConfig, SourceSet, SourceSpec};
//! use tdat_tcpsim::scenario::ScenarioOptions;
//!
//! let config = MonitorConfig::builder().build()?;
//! let opts = ScenarioOptions { routes: 500, ..ScenarioOptions::default() };
//! let spec = SourceSpec::sim("clean", opts, config.interval).map_err(tdat::Error::Config)?;
//! let mut set = SourceSet::builder()
//!     .source(spec)
//!     .build()
//!     .map_err(tdat::Error::Config)?;
//! let mut monitor = Monitor::new(config);
//! let events = monitor.run_set(&mut set);
//! if let Some(meta) = EventSchema::V2.preamble(&set.names()) {
//!     println!("{meta}");
//! }
//! for event in events {
//!     println!("{}", event.to_json());
//! }
//! # Ok::<(), tdat::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod alerts;
pub mod engine;
pub mod metrics;
#[cfg(test)]
mod peer_props;
pub mod set;
pub mod source;
pub mod sweep;
#[cfg(test)]
mod tick_props;

pub use alerts::{Alert, AlertAction, AlertEngine, AlertKind, Condition, Severity};
pub use engine::{
    ConnectionSummary, EventSchema, Monitor, MonitorConfig, MonitorConfigBuilder, MonitorEvent,
    SourceDown, SourceUp, Step, DEFAULT_SOURCE,
};
pub use metrics::{LatencyHistogram, MonitorMetrics};
pub use set::{
    unique_name, SetEvent, SourceId, SourceRun, SourceSet, SourceSetBuilder, SourceSpec,
};
pub use source::{AttributedAnomaly, FollowSource, PacketSource, SimSource, SourceEvent};
pub use sweep::{sweep_directory, SweepOutcome, SweepReport};
pub use tdat_trace::TrackerConfig;

/// The repository benchmark's spelling of [`Monitor`] at
/// `shards >= 2`, from when worker lanes were a separate type; there is
/// one engine, and `shards` has no effect. The alias goes once the
/// benchmark stops naming it.
pub type ShardedMonitor = Monitor;
