//! Queryable report store — the serving layer of the T-DAT suite.
//!
//! The analyzer explains *one* slow transfer; a deployment produces
//! millions of explanations. This crate makes that corpus queryable:
//! it normalizes every report surface the suite emits — `t-dat --json`
//! batch reports and the monitor's `tdat-monitor-events/2` JSONL
//! stream, which is also how captures arrive (`t-dat-monitor --sweep
//! DIR --events - | t-dat-store ingest STORE -`) — into one
//! [`SessionRecord`] shape and persists it in **immutable columnar
//! segments** with per-segment zone maps, so rollup questions ("which
//! peers degrade at 03:00?", "how much transfer time did the advertised
//! window cost per AS last week?") answer without re-reading a single
//! pcap.
//!
//! # Architecture
//!
//! * [`SessionRecord`] ([`record`]) — the normalized row: source
//!   attribution, record kind, finalization instant, session interval,
//!   peer identity, accumulated alert signatures, and the full
//!   [`tdat::Report`].
//! * [`Segment`] ([`segment`]) — an immutable block file:
//!   dictionary-encoded strings, delta/zigzag-varint time columns (via
//!   [`tdat_timeset::colenc`]), raw-bit `f64` columns (reports round
//!   trip bit-exactly), an FNV-1a checksum, and a zone map
//!   ([`SegmentMeta`]) holding min/max time plus source/verdict sets
//!   for query pruning.
//! * [`Store`] ([`store`]) — an append-only directory of segments plus
//!   a JSONL `MANIFEST`. Ingest seals one segment per call; readers
//!   hold an [`Snapshot`] (`Arc`-shared, immutable) and **never block
//!   ingest**. New data becomes visible atomically at segment-seal
//!   boundaries. [`Store::compact`] merges segments time-ordered into
//!   one and swaps the manifest atomically; live readers keep their
//!   old snapshot.
//! * [`Query`] ([`query`]) — a small filter / group-by / time-bucket /
//!   aggregate language with deterministic JSONL output, plus
//!   [`QueryStats`] reporting how many segments the zone maps pruned.
//! * [`http`] — a dependency-free HTTP/1.1 front-end serving
//!   concurrent readers from shared snapshots.
//! * [`synth`] — a deterministic synthetic corpus generator for tests
//!   and benchmarks.
//!
//! # Example
//!
//! ```
//! use tdat_store::{Query, Store, synth};
//!
//! let dir = std::env::temp_dir().join(format!("tdat-store-doc-{}", std::process::id()));
//! let store = Store::create(&dir)?;
//! store.ingest(synth::synth_records(100, 7))?;
//!
//! let query = Query::parse("where verdict = degraded group by peer agg count")?;
//! let out = store.query(&query)?;
//! assert!(out.lines.iter().all(|l| l.starts_with('{')));
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), tdat_store::StoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod asmap;
pub mod http;
pub mod query;
pub mod record;
pub mod segment;
pub mod store;
pub mod synth;

pub use asmap::AsMap;
pub use http::{HttpLimits, StoreServer};
pub use query::{Query, QueryOutput, QueryStats};
pub use record::{JsonlIngester, RecordKind, SessionRecord};
pub use segment::{Segment, SegmentMeta};
pub use store::{Snapshot, Store, StoreStats};

use std::fmt;

/// Everything that can go wrong in the store.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O operation failed; carries the path involved.
    Io(String, std::io::Error),
    /// A segment or manifest file is damaged.
    Corrupt {
        /// The offending file.
        file: String,
        /// What was wrong with it.
        detail: String,
    },
    /// An ingested line could not be understood.
    Ingest(String),
    /// A query string could not be parsed.
    Query(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(path, e) => write!(f, "{path}: {e}"),
            StoreError::Corrupt { file, detail } => write!(f, "{file}: corrupt segment: {detail}"),
            StoreError::Ingest(detail) => write!(f, "ingest: {detail}"),
            StoreError::Query(detail) => write!(f, "query: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(_, e) => Some(e),
            _ => None,
        }
    }
}
