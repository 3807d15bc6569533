//! Ordered sets of time ranges — the core data structure of T-DAT.
//!
//! The T-DAT delay analyzer (see the `tdat` crate) represents every kind
//! of TCP connection behaviour — transmission, retransmission, sender
//! idleness, window-bounded periods — as an *event series*: an ordered
//! set of time durations, each optionally carrying a reference to the
//! detail trace data behind it. Measuring how much delay a behaviour
//! contributed reduces to computing the cardinality of its set, and
//! combining behaviours reduces to set algebra (union, intersection,
//! complement). This crate provides those primitives:
//!
//! * [`Micros`] — integer-microsecond timestamps/durations;
//! * [`Span`] — a half-open time interval;
//! * [`SpanSet`] — a normalized set of disjoint spans with full set
//!   algebra, gap iteration, and delay-ratio computation;
//! * [`EventSeries`] — spans with payloads, the `(event_duration,
//!   event_data)` tuples of the paper, as a series is built. A series is
//!   its events alone; whatever holds it gives it its name;
//! * [`SeriesArena`] — a finished set of `N` series frozen into one
//!   exactly sized allocation, and [`SeriesView`], the borrowed series
//!   through which both forms are read.
//!
//! # Examples
//!
//! Quantify how much of a 10-second transfer was spent recovering
//! losses, and what fraction of the remaining time the sender sat idle:
//!
//! ```
//! use tdat_timeset::{Micros, Span, SpanSet};
//!
//! let transfer = Span::from_micros(0, 10_000_000);
//! let loss = SpanSet::from_spans([
//!     Span::from_micros(1_000_000, 3_000_000),
//!     Span::from_micros(6_000_000, 6_500_000),
//! ]);
//! let sending = SpanSet::from_spans([Span::from_micros(0, 1_000_000)]);
//!
//! assert_eq!(loss.ratio(transfer), 0.25);
//! let idle = sending.union(&loss).complement(transfer);
//! assert_eq!(idle.size(), Micros(6_500_000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomicfile;
pub mod colenc;
pub mod faultpoint;
mod series;
mod set;
mod time;

pub use series::{Event, EventSeries, SeriesArena, SeriesView};
pub use set::{Gaps, SpanScratch, SpanSet};
pub use time::{Micros, Span};
