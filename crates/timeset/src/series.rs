//! Payload-carrying event series.
//!
//! An [`EventSeries`] is the full form of the paper's series (§III-A): an
//! ordered collection of `(event_duration, event_data)` tuples. The
//! duration part is a [`Span`]; the data part is a generic payload that
//! points back at the detail trace data (retransmitted byte counts,
//! window sizes, …). Flattening a series with
//! [`EventSeries::to_span_set`] yields the pure time-set view on which
//! the set algebra of [`SpanSet`] operates, while the series itself
//! "faithfully preserves the exact packet timing information" for
//! cross-referencing back into the raw trace.

use std::fmt;

use crate::{Micros, Span, SpanSet};

/// One element of an [`EventSeries`]: a time span plus its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Event<T> {
    /// When the behaviour was in effect.
    pub span: Span,
    /// Reference to the detail data behind the event.
    pub data: T,
}

impl<T> Event<T> {
    /// Creates an event covering `span` with payload `data`.
    pub fn new(span: Span, data: T) -> Event<T> {
        Event { span, data }
    }
}

impl<T: fmt::Display> fmt::Display for Event<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.span, self.data)
    }
}

/// An ordered series of events of one behaviour type.
///
/// Events are kept sorted by span start. Unlike [`SpanSet`], events may
/// overlap — e.g. two retransmissions of different segments recovering
/// concurrently — because each event keeps its own payload. Quantitative
/// measures (size, ratio) are computed on the *flattened* set so that
/// overlapping time is never double-counted, matching the paper's
/// definition of series size.
///
/// A series carries no name, only its events: 24 bytes, one `Vec`. The
/// place that holds it names it — in the analyzer, the field of the
/// series set it sits in — so a program that keeps thousands of
/// analyses keeps no name per series.
///
/// # Examples
///
/// ```
/// use tdat_timeset::{EventSeries, Micros, Span};
///
/// let mut retx: EventSeries<u32> = EventSeries::new();
/// retx.push(Span::from_micros(100, 300), 1448);
/// retx.push(Span::from_micros(250, 400), 1448); // overlaps the first
/// assert_eq!(retx.len(), 2);
/// // Flattened size counts the covered time once.
/// assert_eq!(retx.size(), Micros(300));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EventSeries<T> {
    events: Vec<Event<T>>,
}

impl<T> EventSeries<T> {
    /// Creates an empty series. It allocates nothing until its first
    /// event.
    pub const fn new() -> EventSeries<T> {
        EventSeries { events: Vec::new() }
    }

    /// Number of events (not the covered duration; see [`size`]).
    ///
    /// [`size`]: EventSeries::size
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the series has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends an event, keeping the series sorted by start time.
    /// Empty spans are ignored unless the payload marks an instantaneous
    /// event the caller still wants recorded — they are kept, since an
    /// empty span contributes zero size anyway.
    pub fn push(&mut self, span: Span, data: T) {
        let event = Event::new(span, data);
        match self.events.last() {
            Some(last) if last.span.start <= span.start => self.events.push(event),
            None => self.events.push(event),
            _ => {
                let idx = self.events.partition_point(|e| e.span.start <= span.start);
                self.events.insert(idx, event);
            }
        }
    }

    /// The events in start order.
    pub fn events(&self) -> &[Event<T>] {
        &self.events
    }

    /// Iterates over the events.
    pub fn iter(&self) -> std::slice::Iter<'_, Event<T>> {
        self.events.iter()
    }

    /// Flattens the series into a normalized [`SpanSet`].
    pub fn to_span_set(&self) -> SpanSet {
        let mut out = SpanSet::new();
        self.span_set_into(&mut out);
        out
    }

    /// Flattens the series into `out` (cleared first). Because events
    /// are kept sorted by start, this is a linear coalescing pass — no
    /// sort and no allocation beyond growing `out` once.
    pub fn span_set_into(&self, out: &mut SpanSet) {
        out.clear();
        for event in &self.events {
            out.push_sorted(event.span);
        }
    }

    /// Total covered duration (flattened; overlap counted once).
    /// Allocation-free: a linear pass over the sorted events.
    pub fn size(&self) -> Micros {
        let mut total = Micros::ZERO;
        let mut covered_to = Micros::MIN;
        for event in &self.events {
            let span = event.span;
            if span.is_empty() {
                continue;
            }
            if span.end > covered_to {
                total += span.end - span.start.max(covered_to);
                covered_to = span.end;
            }
        }
        total
    }

    /// Fraction of `window` covered by this series — its *delay ratio*.
    pub fn ratio(&self, window: Span) -> f64 {
        let denom = window.duration().as_micros();
        if denom <= 0 {
            return 0.0;
        }
        let mut covered = Micros::ZERO;
        let mut covered_to = Micros::MIN;
        for event in &self.events {
            let Some(span) = event.span.intersect(window) else {
                continue;
            };
            if span.end > covered_to {
                covered += span.end - span.start.max(covered_to);
                covered_to = span.end;
            }
        }
        covered.as_micros() as f64 / denom as f64
    }

    /// Events overlapping `span`, for drilling from a high-level
    /// observation back into the packet trace.
    pub fn overlapping(&self, span: Span) -> impl Iterator<Item = &Event<T>> {
        self.events.iter().filter(move |e| e.span.overlaps(span))
    }

    /// The durations of the individual events, in order. Useful for gap
    /// length distributions (Fig. 17 of the paper).
    pub fn durations(&self) -> impl Iterator<Item = Micros> + '_ {
        self.events.iter().map(|e| e.span.duration())
    }
}

impl<T> IntoIterator for EventSeries<T> {
    type Item = Event<T>;
    type IntoIter = std::vec::IntoIter<Event<T>>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

impl<'a, T> IntoIterator for &'a EventSeries<T> {
    type Item = &'a Event<T>;
    type IntoIter = std::slice::Iter<'a, Event<T>>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl<T> Extend<(Span, T)> for EventSeries<T> {
    fn extend<I: IntoIterator<Item = (Span, T)>>(&mut self, iter: I) {
        for (span, data) in iter {
            self.push(span, data);
        }
    }
}

impl<T: fmt::Display> fmt::Display for EventSeries<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} events, size {}", self.len(), self.size())?;
        for event in &self.events {
            writeln!(f, "  {event}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_keeps_sorted_order() {
        let mut s: EventSeries<&str> = EventSeries::new();
        s.push(Span::from_micros(100, 200), "b");
        s.push(Span::from_micros(0, 50), "a");
        s.push(Span::from_micros(150, 160), "c");
        let starts: Vec<i64> = s.iter().map(|e| e.span.start.0).collect();
        assert_eq!(starts, vec![0, 100, 150]);
    }

    #[test]
    fn size_flattens_overlap() {
        let mut s: EventSeries<()> = EventSeries::new();
        s.push(Span::from_micros(0, 100), ());
        s.push(Span::from_micros(50, 150), ());
        assert_eq!(s.size(), Micros(150));
        assert_eq!(s.len(), 2);
        assert_eq!(s.ratio(Span::from_micros(0, 300)), 0.5);
    }

    #[test]
    fn overlapping_and_within_queries() {
        let mut s: EventSeries<u8> = EventSeries::new();
        s.push(Span::from_micros(0, 10), 1);
        s.push(Span::from_micros(20, 30), 2);
        s.push(Span::from_micros(40, 50), 3);
        let hits: Vec<u8> = s
            .overlapping(Span::from_micros(5, 25))
            .map(|e| e.data)
            .collect();
        assert_eq!(hits, vec![1, 2]);
    }

    #[test]
    fn a_series_is_its_events_alone() {
        assert_eq!(std::mem::size_of::<EventSeries<u32>>(), 24);
    }

    #[test]
    fn durations_in_order() {
        let mut s: EventSeries<()> = EventSeries::new();
        s.push(Span::from_micros(0, 200), ());
        s.push(Span::from_micros(500, 600), ());
        let d: Vec<i64> = s.durations().map(|m| m.0).collect();
        assert_eq!(d, vec![200, 100]);
    }

    #[test]
    fn extend_from_tuples() {
        let mut s: EventSeries<u8> = EventSeries::new();
        s.extend([(Span::from_micros(10, 20), 1), (Span::from_micros(0, 5), 2)]);
        assert_eq!(s.events()[0].data, 2);
    }
}
