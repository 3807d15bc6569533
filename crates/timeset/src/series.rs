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

/// An ordered series of events of one behaviour type, as it is built.
///
/// Events are kept sorted by span start. Unlike [`SpanSet`], events may
/// overlap — e.g. two retransmissions of different segments recovering
/// concurrently — because each event keeps its own payload. Quantitative
/// measures (size, ratio) are computed on the *flattened* set so that
/// overlapping time is never double-counted, matching the paper's
/// definition of series size.
///
/// A series carries no name, only its events: 24 bytes, one `Vec`. Its
/// reads are those of a [`SeriesView`], which [`view`](Self::view)
/// lends; a finished set of series is frozen into one [`SeriesArena`],
/// which lends the same views, so one implementation reads both.
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
/// assert_eq!(retx.view().size(), Micros(300));
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

    /// Number of events (not the covered duration; see
    /// [`SeriesView::size`]).
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

    /// Makes room for at least `additional` more events.
    pub fn reserve(&mut self, additional: usize) {
        self.events.reserve(additional);
    }

    /// Removes every event, keeping the allocation for the next series
    /// built in it.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// The events in start order.
    pub fn events(&self) -> &[Event<T>] {
        &self.events
    }

    /// Iterates over the events.
    pub fn iter(&self) -> std::slice::Iter<'_, Event<T>> {
        self.events.iter()
    }

    /// The series' reads, lent.
    pub fn view(&self) -> SeriesView<'_, T> {
        SeriesView {
            events: &self.events,
        }
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
        self.view().fmt(f)
    }
}

/// One event series, borrowed read-only: from an [`EventSeries`] being
/// built ([`EventSeries::view`]) or from a frozen [`SeriesArena`]
/// ([`SeriesArena::get`]). Every read of a series is here, once.
///
/// A view is a slice of events in start order; it is `Copy`, and what it
/// returns borrows the series, not the view.
pub struct SeriesView<'a, T> {
    events: &'a [Event<T>],
}

impl<T> Clone for SeriesView<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for SeriesView<'_, T> {}

/// The empty series.
impl<T> Default for SeriesView<'_, T> {
    fn default() -> Self {
        SeriesView { events: &[] }
    }
}

impl<'a, T> SeriesView<'a, T> {
    /// Number of events (not the covered duration; see [`size`]).
    ///
    /// [`size`]: SeriesView::size
    pub fn len(self) -> usize {
        self.events.len()
    }

    /// True if the series has no events.
    pub fn is_empty(self) -> bool {
        self.events.is_empty()
    }

    /// The events in start order.
    pub fn events(self) -> &'a [Event<T>] {
        self.events
    }

    /// Iterates over the events.
    pub fn iter(self) -> std::slice::Iter<'a, Event<T>> {
        self.events.iter()
    }

    /// Flattens the series into a normalized [`SpanSet`].
    pub fn to_span_set(self) -> SpanSet {
        let mut out = SpanSet::new();
        self.span_set_into(&mut out);
        out
    }

    /// Flattens the series into `out` (cleared first). Because events
    /// are kept sorted by start, this is a linear coalescing pass — no
    /// sort and no allocation beyond growing `out` once.
    pub fn span_set_into(self, out: &mut SpanSet) {
        out.clear();
        for event in self.events {
            out.push_sorted(event.span);
        }
    }

    /// Total covered duration (flattened; overlap counted once).
    /// Allocation-free: a linear pass over the sorted events.
    pub fn size(self) -> Micros {
        let mut total = Micros::ZERO;
        let mut covered_to = Micros::MIN;
        for event in self.events {
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
    pub fn ratio(self, window: Span) -> f64 {
        let denom = window.duration().as_micros();
        if denom <= 0 {
            return 0.0;
        }
        let mut covered = Micros::ZERO;
        let mut covered_to = Micros::MIN;
        for event in self.events {
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
    pub fn overlapping(self, span: Span) -> impl Iterator<Item = &'a Event<T>> {
        self.events.iter().filter(move |e| e.span.overlaps(span))
    }

    /// The durations of the individual events, in order. Useful for gap
    /// length distributions (Fig. 17 of the paper).
    pub fn durations(self) -> impl Iterator<Item = Micros> + 'a {
        self.events.iter().map(|e| e.span.duration())
    }
}

impl<T: PartialEq> PartialEq for SeriesView<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.events == other.events
    }
}

/// A view prints as the [`EventSeries`] it reads, so a series prints
/// alike built and frozen.
impl<T: fmt::Debug> fmt::Debug for SeriesView<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventSeries")
            .field("events", &self.events)
            .finish()
    }
}

impl<T: fmt::Display> fmt::Display for SeriesView<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} events, size {}", self.len(), self.size())?;
        for event in self.events {
            writeln!(f, "  {event}")?;
        }
        Ok(())
    }
}

/// `N` finished event series in one allocation: their events back to
/// back, series by series, in an exactly sized slice, and beside it the
/// end of each series in that slice. A set whose series are all empty
/// allocates nothing. It is frozen from the series as built
/// ([`freeze`](Self::freeze)) and read through the same [`SeriesView`]s
/// an [`EventSeries`] lends.
///
/// # Examples
///
/// ```
/// use tdat_timeset::{EventSeries, SeriesArena, Span};
///
/// let mut built: [EventSeries<u32>; 3] = Default::default();
/// built[0].push(Span::from_micros(0, 10), 7);
/// built[2].push(Span::from_micros(5, 20), 9);
/// built[2].push(Span::from_micros(1, 2), 8);
/// let frozen = SeriesArena::freeze(&built);
/// assert_eq!(frozen.events().len(), 3, "one slice of all the events");
/// assert!(frozen.get(1).is_empty());
/// assert_eq!(frozen.get(2), built[2].view(), "in start order, as built");
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SeriesArena<T, const N: usize> {
    /// Where each series ends in `events`; series `i` starts where
    /// series `i - 1` ends.
    ends: [u32; N],
    events: Box<[Event<T>]>,
}

impl<T: Clone, const N: usize> SeriesArena<T, N> {
    /// Copies `series` into one allocation of exactly their events.
    ///
    /// # Panics
    ///
    /// If the series hold more than `u32::MAX` events between them.
    pub fn freeze(series: &[EventSeries<T>; N]) -> SeriesArena<T, N> {
        let total = series.iter().map(EventSeries::len).sum();
        let mut events = Vec::with_capacity(total);
        let mut ends = [0u32; N];
        for (end, built) in ends.iter_mut().zip(series) {
            events.extend_from_slice(built.events());
            *end = u32::try_from(events.len()).expect("a series set holds at most u32::MAX events");
        }
        SeriesArena {
            ends,
            events: events.into_boxed_slice(),
        }
    }
}

impl<T, const N: usize> SeriesArena<T, N> {
    /// Series `i`, lent.
    ///
    /// # Panics
    ///
    /// If `i` is not below `N`.
    pub fn get(&self, i: usize) -> SeriesView<'_, T> {
        let start = match i {
            0 => 0,
            _ => self.ends[i - 1] as usize,
        };
        SeriesView {
            events: &self.events[start..self.ends[i] as usize],
        }
    }

    /// Every event of every series, series by series: the one
    /// allocation.
    pub fn events(&self) -> &[Event<T>] {
        &self.events
    }
}

impl<T, const N: usize> Default for SeriesArena<T, N> {
    fn default() -> SeriesArena<T, N> {
        SeriesArena {
            ends: [0; N],
            events: Box::default(),
        }
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for SeriesArena<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries((0..N).map(|i| self.get(i))).finish()
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
        assert_eq!(s.view().size(), Micros(150));
        assert_eq!(s.len(), 2);
        assert_eq!(s.view().ratio(Span::from_micros(0, 300)), 0.5);
    }

    #[test]
    fn overlapping_and_within_queries() {
        let mut s: EventSeries<u8> = EventSeries::new();
        s.push(Span::from_micros(0, 10), 1);
        s.push(Span::from_micros(20, 30), 2);
        s.push(Span::from_micros(40, 50), 3);
        let hits: Vec<u8> = s
            .view()
            .overlapping(Span::from_micros(5, 25))
            .map(|e| e.data)
            .collect();
        assert_eq!(hits, vec![1, 2]);
    }

    #[test]
    fn a_series_is_its_events_alone() {
        assert_eq!(std::mem::size_of::<EventSeries<u32>>(), 24);
        assert_eq!(std::mem::size_of::<SeriesView<'_, u32>>(), 16);
    }

    /// Frozen series read back as built, empty ones included, and the
    /// arena prints as the list of series it holds.
    #[test]
    fn an_arena_reads_back_each_series() {
        let mut built: [EventSeries<u8>; 4] = Default::default();
        built[1].push(Span::from_micros(10, 20), 1);
        built[1].push(Span::from_micros(0, 5), 2);
        built[3].push(Span::from_micros(7, 9), 3);
        let frozen = SeriesArena::freeze(&built);
        for (i, series) in built.iter().enumerate() {
            assert_eq!(frozen.get(i), series.view(), "series {i}");
        }
        assert_eq!(frozen.events().len(), 3);
        assert_eq!(format!("{frozen:?}"), format!("{:?}", built));
        assert_eq!(
            std::mem::size_of::<SeriesArena<u32, 17>>(),
            88,
            "17 ends and one slice"
        );
        assert!(SeriesArena::<u8, 4>::default().get(3).is_empty());
    }

    #[test]
    fn durations_in_order() {
        let mut s: EventSeries<()> = EventSeries::new();
        s.push(Span::from_micros(0, 200), ());
        s.push(Span::from_micros(500, 600), ());
        let d: Vec<i64> = s.view().durations().map(|m| m.0).collect();
        assert_eq!(d, vec![200, 100]);
    }

    #[test]
    fn extend_from_tuples() {
        let mut s: EventSeries<u8> = EventSeries::new();
        s.extend([(Span::from_micros(10, 20), 1), (Span::from_micros(0, 5), 2)]);
        assert_eq!(s.events()[0].data, 2);
    }
}
