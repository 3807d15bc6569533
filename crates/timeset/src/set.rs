//! Normalized sets of time spans with set algebra.
//!
//! A [`SpanSet`] is the paper's "ordered set of time durations" (§III-A):
//! a sorted sequence of pairwise-disjoint, non-touching half-open spans.
//! Measuring the delay a series contributes is computing the set's
//! [cardinality](SpanSet::size) — the sum of its span durations — and
//! combining behaviours across series is set
//! [union](SpanSet::union) / [intersection](SpanSet::intersection) /
//! [complement](SpanSet::complement) (§III-C *Rule 4*, §IV-B).

use std::fmt;

use crate::{EventSeries, Micros, Span};

/// A normalized, ordered set of disjoint time spans.
///
/// Invariants (maintained by every constructor and operation):
///
/// * spans are sorted by `start`;
/// * no span is empty;
/// * consecutive spans neither overlap nor touch (`prev.end < next.start`),
///   so the representation of a covered region is unique.
///
/// # Examples
///
/// ```
/// use tdat_timeset::{Micros, Span, SpanSet};
///
/// let mut loss = SpanSet::new();
/// loss.insert(Span::from_micros(0, 100));
/// loss.insert(Span::from_micros(80, 200));   // merged with the first
/// loss.insert(Span::from_micros(500, 600));
/// assert_eq!(loss.len(), 2);
/// assert_eq!(loss.size(), Micros(300));
///
/// let window = SpanSet::from_span(Span::from_micros(0, 1000));
/// let quiet = loss.complement(Span::from_micros(0, 1000));
/// assert_eq!(quiet.size(), Micros(700));
/// assert_eq!(loss.union(&quiet), window);
/// assert!(loss.intersection(&quiet).is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct SpanSet {
    spans: Vec<Span>,
}

impl SpanSet {
    /// Creates an empty set.
    pub const fn new() -> SpanSet {
        SpanSet { spans: Vec::new() }
    }

    /// Creates a set covering exactly one span (empty if the span is
    /// empty).
    pub fn from_span(span: Span) -> SpanSet {
        let mut set = SpanSet::new();
        set.insert(span);
        set
    }

    /// Creates a set from arbitrary spans, normalizing as needed.
    pub fn from_spans<I: IntoIterator<Item = Span>>(spans: I) -> SpanSet {
        let mut raw: Vec<Span> = spans.into_iter().filter(|s| !s.is_empty()).collect();
        raw.sort_unstable();
        let mut set = SpanSet::new();
        for span in raw {
            match set.spans.last_mut() {
                Some(last) if last.touches(span) => *last = last.hull(span),
                _ => set.spans.push(span),
            }
        }
        set
    }

    /// Number of disjoint spans in the set.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if the set covers no time.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The set cardinality: total covered duration. This is the paper's
    /// "series size" used as the numerator of every delay ratio (§III-D).
    pub fn size(&self) -> Micros {
        self.spans.iter().map(|s| s.duration()).sum()
    }

    /// The smallest span containing the whole set, or `None` if empty.
    pub fn hull(&self) -> Option<Span> {
        match (self.spans.first(), self.spans.last()) {
            (Some(first), Some(last)) => Some(Span::new(first.start, last.end)),
            _ => None,
        }
    }

    /// The spans, sorted and disjoint.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Iterates over the spans in order.
    pub fn iter(&self) -> std::slice::Iter<'_, Span> {
        self.spans.iter()
    }

    /// Inserts one span, merging with any spans it overlaps or touches.
    ///
    /// Empty spans are ignored. Runs in `O(log n + k)` where `k` is the
    /// number of merged spans.
    pub fn insert(&mut self, span: Span) {
        if span.is_empty() {
            return;
        }
        // Find the range of existing spans that touch `span`.
        let lo = self.spans.partition_point(|s| s.end < span.start);
        let hi = self.spans.partition_point(|s| s.start <= span.end);
        if lo == hi {
            self.spans.insert(lo, span);
        } else {
            let merged = Span::new(
                self.spans[lo].start.min(span.start),
                self.spans[hi - 1].end.max(span.end),
            );
            self.spans.drain(lo..hi);
            self.spans.insert(lo, merged);
        }
    }

    /// Removes a span's worth of time from the set, splitting spans that
    /// straddle its endpoints.
    pub fn remove(&mut self, span: Span) {
        if span.is_empty() || self.spans.is_empty() {
            return;
        }
        let lo = self.spans.partition_point(|s| s.end <= span.start);
        let hi = self.spans.partition_point(|s| s.start < span.end);
        if lo >= hi {
            return;
        }
        let mut keep: Vec<Span> = Vec::with_capacity(2);
        let first = self.spans[lo];
        let last = self.spans[hi - 1];
        if first.start < span.start {
            keep.push(Span::new(first.start, span.start));
        }
        if span.end < last.end {
            keep.push(Span::new(span.end, last.end));
        }
        self.spans.splice(lo..hi, keep);
    }

    /// True if instant `t` is covered.
    pub fn contains(&self, t: Micros) -> bool {
        self.covering(t).is_some()
    }

    /// The span covering instant `t`, if any. `O(log n)`.
    pub fn covering(&self, t: Micros) -> Option<Span> {
        let idx = self.spans.partition_point(|s| s.end <= t);
        self.spans.get(idx).filter(|s| s.contains(t)).copied()
    }

    /// True if the whole of `span` is covered by a single span of the
    /// set (empty spans are trivially covered).
    pub fn covers(&self, span: Span) -> bool {
        if span.is_empty() {
            return true;
        }
        self.covering(span.start)
            .is_some_and(|s| s.contains_span(span))
    }

    /// Empties the set, keeping its allocation for reuse.
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// Appends a span with a start no earlier than any span already
    /// present, skipping empty spans. Used to flatten an already-sorted
    /// event series without the sort in [`from_spans`](SpanSet::from_spans).
    pub(crate) fn push_sorted(&mut self, span: Span) {
        if span.is_empty() {
            return;
        }
        self.push_coalesced(span);
    }

    /// Appends a span known to start at or after every span already in
    /// the buffer, coalescing with the last span when they touch.
    fn push_coalesced(&mut self, span: Span) {
        debug_assert!(self
            .spans
            .last()
            .is_none_or(|last| last.start <= span.start));
        match self.spans.last_mut() {
            Some(last) if last.touches(span) => *last = last.hull(span),
            _ => self.spans.push(span),
        }
    }

    /// Set union.
    pub fn union(&self, other: &SpanSet) -> SpanSet {
        let mut out = SpanSet::new();
        self.union_into(other, &mut out);
        out
    }

    /// Set union written into `out` (cleared first). A linear merge of
    /// the two sorted span lists: no sort, and no allocation once `out`
    /// has grown to the working-set size.
    pub fn union_into(&self, other: &SpanSet, out: &mut SpanSet) {
        out.clear();
        let (mut i, mut j) = (0, 0);
        while i < self.spans.len() && j < other.spans.len() {
            let (a, b) = (self.spans[i], other.spans[j]);
            if a.start <= b.start {
                out.push_coalesced(a);
                i += 1;
            } else {
                out.push_coalesced(b);
                j += 1;
            }
        }
        for &a in &self.spans[i..] {
            out.push_coalesced(a);
        }
        for &b in &other.spans[j..] {
            out.push_coalesced(b);
        }
    }

    /// Set intersection via a linear merge of the two sorted span lists.
    pub fn intersection(&self, other: &SpanSet) -> SpanSet {
        let mut out = SpanSet::new();
        self.intersect_into(other, &mut out);
        out
    }

    /// Set intersection written into `out` (cleared first).
    pub fn intersect_into(&self, other: &SpanSet, out: &mut SpanSet) {
        out.clear();
        let (mut i, mut j) = (0, 0);
        while i < self.spans.len() && j < other.spans.len() {
            let (a, b) = (self.spans[i], other.spans[j]);
            if let Some(common) = a.intersect(b) {
                // Disjointness of inputs guarantees outputs are emitted
                // in order and disjoint; push directly.
                out.spans.push(common);
            }
            if a.end <= b.end {
                i += 1;
            } else {
                j += 1;
            }
        }
    }

    /// Set difference: time covered by `self` but not by `other`.
    pub fn difference(&self, other: &SpanSet) -> SpanSet {
        let mut out = SpanSet::new();
        self.difference_into(other, &mut out);
        out
    }

    /// Set difference written into `out` (cleared first). Linear in the
    /// two span counts — unlike repeated [`remove`](SpanSet::remove),
    /// which splices the backing vector per removed span.
    pub fn difference_into(&self, other: &SpanSet, out: &mut SpanSet) {
        out.clear();
        let mut j = 0;
        for &a in &self.spans {
            // Skip subtrahend spans entirely before `a`; they cannot
            // overlap later spans of `self` either (both lists sorted).
            while j < other.spans.len() && other.spans[j].end <= a.start {
                j += 1;
            }
            let mut cursor = a.start;
            let mut k = j;
            while k < other.spans.len() && other.spans[k].start < a.end {
                let b = other.spans[k];
                if b.start > cursor {
                    out.spans.push(Span::new(cursor, b.start));
                }
                cursor = cursor.max(b.end);
                if b.end >= a.end {
                    break;
                }
                k += 1;
            }
            if cursor < a.end {
                out.spans.push(Span::new(cursor, a.end));
            }
        }
    }

    /// Complement within `window`: time in `window` not covered by the
    /// set. This yields the *gaps* of a series (used to find sender idle
    /// periods and timer gaps, §IV-B).
    pub fn complement(&self, window: Span) -> SpanSet {
        let mut out = SpanSet::new();
        self.complement_into(window, &mut out);
        out
    }

    /// Complement within `window`, written into `out` (cleared first).
    pub fn complement_into(&self, window: Span, out: &mut SpanSet) {
        out.clear();
        if window.is_empty() {
            return;
        }
        let mut cursor = window.start;
        for &s in self.overlapping(window) {
            if s.start > cursor {
                out.spans.push(Span::new(cursor, s.start));
            }
            cursor = cursor.max(s.end);
            if cursor >= window.end {
                break;
            }
        }
        if cursor < window.end {
            out.spans.push(Span::new(cursor, window.end));
        }
    }

    /// The contiguous run of spans overlapping `span`, located by
    /// binary search (`O(log n)` plus the overlap length).
    pub fn overlapping(&self, span: Span) -> &[Span] {
        if span.is_empty() {
            return &[];
        }
        let lo = self.spans.partition_point(|s| s.end <= span.start);
        let hi = self.spans.partition_point(|s| s.start < span.end);
        &self.spans[lo..hi]
    }

    /// Iterates over the gaps strictly *between* consecutive spans (not
    /// including time before the first or after the last span).
    pub fn gaps(&self) -> Gaps<'_> {
        Gaps {
            spans: &self.spans,
            idx: 1,
        }
    }

    /// Clips the set to `window`.
    pub fn clipped(&self, window: Span) -> SpanSet {
        let mut out = SpanSet::new();
        self.clipped_into(window, &mut out);
        out
    }

    /// Clips the set to `window`, written into `out` (cleared first).
    pub fn clipped_into(&self, window: Span, out: &mut SpanSet) {
        out.clear();
        for &s in self.overlapping(window) {
            if let Some(common) = s.intersect(window) {
                out.spans.push(common);
            }
        }
    }

    /// Expands every span by `margin` on both sides (merging spans that
    /// come to touch). Useful for episode-granularity intersections
    /// where adjacent behaviours should count as concurrent.
    pub fn dilated(&self, margin: Micros) -> SpanSet {
        SpanSet::from_spans(
            self.spans
                .iter()
                .map(|s| Span::new(s.start - margin, s.end + margin)),
        )
    }

    /// Shifts every span by `offset`.
    pub fn shifted(&self, offset: Micros) -> SpanSet {
        SpanSet {
            spans: self.spans.iter().map(|s| s.shifted(offset)).collect(),
        }
    }

    /// The fraction of `window` covered by this set, in `[0, 1]`.
    /// Returns 0 for an empty window. This is the paper's *delay ratio*
    /// (§III-D) when `window` is the analysis period. Allocation-free:
    /// sums clipped durations directly off the overlapping spans.
    pub fn ratio(&self, window: Span) -> f64 {
        let denom = window.duration().as_micros();
        if denom <= 0 {
            return 0.0;
        }
        let covered: i64 = self
            .overlapping(window)
            .iter()
            .filter_map(|s| s.intersect(window))
            .map(|s| s.duration().as_micros())
            .sum();
        covered as f64 / denom as f64
    }
}

/// A pool of reusable [`SpanSet`] buffers for allocation-free set
/// algebra on a hot path, and of the [`EventSeries`] buffers series are
/// built in.
///
/// The analyzer performs hundreds of unions/intersections/differences
/// per connection; with a scratch pool the intermediate sets are taken
/// from and returned to the pool, so steady-state analysis performs
/// O(1) allocations instead of one per set operation. The series it
/// builds (`u32` payloads, the byte counts every T-DAT series carries)
/// come from the pool too and go back to it once they are frozen, so a
/// pool kept across connections builds each connection's series in
/// the buffers of the last.
///
/// # Examples
///
/// ```
/// use tdat_timeset::{Span, SpanScratch, SpanSet};
///
/// let a = SpanSet::from_span(Span::from_micros(0, 10));
/// let b = SpanSet::from_span(Span::from_micros(5, 20));
/// let mut scratch = SpanScratch::new();
/// let mut out = scratch.take();
/// a.union_into(&b, &mut out);
/// assert_eq!(out, a.union(&b));
/// scratch.put(out); // buffer returns to the pool for the next op
/// ```
#[derive(Debug, Default)]
pub struct SpanScratch {
    pool: Vec<SpanSet>,
    series: Vec<EventSeries<u32>>,
}

impl SpanScratch {
    /// Creates an empty pool.
    pub fn new() -> SpanScratch {
        SpanScratch::default()
    }

    /// Takes an empty set from the pool (allocating only if the pool is
    /// dry).
    pub fn take(&mut self) -> SpanSet {
        let mut set = self.pool.pop().unwrap_or_default();
        set.clear();
        set
    }

    /// Returns a set to the pool, keeping its allocation for reuse.
    pub fn put(&mut self, set: SpanSet) {
        self.pool.push(set);
    }

    /// Number of pooled span-set buffers (for tests).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Takes an empty series from the pool (allocating nothing: a dry
    /// pool hands out a series that allocates at its first event).
    pub fn take_series(&mut self) -> EventSeries<u32> {
        self.series.pop().unwrap_or_default()
    }

    /// Returns series to the pool, emptied, each keeping its allocation
    /// for the next series built in it; the pool grows once for all of
    /// them.
    pub fn put_series(&mut self, series: impl IntoIterator<Item = EventSeries<u32>>) {
        self.series.extend(series.into_iter().map(|mut series| {
            series.clear();
            series
        }));
    }
}

impl fmt::Display for SpanSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Span> for SpanSet {
    fn from_iter<I: IntoIterator<Item = Span>>(iter: I) -> SpanSet {
        SpanSet::from_spans(iter)
    }
}

impl Extend<Span> for SpanSet {
    fn extend<I: IntoIterator<Item = Span>>(&mut self, iter: I) {
        for span in iter {
            self.insert(span);
        }
    }
}

impl<'a> IntoIterator for &'a SpanSet {
    type Item = &'a Span;
    type IntoIter = std::slice::Iter<'a, Span>;
    fn into_iter(self) -> Self::IntoIter {
        self.spans.iter()
    }
}

impl IntoIterator for SpanSet {
    type Item = Span;
    type IntoIter = std::vec::IntoIter<Span>;
    fn into_iter(self) -> Self::IntoIter {
        self.spans.into_iter()
    }
}

/// Iterator over the gaps between consecutive spans of a [`SpanSet`],
/// created by [`SpanSet::gaps`].
#[derive(Debug, Clone)]
pub struct Gaps<'a> {
    spans: &'a [Span],
    idx: usize,
}

impl Iterator for Gaps<'_> {
    type Item = Span;

    fn next(&mut self) -> Option<Span> {
        if self.idx >= self.spans.len() {
            return None;
        }
        let gap = Span::new(self.spans[self.idx - 1].end, self.spans[self.idx].start);
        self.idx += 1;
        Some(gap)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.spans.len().saturating_sub(self.idx);
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Gaps<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(spans: &[(i64, i64)]) -> SpanSet {
        SpanSet::from_spans(spans.iter().map(|&(s, e)| Span::from_micros(s, e)))
    }

    #[test]
    fn from_spans_normalizes() {
        let s = set(&[(10, 20), (0, 5), (19, 30), (5, 7), (40, 40)]);
        assert_eq!(
            s.spans(),
            &[Span::from_micros(0, 7), Span::from_micros(10, 30)]
        );
        assert_eq!(s.size(), Micros(27));
    }

    #[test]
    fn insert_merges_touching_and_overlapping() {
        let mut s = SpanSet::new();
        s.insert(Span::from_micros(10, 20));
        s.insert(Span::from_micros(30, 40));
        s.insert(Span::from_micros(20, 30)); // bridges both
        assert_eq!(s.spans(), &[Span::from_micros(10, 40)]);
        s.insert(Span::from_micros(0, 5));
        assert_eq!(s.len(), 2);
        s.insert(Span::from_micros(100, 90)); // empty, ignored
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn insert_in_middle_keeps_order() {
        let mut s = set(&[(0, 10), (100, 110)]);
        s.insert(Span::from_micros(50, 60));
        assert_eq!(
            s.spans(),
            &[
                Span::from_micros(0, 10),
                Span::from_micros(50, 60),
                Span::from_micros(100, 110)
            ]
        );
    }

    #[test]
    fn remove_splits_and_trims() {
        let mut s = set(&[(0, 100)]);
        s.remove(Span::from_micros(40, 60));
        assert_eq!(
            s.spans(),
            &[Span::from_micros(0, 40), Span::from_micros(60, 100)]
        );
        s.remove(Span::from_micros(0, 10));
        assert_eq!(
            s.spans(),
            &[Span::from_micros(10, 40), Span::from_micros(60, 100)]
        );
        s.remove(Span::from_micros(30, 70));
        assert_eq!(
            s.spans(),
            &[Span::from_micros(10, 30), Span::from_micros(70, 100)]
        );
        s.remove(Span::from_micros(-10, 1000));
        assert!(s.is_empty());
    }

    #[test]
    fn remove_spanning_multiple() {
        let mut s = set(&[(0, 10), (20, 30), (40, 50)]);
        s.remove(Span::from_micros(5, 45));
        assert_eq!(
            s.spans(),
            &[Span::from_micros(0, 5), Span::from_micros(45, 50)]
        );
    }

    #[test]
    fn covering_and_contains() {
        let s = set(&[(0, 10), (20, 30)]);
        assert_eq!(s.covering(Micros(5)), Some(Span::from_micros(0, 10)));
        assert_eq!(s.covering(Micros(10)), None); // half-open
        assert_eq!(s.covering(Micros(25)), Some(Span::from_micros(20, 30)));
        assert!(!s.contains(Micros(15)));
        assert!(s.covers(Span::from_micros(22, 28)));
        assert!(!s.covers(Span::from_micros(5, 25)));
        assert!(s.covers(Span::from_micros(15, 15))); // empty always covered
    }

    #[test]
    fn union_intersection_difference_complement() {
        let a = set(&[(0, 10), (20, 30)]);
        let b = set(&[(5, 25)]);
        assert_eq!(a.union(&b), set(&[(0, 30)]));
        assert_eq!(a.intersection(&b), set(&[(5, 10), (20, 25)]));
        assert_eq!(a.difference(&b), set(&[(0, 5), (25, 30)]));
        assert_eq!(b.difference(&a), set(&[(10, 20)]));
        assert_eq!(
            a.complement(Span::from_micros(0, 40)),
            set(&[(10, 20), (30, 40)])
        );
        assert_eq!(a.complement(Span::from_micros(-10, 5)), set(&[(-10, 0)]));
    }

    #[test]
    fn intersection_with_empty_is_empty() {
        let a = set(&[(0, 10)]);
        assert!(a.intersection(&SpanSet::new()).is_empty());
        assert_eq!(a.union(&SpanSet::new()), a);
    }

    #[test]
    fn gaps_iterates_between_spans() {
        let s = set(&[(0, 10), (20, 30), (50, 60)]);
        let gaps: Vec<Span> = s.gaps().collect();
        assert_eq!(
            gaps,
            vec![Span::from_micros(10, 20), Span::from_micros(30, 50)]
        );
        assert_eq!(set(&[(0, 10)]).gaps().count(), 0);
        assert_eq!(SpanSet::new().gaps().count(), 0);
    }

    #[test]
    fn overlapping_query_is_exact() {
        let s = set(&[(0, 10), (20, 30), (40, 50), (60, 70)]);
        assert_eq!(s.overlapping(Span::from_micros(25, 45)), &s.spans()[1..3]);
        assert_eq!(s.overlapping(Span::from_micros(10, 20)), &[] as &[Span]);
        assert_eq!(s.overlapping(Span::from_micros(-5, 100)), s.spans());
        assert_eq!(s.overlapping(Span::from_micros(5, 5)), &[] as &[Span]);
        assert_eq!(s.overlapping(Span::from_micros(9, 10)).len(), 1);
    }

    #[test]
    fn ratio_of_window() {
        let s = set(&[(0, 25), (50, 75)]);
        assert_eq!(s.ratio(Span::from_micros(0, 100)), 0.5);
        assert_eq!(s.ratio(Span::from_micros(0, 50)), 0.5);
        assert_eq!(s.ratio(Span::from_micros(200, 300)), 0.0);
        assert_eq!(s.ratio(Span::from_micros(10, 10)), 0.0); // empty window
    }

    #[test]
    fn hull_and_shift() {
        let s = set(&[(10, 20), (40, 50)]);
        assert_eq!(s.hull(), Some(Span::from_micros(10, 50)));
        assert_eq!(s.shifted(Micros(-10)), set(&[(0, 10), (30, 40)]));
        assert_eq!(SpanSet::new().hull(), None);
    }

    #[test]
    fn collect_and_extend() {
        let s: SpanSet = [Span::from_micros(0, 10), Span::from_micros(5, 20)]
            .into_iter()
            .collect();
        assert_eq!(s, set(&[(0, 20)]));
        let mut t = SpanSet::new();
        t.extend([Span::from_micros(1, 2), Span::from_micros(2, 3)]);
        assert_eq!(t, set(&[(1, 3)]));
    }
}
