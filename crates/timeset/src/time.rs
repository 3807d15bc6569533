//! Microsecond timestamps and half-open time spans.
//!
//! T-DAT converts all trace timestamps to integer microseconds (the paper,
//! §V-C, stores "big integers" of microseconds). [`Micros`] is a newtype
//! over `i64` so that timestamps cannot be confused with packet counts or
//! byte counts, and [`Span`] is a half-open interval `[start, end)` of
//! microseconds — the building block of every event series.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A point in time (or a duration), in integer microseconds.
///
/// `Micros` is used both as an absolute timestamp relative to the trace
/// epoch and as a duration; the arithmetic impls make the distinction a
/// matter of convention, which matches how tcpdump timestamps are handled
/// in practice.
///
/// # Examples
///
/// ```
/// use tdat_timeset::Micros;
///
/// let t = Micros::from_secs_f64(1.5);
/// assert_eq!(t, Micros(1_500_000));
/// assert_eq!(t + Micros::from_millis(500), Micros::from_secs(2));
/// assert_eq!(t.as_secs_f64(), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Micros(pub i64);

impl Micros {
    /// Zero microseconds — the trace epoch.
    pub const ZERO: Micros = Micros(0);
    /// The largest representable instant.
    pub const MAX: Micros = Micros(i64::MAX);
    /// The smallest representable instant.
    pub const MIN: Micros = Micros(i64::MIN);

    /// Creates a timestamp from whole seconds.
    ///
    /// ```
    /// # use tdat_timeset::Micros;
    /// assert_eq!(Micros::from_secs(2).0, 2_000_000);
    /// ```
    pub const fn from_secs(secs: i64) -> Micros {
        Micros(secs * 1_000_000)
    }

    /// Creates a timestamp from whole milliseconds.
    pub const fn from_millis(millis: i64) -> Micros {
        Micros(millis * 1_000)
    }

    /// Creates a timestamp from fractional seconds, rounding to the
    /// nearest microsecond. This is the conversion applied to pcap
    /// `(sec, usec)` pairs and to floating-point RTT estimates.
    pub fn from_secs_f64(secs: f64) -> Micros {
        Micros((secs * 1e6).round() as i64)
    }

    /// This timestamp as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This timestamp as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Raw microsecond count.
    pub const fn as_micros(self) -> i64 {
        self.0
    }

    /// Absolute value, for treating a signed difference as a duration.
    pub const fn abs(self) -> Micros {
        Micros(self.0.abs())
    }

    /// Saturating subtraction clamped at zero; useful for durations.
    pub fn saturating_sub(self, rhs: Micros) -> Micros {
        Micros(self.0.saturating_sub(rhs.0).max(0))
    }

    /// The larger of two instants.
    pub fn max(self, other: Micros) -> Micros {
        Micros(self.0.max(other.0))
    }

    /// The smaller of two instants.
    pub fn min(self, other: Micros) -> Micros {
        Micros(self.0.min(other.0))
    }

    /// True if this value is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Print as seconds with microsecond precision: `12.345678s`.
        let sign = if self.0 < 0 { "-" } else { "" };
        let abs = self.0.unsigned_abs();
        write!(f, "{sign}{}.{:06}s", abs / 1_000_000, abs % 1_000_000)
    }
}

impl From<i64> for Micros {
    fn from(value: i64) -> Self {
        Micros(value)
    }
}

impl From<Micros> for i64 {
    fn from(value: Micros) -> Self {
        value.0
    }
}

impl Add for Micros {
    type Output = Micros;
    fn add(self, rhs: Micros) -> Micros {
        Micros(self.0 + rhs.0)
    }
}

impl AddAssign for Micros {
    fn add_assign(&mut self, rhs: Micros) {
        self.0 += rhs.0;
    }
}

impl Sub for Micros {
    type Output = Micros;
    fn sub(self, rhs: Micros) -> Micros {
        Micros(self.0 - rhs.0)
    }
}

impl SubAssign for Micros {
    fn sub_assign(&mut self, rhs: Micros) {
        self.0 -= rhs.0;
    }
}

impl Neg for Micros {
    type Output = Micros;
    fn neg(self) -> Micros {
        Micros(-self.0)
    }
}

impl Mul<i64> for Micros {
    type Output = Micros;
    fn mul(self, rhs: i64) -> Micros {
        Micros(self.0 * rhs)
    }
}

impl Div<i64> for Micros {
    type Output = Micros;
    fn div(self, rhs: i64) -> Micros {
        Micros(self.0 / rhs)
    }
}

impl std::iter::Sum for Micros {
    fn sum<I: Iterator<Item = Micros>>(iter: I) -> Micros {
        Micros(iter.map(|m| m.0).sum())
    }
}

/// A half-open time interval `[start, end)` in microseconds.
///
/// Spans are the elements of [`SpanSet`](crate::SpanSet) and the
/// `event_duration` part of the paper's `(event_duration, event_data)`
/// 2-tuple (§III-A). An empty span (`start >= end`) carries no time.
///
/// # Examples
///
/// ```
/// use tdat_timeset::{Micros, Span};
///
/// let a = Span::new(Micros(0), Micros(100));
/// let b = Span::new(Micros(50), Micros(150));
/// assert_eq!(a.intersect(b), Some(Span::new(Micros(50), Micros(100))));
/// assert_eq!(a.duration(), Micros(100));
/// assert!(a.contains(Micros(99)));
/// assert!(!a.contains(Micros(100)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Span {
    /// Inclusive start instant.
    pub start: Micros,
    /// Exclusive end instant.
    pub end: Micros,
}

impl Span {
    /// Creates a span covering `[start, end)`.
    ///
    /// A span with `start >= end` is permitted and treated as empty.
    pub const fn new(start: Micros, end: Micros) -> Span {
        Span { start, end }
    }

    /// Creates a span from raw microsecond bounds.
    pub const fn from_micros(start: i64, end: i64) -> Span {
        Span::new(Micros(start), Micros(end))
    }

    /// Creates a span of length `duration` starting at `start`.
    pub fn with_duration(start: Micros, duration: Micros) -> Span {
        Span::new(start, start + duration)
    }

    /// The length of the span, zero if empty.
    pub fn duration(self) -> Micros {
        self.end.saturating_sub(self.start)
    }

    /// True if the span covers no time.
    pub fn is_empty(self) -> bool {
        self.start >= self.end
    }

    /// True if instant `t` lies inside `[start, end)`.
    pub fn contains(self, t: Micros) -> bool {
        self.start <= t && t < self.end
    }

    /// True if `other` is fully inside this span.
    pub fn contains_span(self, other: Span) -> bool {
        other.is_empty() || (self.start <= other.start && other.end <= self.end)
    }

    /// True if the two spans share at least one instant. Empty spans
    /// share no instants with anything.
    pub fn overlaps(self, other: Span) -> bool {
        !self.is_empty() && !other.is_empty() && self.start < other.end && other.start < self.end
    }

    /// True if the spans overlap **or** touch end-to-start, i.e. their
    /// union is a single span.
    pub fn touches(self, other: Span) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// The overlapping part of two spans, or `None` if disjoint/empty.
    pub fn intersect(self, other: Span) -> Option<Span> {
        let s = self.start.max(other.start);
        let e = self.end.min(other.end);
        (s < e).then_some(Span::new(s, e))
    }

    /// The smallest span containing both spans (including any gap
    /// between them).
    pub fn hull(self, other: Span) -> Span {
        if self.is_empty() {
            return other;
        }
        if other.is_empty() {
            return self;
        }
        Span::new(self.start.min(other.start), self.end.max(other.end))
    }

    /// Shifts both endpoints by `offset` (negative shifts backwards).
    pub fn shifted(self, offset: Micros) -> Span {
        Span::new(self.start + offset, self.end + offset)
    }

    /// Clips the span to `window`, returning `None` if nothing remains.
    pub fn clipped(self, window: Span) -> Option<Span> {
        self.intersect(window)
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

impl From<(i64, i64)> for Span {
    fn from((start, end): (i64, i64)) -> Self {
        Span::from_micros(start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micros_conversions_round_trip() {
        assert_eq!(Micros::from_secs(3).as_secs_f64(), 3.0);
        assert_eq!(Micros::from_millis(250).0, 250_000);
        assert_eq!(Micros::from_secs_f64(0.000001).0, 1);
        assert_eq!(Micros::from_secs_f64(-1.5).0, -1_500_000);
    }

    #[test]
    fn micros_display_formats_seconds() {
        assert_eq!(Micros(1_500_000).to_string(), "1.500000s");
        assert_eq!(Micros(-42).to_string(), "-0.000042s");
        assert_eq!(Micros::ZERO.to_string(), "0.000000s");
    }

    #[test]
    fn micros_arithmetic() {
        let a = Micros(10);
        let b = Micros(4);
        assert_eq!(a + b, Micros(14));
        assert_eq!(a - b, Micros(6));
        assert_eq!(b - a, Micros(-6));
        assert_eq!((b - a).abs(), Micros(6));
        assert_eq!(b.saturating_sub(a), Micros::ZERO);
        assert_eq!(a * 3, Micros(30));
        assert_eq!(a / 2, Micros(5));
        assert_eq!(-a, Micros(-10));
        let total: Micros = [a, b, Micros(1)].into_iter().sum();
        assert_eq!(total, Micros(15));
    }

    #[test]
    fn span_basic_predicates() {
        let s = Span::from_micros(10, 20);
        assert_eq!(s.duration(), Micros(10));
        assert!(!s.is_empty());
        assert!(s.contains(Micros(10)));
        assert!(s.contains(Micros(19)));
        assert!(!s.contains(Micros(20)));
        assert!(!s.contains(Micros(9)));
        assert!(Span::from_micros(5, 5).is_empty());
        assert!(Span::from_micros(7, 3).is_empty());
        assert_eq!(Span::from_micros(7, 3).duration(), Micros::ZERO);
    }

    #[test]
    fn span_overlap_touch_intersect() {
        let a = Span::from_micros(0, 10);
        let b = Span::from_micros(10, 20);
        let c = Span::from_micros(5, 15);
        assert!(!a.overlaps(b));
        assert!(a.touches(b));
        assert!(a.overlaps(c));
        assert_eq!(a.intersect(b), None);
        assert_eq!(a.intersect(c), Some(Span::from_micros(5, 10)));
        assert_eq!(a.hull(b), Span::from_micros(0, 20));
        assert_eq!(
            Span::from_micros(0, 5).hull(Span::from_micros(20, 30)),
            Span::from_micros(0, 30)
        );
    }

    #[test]
    fn span_hull_with_empty_side_keeps_other() {
        let a = Span::from_micros(3, 9);
        let empty = Span::from_micros(100, 100);
        assert_eq!(a.hull(empty), a);
        assert_eq!(empty.hull(a), a);
    }

    #[test]
    fn span_contains_span_and_clip() {
        let outer = Span::from_micros(0, 100);
        assert!(outer.contains_span(Span::from_micros(0, 100)));
        assert!(outer.contains_span(Span::from_micros(10, 20)));
        assert!(outer.contains_span(Span::from_micros(50, 50))); // empty
        assert!(!outer.contains_span(Span::from_micros(90, 101)));
        assert_eq!(
            Span::from_micros(-5, 50).clipped(outer),
            Some(Span::from_micros(0, 50))
        );
        assert_eq!(Span::from_micros(-5, -1).clipped(outer), None);
    }

    #[test]
    fn span_shift() {
        let s = Span::from_micros(10, 20).shifted(Micros(-10));
        assert_eq!(s, Span::from_micros(0, 10));
    }
}
