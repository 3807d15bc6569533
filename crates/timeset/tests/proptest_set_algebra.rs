//! Property-based tests for the `SpanSet` algebra.
//!
//! These check the algebraic laws that the T-DAT series operations rely
//! on (commutativity, associativity, De Morgan within a window, size
//! additivity) against randomly generated span sets, plus a reference
//! implementation based on per-microsecond membership.

use proptest::prelude::*;
use std::collections::BTreeSet;
use tdat_timeset::{EventSeries, Micros, Span, SpanScratch, SpanSet};

/// Universe window used for complements in these tests.
const WINDOW: Span = Span::from_micros(0, 200);

fn arb_span() -> impl Strategy<Value = Span> {
    (0i64..200, 0i64..60).prop_map(|(start, len)| Span::from_micros(start, start + len))
}

fn arb_set() -> impl Strategy<Value = SpanSet> {
    prop::collection::vec(arb_span(), 0..12).prop_map(SpanSet::from_spans)
}

/// Reference model: the set of covered integer microseconds.
fn model(set: &SpanSet) -> BTreeSet<i64> {
    let mut out = BTreeSet::new();
    for span in set.iter() {
        out.extend(span.start.0..span.end.0);
    }
    out
}

fn from_model(points: &BTreeSet<i64>) -> SpanSet {
    SpanSet::from_spans(points.iter().map(|&p| Span::from_micros(p, p + 1)))
}

proptest! {
    #[test]
    fn normalization_invariants(set in arb_set()) {
        let spans = set.spans();
        for s in spans {
            prop_assert!(!s.is_empty());
        }
        for pair in spans.windows(2) {
            prop_assert!(pair[0].end < pair[1].start, "spans must not touch: {} {}", pair[0], pair[1]);
        }
    }

    #[test]
    fn union_matches_model(a in arb_set(), b in arb_set()) {
        let expect: BTreeSet<i64> = model(&a).union(&model(&b)).copied().collect();
        prop_assert_eq!(a.union(&b), from_model(&expect));
    }

    #[test]
    fn intersection_matches_model(a in arb_set(), b in arb_set()) {
        let expect: BTreeSet<i64> = model(&a).intersection(&model(&b)).copied().collect();
        prop_assert_eq!(a.intersection(&b), from_model(&expect));
    }

    #[test]
    fn difference_matches_model(a in arb_set(), b in arb_set()) {
        let expect: BTreeSet<i64> = model(&a).difference(&model(&b)).copied().collect();
        prop_assert_eq!(a.difference(&b), from_model(&expect));
    }

    #[test]
    fn union_commutative_associative(a in arb_set(), b in arb_set(), c in arb_set()) {
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        prop_assert_eq!(a.union(&a), a.clone());
    }

    #[test]
    fn intersection_commutative_associative(a in arb_set(), b in arb_set(), c in arb_set()) {
        prop_assert_eq!(a.intersection(&b), b.intersection(&a));
        prop_assert_eq!(
            a.intersection(&b).intersection(&c),
            a.intersection(&b.intersection(&c))
        );
        prop_assert_eq!(a.intersection(&a), a.clone());
    }

    #[test]
    fn distributivity(a in arb_set(), b in arb_set(), c in arb_set()) {
        prop_assert_eq!(
            a.intersection(&b.union(&c)),
            a.intersection(&b).union(&a.intersection(&c))
        );
    }

    #[test]
    fn de_morgan_within_window(a in arb_set(), b in arb_set()) {
        let a = a.clipped(WINDOW);
        let b = b.clipped(WINDOW);
        prop_assert_eq!(
            a.union(&b).complement(WINDOW),
            a.complement(WINDOW).intersection(&b.complement(WINDOW))
        );
        prop_assert_eq!(
            a.intersection(&b).complement(WINDOW),
            a.complement(WINDOW).union(&b.complement(WINDOW))
        );
    }

    #[test]
    fn complement_involution(a in arb_set()) {
        let a = a.clipped(WINDOW);
        prop_assert_eq!(a.complement(WINDOW).complement(WINDOW), a);
    }

    #[test]
    fn size_inclusion_exclusion(a in arb_set(), b in arb_set()) {
        let lhs = a.union(&b).size() + a.intersection(&b).size();
        prop_assert_eq!(lhs, a.size() + b.size());
    }

    #[test]
    fn size_matches_model(a in arb_set()) {
        prop_assert_eq!(a.size(), Micros(model(&a).len() as i64));
    }

    #[test]
    fn insert_remove_round_trip(a in arb_set(), s in arb_span()) {
        let mut with = a.clone();
        with.insert(s);
        let mut without = with.clone();
        without.remove(s);
        // Removing what we inserted leaves exactly a \ s.
        prop_assert_eq!(without, a.difference(&SpanSet::from_span(s)));
        // Membership after insert.
        if !s.is_empty() {
            prop_assert!(with.covers(s));
        }
    }

    #[test]
    fn covering_agrees_with_model(a in arb_set(), t in 0i64..200) {
        let covered = model(&a).contains(&t);
        prop_assert_eq!(a.contains(Micros(t)), covered);
        if let Some(span) = a.covering(Micros(t)) {
            prop_assert!(span.contains(Micros(t)));
        }
    }

    #[test]
    fn gaps_partition_hull(a in arb_set()) {
        if let Some(hull) = a.hull() {
            let gap_set = SpanSet::from_spans(a.gaps());
            prop_assert_eq!(a.complement(hull), gap_set);
            prop_assert_eq!(a.size() + a.gaps().map(|g| g.duration()).sum::<Micros>(), hull.duration());
        }
    }

    #[test]
    fn ratio_bounded(a in arb_set()) {
        let r = a.ratio(WINDOW);
        prop_assert!((0.0..=1.0).contains(&r));
    }

    #[test]
    fn dilated_is_superset_and_monotone(a in arb_set(), m in 0i64..50) {
        let d = a.dilated(Micros(m));
        // Superset: everything covered stays covered.
        prop_assert_eq!(a.intersection(&d), a.clone());
        // Every original instant's m-neighborhood is covered.
        for span in a.iter() {
            prop_assert!(d.covers(Span::new(span.start - Micros(m), span.end + Micros(m))));
        }
        // Monotone in the margin.
        let d2 = a.dilated(Micros(m + 10));
        prop_assert_eq!(d.intersection(&d2), d.clone());
        // Size grows by at most 2m per original span.
        prop_assert!(d.size() <= a.size() + Micros(2 * m) * a.len() as i64);
    }

    #[test]
    fn overlapping_matches_filter(a in arb_set(), s in arb_span()) {
        let via_query: Vec<Span> = a.overlapping(s).to_vec();
        let via_filter: Vec<Span> = a.iter().copied().filter(|sp| sp.overlaps(s)).collect();
        prop_assert_eq!(via_query, via_filter);
    }

    /// The into-buffer variants must clear whatever the reused buffer
    /// held and produce results identical to the allocating algebra,
    /// regardless of the buffer's prior contents.
    #[test]
    fn into_ops_ignore_dirty_buffers(a in arb_set(), b in arb_set(), junk in arb_set(), s in arb_span()) {
        let mut out = junk;
        a.union_into(&b, &mut out);
        prop_assert_eq!(&out, &a.union(&b));
        a.intersect_into(&b, &mut out);
        prop_assert_eq!(&out, &a.intersection(&b));
        a.difference_into(&b, &mut out);
        prop_assert_eq!(&out, &a.difference(&b));
        a.complement_into(s, &mut out);
        prop_assert_eq!(&out, &a.complement(s));
        a.clipped_into(s, &mut out);
        prop_assert_eq!(&out, &a.clipped(s));
    }

    /// A scratch pool hands out buffers that behave like fresh sets.
    #[test]
    fn scratch_pool_round_trip(a in arb_set(), b in arb_set()) {
        let mut scratch = SpanScratch::new();
        let mut out = scratch.take();
        a.union_into(&b, &mut out);
        let expect = a.union(&b);
        prop_assert_eq!(&out, &expect);
        scratch.put(out);
        // Reuse the same (now dirty) pooled buffer for a different op.
        let mut out = scratch.take();
        a.difference_into(&b, &mut out);
        prop_assert_eq!(&out, &a.difference(&b));
        scratch.put(out);
        prop_assert_eq!(scratch.pooled(), 1);
    }

    /// Series flattening, size, and ratio agree with the definitional
    /// (sort + flatten) path for arbitrary, possibly overlapping events.
    #[test]
    fn series_fast_paths_match_flatten(spans in prop::collection::vec(arb_span(), 0..12), w in arb_span()) {
        let mut series: EventSeries<u32> = EventSeries::new();
        for (i, s) in spans.iter().enumerate() {
            series.push(*s, i as u32);
        }
        let reference = SpanSet::from_spans(spans.iter().copied());
        prop_assert_eq!(&series.view().to_span_set(), &reference);
        let mut out = SpanSet::from_span(Span::from_micros(0, 1)); // dirty
        series.view().span_set_into(&mut out);
        prop_assert_eq!(&out, &reference);
        prop_assert_eq!(series.view().size(), reference.size());
        prop_assert_eq!(series.view().ratio(w), reference.ratio(w));
    }
}
