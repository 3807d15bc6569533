//! Accuracy metrics: span overlap, loss-location confusion, timer
//! period error.
//!
//! All span metrics are computed in trace time (microseconds of
//! overlap), not per-span counts, so a long span weighs as much as it
//! delayed the transfer. Truth spans are recorded at the *sender*;
//! inferred spans at the *sniffer*. The two clocks are identical but
//! events propagate, so each side is dilated by a small tolerance
//! (about one RTT) before it is held against the other.

use tdat_packet::seq_diff;
use tdat_timeset::{Micros, Span, SpanSet};
use tdat_trace::SegLabel;

/// Time-weighted precision/recall of an inferred span set against the
/// ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanScore {
    /// Fraction of inferred time that overlaps (dilated) truth.
    pub precision: f64,
    /// Fraction of truth time that overlaps (dilated) inference.
    pub recall: f64,
    /// Total truth time, µs.
    pub truth_us: i64,
    /// Total inferred time, µs.
    pub inferred_us: i64,
}

impl SpanScore {
    /// True when the factor is material: either side amounts to at
    /// least `floor_us` of trace time. Sub-material factors (a few ms
    /// of slow-start in a transfer of minutes) are below passive
    /// resolution — edge tolerance dominates the overlap — and are
    /// reported but not held to the accuracy thresholds.
    pub fn material(&self, floor_us: i64) -> bool {
        self.truth_us >= floor_us || self.inferred_us >= floor_us
    }

    /// Harmonic mean of precision and recall. An empty-vs-empty
    /// comparison is a perfect (vacuous) 1.0.
    pub fn f1(&self) -> f64 {
        let (p, r) = (self.precision, self.recall);
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Scores `inferred` against `truth`, both clipped to `period`, with
/// symmetric edge tolerance.
pub fn span_score(
    truth: &SpanSet,
    inferred: &SpanSet,
    period: Span,
    tolerance: Micros,
) -> SpanScore {
    let truth = truth.clipped(period);
    let inferred = inferred.clipped(period);
    let truth_us = truth.size().as_micros();
    let inferred_us = inferred.size().as_micros();
    let precision = if inferred_us == 0 {
        1.0
    } else {
        let hit = inferred.intersection(&truth.dilated(tolerance)).size();
        hit.as_micros() as f64 / inferred_us as f64
    };
    let recall = if truth_us == 0 {
        1.0
    } else {
        let hit = truth.intersection(&inferred.dilated(tolerance)).size();
        hit.as_micros() as f64 / truth_us as f64
    };
    SpanScore {
        precision,
        recall,
        truth_us,
        inferred_us,
    }
}

/// Builds a [`SpanSet`] from raw truth spans, dropping spans shorter
/// than `min` (sub-threshold truth the analyzer never claims to see).
pub fn truth_set(spans: &[Span], min: Micros) -> SpanSet {
    SpanSet::from_spans(spans.iter().copied().filter(|s| s.duration() >= min))
}

/// Column indices of the loss confusion matrix.
pub const INFERRED_LOSS_CLASSES: [&str; 6] = [
    "upstream",
    "downstream",
    "spurious",
    "reordered",
    "probe",
    "missed",
];

/// Row indices (ground-truth drop location relative to the tap).
pub const TRUTH_LOSS_CLASSES: [&str; 2] = ["upstream", "downstream"];

/// Loss-location confusion matrix: rows are where a payload frame was
/// really dropped (relative to the sniffer tap); columns are how the
/// passive labeler classified the repair it observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LossMatrix {
    /// `cells[truth][inferred]` — see [`TRUTH_LOSS_CLASSES`] and
    /// [`INFERRED_LOSS_CLASSES`].
    pub cells: [[u64; 6]; 2],
    /// Inferred upstream losses matching no real drop.
    pub phantom_upstream: u64,
    /// Inferred downstream losses matching no real drop.
    pub phantom_downstream: u64,
}

impl LossMatrix {
    /// Sums another matrix into this one (sweep aggregation).
    pub fn add(&mut self, other: &LossMatrix) {
        for (row, orow) in self.cells.iter_mut().zip(&other.cells) {
            for (c, oc) in row.iter_mut().zip(orow) {
                *c += oc;
            }
        }
        self.phantom_upstream += other.phantom_upstream;
        self.phantom_downstream += other.phantom_downstream;
    }

    /// Unique dropped sequence ranges that were matched or missed.
    pub fn truth_total(&self) -> u64 {
        self.cells.iter().flatten().sum()
    }

    /// Drops attributed to the wrong side of the tap, plus inferred
    /// losses that never happened. (Unlocated repairs — spurious,
    /// reordered, probe, missed — are reported but not counted here.)
    pub fn misclassified(&self) -> u64 {
        self.cells[0][1] + self.cells[1][0] + self.phantom_upstream + self.phantom_downstream
    }
}

/// One labeled data segment from the analysis, in trace order.
#[derive(Debug, Clone)]
pub struct LabeledSeg {
    /// Capture time.
    pub time: Micros,
    /// Sequence range `[seq, seq_end)`.
    pub seq: u32,
    /// End of the range.
    pub seq_end: u32,
    /// The passive label.
    pub label: SegLabel,
}

/// A ground-truth payload drop (already classified by tap side).
#[derive(Debug, Clone, Copy)]
pub struct TruthDrop {
    /// When it was dropped.
    pub time: Micros,
    /// Sequence number of the dropped frame.
    pub seq: u32,
    /// `true` = upstream of the tap, `false` = downstream.
    pub upstream: bool,
}

fn covers(seg: &LabeledSeg, seq: u32) -> bool {
    seq_diff(seq, seg.seq) >= 0 && seq_diff(seg.seq_end, seq) > 0
}

/// Matches ground-truth drops against the labeler's verdicts.
///
/// Truth drops are deduplicated by sequence number (re-drops of the
/// same range are one observable loss episode at the sniffer); each is
/// matched to the first non-in-order label covering its sequence at or
/// after the drop. Loss labels covering no dropped sequence count as
/// phantoms.
pub fn loss_matrix(drops: &[TruthDrop], labeled: &[LabeledSeg]) -> LossMatrix {
    let mut m = LossMatrix::default();
    let mut seen: Vec<u32> = Vec::new();
    for d in drops {
        if seen.contains(&d.seq) {
            continue;
        }
        seen.push(d.seq);
        let col = labeled
            .iter()
            .find(|seg| {
                seg.time >= d.time && covers(seg, d.seq) && !matches!(seg.label, SegLabel::InOrder)
            })
            .map(|seg| match seg.label {
                SegLabel::UpstreamLoss(_) => 0,
                SegLabel::DownstreamLoss(_) => 1,
                SegLabel::SpuriousRetransmission(_) => 2,
                SegLabel::Reordered => 3,
                SegLabel::WindowProbe => 4,
                SegLabel::InOrder => unreachable!("filtered above"),
            })
            .unwrap_or(5);
        let row = if d.upstream { 0 } else { 1 };
        m.cells[row][col] += 1;
    }
    for seg in labeled {
        let located = match seg.label {
            SegLabel::UpstreamLoss(_) => Some(true),
            SegLabel::DownstreamLoss(_) => Some(false),
            _ => None,
        };
        if let Some(up) = located {
            if !drops.iter().any(|d| covers(seg, d.seq)) {
                if up {
                    m.phantom_upstream += 1;
                } else {
                    m.phantom_downstream += 1;
                }
            }
        }
    }
    m
}

/// Inferred-timer-period accuracy for a timer-paced scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimerScore {
    /// The interval the scenario configured.
    pub configured: Micros,
    /// The period the analyzer inferred, if any.
    pub inferred: Option<Micros>,
    /// `|inferred - configured| / configured`, if inferred.
    pub rel_error: Option<f64>,
}

impl TimerScore {
    /// Builds the score from configured and inferred periods.
    pub fn new(configured: Micros, inferred: Option<Micros>) -> TimerScore {
        let rel_error = inferred.map(|p| {
            (p.as_micros() - configured.as_micros()).abs() as f64 / configured.as_micros() as f64
        });
        TimerScore {
            configured,
            inferred,
            rel_error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_score_vacuous_and_exact() {
        let period = Span::from_micros(0, 1_000_000);
        let empty = SpanSet::new();
        let s = span_score(&empty, &empty, period, Micros(1000));
        assert_eq!(s.f1(), 1.0);

        let truth = SpanSet::from_span(Span::from_micros(100_000, 400_000));
        let s = span_score(&truth, &truth, period, Micros::ZERO);
        assert_eq!(s.f1(), 1.0);

        let s = span_score(&truth, &empty, period, Micros(1000));
        assert_eq!(s.f1(), 0.0);
        let s = span_score(&empty, &truth, period, Micros(1000));
        assert_eq!(s.f1(), 0.0);
    }

    #[test]
    fn span_score_tolerates_edge_skew() {
        let period = Span::from_micros(0, 1_000_000);
        let truth = SpanSet::from_span(Span::from_micros(100_000, 400_000));
        let shifted = SpanSet::from_span(Span::from_micros(102_000, 402_000));
        let s = span_score(&truth, &shifted, period, Micros(2_000));
        assert!(s.f1() > 0.99, "f1 {}", s.f1());
    }

    #[test]
    fn loss_matrix_matches_and_counts_phantoms() {
        let drops = [
            TruthDrop {
                time: Micros(1_000),
                seq: 5_000,
                upstream: true,
            },
            TruthDrop {
                time: Micros(1_000),
                seq: 5_000, // re-drop of the retransmission: same episode
                upstream: true,
            },
            TruthDrop {
                time: Micros(9_000),
                seq: 9_000,
                upstream: false,
            },
        ];
        let labeled = [
            LabeledSeg {
                time: Micros(2_000),
                seq: 4_000,
                seq_end: 5_448,
                label: SegLabel::UpstreamLoss(Span::from_micros(1_000, 2_000)),
            },
            LabeledSeg {
                time: Micros(12_000),
                seq: 9_000,
                seq_end: 10_448,
                label: SegLabel::DownstreamLoss(Span::from_micros(9_000, 12_000)),
            },
            LabeledSeg {
                time: Micros(20_000),
                seq: 50_000,
                seq_end: 51_448,
                label: SegLabel::DownstreamLoss(Span::from_micros(19_000, 20_000)),
            },
        ];
        let m = loss_matrix(&drops, &labeled);
        assert_eq!(m.cells[0][0], 1, "upstream drop located upstream");
        assert_eq!(m.cells[1][1], 1, "downstream drop located downstream");
        assert_eq!(m.truth_total(), 2, "re-drop deduplicated");
        assert_eq!(m.phantom_downstream, 1);
        assert_eq!(m.misclassified(), 1);
    }

    #[test]
    fn unmatched_truth_drop_is_missed() {
        let drops = [TruthDrop {
            time: Micros(1_000),
            seq: 5_000,
            upstream: true,
        }];
        let m = loss_matrix(&drops, &[]);
        assert_eq!(m.cells[0][5], 1);
        assert_eq!(m.cells[0][0] + m.cells[1][1], 0);
    }
}
